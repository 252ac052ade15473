#include "fw/object_store.hh"

#include "util/logging.hh"

namespace freepart::fw {

ObjectStore::ObjectStore(osim::Kernel &kernel, osim::Pid pid,
                         uint64_t *id_counter)
    : kernel(kernel), pid_(pid), idCounter(id_counter)
{
    if (!id_counter)
        util::panic("ObjectStore: null id counter");
    bindObserver();
}

ObjectStore::~ObjectStore()
{
    // The kernel (and its processes) outlive the runtime that owns
    // this store; leave no dangling observer behind.
    kernel.process(pid_).space().setWriteObserver(nullptr);
}

void
ObjectStore::bindObserver()
{
    kernel.process(pid_).space().setWriteObserver(
        [this](osim::Addr addr, size_t len) { noteWrite(addr, len); });
}

void
ObjectStore::noteWrite(osim::Addr addr, size_t len)
{
    // Every mutating access advances the epoch, whether or not it
    // lands inside a registered object — the counter is a global
    // "time" for this process's memory, not a per-object one.
    ++writeEpoch_;
    auto it = byAddr.upper_bound(addr);
    if (it == byAddr.begin())
        return;
    --it;
    auto obj = objects.find(it->second);
    if (obj == objects.end())
        return;
    if (addr < obj->second.addr + obj->second.byteLen &&
        addr + len > obj->second.addr)
        obj->second.dirtyEpoch = writeEpoch_;
}

uint64_t
ObjectStore::put(StoredObject obj)
{
    uint64_t id = ++*idCounter;
    auto [it, ok] = objects.emplace(id, std::move(obj));
    byAddr[it->second.addr] = id;
    markDirty(it->second); // fresh objects are dirty by definition
    return id;
}

uint64_t
ObjectStore::putMat(const MatDesc &desc, const std::string &label)
{
    return put({.kind = ObjKind::Mat, .mat = desc, .tensor = {},
                .addr = desc.addr, .byteLen = desc.byteLen(),
                .label = label});
}

uint64_t
ObjectStore::putTensor(const TensorDesc &desc, const std::string &label)
{
    return put({.kind = ObjKind::Tensor, .mat = {}, .tensor = desc,
                .addr = desc.addr, .byteLen = desc.byteLen(),
                .label = label});
}

uint64_t
ObjectStore::putBytes(osim::Addr addr, size_t len,
                      const std::string &label)
{
    return put({.kind = ObjKind::Bytes, .mat = {}, .tensor = {},
                .addr = addr, .byteLen = len, .label = label});
}

const StoredObject &
ObjectStore::get(uint64_t id) const
{
    auto it = objects.find(id);
    if (it == objects.end())
        util::panic("ObjectStore(pid %u): unknown object %llu "
                    "(shard %u, index %llu)",
                    pid_, static_cast<unsigned long long>(id),
                    shardOfObjectId(id),
                    static_cast<unsigned long long>(
                        objectIdIndex(id)));
    return it->second;
}

const MatDesc &
ObjectStore::mat(uint64_t id) const
{
    const StoredObject &obj = get(id);
    if (obj.kind != ObjKind::Mat)
        util::panic("ObjectStore: object %llu is not a Mat",
                    static_cast<unsigned long long>(id));
    return obj.mat;
}

const TensorDesc &
ObjectStore::tensor(uint64_t id) const
{
    const StoredObject &obj = get(id);
    if (obj.kind != ObjKind::Tensor)
        util::panic("ObjectStore: object %llu is not a Tensor",
                    static_cast<unsigned long long>(id));
    return obj.tensor;
}

void
ObjectStore::erase(uint64_t id)
{
    auto it = objects.find(id);
    if (it == objects.end())
        return;
    auto by = byAddr.find(it->second.addr);
    if (by != byAddr.end() && by->second == id)
        byAddr.erase(by);
    objects.erase(it);
}

std::vector<uint8_t>
ObjectStore::serialize(uint64_t id) const
{
    const StoredObject &obj = get(id);
    const osim::AddressSpace &space = kernel.process(pid_).space();
    switch (obj.kind) {
      case ObjKind::Mat:
        return matToBytes(space, obj.mat);
      case ObjKind::Tensor:
        return tensorToBytes(space, obj.tensor);
      case ObjKind::Bytes: {
        std::vector<uint8_t> out(obj.byteLen);
        space.read(obj.addr, out.data(), obj.byteLen);
        return out;
      }
    }
    util::panic("ObjectStore::serialize: bad kind");
}

void
ObjectStore::restore(uint64_t id, const ObjectSnapshot &snap)
{
    osim::AddressSpace &space = kernel.process(pid_).space();
    StoredObject obj;
    obj.kind = snap.kind;
    obj.label = snap.label;
    switch (snap.kind) {
      case ObjKind::Mat:
        obj.mat = matFromBytes(space, snap.bytes, snap.label);
        obj.addr = obj.mat.addr;
        obj.byteLen = obj.mat.byteLen();
        break;
      case ObjKind::Tensor:
        obj.tensor = tensorFromBytes(space, snap.bytes, snap.label);
        obj.addr = obj.tensor.addr;
        obj.byteLen = obj.tensor.byteLen();
        break;
      case ObjKind::Bytes:
        obj.byteLen = snap.bytes.size();
        obj.addr = space.alloc(obj.byteLen ? obj.byteLen : 1,
                               osim::PermRW, snap.label);
        space.write(obj.addr, snap.bytes.data(), obj.byteLen);
        break;
    }
    // A re-materialize moves the object to a fresh buffer; the stale
    // address must stop resolving to this id.
    erase(id);
    StoredObject &stored = objects[id] = std::move(obj);
    byAddr[stored.addr] = id;
    markDirty(stored);
}

std::vector<uint64_t>
ObjectStore::ids() const
{
    std::vector<uint64_t> out;
    out.reserve(objects.size());
    for (const auto &[id, obj] : objects)
        out.push_back(id);
    return out;
}

} // namespace freepart::fw
