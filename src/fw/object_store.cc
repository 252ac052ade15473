#include "fw/object_store.hh"

#include <cstring>

#include "util/logging.hh"

namespace freepart::fw {

size_t
ObjectSnapshot::size() const
{
    switch (kind) {
      case ObjKind::Mat:
        return kMatHeaderBytes + byteLen;
      case ObjKind::Tensor:
        return sizeof(uint32_t) * (1 + tensor.shape.size()) + byteLen;
      case ObjKind::Bytes:
        return byteLen;
    }
    util::panic("ObjectSnapshot::size: bad kind");
}

ObjectSnapshot
snapshotFromBytes(ObjKind kind, const std::vector<uint8_t> &bytes,
                  const std::string &label)
{
    ObjectSnapshot snap;
    snap.kind = kind;
    snap.label = label;
    size_t header = 0;
    switch (kind) {
      case ObjKind::Mat:
        snap.mat = parseMatHeader(bytes, "snapshotFromBytes");
        snap.byteLen = snap.mat.byteLen();
        header = kMatHeaderBytes;
        break;
      case ObjKind::Tensor:
        snap.tensor = parseTensorHeader(bytes, "snapshotFromBytes");
        snap.byteLen = snap.tensor.byteLen();
        header = sizeof(uint32_t) * (1 + snap.tensor.shape.size());
        break;
      case ObjKind::Bytes:
        snap.byteLen = bytes.size();
        break;
    }
    snap.backing =
        osim::copyToBacking(bytes.data() + header, snap.byteLen);
    return snap;
}

ObjectStore::ObjectStore(osim::Kernel &kernel, osim::Pid pid,
                         uint64_t *id_counter)
    : kernel(kernel), pid_(pid), idCounter(id_counter)
{
    if (!id_counter)
        util::panic("ObjectStore: null id counter");
}

uint64_t
ObjectStore::put(StoredObject obj)
{
    uint64_t id = ++*idCounter;
    objects.emplace(id, std::move(obj));
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
    const StoredObject &obj = it->second;
    osim::AddressSpace &space = kernel.process(pid_).space();
    if (space.wholeMapping(obj.addr, obj.byteLen))
        space.unmap(obj.addr);
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

ObjectSnapshot
ObjectStore::snapshot(uint64_t id) const
{
    const StoredObject &obj = get(id);
    const osim::AddressSpace &space = kernel.process(pid_).space();
    ObjectSnapshot snap;
    snap.kind = obj.kind;
    snap.label = obj.label;
    snap.mat = obj.mat;
    snap.tensor = obj.tensor;
    snap.mat.addr = snap.tensor.addr = osim::kNullAddr;
    snap.byteLen = obj.byteLen;
    // Checked as serialize() reads it.
    const uint8_t *bytes = space.checkedSpan(obj.addr, obj.byteLen);
    const osim::Mapping *m = space.wholeMapping(obj.addr, obj.byteLen);
    snap.backing =
        m ? m->backing : osim::copyToBacking(bytes, obj.byteLen);
    return snap;
}

void
ObjectStore::restore(uint64_t id, const ObjectSnapshot &snap)
{
    osim::AddressSpace &space = kernel.process(pid_).space();
    StoredObject obj;
    obj.kind = snap.kind;
    obj.label = snap.label;
    obj.mat = snap.mat;
    obj.tensor = snap.tensor;
    obj.byteLen = snap.byteLen;
    obj.addr = space.mapCopyOnWrite(snap.backing, osim::PermRW,
                                    snap.label);
    if (obj.kind == ObjKind::Mat)
        obj.mat.addr = obj.addr;
    else if (obj.kind == ObjKind::Tensor)
        obj.tensor.addr = obj.addr;
    // A re-materialize moves the object to a fresh address; the stale
    // one must stop resolving to this id.
    erase(id);
    objects[id] = std::move(obj);
}

bool
ObjectStore::matches(uint64_t id, const ObjectSnapshot &snap) const
{
    const StoredObject &obj = get(id);
    const osim::AddressSpace &space = kernel.process(pid_).space();
    const uint8_t *bytes = space.checkedSpan(obj.addr, obj.byteLen);
    // Any store since the snapshot cloned the mapping away from it.
    const osim::Mapping *m = space.findMapping(obj.addr);
    if (m->backing == snap.backing)
        return true;
    if (obj.kind != snap.kind || obj.byteLen != snap.byteLen)
        return false;
    bool same_shape = true;
    if (obj.kind == ObjKind::Mat)
        same_shape = obj.mat.rows == snap.mat.rows &&
                     obj.mat.cols == snap.mat.cols &&
                     obj.mat.channels == snap.mat.channels;
    else if (obj.kind == ObjKind::Tensor)
        same_shape = obj.tensor.shape == snap.tensor.shape;
    return same_shape &&
           (obj.byteLen == 0 ||
            std::memcmp(bytes, snap.data(), obj.byteLen) == 0);
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
