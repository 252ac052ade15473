/**
 * @file
 * Per-process table of framework data objects (Mats, Tensors, raw
 * byte regions). Object ids are globally unique across a runtime so a
 * wire ObjectRef (partition, id) names exactly one object — the
 * bookkeeping behind Lazy Data Copy (§4.3.2), matching the paper's
 * map_set()/map_get() in the agent request handlers (Fig. 10-(c)).
 */

#ifndef FREEPART_FW_OBJECT_STORE_HH
#define FREEPART_FW_OBJECT_STORE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fw/mat.hh"
#include "fw/tensor.hh"
#include "osim/kernel.hh"

namespace freepart::fw {

// ---- Object-id namespacing ------------------------------------------
//
// Object ids are only unique within one id counter. When several
// runtimes coexist (a shard cluster, or simply two runtimes in one
// process), each counter must mint from a disjoint namespace or two
// runtimes would hand out identical ids and cross-runtime references
// (LDC migration, replica restore) would silently alias. The high
// bits of every id carry the namespace ("shard id"); the low bits are
// the per-namespace running index.

/** High bits of an object id reserved for the shard namespace. */
constexpr uint32_t kObjectIdShardBits = 16;

/** Bit position of the shard namespace within an object id. */
constexpr uint32_t kObjectIdShardShift = 64 - kObjectIdShardBits;

/** First id of a shard's namespace (the value an id counter must be
 *  initialized to so every minted id carries the stamp). */
constexpr uint64_t
objectIdNamespace(uint32_t shard_id)
{
    return static_cast<uint64_t>(shard_id &
                                 ((1u << kObjectIdShardBits) - 1))
           << kObjectIdShardShift;
}

/** Shard namespace an object id was minted in. */
constexpr uint32_t
shardOfObjectId(uint64_t object_id)
{
    return static_cast<uint32_t>(object_id >> kObjectIdShardShift);
}

/** Per-namespace running index of an object id. */
constexpr uint64_t
objectIdIndex(uint64_t object_id)
{
    return object_id & ((1ull << kObjectIdShardShift) - 1);
}

/** Kinds of stored framework objects. */
enum class ObjKind : uint8_t { Mat, Tensor, Bytes };

/**
 * An object's contents detached from any process: what LDC moves
 * between stores and what checkpoints, replicas and speculative
 * squashes keep. Taking one copies nothing: `backing` is the object's
 * own mapping, shared copy-on-write, so a later store to the object
 * (or to a copy mapped back from the snapshot) clones the bytes first
 * and the snapshot never changes. The kind, label and shape are what
 * mapping it back needs.
 */
struct ObjectSnapshot {
    ObjKind kind = ObjKind::Bytes;
    std::string label;
    MatDesc mat;           //!< shape when kind == Mat (addr unset)
    TensorDesc tensor;     //!< shape when kind == Tensor (addr unset)
    size_t byteLen = 0;    //!< object bytes at the start of backing
    osim::Backing backing; //!< whole pages, never written

    /** Length of the object's serialized form (header and bytes), the
     *  figure every copy is charged and counted by. */
    size_t size() const;

    /** The object's bytes (byteLen of them). */
    const uint8_t *data() const { return backing->data(); }
};

/**
 * Parse an object's serialized form (ObjectStore::serialize()) into a
 * snapshot with its own backing, as a Deliver frame is absorbed.
 * @throws util::FatalError on malformed bytes.
 */
ObjectSnapshot snapshotFromBytes(ObjKind kind,
                                 const std::vector<uint8_t> &bytes,
                                 const std::string &label);

/** One entry in an ObjectStore. */
struct StoredObject {
    ObjKind kind = ObjKind::Bytes;
    MatDesc mat;        //!< valid when kind == Mat
    TensorDesc tensor;  //!< valid when kind == Tensor
    osim::Addr addr = osim::kNullAddr; //!< buffer base (all kinds)
    size_t byteLen = 0; //!< buffer length (all kinds)
    std::string label;  //!< debug label
};

/**
 * Object table bound to one process's address space. The runtime
 * creates one store per partition (and one for the host) and shares a
 * single id counter across them.
 */
class ObjectStore
{
  public:
    /**
     * @param kernel      Owning kernel.
     * @param pid         Process whose space holds the objects.
     * @param id_counter  Shared monotonically increasing id source.
     */
    ObjectStore(osim::Kernel &kernel, osim::Pid pid,
                uint64_t *id_counter);

    ObjectStore(const ObjectStore &) = delete;
    ObjectStore &operator=(const ObjectStore &) = delete;

    osim::Pid pid() const { return pid_; }

    /** Register a materialized Mat; returns its new object id. */
    uint64_t putMat(const MatDesc &desc, const std::string &label = "");

    /** Register a materialized Tensor. */
    uint64_t putTensor(const TensorDesc &desc,
                       const std::string &label = "");

    /** Register a raw byte region. */
    uint64_t putBytes(osim::Addr addr, size_t len,
                      const std::string &label = "");

    bool has(uint64_t id) const { return objects.count(id) > 0; }

    /** Look up an object; panics on unknown id. */
    const StoredObject &get(uint64_t id) const;

    /** Fetch a Mat descriptor; panics if id is not a Mat. */
    const MatDesc &mat(uint64_t id) const;

    /** Fetch a Tensor descriptor; panics if id is not a Tensor. */
    const TensorDesc &tensor(uint64_t id) const;

    /**
     * Drop an object and unmap the mapping it fills, so its bytes are
     * released unless a snapshot still shares them. Addresses are
     * never reused, so a stale access faults. An object that is only
     * part of a mapping leaves the mapping alone.
     */
    void erase(uint64_t id);

    /** Serialize an object's header+data (for eager RPC transfer). */
    std::vector<uint8_t> serialize(uint64_t id) const;

    /** Detach an object's contents (panics on unknown id): share its
     *  mapping, or copy an object that is only part of one. */
    ObjectSnapshot snapshot(uint64_t id) const;

    /** Map a snapshot copy-on-write into this store's process under
     *  its original id, so refs keep resolving after a cross-process
     *  move (a held id moves to a fresh address). */
    void restore(uint64_t id, const ObjectSnapshot &snap);

    /** True if `id` still holds exactly `snap`'s contents: the same
     *  bytes it was snapshotted from, or equal ones. */
    bool matches(uint64_t id, const ObjectSnapshot &snap) const;

    /** Number of live objects. */
    size_t count() const { return objects.size(); }

    /** All live object ids, ascending. */
    std::vector<uint64_t> ids() const;

    /** Remove everything (used on agent respawn). */
    void clear() { objects.clear(); }

  private:
    /** Register a fresh object under a newly minted id. */
    uint64_t put(StoredObject obj);

    osim::Kernel &kernel;
    osim::Pid pid_;
    uint64_t *idCounter;
    std::map<uint64_t, StoredObject> objects;
};

} // namespace freepart::fw

#endif // FREEPART_FW_OBJECT_STORE_HH
