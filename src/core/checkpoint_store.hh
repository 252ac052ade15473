/**
 * @file
 * CheckpointStore: one agent's periodic state checkpoints (§4.4.2,
 * A.2.4). It owns the generations — each a complete snapshot of the
 * live set whose unchanged objects share the previous generation's
 * entries, and whose new entries share the objects' own bytes
 * copy-on-write — and the one rule that picks which generation a
 * lookup or a restore may use.
 */

#ifndef FREEPART_CORE_CHECKPOINT_STORE_HH
#define FREEPART_CORE_CHECKPOINT_STORE_HH

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "fw/object_store.hh"
#include "osim/fault_injection.hh"

namespace freepart::core {

/** Generations kept per agent, so a corrupted newest generation falls
 *  back to the previous good one at restore. */
constexpr size_t kCheckpointGenerations = 2;

/** What one CheckpointStore::write did, for the caller's counters. */
struct CheckpointWrite {
    bool taken = false; //!< false: an injected fault skipped it
    uint64_t bytesSaved = 0; //!< serialized size of the new entries
};

/** What a restart materializes: every id live in the restorable
 *  generation with its copy there (pointers valid until the next
 *  write or erase), and how many newer generations were skipped for
 *  a corrupt entry (all of them when none is restorable). */
struct CheckpointRestore {
    size_t skipped = 0;
    std::vector<std::pair<uint64_t, const fw::ObjectSnapshot *>> objects;
};

/** The checkpoint generations of one agent's object store. */
class CheckpointStore
{
  public:
    /**
     * Cut one generation of `store` holding every live object. An
     * object whose entry in the newest generation is intact and still
     * matches it (ObjectStore::matches) shares that entry; every other
     * one gets a new entry, a snapshot sharing the object's bytes. An
     * injected Transient or Crash skips the write; Corrupt has
     * `injector` corrupt a serialized copy of each new entry between
     * two checksums, and an entry whose checksums differ is not
     * intact. The newest kCheckpointGenerations generations are kept.
     */
    CheckpointWrite write(const fw::ObjectStore &store,
                          osim::FaultAction fault = osim::FaultAction::None,
                          osim::FaultInjector *injector = nullptr);

    /** Copy of `id` in the restorable generation; nullptr when that
     *  generation did not hold it live, so a deleted object never
     *  resurrects from an older generation. */
    const fw::ObjectSnapshot *lookup(uint64_t id) const;

    /** Exactly the ids lookup() vouches for, with the same copies. */
    CheckpointRestore restoreSet() const;

    /** Drop an object from every generation (eviction, speculation
     *  squash); a generation whose only corrupt entry goes is
     *  restorable again. */
    void erase(uint64_t id);

    /** Generations held. */
    size_t generations() const { return gens_.size(); }

  private:
    /** One object's copy and its seal-time verdict. The snapshot's
     *  bytes never change (a store to the object clones them away),
     *  so the verdict is final; only an injected Corrupt makes it
     *  false, and such an entry is never read. */
    struct CheckpointEntry {
        fw::ObjectSnapshot snapshot;
        bool intact = true;
    };

    /** Every object live at snapshot time, ascending by id, so a
     *  restore applies deletions. A corrupt entry is never shared. */
    struct Generation {
        std::vector<std::pair<uint64_t,
                              std::shared_ptr<const CheckpointEntry>>>
            objects;
        size_t corruptEntries = 0; //!< entries that are not intact
    };

    /** Index of the newest generation without a corrupt entry;
     *  generations() when there is none. */
    size_t restorable() const;

    std::deque<Generation> gens_; //!< newest first
};

} // namespace freepart::core

#endif // FREEPART_CORE_CHECKPOINT_STORE_HH
