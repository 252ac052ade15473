/**
 * @file
 * CheckpointStore: one agent's periodic state checkpoints (§4.4.2,
 * A.2.4). It owns the generation chain — dirty-epoch full and
 * incremental generations, verified once when sealed — and the one
 * rule that picks which generations a lookup or a restore may use.
 */

#ifndef FREEPART_CORE_CHECKPOINT_STORE_HH
#define FREEPART_CORE_CHECKPOINT_STORE_HH

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "fw/object_store.hh"
#include "osim/fault_injection.hh"

namespace freepart::core {

/** Full chains kept per agent, so a corrupted newest chain falls back
 *  to the previous good one at restore. */
constexpr size_t kCheckpointGenerations = 2;

/** What one CheckpointStore::write did, for the caller's counters. */
struct CheckpointWrite {
    bool taken = false; //!< false: an injected fault skipped it
    bool full = false;
    uint64_t bytesSaved = 0;
};

/** What a restart materializes: every id live at the restorable
 *  chain's top with its newest copy in the chain (pointers valid
 *  until the next write or erase), and how many newer candidates were
 *  skipped for a corrupt link (all of them when none is restorable). */
struct CheckpointRestore {
    size_t skipped = 0;
    std::vector<std::pair<uint64_t, const fw::ObjectSnapshot *>> objects;
};

/** The checkpoint chain of one agent's object store. */
class CheckpointStore
{
  public:
    /** @param full_every  Every Nth write is a full generation; the
     *         ones between are incrementals (1 = always full). */
    explicit CheckpointStore(uint32_t full_every = 1)
        : fullEvery_(full_every)
    {}

    /**
     * Cut one generation of `store`: full on the cadence, after
     * requireFull() or when nothing is kept yet, else only the objects
     * dirtied since the last write. An injected Transient or Crash
     * skips the write and keeps the watermark; Corrupt has `injector`
     * corrupt each entry between its checksum and the seal. Every
     * generation back to the kCheckpointGenerations-th full one is
     * kept, so no incremental loses its base.
     */
    CheckpointWrite write(const fw::ObjectStore &store,
                          osim::FaultAction fault = osim::FaultAction::None,
                          osim::FaultInjector *injector = nullptr);

    /** The store was rebuilt without incremental lineage (a restart):
     *  the next write must be full. */
    void requireFull() { forceFull_ = true; }

    /** Newest copy of `id` in the restorable chain when the chain's
     *  top held it live, so a deleted object never resurrects from an
     *  older generation; nullptr otherwise. */
    const fw::ObjectSnapshot *lookup(uint64_t id) const;

    /** Exactly the ids lookup() vouches for, with the same copies. */
    CheckpointRestore restoreSet() const;

    /** Drop an object from every generation (eviction, speculation
     *  squash); a chain whose only corrupt entry goes is restorable
     *  again. */
    void erase(uint64_t id);

    /** Generations held. */
    size_t generations() const { return gens_.size(); }

  private:
    /** One object's copy and its seal-time verdict; the bytes are
     *  never written after the seal, so the verdict is final. */
    struct CheckpointEntry {
        fw::ObjectSnapshot snapshot;
        bool intact = true;
    };

    /** A full generation holds every live object, an incremental one
     *  only those dirtied since the previous write. liveIds (ascending)
     *  is the live set at snapshot time, so restores apply deletions. */
    struct Generation {
        bool full = false;
        std::vector<uint64_t> liveIds;
        std::map<uint64_t, CheckpointEntry> objects;
        size_t corruptEntries = 0; //!< entries that are not intact
    };

    /** Generations [top, base], newest first: a candidate and the
     *  nearest full generation at or below it. */
    struct Chain {
        size_t top = 0;
        size_t base = 0;
    };

    /** The newest candidate whose every link down to its base was
     *  intact; top == generations() when there is none. */
    Chain restorableChain() const;
    /** Newest copy of `id` inside `chain`, if a link captured it. */
    const fw::ObjectSnapshot *newestIn(Chain chain, uint64_t id) const;

    uint32_t fullEvery_;
    std::deque<Generation> gens_; //!< newest first
    uint64_t watermark_ = 0;      //!< store epoch the newest covers
    uint32_t incrementalsSinceFull_ = 0;
    bool forceFull_ = false;
};

} // namespace freepart::core

#endif // FREEPART_CORE_CHECKPOINT_STORE_HH
