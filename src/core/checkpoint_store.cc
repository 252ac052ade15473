#include "core/checkpoint_store.hh"

#include <algorithm>

#include "util/checksum.hh"

namespace freepart::core {

CheckpointWrite
CheckpointStore::write(const fw::ObjectStore &store,
                       osim::FaultAction fault,
                       osim::FaultInjector *injector)
{
    CheckpointWrite out;
    if (fault == osim::FaultAction::Transient ||
        fault == osim::FaultAction::Crash)
        return out; // skipped: old generations and the watermark stay
    out.taken = true;
    out.full = forceFull_ || gens_.empty() || fullEvery_ <= 1 ||
               incrementalsSinceFull_ + 1 >= fullEvery_;
    // Snapshot the epoch BEFORE serializing: a write racing the
    // checkpoint then looks dirty to the next one (safe side).
    uint64_t epoch = store.writeEpoch();

    Generation gen{out.full, store.ids(), {}, 0};
    for (uint64_t id : gen.liveIds) {
        if (!out.full && store.get(id).dirtyEpoch <= watermark_)
            continue; // unchanged since the watermark: skip
        CheckpointEntry entry{store.snapshot(id)};
        std::vector<uint8_t> &bytes = entry.snapshot.bytes;
        // Checksum before any corruption, verify as the generation is
        // sealed: bit-rot of the stored snapshot is exactly what the
        // verification must catch, and the bytes are never written
        // after this, so the verdict holds for every later use.
        uint64_t written = util::wideChecksum(bytes);
        out.bytesSaved += bytes.size();
        if (fault == osim::FaultAction::Corrupt && injector &&
            !bytes.empty())
            injector->corrupt(bytes);
        entry.intact = util::wideChecksum(bytes) == written;
        if (!entry.intact)
            ++gen.corruptEntries;
        gen.objects.emplace(id, std::move(entry));
    }
    gens_.push_front(std::move(gen));
    // Everything older than the kCheckpointGenerations-th full
    // generation can never be needed by a reconstruction.
    size_t fulls = 0;
    for (size_t i = 0; i < gens_.size(); ++i) {
        if (gens_[i].full && ++fulls == kCheckpointGenerations) {
            gens_.resize(i + 1);
            break;
        }
    }
    incrementalsSinceFull_ = out.full ? 0 : incrementalsSinceFull_ + 1;
    forceFull_ = false;
    watermark_ = epoch;
    return out;
}

CheckpointStore::Chain
CheckpointStore::restorableChain() const
{
    // A candidate is restorable when its whole chain — itself, the
    // incrementals below it, and the full base they extend — holds
    // no entry that failed verification when it was sealed.
    Chain chain;
    for (; chain.top < gens_.size(); ++chain.top) {
        size_t corrupt = 0;
        for (chain.base = chain.top; chain.base < gens_.size();
             ++chain.base) {
            corrupt += gens_[chain.base].corruptEntries;
            if (gens_[chain.base].full)
                break;
        }
        if (chain.base < gens_.size() && corrupt == 0)
            break;
    }
    return chain;
}

const fw::ObjectSnapshot *
CheckpointStore::newestIn(Chain chain, uint64_t id) const
{
    for (size_t j = chain.top; j <= chain.base; ++j) {
        auto it = gens_[j].objects.find(id);
        if (it != gens_[j].objects.end())
            return &it->second.snapshot;
    }
    return nullptr; // live at the snapshot but never captured
}

const fw::ObjectSnapshot *
CheckpointStore::lookup(uint64_t id) const
{
    Chain chain = restorableChain();
    if (chain.top == gens_.size() ||
        !std::binary_search(gens_[chain.top].liveIds.begin(),
                            gens_[chain.top].liveIds.end(), id))
        return nullptr;
    return newestIn(chain, id);
}

CheckpointRestore
CheckpointStore::restoreSet() const
{
    Chain chain = restorableChain();
    CheckpointRestore out{chain.top, {}};
    if (chain.top < gens_.size())
        for (uint64_t id : gens_[chain.top].liveIds)
            if (const fw::ObjectSnapshot *snap = newestIn(chain, id))
                out.objects.emplace_back(id, snap);
    return out;
}

void
CheckpointStore::erase(uint64_t id)
{
    for (Generation &gen : gens_) {
        auto it = gen.objects.find(id);
        if (it != gen.objects.end()) {
            if (!it->second.intact)
                --gen.corruptEntries;
            gen.objects.erase(it);
        }
        gen.liveIds.erase(std::remove(gen.liveIds.begin(),
                                      gen.liveIds.end(), id),
                          gen.liveIds.end());
    }
}

} // namespace freepart::core
