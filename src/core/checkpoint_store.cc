#include "core/checkpoint_store.hh"

#include <algorithm>

#include "util/checksum.hh"

namespace freepart::core {

namespace {

/** Entry of `id` in an id-sorted generation, or its end(). */
template <typename Objects>
auto
findId(Objects &objects, uint64_t id)
{
    auto it = std::lower_bound(
        objects.begin(), objects.end(), id,
        [](const auto &entry, uint64_t key) { return entry.first < key; });
    return it != objects.end() && it->first == id ? it : objects.end();
}

} // namespace

CheckpointWrite
CheckpointStore::write(const fw::ObjectStore &store,
                       osim::FaultAction fault,
                       osim::FaultInjector *injector)
{
    CheckpointWrite out;
    if (fault == osim::FaultAction::Transient ||
        fault == osim::FaultAction::Crash)
        return out; // skipped: the old generations stay
    out.taken = true;

    Generation gen;
    const Generation none;
    const auto &prev = gens_.empty() ? none.objects : gens_.front().objects;
    for (uint64_t id : store.ids()) { // ascending: gen stays sorted
        auto shared = findId(prev, id);
        if (shared != prev.end() && shared->second->intact &&
            store.matches(id, shared->second->snapshot)) {
            gen.objects.emplace_back(id, shared->second); // unchanged
            continue;
        }
        auto entry = std::make_shared<CheckpointEntry>();
        entry->snapshot = store.snapshot(id);
        out.bytesSaved += entry->snapshot.size();
        // The entry shares the object's bytes copy-on-write, so it is
        // intact by construction. An injected bit-rot is simulated on
        // a throwaway serialized copy: checksum it, corrupt it, and
        // check again as the seal would, then mark the entry not
        // intact; its bytes are never read.
        if (fault == osim::FaultAction::Corrupt && injector &&
            entry->snapshot.size() > 0) {
            std::vector<uint8_t> bytes = store.serialize(id);
            uint64_t written = util::wideChecksum(bytes);
            injector->corrupt(bytes);
            entry->intact = util::wideChecksum(bytes) == written;
        }
        if (!entry->intact)
            ++gen.corruptEntries;
        gen.objects.emplace_back(id, std::move(entry));
    }
    gens_.push_front(std::move(gen));
    if (gens_.size() > kCheckpointGenerations)
        gens_.pop_back();
    return out;
}

size_t
CheckpointStore::restorable() const
{
    size_t top = 0;
    while (top < gens_.size() && gens_[top].corruptEntries > 0)
        ++top;
    return top;
}

const fw::ObjectSnapshot *
CheckpointStore::lookup(uint64_t id) const
{
    size_t top = restorable();
    if (top == gens_.size())
        return nullptr;
    const auto &objects = gens_[top].objects;
    auto it = findId(objects, id);
    return it == objects.end() ? nullptr : &it->second->snapshot;
}

CheckpointRestore
CheckpointStore::restoreSet() const
{
    CheckpointRestore out{restorable(), {}};
    if (out.skipped < gens_.size())
        for (const auto &[id, entry] : gens_[out.skipped].objects)
            out.objects.emplace_back(id, &entry->snapshot);
    return out;
}

void
CheckpointStore::erase(uint64_t id)
{
    for (Generation &gen : gens_) {
        auto it = findId(gen.objects, id);
        if (it == gen.objects.end())
            continue;
        if (!it->second->intact)
            --gen.corruptEntries;
        gen.objects.erase(it);
    }
}

} // namespace freepart::core
