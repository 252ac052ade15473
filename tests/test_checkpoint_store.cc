/**
 * @file
 * CheckpointStore on its own, over a bare object store with no
 * runtime: the full/incremental cadence, retention, write-time
 * verdicts and the chain selection that lookups and restores share,
 * erasure, deletions, and skipped writes.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/checkpoint_store.hh"

namespace freepart::core {
namespace {

constexpr size_t kObjBytes = 64;

/** One process with an object store of byte objects, each filled
 *  with a single value so a snapshot's age is easy to read. */
struct StoreEnv {
    osim::Kernel kernel;
    osim::Pid pid = kernel.spawn("agent").pid();
    uint64_t counter = 0;
    fw::ObjectStore store{kernel, pid, &counter};
    osim::FaultInjector injector{1};

    uint64_t
    put(uint8_t fill)
    {
        osim::Addr addr =
            kernel.process(pid).space().alloc(kObjBytes, osim::PermRW);
        uint64_t id = store.putBytes(addr, kObjBytes, "obj");
        set(id, fill);
        return id;
    }

    /** Overwrite an object in place (marks it dirty). */
    void
    set(uint64_t id, uint8_t fill)
    {
        std::vector<uint8_t> bytes(kObjBytes, fill);
        kernel.process(pid).space().write(store.get(id).addr,
                                          bytes.data(), bytes.size());
    }

    CheckpointWrite
    corruptWrite(CheckpointStore &cps)
    {
        return cps.write(store, osim::FaultAction::Corrupt, &injector);
    }
};

/** Fill value of a snapshot taken by StoreEnv (-1 when absent). */
int
fillOf(const fw::ObjectSnapshot *snap)
{
    return snap ? snap->bytes.at(0) : -1;
}

TEST(CheckpointStore, FullGenerationEveryNthWrite)
{
    StoreEnv env;
    uint64_t dirty = env.put(1);
    env.put(2); // never touched again
    CheckpointStore cps(3);
    std::vector<bool> fulls;
    for (int i = 0; i < 7; ++i) {
        env.set(dirty, static_cast<uint8_t>(10 + i));
        CheckpointWrite w = cps.write(env.store);
        ASSERT_TRUE(w.taken);
        fulls.push_back(w.full);
        // A full saves both objects; an incremental only the dirty one.
        EXPECT_EQ(w.bytesSaved, (w.full ? 2 : 1) * kObjBytes) << i;
    }
    EXPECT_EQ(fulls, (std::vector<bool>{true, false, false, true, false,
                                        false, true}));
    EXPECT_EQ(fillOf(cps.lookup(dirty)), 16);

    CheckpointStore always(1);
    for (int i = 0; i < 4; ++i) {
        CheckpointWrite w = always.write(env.store);
        EXPECT_TRUE(w.full) << i;
        EXPECT_EQ(w.bytesSaved, 2 * kObjBytes);
    }
}

TEST(CheckpointStore, WriteAfterRestoreIsForcedFull)
{
    StoreEnv env;
    env.put(1);
    CheckpointStore cps(4);
    EXPECT_TRUE(cps.write(env.store).full);
    EXPECT_FALSE(cps.write(env.store).full);
    cps.requireFull();
    EXPECT_TRUE(cps.write(env.store).full);
    // The cadence restarts from the forced full generation.
    EXPECT_FALSE(cps.write(env.store).full);
    EXPECT_FALSE(cps.write(env.store).full);
    EXPECT_FALSE(cps.write(env.store).full);
    EXPECT_TRUE(cps.write(env.store).full);
}

TEST(CheckpointStore, RetentionKeepsWholeChainsBackToTheLastKeptFull)
{
    StoreEnv env;
    uint64_t id = env.put(1);
    for (uint32_t every : {1u, 2u, 3u}) {
        CheckpointStore cps(every);
        std::vector<bool> fulls; // oldest first
        for (int i = 0; i < 12; ++i) {
            env.set(id, static_cast<uint8_t>(i));
            fulls.push_back(cps.write(env.store).full);
            size_t kept = cps.generations();
            ASSERT_GE(fulls.size(), kept);
            std::vector<bool> retained(fulls.end() - kept, fulls.end());
            // The oldest retained generation is a full base: no
            // incremental is orphaned from the generation it extends.
            EXPECT_TRUE(retained.front()) << every << "/" << i;
            size_t full_count = static_cast<size_t>(
                std::count(retained.begin(), retained.end(), true));
            EXPECT_LE(full_count, kCheckpointGenerations);
            // Nothing newer than the kept fulls' chains is dropped.
            if (std::count(fulls.begin(), fulls.end(), true) >=
                static_cast<long>(kCheckpointGenerations)) {
                EXPECT_EQ(full_count, kCheckpointGenerations);
            }
        }
        EXPECT_EQ(fillOf(cps.lookup(id)), 11);
    }
}

TEST(CheckpointStore, ChainSelectionSkipsACorruptTop)
{
    StoreEnv env;
    uint64_t id = env.put(1);
    CheckpointStore cps(4);
    cps.write(env.store);
    env.set(id, 2);
    env.corruptWrite(cps);

    EXPECT_EQ(fillOf(cps.lookup(id)), 1);
    CheckpointRestore restore = cps.restoreSet();
    EXPECT_EQ(restore.skipped, 1u);
    ASSERT_EQ(restore.objects.size(), 1u);
    EXPECT_EQ(restore.objects[0].first, id);
    // Lookup and restore hand out the very same copy.
    EXPECT_EQ(restore.objects[0].second, cps.lookup(id));
}

TEST(CheckpointStore, ChainSelectionSkipsEveryCandidateAboveACorruptLink)
{
    StoreEnv env;
    uint64_t id = env.put(1);
    CheckpointStore cps(4);
    cps.write(env.store); // full, intact
    env.set(id, 2);
    env.corruptWrite(cps); // incremental, corrupt
    env.set(id, 3);
    cps.write(env.store); // incremental, intact but chained to it

    EXPECT_EQ(fillOf(cps.lookup(id)), 1);
    CheckpointRestore restore = cps.restoreSet();
    EXPECT_EQ(restore.skipped, 2u);
    ASSERT_EQ(restore.objects.size(), 1u);
    EXPECT_EQ(fillOf(restore.objects[0].second), 1);
}

TEST(CheckpointStore, ACorruptBaseLeavesNothingRestorable)
{
    StoreEnv env;
    uint64_t id = env.put(1);
    CheckpointStore cps(4);
    env.corruptWrite(cps); // the only full base
    env.set(id, 2);
    cps.write(env.store);
    env.set(id, 3);
    cps.write(env.store);

    EXPECT_EQ(cps.lookup(id), nullptr);
    CheckpointRestore restore = cps.restoreSet();
    EXPECT_EQ(restore.skipped, cps.generations());
    EXPECT_TRUE(restore.objects.empty());
}

TEST(CheckpointStore, ErasingTheOnlyCorruptEntryRestoresTheChain)
{
    StoreEnv env;
    uint64_t kept = env.put(1);
    uint64_t bad = env.put(2);
    CheckpointStore cps(4);
    cps.write(env.store);
    env.set(bad, 3);
    env.corruptWrite(cps); // incremental holding only `bad`, corrupt
    ASSERT_EQ(cps.restoreSet().skipped, 1u);

    cps.erase(bad);
    CheckpointRestore restore = cps.restoreSet();
    EXPECT_EQ(restore.skipped, 0u);
    ASSERT_EQ(restore.objects.size(), 1u);
    EXPECT_EQ(restore.objects[0].first, kept);
    EXPECT_EQ(cps.lookup(bad), nullptr);
    EXPECT_EQ(fillOf(cps.lookup(kept)), 1);
}

TEST(CheckpointStore, ADeletedObjectNeverResurrects)
{
    StoreEnv env;
    uint64_t kept = env.put(1);
    uint64_t gone = env.put(2);
    CheckpointStore cps(4);
    cps.write(env.store); // full: captures both
    env.store.erase(gone);
    cps.write(env.store); // incremental: `gone` is no longer live

    // The full base below still holds a copy, but the chain's top
    // decides what exists.
    EXPECT_EQ(cps.lookup(gone), nullptr);
    CheckpointRestore restore = cps.restoreSet();
    ASSERT_EQ(restore.objects.size(), 1u);
    EXPECT_EQ(restore.objects[0].first, kept);
}

TEST(CheckpointStore, SkippedWriteKeepsTheWatermark)
{
    StoreEnv env;
    uint64_t dirty = env.put(1);
    env.put(2);
    CheckpointStore cps(4);
    cps.write(env.store);
    env.set(dirty, 5);
    for (osim::FaultAction fault :
         {osim::FaultAction::Transient, osim::FaultAction::Crash}) {
        CheckpointWrite skipped = cps.write(env.store, fault);
        EXPECT_FALSE(skipped.taken);
        EXPECT_EQ(skipped.bytesSaved, 0u);
        EXPECT_EQ(cps.generations(), 1u);
    }
    EXPECT_EQ(fillOf(cps.lookup(dirty)), 1);

    // The skipped delta lands in the next generation.
    CheckpointWrite next = cps.write(env.store);
    EXPECT_TRUE(next.taken);
    EXPECT_FALSE(next.full);
    EXPECT_EQ(next.bytesSaved, kObjBytes);
    EXPECT_EQ(fillOf(cps.lookup(dirty)), 5);
}

} // namespace
} // namespace freepart::core
