/**
 * @file
 * CheckpointStore on its own, over a bare object store with no
 * runtime: sharing of unchanged objects' copies (same bytes, equal
 * bytes, restored bytes), retention, write-time
 * verdicts and the generation selection that lookups and restores
 * share, erasure, deletions, and skipped writes; then restore
 * identity on the 23 Table 6 app replays.
 */

#include <algorithm>
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "apps/app_models.hh"
#include "apps/workload.hh"
#include "core/checkpoint_store.hh"
#include "core/runtime.hh"

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

    /** Overwrite an object in place (clones its bytes away from any
     *  snapshot sharing them). */
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
    return snap ? snap->data()[0] : -1;
}

TEST(CheckpointStore, CleanObjectsShareThePreviousCopy)
{
    StoreEnv env;
    uint64_t dirty = env.put(1);
    uint64_t clean = env.put(2); // never touched again
    CheckpointStore cps;
    EXPECT_EQ(cps.write(env.store).bytesSaved, 2 * kObjBytes);
    const fw::ObjectSnapshot *clean_copy = cps.lookup(clean);
    ASSERT_NE(clean_copy, nullptr);
    for (int i = 0; i < 5; ++i) {
        env.set(dirty, static_cast<uint8_t>(10 + i));
        CheckpointWrite w = cps.write(env.store);
        ASSERT_TRUE(w.taken);
        // Only the dirty object is serialized again; every generation
        // still holds both, the clean one as the very same copy.
        EXPECT_EQ(w.bytesSaved, kObjBytes) << i;
        EXPECT_EQ(cps.lookup(clean), clean_copy) << i;
        EXPECT_EQ(fillOf(cps.lookup(dirty)), 10 + i) << i;
        EXPECT_EQ(cps.restoreSet().objects.size(), 2u) << i;
    }
    // Nothing dirty: the generation is all shared copies.
    EXPECT_EQ(cps.write(env.store).bytesSaved, 0u);
    EXPECT_EQ(fillOf(cps.lookup(dirty)), 14);
}

TEST(CheckpointStore, RestoredObjectsShareTheirCopy)
{
    StoreEnv env;
    env.put(1);
    env.put(2);
    CheckpointStore cps;
    cps.write(env.store);
    CheckpointRestore restore = cps.restoreSet();
    // A restart rebuilds the store from the checkpoint: every object
    // moves to a fresh address but maps its entry's own bytes, so the
    // next generation shares every entry and copies nothing.
    std::vector<std::pair<uint64_t, fw::ObjectSnapshot>> copies;
    for (const auto &[id, snap] : restore.objects)
        copies.emplace_back(id, *snap);
    env.store.clear();
    for (const auto &[id, snap] : copies)
        env.store.restore(id, snap);
    const fw::ObjectSnapshot *before = cps.lookup(copies[0].first);
    EXPECT_EQ(cps.write(env.store).bytesSaved, 0u);
    EXPECT_EQ(cps.lookup(copies[0].first), before);
    EXPECT_EQ(fillOf(cps.lookup(copies[0].first)), 1);
}

TEST(CheckpointStore, ARewriteSharesOnlyEqualBytes)
{
    StoreEnv env;
    uint64_t id = env.put(1);
    CheckpointStore cps;
    cps.write(env.store);
    const fw::ObjectSnapshot *first = cps.lookup(id);

    // Rewriting the same bytes clones the mapping away from the entry,
    // yet the bytes compare equal: the entry is shared.
    env.set(id, 1);
    const osim::Mapping *m =
        env.kernel.process(env.pid).space().findMapping(
            env.store.get(id).addr);
    ASSERT_NE(m->backing, first->backing);
    EXPECT_EQ(cps.write(env.store).bytesSaved, 0u);
    EXPECT_EQ(cps.lookup(id), first);

    // Different bytes get a new entry.
    env.set(id, 2);
    EXPECT_EQ(cps.write(env.store).bytesSaved, kObjBytes);
    EXPECT_NE(cps.lookup(id), first);
    EXPECT_EQ(fillOf(cps.lookup(id)), 2);
}

TEST(CheckpointStore, RetentionKeepsTheNewestGenerations)
{
    StoreEnv env;
    uint64_t id = env.put(1);
    CheckpointStore cps;
    for (int i = 0; i < 6; ++i) {
        env.set(id, static_cast<uint8_t>(i));
        cps.write(env.store);
        EXPECT_EQ(cps.generations(),
                  std::min<size_t>(i + 1, kCheckpointGenerations));
    }
    EXPECT_EQ(fillOf(cps.lookup(id)), 5);
}

TEST(CheckpointStore, RestoreSkipsACorruptNewestGeneration)
{
    StoreEnv env;
    uint64_t id = env.put(1);
    CheckpointStore cps;
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

TEST(CheckpointStore, ACorruptEntryIsReSerializedByTheNextWrite)
{
    StoreEnv env;
    uint64_t id = env.put(1);
    env.put(2);
    CheckpointStore cps;
    cps.write(env.store);
    env.set(id, 3);
    EXPECT_EQ(env.corruptWrite(cps).bytesSaved, kObjBytes);
    ASSERT_EQ(cps.restoreSet().skipped, 1u);

    // The object did not change since, but its only new copy failed
    // verification: it is written again, and that generation restores.
    EXPECT_EQ(cps.write(env.store).bytesSaved, kObjBytes);
    CheckpointRestore restore = cps.restoreSet();
    EXPECT_EQ(restore.skipped, 0u);
    EXPECT_EQ(restore.objects.size(), 2u);
    EXPECT_EQ(fillOf(cps.lookup(id)), 3);
}

TEST(CheckpointStore, NoIntactGenerationLeavesNothingRestorable)
{
    StoreEnv env;
    uint64_t id = env.put(1);
    CheckpointStore cps;
    env.corruptWrite(cps);
    env.set(id, 2);
    env.corruptWrite(cps);

    EXPECT_EQ(cps.lookup(id), nullptr);
    CheckpointRestore restore = cps.restoreSet();
    EXPECT_EQ(restore.skipped, cps.generations());
    EXPECT_TRUE(restore.objects.empty());
}

TEST(CheckpointStore, ErasingTheOnlyCorruptEntryRestoresTheGeneration)
{
    StoreEnv env;
    uint64_t kept = env.put(1);
    uint64_t bad = env.put(2);
    CheckpointStore cps;
    cps.write(env.store);
    env.set(bad, 3);
    env.corruptWrite(cps); // `kept` shared, `bad` newly written, corrupt
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
    CheckpointStore cps;
    cps.write(env.store); // captures both
    env.store.erase(gone);
    cps.write(env.store); // `gone` is no longer live

    // The older generation still holds a copy, but the restorable
    // one decides what exists.
    EXPECT_EQ(cps.lookup(gone), nullptr);
    CheckpointRestore restore = cps.restoreSet();
    ASSERT_EQ(restore.objects.size(), 1u);
    EXPECT_EQ(restore.objects[0].first, kept);
}

TEST(CheckpointStore, ASkippedWriteLeavesTheChangeToTheNext)
{
    StoreEnv env;
    uint64_t dirty = env.put(1);
    env.put(2);
    CheckpointStore cps;
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
    EXPECT_EQ(next.bytesSaved, kObjBytes);
    EXPECT_EQ(fillOf(cps.lookup(dirty)), 5);
}

/** (Table 6 app index, pipelined): the app replayed on small frames,
 *  synchronously or through invokeAsync with pipelining and flip
 *  speculation. */
class RestoreIdentity
    : public ::testing::TestWithParam<std::tuple<size_t, bool>>
{};

TEST_P(RestoreIdentity, RestartRestoresEveryObjectByteForByte)
{
    static const fw::ApiRegistry registry = fw::buildFullRegistry();
    static const analysis::Categorization cats =
        analysis::HybridCategorizer(registry).categorizeAll();
    apps::WorkloadGenerator::Config wconfig;
    wconfig.imageRows = 64;
    wconfig.imageCols = 64;
    wconfig.tensorDim = 16;
    apps::WorkloadGenerator generator(registry, wconfig);
    osim::Kernel kernel;
    generator.seedInputs(kernel);
    auto [app, pipelined] = GetParam();
    RuntimeConfig config;
    config.pipelineParallel = pipelined;
    config.speculativeFlips = pipelined;
    FreePartRuntime runtime(kernel, registry, cats,
                            PartitionPlan::freePartDefault(), config);
    const apps::AppModel &model = apps::appModels().at(app);
    auto replay = [&] {
        if (pipelined) {
            generator.runAsync(runtime, model);
            runtime.drainAll();
        } else {
            generator.run(runtime, model);
        }
    };
    // Replay twice with a checkpoint of every agent in between, so
    // even an app too short for a periodic checkpoint has generations
    // whose unchanged objects the final one below shares.
    replay();
    for (uint32_t p = 0; p < runtime.plan().partitionCount(); ++p)
        runtime.checkpointAgent(p);
    replay();

    size_t compared = 0;
    for (uint32_t p = 0; p < runtime.plan().partitionCount(); ++p) {
        ASSERT_TRUE(runtime.agentAlive(p)) << p;
        // Change one byte of every live object after the last
        // checkpoint, so the final one must copy each object again: a
        // checkpoint that shared an entry the object no longer matches
        // would restore stale bytes.
        osim::AddressSpace &space =
            kernel.process(runtime.agentPid(p)).space();
        for (uint64_t id : runtime.storeOf(p).ids()) {
            const fw::StoredObject &obj = runtime.storeOf(p).get(id);
            if (obj.byteLen > 0)
                space.writeValue<uint8_t>(
                    obj.addr,
                    static_cast<uint8_t>(
                        ~space.readValue<uint8_t>(obj.addr)));
        }
        runtime.checkpointAgent(p);
        std::map<uint64_t, std::vector<uint8_t>> live;
        for (uint64_t id : runtime.storeOf(p).ids())
            live.emplace(id, runtime.storeOf(p).serialize(id));
        kernel.faultProcess(kernel.process(runtime.agentPid(p)),
                            "induced");
        ASSERT_TRUE(runtime.restartAgent(p)) << p;
        EXPECT_EQ(runtime.storeOf(p).count(), live.size()) << p;
        for (const auto &[id, bytes] : live) {
            ASSERT_TRUE(runtime.storeOf(p).has(id)) << p << "/" << id;
            EXPECT_EQ(runtime.storeOf(p).serialize(id), bytes)
                << p << "/" << id;
            ++compared;
        }
    }
    EXPECT_GT(compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    TableSixApps, RestoreIdentity,
    ::testing::Combine(
        ::testing::Range<size_t>(0, apps::appModels().size()),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>> &info) {
        return std::string(std::get<1>(info.param) ? "async" : "sync") +
               "_app" + std::to_string(std::get<0>(info.param) + 1);
    });

} // namespace
} // namespace freepart::core
