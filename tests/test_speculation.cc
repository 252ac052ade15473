/**
 * @file
 * Speculative execution past protection flips (DESIGN.md §15):
 * byte-identity and determinism of speculative replays, the
 * snapshot rollback path (forced-conflict squash, nested pending
 * flips, speculation across an agent restart), and the pre-PR
 * pinning baseline proving that with both gates off the runtime
 * reproduces the Table 9 accounting and all 23 app digests
 * bit-for-bit.
 */

#include <gtest/gtest.h>

#include "apps/app_models.hh"
#include "apps/workload.hh"
#include "core/runtime.hh"
#include "util/checksum.hh"

namespace freepart::core {
namespace {

struct SpecEnv {
    SpecEnv() : registry(fw::buildFullRegistry())
    {
        analysis::HybridCategorizer categorizer(registry);
        cats = categorizer.categorizeAll();
    }

    /** A runtime bundled with the kernel it runs on. */
    struct Rt {
        std::unique_ptr<osim::Kernel> kernel;
        std::unique_ptr<FreePartRuntime> runtime;
        FreePartRuntime *operator->() { return runtime.get(); }
        FreePartRuntime &operator*() { return *runtime; }
    };

    Rt
    makeRuntime(RuntimeConfig config = {})
    {
        Rt rt;
        rt.kernel = std::make_unique<osim::Kernel>();
        fw::seedFixtureFiles(*rt.kernel);
        rt.runtime = std::make_unique<FreePartRuntime>(
            *rt.kernel, registry, cats,
            PartitionPlan::freePartDefault(), config);
        return rt;
    }

    /** Replay one Table 6 app against a fresh runtime. */
    apps::WorkloadResult
    replayApp(size_t model_index, bool pipeline, bool spec)
    {
        apps::WorkloadGenerator::Config wconfig;
        wconfig.imageRows = 64;
        wconfig.imageCols = 64;
        wconfig.tensorDim = 16;
        wconfig.maxRounds = 3;
        wconfig.maxCallsPerRound = 2;
        apps::WorkloadGenerator generator(registry, wconfig);
        kernel = std::make_unique<osim::Kernel>();
        generator.seedInputs(*kernel);
        RuntimeConfig config;
        config.pipelineParallel = pipeline;
        config.speculativeFlips = spec;
        FreePartRuntime runtime(*kernel, registry, cats,
                                PartitionPlan::freePartDefault(),
                                config);
        const apps::AppModel &model =
            apps::appModels().at(model_index);
        return pipeline ? generator.runAsync(runtime, model)
                        : generator.run(runtime, model);
    }

    fw::ApiRegistry registry;
    analysis::Categorization cats;
    std::unique_ptr<osim::Kernel> kernel;
};

SpecEnv &
env()
{
    static SpecEnv instance;
    return instance;
}

ipc::Value
imreadArg()
{
    return ipc::Value(std::string("/data/test.fpim"));
}

ipc::Value
u64(uint64_t v)
{
    return ipc::Value(v);
}

/** Issue an async call and peek its (eagerly produced) first ref. */
ipc::Value
callRef(FreePartRuntime &runtime, const std::string &api,
        ipc::ValueList args)
{
    CallTicket ticket = runtime.invokeAsync(api, std::move(args));
    const ApiResult *res = runtime.peekResult(ticket);
    EXPECT_NE(res, nullptr);
    if (!res)
        return ipc::Value();
    EXPECT_TRUE(res->ok) << res->error;
    if (!res->ok || res->values.empty())
        return ipc::Value();
    return res->values[0];
}

/**
 * Pre-PR baseline for all 23 Table 6 apps with both gates off
 * (pipelineParallel=false, speculativeFlips=false): final-object
 * digest plus the Table 9 accounting (elapsed, IPC messages, bytes
 * transferred, protection flips), captured on the commit preceding
 * the speculation work. The gate-off path must keep reproducing
 * these bit-for-bit.
 */
struct PinnedApp {
    int id;
    uint64_t digest;
    uint64_t hasFinal;
    uint64_t elapsed;
    uint64_t ipcMessages;
    uint64_t bytesTransferred;
    uint64_t protectionFlips;
};

constexpr PinnedApp kPinnedBaseline[] = {
    {1, 10419491173088401866ull, 1, 2121233, 36, 573486, 2},
    {2, 11375247172328803975ull, 1, 975701, 36, 129123, 2},
    {3, 10204070634842719979ull, 1, 980275, 36, 125028, 2},
    {4, 66799739783162451ull, 1, 352059, 16, 50088, 0},
    {5, 5671517318878080712ull, 1, 2176493, 48, 445132, 2},
    {6, 15701432803513851916ull, 1, 1323737, 24, 560482, 2},
    {7, 5671517318878080712ull, 1, 2098193, 36, 419886, 2},
    {8, 11375247172328803975ull, 1, 975403, 36, 129104, 2},
    {9, 8819781630537175346ull, 1, 911115, 36, 68916, 2},
    {10, 8819781630537175346ull, 1, 781479, 30, 79892, 2},
    {11, 17032319491563530885ull, 1, 265386, 12, 17483, 0},
    {12, 15249180925137261220ull, 1, 750108, 36, 23631, 2},
    {13, 763387502086238240ull, 1, 620358, 30, 10970, 2},
    {14, 1546770538989743976ull, 1, 623248, 30, 23043, 2},
    {15, 9180396819245299624ull, 1, 620358, 30, 10970, 2},
    {16, 14819616210041146916ull, 1, 750108, 36, 23631, 2},
    {17, 12552524467909047916ull, 1, 462309, 24, 9027, 1},
    {18, 6965401261650142748ull, 1, 620358, 30, 11008, 2},
    {19, 12552524467909047916ull, 1, 430385, 20, 8125, 1},
    {20, 7982155967305217763ull, 1, 758471, 30, 41594, 2},
    {21, 6956354913011216515ull, 1, 739029, 30, 41620, 2},
    {22, 2478482757173575011ull, 1, 741919, 30, 53628, 2},
    {23, 4287700340724656579ull, 1, 761361, 30, 53592, 2},
};

TEST(Speculation, GatesOffReproducePinnedBaseline)
{
    const auto &models = apps::appModels();
    ASSERT_EQ(models.size(), std::size(kPinnedBaseline));
    for (size_t i = 0; i < models.size(); ++i) {
        const PinnedApp &pin = kPinnedBaseline[i];
        ASSERT_EQ(models[i].id, pin.id);
        apps::WorkloadResult r = env().replayApp(i, false, false);
        EXPECT_EQ(r.finalDigest, pin.digest) << models[i].name;
        EXPECT_EQ(r.hasFinalObject ? 1u : 0u, pin.hasFinal)
            << models[i].name;
        EXPECT_EQ(r.stats.elapsed(), pin.elapsed) << models[i].name;
        EXPECT_EQ(r.stats.ipcMessages, pin.ipcMessages)
            << models[i].name;
        EXPECT_EQ(r.stats.bytesTransferred, pin.bytesTransferred)
            << models[i].name;
        EXPECT_EQ(r.stats.protectionFlips, pin.protectionFlips)
            << models[i].name;
    }
}

TEST(Speculation, GateOffLeavesSpeculationCountersZero)
{
    // Pipeline mode without the speculation gate must not speculate:
    // the pre-PR async semantics (and its Table 9 deltas) stay
    // untouched, and every speculation counter reads zero.
    apps::WorkloadResult sync = env().replayApp(1, false, false);
    apps::WorkloadResult nospec = env().replayApp(1, true, false);
    EXPECT_EQ(sync.finalDigest, nospec.finalDigest);
    EXPECT_EQ(nospec.stats.speculationStarts, 0u);
    EXPECT_EQ(nospec.stats.speculationCommits, 0u);
    EXPECT_EQ(nospec.stats.speculationRollbacks, 0u);
    EXPECT_EQ(nospec.stats.squashedWriteBytes, 0u);
    EXPECT_EQ(nospec.stats.speculativeFetches, 0u);
    EXPECT_EQ(nospec.stats.recoveredBarrierTime, 0u);
}

TEST(Speculation, SpeculativeReplayIsByteIdentical)
{
    // FaceTracker: a multi-round load->process->visualize/store app.
    apps::WorkloadResult sync = env().replayApp(1, false, false);
    apps::WorkloadResult spec = env().replayApp(1, true, true);
    ASSERT_EQ(sync.callsFailed, 0u);
    ASSERT_EQ(spec.callsFailed, 0u);
    EXPECT_EQ(sync.finalDigest, spec.finalDigest);
    EXPECT_GT(spec.stats.speculativeFetches, 0u);
    EXPECT_GT(spec.stats.recoveredBarrierTime, 0u);
    EXPECT_LT(spec.stats.elapsed(), sync.stats.elapsed());
    // The ledger always balances: every speculative call either
    // commits or rolls back.
    EXPECT_EQ(spec.stats.speculationStarts,
              spec.stats.speculationCommits +
                  spec.stats.speculationRollbacks);
}

TEST(Speculation, SpeculativeReplayBeatsBarrierOverlap)
{
    apps::WorkloadResult nospec = env().replayApp(1, true, false);
    apps::WorkloadResult spec = env().replayApp(1, true, true);
    EXPECT_EQ(nospec.finalDigest, spec.finalDigest);
    EXPECT_GT(spec.stats.overlapFraction(),
              nospec.stats.overlapFraction());
    EXPECT_LE(spec.stats.elapsed(), nospec.stats.elapsed());
}

TEST(Speculation, SpeculativeReplayIsDeterministic)
{
    apps::WorkloadResult a = env().replayApp(1, true, true);
    apps::WorkloadResult b = env().replayApp(1, true, true);
    EXPECT_EQ(a.finalDigest, b.finalDigest);
    EXPECT_EQ(a.stats.elapsed(), b.stats.elapsed());
    EXPECT_EQ(a.stats.ipcMessages, b.stats.ipcMessages);
    EXPECT_EQ(a.stats.speculationStarts, b.stats.speculationStarts);
    EXPECT_EQ(a.stats.speculationRollbacks,
              b.stats.speculationRollbacks);
}

/**
 * Run the forced-conflict trace: blur a frame into the chain, fetch
 * it to the host (opens the window under speculativeFlips), then
 * draw into the fetched pre-window object — the write the deferred
 * flip covers. Returns the FNV digest of the final chain bytes.
 */
uint64_t
forcedConflictTrace(FreePartRuntime &runtime, size_t *chain_bytes)
{
    ipc::Value frame = callRef(runtime, "cv2.imread", {imreadArg()});
    ipc::Value chain =
        callRef(runtime, "cv2.GaussianBlur", {frame});
    if (chain.kind() != ipc::Value::Kind::Ref)
        return 0;
    runtime.fetchToHost(chain.asRef());
    if (chain_bytes)
        *chain_bytes =
            runtime.hostStore().serialize(chain.asRef().objectId)
                .size();
    ipc::Value drawn = callRef(
        runtime, "cv2.rectangle",
        {chain, u64(2), u64(2), u64(8), u64(8), u64(255)});
    if (drawn.kind() != ipc::Value::Kind::Ref)
        return 0;
    runtime.fetchToHost(drawn.asRef());
    uint64_t digest = util::fnv1a64(
        runtime.hostStore().serialize(drawn.asRef().objectId));
    runtime.drainAll();
    return digest;
}

TEST(Speculation, ForcedConflictSquashRestoresExactBytes)
{
    RuntimeConfig spec_config;
    spec_config.pipelineParallel = true;
    spec_config.speculativeFlips = true;
    auto spec_rt = env().makeRuntime(spec_config);
    size_t chain_bytes = 0;
    uint64_t spec_digest =
        forcedConflictTrace(*spec_rt, &chain_bytes);
    const RunStats &stats = spec_rt->stats();
    // The draw targeted pre-window data: it must have been squashed
    // (restoring exactly the checkpointed chain bytes) and re-issued.
    EXPECT_EQ(stats.speculationRollbacks, 1u);
    EXPECT_EQ(stats.squashedWriteBytes, chain_bytes);
    EXPECT_GT(chain_bytes, 0u);
    EXPECT_EQ(stats.speculationStarts,
              stats.speculationCommits + stats.speculationRollbacks);

    // The restore-then-re-execute path must leave exactly the bytes
    // the synchronous schedule produces.
    auto sync_rt = env().makeRuntime();
    uint64_t sync_digest = forcedConflictTrace(*sync_rt, nullptr);
    EXPECT_EQ(sync_rt->stats().speculationRollbacks, 0u);
    ASSERT_NE(spec_digest, 0u);
    EXPECT_EQ(spec_digest, sync_digest);
}

TEST(Speculation, NestedPendingFlipsExtendTheWindow)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    config.speculativeFlips = true;
    auto runtime = env().makeRuntime(config);
    // Pile loads onto the loading agent's timeline so it runs ahead
    // of the host clock, then leave an unprotected variable there:
    // the next state transition has a pending agent-side flip whose
    // quiesce horizon lies in the future.
    runtime->invokeAsync("cv2.imread", {imreadArg()});
    ipc::Value frame = callRef(*runtime, "cv2.imread", {imreadArg()});
    runtime->allocInPartition(0, "loading-scratch", 64);
    EXPECT_FALSE(runtime->speculationActive());
    ipc::Value blurred =
        callRef(*runtime, "cv2.GaussianBlur", {frame});
    // Speculation, not a barrier: the flip is deferred to the
    // loading timeline's horizon and dispatch continues.
    EXPECT_TRUE(runtime->speculationActive());
    EXPECT_EQ(runtime->stats().pipelineBarriers, 0u);

    // A second pending flip while the window is open must extend it
    // (nested windows merge), still without a barrier.
    runtime->allocInPartition(0, "processing-scratch", 64);
    runtime->invokeAsync("cv2.imread", {imreadArg()});
    EXPECT_TRUE(runtime->speculationActive());
    EXPECT_EQ(runtime->stats().pipelineBarriers, 0u);

    // Draining retires the window: the commit horizon has passed.
    runtime->drainAll();
    EXPECT_FALSE(runtime->speculationActive());

    // The barrier-mode twin pays a full drain for each flip instead.
    RuntimeConfig barrier_config;
    barrier_config.pipelineParallel = true;
    auto barrier_rt = env().makeRuntime(barrier_config);
    barrier_rt->invokeAsync("cv2.imread", {imreadArg()});
    ipc::Value frame2 =
        callRef(*barrier_rt, "cv2.imread", {imreadArg()});
    barrier_rt->allocInPartition(0, "loading-scratch", 64);
    callRef(*barrier_rt, "cv2.GaussianBlur", {frame2});
    EXPECT_GT(barrier_rt->stats().pipelineBarriers, 0u);
    (void)blurred;
}

TEST(Speculation, SquashSurvivesAgentRestart)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    config.speculativeFlips = true;
    auto runtime = env().makeRuntime(config);
    ipc::Value frame = callRef(*runtime, "cv2.imread", {imreadArg()});
    ipc::Value chain =
        callRef(*runtime, "cv2.GaussianBlur", {frame});
    ASSERT_EQ(chain.kind(), ipc::Value::Kind::Ref);
    // Open the window, then lose the producing agent and restore it
    // from its checkpoint: the conflicting call that follows must
    // squash against the object's *current* (restored) home without
    // touching freed state, and replay the synchronous bytes.
    runtime->fetchToHost(chain.asRef());
    EXPECT_TRUE(runtime->speculationActive());
    uint32_t home_partition = 1; // processing, freePartDefault
    runtime->checkpointAgent(home_partition);
    ASSERT_TRUE(runtime->restartAgent(home_partition));
    ipc::Value drawn = callRef(
        *runtime, "cv2.rectangle",
        {chain, u64(2), u64(2), u64(8), u64(8), u64(255)});
    ASSERT_EQ(drawn.kind(), ipc::Value::Kind::Ref);
    runtime->fetchToHost(drawn.asRef());
    uint64_t spec_digest = util::fnv1a64(
        runtime->hostStore().serialize(drawn.asRef().objectId));
    runtime->drainAll();
    EXPECT_EQ(runtime->stats().agentRestarts, 1u);

    // Synchronous twin with the same restart point.
    auto sync_rt = env().makeRuntime();
    ipc::Value sframe =
        callRef(*sync_rt, "cv2.imread", {imreadArg()});
    ipc::Value schain =
        callRef(*sync_rt, "cv2.GaussianBlur", {sframe});
    ASSERT_EQ(schain.kind(), ipc::Value::Kind::Ref);
    sync_rt->fetchToHost(schain.asRef());
    sync_rt->checkpointAgent(home_partition);
    ASSERT_TRUE(sync_rt->restartAgent(home_partition));
    ipc::Value sdrawn = callRef(
        *sync_rt, "cv2.rectangle",
        {schain, u64(2), u64(2), u64(8), u64(8), u64(255)});
    ASSERT_EQ(sdrawn.kind(), ipc::Value::Kind::Ref);
    sync_rt->fetchToHost(sdrawn.asRef());
    uint64_t sync_digest = util::fnv1a64(
        sync_rt->hostStore().serialize(sdrawn.asRef().objectId));
    EXPECT_EQ(spec_digest, sync_digest);
}

TEST(Speculation, WindowRetiresOnceHorizonPasses)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    config.speculativeFlips = true;
    auto runtime = env().makeRuntime(config);
    ipc::Value frame = callRef(*runtime, "cv2.imread", {imreadArg()});
    ipc::Value chain =
        callRef(*runtime, "cv2.GaussianBlur", {frame});
    ASSERT_EQ(chain.kind(), ipc::Value::Kind::Ref);
    runtime->fetchToHost(chain.asRef());
    EXPECT_TRUE(runtime->speculationActive());
    // A full drain catches the global clock up with every timeline;
    // the pending flip has landed and speculation must retire.
    runtime->drainAll();
    EXPECT_FALSE(runtime->speculationActive());
    // Post-window calls run non-speculatively.
    uint64_t starts_before = runtime->stats().speculationStarts;
    ipc::Value drawn = callRef(
        *runtime, "cv2.rectangle",
        {chain, u64(2), u64(2), u64(8), u64(8), u64(255)});
    EXPECT_EQ(drawn.kind(), ipc::Value::Kind::Ref);
    EXPECT_EQ(runtime->stats().speculationStarts, starts_before);
    EXPECT_EQ(runtime->stats().speculationRollbacks, 0u);
}

} // namespace
} // namespace freepart::core
