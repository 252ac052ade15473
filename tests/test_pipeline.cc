/**
 * @file
 * Pipeline-parallel execution tests: per-agent virtual timelines,
 * async invoke with object-dependency scheduling, bounded in-flight
 * queues, and the protection-flip barrier. The invariants under test:
 * async replays are byte-identical to sync ones and deterministic,
 * overlap only ever shrinks the makespan, and with the gate off the
 * runtime keeps the classic serialized accounting bit-for-bit.
 */

#include <gtest/gtest.h>

#include "apps/app_models.hh"
#include "apps/workload.hh"
#include "core/runtime.hh"
#include "util/logging.hh"

namespace freepart::core {
namespace {

struct PipeEnv {
    PipeEnv() : registry(fw::buildFullRegistry())
    {
        analysis::HybridCategorizer categorizer(registry);
        cats = categorizer.categorizeAll();
    }

    std::unique_ptr<FreePartRuntime>
    makeRuntime(RuntimeConfig config = {})
    {
        kernel = std::make_unique<osim::Kernel>();
        fw::seedFixtureFiles(*kernel);
        return std::make_unique<FreePartRuntime>(
            *kernel, registry, cats, PartitionPlan::freePartDefault(),
            config);
    }

    /** Replay one Table 6 app against a fresh runtime, with an
     *  optional boundary tap installed. */
    apps::WorkloadResult
    replayApp(size_t model_index, bool pipeline_gate, bool async,
              BoundaryObserver observer = nullptr)
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
        config.pipelineParallel = pipeline_gate;
        FreePartRuntime runtime(*kernel, registry, cats,
                                PartitionPlan::freePartDefault(),
                                config);
        runtime.setBoundaryObserver(std::move(observer));
        const apps::AppModel &model =
            apps::appModels().at(model_index);
        return async ? generator.runAsync(runtime, model)
                     : generator.run(runtime, model);
    }

    fw::ApiRegistry registry;
    analysis::Categorization cats;
    std::unique_ptr<osim::Kernel> kernel;
};

PipeEnv &
env()
{
    static PipeEnv instance;
    return instance;
}

ipc::Value
imreadArg()
{
    return ipc::Value(std::string("/data/test.fpim"));
}

TEST(Pipeline, AsyncReplayIsByteIdenticalAndFaster)
{
    // FaceTracker: a multi-round load->process->visualize/store app.
    apps::WorkloadResult sync = env().replayApp(1, false, false);
    apps::WorkloadResult async = env().replayApp(1, true, true);
    ASSERT_EQ(sync.callsFailed, 0u);
    ASSERT_EQ(async.callsFailed, 0u);
    ASSERT_TRUE(sync.hasFinalObject);
    ASSERT_TRUE(async.hasFinalObject);
    EXPECT_EQ(sync.finalDigest, async.finalDigest);
    EXPECT_LT(async.stats.elapsed(), sync.stats.elapsed());
    EXPECT_GT(async.stats.asyncCalls, 0u);
    EXPECT_GT(async.stats.overlapFraction(), 0.0);
    EXPECT_GT(async.stats.totalBusyTime(), 0u);
}

TEST(Pipeline, AsyncReplayIsDeterministic)
{
    apps::WorkloadResult a = env().replayApp(1, true, true);
    apps::WorkloadResult b = env().replayApp(1, true, true);
    EXPECT_EQ(a.finalDigest, b.finalDigest);
    EXPECT_EQ(a.stats.elapsed(), b.stats.elapsed());
    EXPECT_EQ(a.stats.asyncCalls, b.stats.asyncCalls);
    EXPECT_EQ(a.stats.ipcMessages, b.stats.ipcMessages);
}

TEST(Pipeline, GateOffKeepsSerializedAccounting)
{
    // Async call sites must degrade to the classic sync path when the
    // gate is off: same makespan, same contents, no async counters —
    // the Table 9 baselines depend on this invariance.
    apps::WorkloadResult sync = env().replayApp(2, false, false);
    apps::WorkloadResult async_off = env().replayApp(2, false, true);
    EXPECT_EQ(sync.finalDigest, async_off.finalDigest);
    EXPECT_EQ(sync.stats.elapsed(), async_off.stats.elapsed());
    EXPECT_EQ(async_off.stats.asyncCalls, 0u);
    EXPECT_EQ(async_off.stats.pipelineBarriers, 0u);
}

TEST(Pipeline, WaitAndPeekTicketSemantics)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    auto runtime = env().makeRuntime(config);
    CallTicket ticket = runtime->invokeAsync("cv2.imread",
                                             {imreadArg()});
    ASSERT_EQ(runtime->pendingAsyncCalls(), 1u);
    const ApiResult *peeked = runtime->peekResult(ticket);
    ASSERT_NE(peeked, nullptr);
    EXPECT_TRUE(peeked->ok) << peeked->error;

    ApiResult waited = runtime->wait(ticket);
    EXPECT_TRUE(waited.ok) << waited.error;
    EXPECT_EQ(runtime->pendingAsyncCalls(), 0u);
    EXPECT_EQ(runtime->peekResult(ticket), nullptr);

    // A ticket is single-use: waiting again is an explicit error.
    ApiResult again = runtime->wait(ticket);
    EXPECT_FALSE(again.ok);
    EXPECT_NE(again.error.find("ticket"), std::string::npos);
}

TEST(Pipeline, GateOffAsyncCompletesImmediately)
{
    auto runtime = env().makeRuntime();
    CallTicket ticket = runtime->invokeAsync("cv2.imread",
                                             {imreadArg()});
    const ApiResult *peeked = runtime->peekResult(ticket);
    ASSERT_NE(peeked, nullptr);
    EXPECT_TRUE(peeked->ok) << peeked->error;
    EXPECT_TRUE(runtime->wait(ticket).ok);
}

TEST(Pipeline, InFlightDepthIsBoundedAndStallsAreCounted)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    auto runtime = env().makeRuntime(config);
    // Independent loads pile onto the loading agent's timeline while
    // the host clock stays nearly still: the queue must cap at
    // kMaxInFlightPerPartition and charge stall time instead of
    // growing.
    std::vector<CallTicket> tickets;
    for (uint32_t i = 0; i < 2 * kMaxInFlightPerPartition; ++i)
        tickets.push_back(
            runtime->invokeAsync("cv2.imread", {imreadArg()}));
    for (const CallTicket &ticket : tickets) {
        const ApiResult *res = runtime->peekResult(ticket);
        ASSERT_NE(res, nullptr);
        EXPECT_TRUE(res->ok) << res->error;
    }
    const RunStats &stats = runtime->stats();
    EXPECT_EQ(stats.inFlightPeak, kMaxInFlightPerPartition);
    EXPECT_GT(stats.inFlightStalls, 0u);
    runtime->drainAll();
    EXPECT_EQ(runtime->pendingAsyncCalls(), 0u);
}

TEST(Pipeline, ProtectionFlipActsAsBarrier)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    auto runtime = env().makeRuntime(config);
    ApiResult img = runtime->invoke("cv2.imread", {imreadArg()});
    ASSERT_TRUE(img.ok) << img.error;
    uint64_t before = runtime->stats().pipelineBarriers;
    // An unprotected variable inside the processing agent, defined in
    // the Loading state: the next state transition must mprotect it,
    // and under overlap that flip requires draining the timelines.
    runtime->allocInPartition(1, "agent-scratch", 64);
    ApiResult blur =
        runtime->invoke("cv2.GaussianBlur", {img.values[0]});
    ASSERT_TRUE(blur.ok) << blur.error;
    EXPECT_GT(runtime->stats().pipelineBarriers, before);
}

TEST(Pipeline, DrainAllSettlesTimelines)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    auto runtime = env().makeRuntime(config);
    for (int i = 0; i < 3; ++i)
        runtime->invokeAsync("cv2.imread", {imreadArg()});
    EXPECT_EQ(runtime->pendingAsyncCalls(), 3u);
    osim::SimTime horizon = env().kernel->maxTimeline();
    runtime->drainAll();
    EXPECT_EQ(runtime->pendingAsyncCalls(), 0u);
    EXPECT_GE(env().kernel->now(), horizon);
    // Post-drain, the global clock covers every per-process timeline.
    EXPECT_EQ(env().kernel->now(), env().kernel->maxTimeline());
}

TEST(Pipeline, DispatchFailuresMatchAcrossEntryPoints)
{
    // One prologue serves every entry point: the sync invoke, the
    // gate-off async path and the pipelined dispatcher must fail a
    // call the same way and count it the same way.
    enum class Fault { UnknownApi, DeadHost, LostArgument };
    auto failedCall = [&](Fault fault, bool gate, bool async) {
        RuntimeConfig config;
        config.pipelineParallel = gate;
        config.shardId = 7; // same object ids in every runtime
        auto runtime = env().makeRuntime(config);
        std::string api = "cv2.GaussianBlur";
        ipc::ValueList args;
        if (fault == Fault::UnknownApi) {
            api = "cv2.doesNotExist";
        } else if (fault == Fault::DeadHost) {
            env().kernel->faultProcess(runtime->hostProcess(), "test");
        } else {
            // A result left on the processing agent, lost with it:
            // no checkpoint yet and no host copy.
            ApiResult img = runtime->invoke("cv2.imread", {imreadArg()});
            EXPECT_TRUE(img.ok) << img.error;
            ApiResult blur = runtime->invoke(api, {img.values[0]});
            EXPECT_TRUE(blur.ok) << blur.error;
            env().kernel->faultProcess(
                env().kernel->process(runtime->agentPid(1)), "test");
            EXPECT_TRUE(runtime->restartAgent(1));
            args = blur.values;
        }
        ApiResult result =
            async ? runtime->wait(runtime->invokeAsync(api, args))
                  : runtime->invoke(api, args);
        return std::make_pair(result, runtime->stats().apiCalls);
    };
    const std::pair<Fault, const char *> faults[] = {
        {Fault::UnknownApi, "unknown API"},
        {Fault::DeadHost, "host program has crashed"},
        {Fault::LostArgument, "was lost in an agent crash"}};
    for (const auto &[fault, expected] : faults) {
        auto [sync, syncCalls] = failedCall(fault, false, false);
        auto [asyncOff, asyncOffCalls] = failedCall(fault, false, true);
        auto [piped, pipedCalls] = failedCall(fault, true, true);
        EXPECT_FALSE(sync.ok);
        EXPECT_NE(sync.error.find(expected), std::string::npos)
            << sync.error;
        EXPECT_EQ(asyncOff.ok, sync.ok);
        EXPECT_EQ(piped.ok, sync.ok);
        EXPECT_EQ(asyncOff.error, sync.error);
        EXPECT_EQ(piped.error, sync.error);
        EXPECT_EQ(asyncOffCalls, syncCalls);
        EXPECT_EQ(pipedCalls, syncCalls);
    }

    // A full app trace: both paths count the same calls and tap the
    // same boundary crossings.
    size_t syncTaps = 0, pipedTaps = 0;
    auto tally = [](size_t &taps) {
        return [&taps](const std::string &, uint32_t,
                       const ipc::ValueList &) { ++taps; };
    };
    apps::WorkloadResult sync =
        env().replayApp(1, false, false, tally(syncTaps));
    apps::WorkloadResult piped =
        env().replayApp(1, true, true, tally(pipedTaps));
    ASSERT_EQ(sync.callsFailed, 0u);
    ASSERT_EQ(piped.callsFailed, 0u);
    EXPECT_GT(syncTaps, 0u);
    EXPECT_EQ(pipedTaps, syncTaps);
    EXPECT_EQ(piped.stats.apiCalls, sync.stats.apiCalls);
}

TEST(Pipeline, StatsOverlapFractionBounds)
{
    RunStats stats;
    EXPECT_EQ(stats.overlapFraction(), 0.0);
    stats.partitionBusyTime = {600, 600};
    stats.criticalPathMakespan = 800;
    // busy 1200 over a 800 span: 1/3 of busy time ran concurrently.
    EXPECT_NEAR(stats.overlapFraction(), 1.0 / 3.0, 1e-9);
    stats.criticalPathMakespan = 1500; // span exceeds busy: no overlap
    EXPECT_EQ(stats.overlapFraction(), 0.0);
}

} // namespace
} // namespace freepart::core
