/**
 * @file
 * Tests for the agent supervision layer: retry budgets, simulated-time
 * exponential backoff, crash-loop quarantine with host-fallback
 * degradation, checkpoint integrity (checksums + generation
 * fallback), and the at-least-once dedup cache surviving restarts.
 */

#include <gtest/gtest.h>

#include "core/runtime.hh"
#include "fw/image_format.hh"
#include "osim/fault_injection.hh"
#include "util/logging.hh"

namespace freepart::core {
namespace {

struct SupEnv {
    SupEnv() : registry(fw::buildFullRegistry())
    {
        analysis::HybridCategorizer categorizer(registry);
        cats = categorizer.categorizeAll();
    }

    std::unique_ptr<FreePartRuntime>
    makeRuntime(RuntimeConfig config = {})
    {
        kernel = std::make_unique<osim::Kernel>();
        injector = std::make_unique<osim::FaultInjector>(7);
        kernel->setFaultInjector(injector.get());
        fw::seedFixtureFiles(*kernel);
        return std::make_unique<FreePartRuntime>(
            *kernel, registry, cats, PartitionPlan::freePartDefault(),
            config);
    }

    /** Schedule unlimited crash faults on a partition's API calls. */
    void
    crashEveryCall(FreePartRuntime &runtime, uint32_t partition,
                   uint32_t count = 0)
    {
        osim::FaultSpec spec;
        spec.point = osim::FaultPoint::AgentCall;
        spec.action = osim::FaultAction::Crash;
        spec.pid = runtime.agentPid(partition);
        spec.count = count;
        injector->schedule(spec);
    }

    fw::ApiRegistry registry;
    analysis::Categorization cats;
    std::unique_ptr<osim::Kernel> kernel;
    std::unique_ptr<osim::FaultInjector> injector;
};

SupEnv &
env()
{
    static SupEnv instance;
    return instance;
}

ApiResult
blurFreshMat(FreePartRuntime &runtime, uint64_t seed)
{
    uint64_t id = runtime.createHostMat(8, 8, 1, seed, "m");
    return runtime.invoke(
        "cv2.GaussianBlur",
        {ipc::Value(ipc::ObjectRef{kHostPartition, id})});
}

TEST(Supervisor, RetryBudgetExhaustionSurfacesAgentCrashed)
{
    auto runtime = env().makeRuntime();
    env().crashEveryCall(*runtime, 1);
    ApiResult result = blurFreshMat(*runtime, 1);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.agentCrashed);
    EXPECT_NE(result.error.find("retry budget"), std::string::npos)
        << result.error;
    const RunStats &stats = runtime->stats();
    EXPECT_EQ(stats.retriesExhausted, 1u);
    // kCallRetryBudget=3 means 4 delivery attempts, all crashed.
    EXPECT_EQ(stats.agentCrashes, 4u);
    EXPECT_EQ(stats.retriedCalls, 3u);
    EXPECT_TRUE(runtime->hostAlive());
}

TEST(Supervisor, QuarantineDegradesGracefully)
{
    auto runtime = env().makeRuntime();
    env().crashEveryCall(*runtime, 1);
    // The first call burns its retry budget: 4 deliveries, of which
    // the 3 re-deliveries each report a crash to the supervisor.
    ApiResult first = blurFreshMat(*runtime, 1);
    EXPECT_FALSE(first.ok);
    EXPECT_FALSE(first.quarantined);
    // The second call's recovery reports crashes 4 and 5: the
    // kCrashLoopThreshold-th crash inside the window quarantines the
    // partition. Having crashed the agent itself, the quarantining
    // call fails typed — its input is suspect and is never
    // re-executed in the host (a poisoned frame must not escape into
    // the host process).
    ApiResult second = blurFreshMat(*runtime, 2);
    EXPECT_FALSE(second.ok);
    EXPECT_TRUE(second.quarantined);
    EXPECT_TRUE(second.agentCrashed);
    EXPECT_NE(second.error.find("suspect input"), std::string::npos)
        << second.error;
    ASSERT_TRUE(runtime->supervisor().quarantined(1));
    EXPECT_EQ(runtime->supervisor().stats().crashesObserved,
              kCrashLoopThreshold);
    EXPECT_EQ(runtime->stats().quarantines, 1u);
    EXPECT_EQ(runtime->stats().hostFallbackCalls, 0u);

    // Non-stateful APIs arriving afterwards complete via the host...
    ApiResult third = blurFreshMat(*runtime, 3);
    EXPECT_TRUE(third.ok) << third.error;
    EXPECT_TRUE(third.quarantined);
    EXPECT_FALSE(third.agentCrashed);
    EXPECT_EQ(runtime->stats().hostFallbackCalls, 1u);
    EXPECT_TRUE(runtime->hostAlive());

    // ...while stateful APIs on the quarantined partition fail fast
    // with a typed error instead of running without their state.
    ApiResult model = runtime->invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    ASSERT_TRUE(model.ok) << model.error;
    ApiResult train = runtime->invoke(
        "tf.estimator.DNNClassifier.train",
        {model.values[0], model.values[0]});
    EXPECT_FALSE(train.ok);
    EXPECT_TRUE(train.quarantined);
    EXPECT_FALSE(train.agentCrashed);
    EXPECT_NE(train.error.find("quarantined"), std::string::npos)
        << train.error;
    EXPECT_EQ(runtime->stats().statefulFastFails, 1u);
}

TEST(Supervisor, CrashLoopWindowQuarantinesAcrossRecoveredOutages)
{
    osim::Kernel kernel;
    AgentSupervisor supervisor(kernel, 1);
    // Crashes spaced wider than kCrashLoopSpan never loop: every
    // outage recovers and the window holds one crash at a time.
    for (uint32_t i = 0; i < 2 * kCrashLoopThreshold; ++i) {
        EXPECT_TRUE(supervisor.onCrash(0));
        supervisor.onCallSucceeded(0);
        kernel.advance(kCrashLoopSpan + 1);
    }
    EXPECT_FALSE(supervisor.quarantined(0));
    // Packed inside the window, each outage still recovers after one
    // respawn (far from kMaxRestartAttempts), so only the loop
    // detector can quarantine: on the kCrashLoopThreshold-th crash.
    for (uint32_t i = 1; i < kCrashLoopThreshold; ++i) {
        EXPECT_TRUE(supervisor.onCrash(0));
        supervisor.onCallSucceeded(0);
    }
    EXPECT_FALSE(supervisor.onCrash(0));
    EXPECT_TRUE(supervisor.quarantined(0));
    EXPECT_EQ(supervisor.stats().quarantines, 1u);
}

TEST(Supervisor, HostileInputNeverFallsBackToHost)
{
    // A real DoS payload (not an injected fault) that crashes the
    // loading agent on every delivery. Driving it into quarantine
    // must not re-execute the poisoned frame inside the host — the
    // drone case study's attack would otherwise escape containment.
    auto runtime = env().makeRuntime();
    fw::ExploitPayload dos;
    dos.kind = fw::PayloadKind::Dos;
    dos.cve = "CVE-2017-14136";
    env().kernel->vfs().putFile(
        "/spool/dos.fpim",
        fw::encodeImageFile(8, 8, 1, fw::synthPixels(8, 8, 1, 0),
                            dos));
    // The first delivery burns the retry budget without reaching the
    // crash-loop threshold; the second one's 5th crash quarantines.
    ApiResult first = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/spool/dos.fpim"))});
    EXPECT_FALSE(first.ok);
    EXPECT_TRUE(first.agentCrashed);
    EXPECT_FALSE(runtime->supervisor().quarantined(0));
    ApiResult hostile = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/spool/dos.fpim"))});
    EXPECT_FALSE(hostile.ok);
    EXPECT_TRUE(hostile.quarantined);
    EXPECT_NE(hostile.error.find("suspect input"), std::string::npos)
        << hostile.error;
    EXPECT_TRUE(runtime->supervisor().quarantined(0));
    EXPECT_EQ(runtime->stats().hostFallbackCalls, 0u);
    EXPECT_TRUE(runtime->hostAlive());

    // A benign frame afterwards still loads, degraded to the host.
    ApiResult benign = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    EXPECT_TRUE(benign.ok) << benign.error;
    EXPECT_TRUE(benign.quarantined);
    EXPECT_TRUE(runtime->hostAlive());
}

TEST(Supervisor, BackoffIsChargedInSimulatedTime)
{
    auto runtime = env().makeRuntime();
    // First two respawns are stillborn; the third succeeds.
    osim::FaultSpec spec;
    spec.point = osim::FaultPoint::Respawn;
    spec.action = osim::FaultAction::Crash;
    spec.pid = runtime->agentPid(1);
    spec.count = 2;
    env().injector->schedule(spec);
    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(1)), "induced");
    ApiResult result = blurFreshMat(*runtime, 1);
    EXPECT_TRUE(result.ok) << result.error;
    const RunStats &stats = runtime->stats();
    // Attempt 1 is immediate; attempts 2 and 3 wait 0.2 ms and
    // 0.4 ms of simulated time (base 200 us, factor 2).
    EXPECT_EQ(stats.backoffTime, 600'000u);
    EXPECT_EQ(stats.agentRestarts, 3u);
    EXPECT_EQ(runtime->supervisor().stats().restartsFailed, 2u);
    EXPECT_EQ(stats.recoveries, 1u);
    EXPECT_GT(stats.meanTimeToRecover(), 0u);
    EXPECT_EQ(runtime->supervisor().health(1), AgentHealth::Healthy);
}

TEST(Supervisor, CrashDuringRestoreIsSurvived)
{
    auto runtime = env().makeRuntime();
    osim::FaultSpec spec;
    spec.point = osim::FaultPoint::Restore;
    spec.action = osim::FaultAction::Crash;
    spec.pid = runtime->agentPid(1);
    env().injector->schedule(spec);
    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(1)), "induced");
    // Restart 1 dies inside checkpoint restore; restart 2 completes
    // and the call goes through.
    ApiResult result = blurFreshMat(*runtime, 1);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(runtime->stats().agentRestarts, 2u);
    EXPECT_EQ(runtime->supervisor().stats().restartsFailed, 1u);
}

TEST(Supervisor, CorruptedCheckpointFallsBackAGeneration)
{
    auto runtime = env().makeRuntime();
    ApiResult model = runtime->invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    ASSERT_TRUE(model.ok) << model.error;
    ApiResult data = runtime->invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    ASSERT_TRUE(data.ok) << data.error;
    uint64_t weights_id = model.values[0].asRef().objectId;

    ASSERT_TRUE(runtime
                    ->invoke("tf.estimator.DNNClassifier.train",
                             {model.values[0], data.values[0]})
                    .ok);
    uint32_t p = runtime->homeOf(weights_id);
    runtime->checkpointAgent(p);
    std::vector<uint8_t> v1 = runtime->storeOf(p).serialize(weights_id);

    // The next checkpoint of this agent suffers injected bit rot: its
    // new entries fail the checksum check and are not intact.
    osim::FaultSpec spec;
    spec.point = osim::FaultPoint::Checkpoint;
    spec.action = osim::FaultAction::Corrupt;
    spec.pid = runtime->agentPid(p);
    env().injector->schedule(spec);
    ASSERT_TRUE(runtime
                    ->invoke("tf.estimator.DNNClassifier.train",
                             {model.values[0], data.values[0]})
                    .ok);
    runtime->checkpointAgent(p);
    std::vector<uint8_t> v2 = runtime->storeOf(p).serialize(weights_id);
    ASSERT_NE(v1, v2); // training moved the weights

    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(p)), "induced");
    ASSERT_TRUE(runtime->restartAgent(p));
    // The corrupt newest generation failed verification; the restore
    // fell back to the previous good one (weights after train #1).
    EXPECT_EQ(runtime->storeOf(p).serialize(weights_id), v1);
    EXPECT_EQ(runtime->stats().checkpointFallbacks, 1u);
    EXPECT_GT(runtime->stats().checkpointBytesRestored, 0u);
}

TEST(Supervisor, LostResponseIsServedFromDedupCache)
{
    auto runtime = env().makeRuntime();
    osim::FaultSpec spec;
    spec.point = osim::FaultPoint::RingTransfer;
    spec.action = osim::FaultAction::Transient;
    spec.pid = runtime->hostPid(); // response direction only
    env().injector->schedule(spec);
    ApiResult result =
        runtime->invoke("cv2.imread",
                        {ipc::Value(std::string("/data/test.fpim"))});
    EXPECT_TRUE(result.ok) << result.error;
    // The API ran once; the re-delivery was answered from the cache
    // instead of executing again.
    EXPECT_EQ(runtime->stats().dedupHits, 1u);
    EXPECT_EQ(runtime->stats().channelLosses, 1u);
}

TEST(Supervisor, SeqCacheSurvivesAgentRestart)
{
    auto runtime = env().makeRuntime();
    ApiResult result = blurFreshMat(*runtime, 1);
    ASSERT_TRUE(result.ok) << result.error;
    runtime->fetchToHost(result.values[0].asRef());
    ASSERT_EQ(runtime->seqCacheSize(1), 1u);
    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(1)), "induced");
    ASSERT_TRUE(runtime->restartAgent(1));
    // Host-side dedup state must not die with the agent: a
    // re-delivered request after the respawn still deduplicates.
    EXPECT_EQ(runtime->seqCacheSize(1), 1u);
}

TEST(Supervisor, PruneDropsCachedResponsesWithDeadRefs)
{
    auto runtime = env().makeRuntime();
    ApiResult result = blurFreshMat(*runtime, 1);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(runtime->seqCacheSize(1), 1u);
    // No host copy and no checkpoint: the blurred object dies with
    // the agent, so its cached response becomes unservable.
    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(1)), "induced");
    ASSERT_TRUE(runtime->restartAgent(1));
    EXPECT_EQ(runtime->seqCacheSize(1), 0u);
}

TEST(Supervisor, RestartOffLosesTheCallInstead)
{
    RuntimeConfig config;
    config.restartAgents = false;
    auto runtime = env().makeRuntime(config);
    env().crashEveryCall(*runtime, 1, 1); // a single crash
    ApiResult result = blurFreshMat(*runtime, 1);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.agentCrashed);
    EXPECT_NE(result.error.find("dead"), std::string::npos)
        << result.error;
    EXPECT_EQ(runtime->stats().agentRestarts, 0u);
    // The partition stays dead: later calls fail too.
    ApiResult later = blurFreshMat(*runtime, 2);
    EXPECT_FALSE(later.ok);
}

} // namespace
} // namespace freepart::core
