/**
 * @file
 * Integration tests for FreePartRuntime: partitioned execution of a
 * full pipeline, LDC vs eager data movement, the framework state
 * machine with temporal memory protection, seccomp policies with the
 * init grace period, exactly-once RPC, and agent crash/restart with
 * checkpointed state.
 */

#include <gtest/gtest.h>

#include "core/runtime.hh"

namespace freepart::core {
namespace {

using fw::ApiType;

struct Env {
    Env()
        : registry(fw::buildFullRegistry()),
          categorizer(registry)
    {
        cats = categorizer.categorizeAll();
    }

    /** New kernel + runtime with the given plan/config. */
    std::unique_ptr<FreePartRuntime>
    makeRuntime(PartitionPlan plan, RuntimeConfig config = {})
    {
        kernel = std::make_unique<osim::Kernel>();
        fw::seedFixtureFiles(*kernel);
        return std::make_unique<FreePartRuntime>(
            *kernel, registry, cats, std::move(plan), config);
    }

    fw::ApiRegistry registry;
    analysis::HybridCategorizer categorizer;
    analysis::Categorization cats;
    std::unique_ptr<osim::Kernel> kernel;
};

Env &
env()
{
    static Env instance;
    return instance;
}

TEST(Runtime, SpawnsHostAndFourAgents)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    EXPECT_TRUE(runtime->hostAlive());
    for (uint32_t p = 0; p < 4; ++p) {
        EXPECT_TRUE(runtime->agentAlive(p));
        EXPECT_NE(runtime->agentPid(p), runtime->hostPid());
    }
    EXPECT_EQ(runtime->plan().partitionCount(), 4u);
}

TEST(Runtime, PipelineRunsAcrossPartitions)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());

    ApiResult loaded = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(loaded.ok) << loaded.error;
    ASSERT_EQ(loaded.values.size(), 1u);
    ipc::ObjectRef img = loaded.values[0].asRef();
    EXPECT_EQ(runtime->homeOf(img.objectId), 0u); // loading agent

    ApiResult gray =
        runtime->invoke("cv2.cvtColor", {ipc::Value(img)});
    ASSERT_TRUE(gray.ok) << gray.error;
    ipc::ObjectRef gray_ref = gray.values[0].asRef();

    ApiResult blurred =
        runtime->invoke("cv2.GaussianBlur", {ipc::Value(gray_ref)});
    ASSERT_TRUE(blurred.ok) << blurred.error;
    EXPECT_EQ(runtime->homeOf(blurred.values[0].asRef().objectId),
              1u); // processing agent

    ApiResult shown = runtime->invoke(
        "cv2.imshow", {ipc::Value(std::string("win")),
                       blurred.values[0]});
    ASSERT_TRUE(shown.ok) << shown.error;
    EXPECT_EQ(env().kernel->display().events().size(), 1u);

    ApiResult stored = runtime->invoke(
        "cv2.imwrite", {ipc::Value(std::string("/out/result.fpim")),
                        blurred.values[0]});
    ASSERT_TRUE(stored.ok) << stored.error;
    EXPECT_TRUE(env().kernel->vfs().exists("/out/result.fpim"));
}

TEST(Runtime, PipelineResultMatchesUnpartitionedRun)
{
    // The same pipeline with and without isolation must produce
    // byte-identical output files (the §5 "Correctness" claim).
    auto run = [&](PartitionPlan plan) {
        auto runtime = env().makeRuntime(std::move(plan));
        ApiResult img = runtime->invoke(
            "cv2.imread",
            {ipc::Value(std::string("/data/test.fpim"))});
        ApiResult gray =
            runtime->invoke("cv2.cvtColor", {img.values[0]});
        ApiResult edges = runtime->invoke(
            "cv2.Canny", {gray.values[0], ipc::Value(uint64_t(40)),
                          ipc::Value(uint64_t(120))});
        runtime->invoke("cv2.imwrite",
                        {ipc::Value(std::string("/out/e.fpim")),
                         edges.values[0]});
        return env().kernel->vfs().getFile("/out/e.fpim");
    };
    std::vector<uint8_t> partitioned =
        run(PartitionPlan::freePartDefault());
    std::vector<uint8_t> in_host = run(PartitionPlan::inHost());
    EXPECT_EQ(partitioned, in_host);
}

TEST(Runtime, LdcPassesReferencesNotData)
{
    RuntimeConfig with_ldc;
    with_ldc.lazyDataCopy = true;
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault(),
                                     with_ldc);
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    runtime->invoke("cv2.GaussianBlur", {img.values[0]});
    const RunStats &stats = runtime->stats();
    // One direct loading-agent -> processing-agent copy; results
    // stayed put (lazy).
    EXPECT_EQ(stats.directCopies, 1u);
    EXPECT_EQ(stats.eagerCopies, 0u);
    EXPECT_GT(stats.lazyCopies, 0u);
}

TEST(Runtime, WithoutLdcDataFlowsThroughHost)
{
    RuntimeConfig no_ldc;
    no_ldc.lazyDataCopy = false;
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault(),
                                     no_ldc);
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    runtime->invoke("cv2.GaussianBlur", {img.values[0]});
    const RunStats &stats = runtime->stats();
    // imread result copied agent->host; arg copied host->agent; blur
    // result copied agent->host again.
    EXPECT_GE(stats.eagerCopies, 3u);
    EXPECT_EQ(stats.directCopies, 0u);
}

TEST(Runtime, LdcMovesMoreBytesWhenDisabled)
{
    auto measure = [&](bool ldc) {
        RuntimeConfig config;
        config.lazyDataCopy = ldc;
        auto runtime = env().makeRuntime(
            PartitionPlan::freePartDefault(), config);
        ApiResult img = runtime->invoke(
            "cv2.imread",
            {ipc::Value(std::string("/data/test.fpim"))});
        ipc::Value ref = img.values[0];
        for (int i = 0; i < 5; ++i) {
            ApiResult r = runtime->invoke("cv2.GaussianBlur", {ref});
            ref = r.values[0];
        }
        return runtime->stats().bytesTransferred;
    };
    EXPECT_LT(measure(true), measure(false) / 2);
}

TEST(Runtime, StateMachineFollowsApiTypes)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    EXPECT_EQ(runtime->state(), FrameworkState::Initialization);
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    EXPECT_EQ(runtime->state(), FrameworkState::Loading);
    runtime->invoke("cv2.GaussianBlur", {img.values[0]});
    EXPECT_EQ(runtime->state(), FrameworkState::Processing);
    runtime->invoke("cv2.imshow",
                    {ipc::Value(std::string("w")), img.values[0]});
    EXPECT_EQ(runtime->state(), FrameworkState::Visualizing);
}

TEST(Runtime, NeutralApiDoesNotChangeState)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    EXPECT_EQ(runtime->state(), FrameworkState::Loading);
    // cvtColor is type-neutral: state stays Loading and it runs in
    // the loading agent (the paper's imread->cvtColor example).
    ApiResult gray =
        runtime->invoke("cv2.cvtColor", {img.values[0]});
    ASSERT_TRUE(gray.ok);
    EXPECT_EQ(runtime->state(), FrameworkState::Loading);
    EXPECT_EQ(runtime->homeOf(gray.values[0].asRef().objectId), 0u);
}

TEST(Runtime, TemporalProtectionFlipsPreviousStateData)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    // template-style critical data defined during Initialization.
    osim::Addr tmpl = runtime->allocHostData("template", 256);
    runtime->hostProcess().space().writeValue<uint32_t>(tmpl, 0x7e);

    // Entering Loading flips Initialization-defined data read-only.
    runtime->invoke("cv2.imread",
                    {ipc::Value(std::string("/data/test.fpim"))});
    EXPECT_THROW(
        runtime->hostProcess().space().writeValue<uint32_t>(tmpl, 1),
        osim::MemFault);
    EXPECT_EQ(
        runtime->hostProcess().space().readValue<uint32_t>(tmpl),
        0x7eu);
    const RunStats &stats = runtime->stats();
    EXPECT_GE(stats.protectionFlips, 1u);
    EXPECT_GE(stats.stateChanges, 1u);
}

TEST(Runtime, ProtectionDisabledLeavesDataWritable)
{
    RuntimeConfig config;
    config.enforceMemoryProtection = false;
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault(),
                                     config);
    osim::Addr tmpl = runtime->allocHostData("template", 64);
    runtime->invoke("cv2.imread",
                    {ipc::Value(std::string("/data/test.fpim"))});
    EXPECT_NO_THROW(
        runtime->hostProcess().space().writeValue<uint32_t>(tmpl, 1));
}

TEST(Runtime, AgentPoliciesInstalledPerPartition)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    // Loading agent may read files but never send network data.
    const osim::SyscallFilter &loading = runtime->agentFilter(0);
    EXPECT_TRUE(loading.installed());
    EXPECT_TRUE(loading.permits(osim::Syscall::Openat));
    EXPECT_TRUE(loading.permits(osim::Syscall::Read));
    EXPECT_FALSE(loading.permits(osim::Syscall::Send));
    EXPECT_FALSE(loading.permits(osim::Syscall::Sendto));
    // Processing agent: pure compute, no file writes.
    const osim::SyscallFilter &processing = runtime->agentFilter(1);
    EXPECT_FALSE(processing.permits(osim::Syscall::Write));
    EXPECT_FALSE(processing.permits(osim::Syscall::Send));
    // Visualizing agent needs the GUI socket path.
    const osim::SyscallFilter &visualizing = runtime->agentFilter(2);
    EXPECT_TRUE(visualizing.permits(osim::Syscall::Sendto));
    EXPECT_TRUE(visualizing.permits(osim::Syscall::Connect));
    // Storing agent writes files but has no GUI access.
    const osim::SyscallFilter &storing = runtime->agentFilter(3);
    EXPECT_TRUE(storing.permits(osim::Syscall::Write));
    EXPECT_FALSE(storing.permits(osim::Syscall::Sendto));
}

TEST(Runtime, LockdownDropsInitOnlySyscallsAndLocks)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    runtime->invoke("cv2.imshow",
                    {ipc::Value(std::string("w")), img.values[0]});
    runtime->lockdownAll();
    const osim::SyscallFilter &visualizing = runtime->agentFilter(2);
    EXPECT_TRUE(visualizing.locked());
    EXPECT_FALSE(visualizing.permits(osim::Syscall::Connect));
    EXPECT_FALSE(visualizing.permits(osim::Syscall::Mprotect));
    // imshow still works: the GUI socket was connected pre-lockdown.
    ApiResult again = runtime->invoke(
        "cv2.imshow", {ipc::Value(std::string("w")), img.values[0]});
    EXPECT_TRUE(again.ok) << again.error;
}

TEST(Runtime, VideoCaptureWorksAfterLockdown)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult first = runtime->invoke("cv2.VideoCapture.read", {});
    ASSERT_TRUE(first.ok) << first.error;
    runtime->lockdownAll();
    ApiResult second = runtime->invoke("cv2.VideoCapture.read", {});
    EXPECT_TRUE(second.ok) << second.error;
}

TEST(Runtime, ExactlyOnceDeduplicatesBySequence)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult a = runtime->invoke("cv2.VideoCapture.read", {});
    ApiResult b = runtime->invoke("cv2.VideoCapture.read", {});
    ASSERT_TRUE(a.ok && b.ok);
    // Different sequence numbers -> two distinct frames captured.
    EXPECT_EQ(env().kernel->camera().framesCaptured(), 2u);
}

TEST(Runtime, AgentCrashIsContainedAndRestarted)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    // Craft a malicious image whose payload DoS-crashes imread.
    fw::ExploitPayload payload;
    payload.kind = fw::PayloadKind::Dos;
    payload.cve = "CVE-2017-14136";
    env().kernel->vfs().putFile(
        "/data/evil.fpim",
        fw::encodeImageFile(8, 8, 1, fw::synthPixels(8, 8, 1, 0),
                            payload));

    ApiResult result = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/evil.fpim"))});
    // The attack crashes the loading agent (twice, including the
    // at-least-once retry); the host survives.
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.agentCrashed);
    EXPECT_TRUE(runtime->hostAlive());
    const RunStats &stats = runtime->stats();
    EXPECT_GE(stats.agentCrashes, 1u);
    EXPECT_GE(stats.agentRestarts, 1u);
    EXPECT_GE(stats.retriedCalls, 1u);

    // The agent is usable again for benign input.
    ApiResult benign = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    EXPECT_TRUE(benign.ok) << benign.error;
}

TEST(Runtime, NoRestartLeavesAgentDead)
{
    RuntimeConfig config;
    config.restartAgents = false;
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault(),
                                     config);
    fw::ExploitPayload payload;
    payload.kind = fw::PayloadKind::Dos;
    payload.cve = "CVE-2017-14136";
    env().kernel->vfs().putFile(
        "/data/evil.fpim",
        fw::encodeImageFile(8, 8, 1, fw::synthPixels(8, 8, 1, 0),
                            payload));
    runtime->invoke("cv2.imread",
                    {ipc::Value(std::string("/data/evil.fpim"))});
    EXPECT_FALSE(runtime->agentAlive(0));
    ApiResult after = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    EXPECT_FALSE(after.ok);
    // Other agents unaffected.
    EXPECT_TRUE(runtime->agentAlive(1));
}

TEST(Runtime, CheckpointRestoresStatefulObjectsAcrossRestart)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    // Train a "model": stateful weights live in the processing agent.
    ApiResult model = runtime->invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    ASSERT_TRUE(model.ok) << model.error;
    ipc::ObjectRef weights = model.values[0].asRef();
    // Mutate the state via a stateful API (checkpointed afterwards).
    ApiResult data = runtime->invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    ApiResult trained = runtime->invoke(
        "tf.estimator.DNNClassifier.train",
        {ipc::Value(weights), data.values[0]});
    ASSERT_TRUE(trained.ok) << trained.error;

    // The weights live in the processing agent now; checkpoint the
    // trained state and remember it.
    uint32_t p = runtime->homeOf(weights.objectId);
    runtime->checkpointAgent(p);
    runtime->fetchToHost(weights);
    std::vector<uint8_t> before =
        runtime->hostStore().serialize(weights.objectId);

    // Crash + restart the agent; checkpointed state is restored.
    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(p)), "induced");
    ASSERT_TRUE(runtime->restartAgent(p));
    EXPECT_TRUE(runtime->agentAlive(p));
    EXPECT_TRUE(runtime->storeOf(p).has(weights.objectId));
    std::vector<uint8_t> after =
        runtime->storeOf(p).serialize(weights.objectId);
    EXPECT_EQ(before, after);
}

TEST(Runtime, InHostPlanRunsEverythingInHostProcess)
{
    auto runtime = env().makeRuntime(PartitionPlan::inHost());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(img.ok);
    EXPECT_EQ(runtime->homeOf(img.values[0].asRef().objectId),
              kHostPartition);
    EXPECT_EQ(runtime->stats().ipcMessages, 0u);
}

TEST(Runtime, SingleAgentPlanUsesOnePartition)
{
    auto runtime = env().makeRuntime(PartitionPlan::singleAgent());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ApiResult blur =
        runtime->invoke("cv2.GaussianBlur", {img.values[0]});
    ASSERT_TRUE(blur.ok);
    EXPECT_EQ(runtime->homeOf(blur.values[0].asRef().objectId), 0u);
    // Same-partition args need no copies at all.
    EXPECT_EQ(runtime->stats().directCopies, 0u);
}

TEST(Runtime, FetchToHostMakesDataReadableAndCountsEager)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ipc::ObjectRef ref = img.values[0].asRef();
    EXPECT_TRUE(runtime->fetchToHost(ref));
    EXPECT_EQ(runtime->homeOf(ref.objectId), kHostPartition);
    const fw::MatDesc &mat = runtime->hostStore().mat(ref.objectId);
    EXPECT_EQ(mat.rows, 64u);
    EXPECT_GE(runtime->stats().eagerCopies, 1u);
}

TEST(Runtime, EvictionReleasesEveryCopysMapping)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ipc::ObjectRef ref = img.values[0].asRef();
    ASSERT_TRUE(runtime->fetchToHost(ref)); // host copy; agent keeps its
    osim::AddressSpace &host = runtime->hostProcess().space();
    osim::AddressSpace &agent =
        env().kernel->process(runtime->agentPid(0)).space();
    osim::Addr host_copy = runtime->hostStore().get(ref.objectId).addr;
    size_t host_before = host.mappingCount();
    size_t agent_before = agent.mappingCount();

    runtime->evictObject(ref.objectId);
    EXPECT_EQ(host.mappingCount(), host_before - 1);
    EXPECT_EQ(agent.mappingCount(), agent_before - 1);
    EXPECT_THROW(host.readValue<uint8_t>(host_copy), osim::MemFault);
}

TEST(Runtime, ProtectionFlipSkipsAReleasedFetchedCopy)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ipc::ObjectRef ref = img.values[0].asRef();
    FrameworkState loading = runtime->state();
    ASSERT_TRUE(runtime->fetchToHost(ref));
    osim::Addr first = runtime->hostStore().get(ref.objectId).addr;
    // Same state: a type-neutral call takes the object back to an
    // agent, and the host fetches it again into a fresh copy; the
    // first copy is released while its var is still unprotected.
    ASSERT_TRUE(runtime->invoke("cv2.cvtColor", {img.values[0]}).ok);
    ASSERT_EQ(runtime->state(), loading);
    ASSERT_NE(runtime->homeOf(ref.objectId), kHostPartition);
    ASSERT_TRUE(runtime->fetchToHost(ref));
    osim::Addr second = runtime->hostStore().get(ref.objectId).addr;
    osim::AddressSpace &host = runtime->hostProcess().space();
    EXPECT_FALSE(host.isMapped(first, 1));

    // Leaving the state flips the live copy and skips the released one.
    ApiResult blurred =
        runtime->invoke("cv2.GaussianBlur", {img.values[0]});
    ASSERT_TRUE(blurred.ok) << blurred.error;
    ASSERT_NE(runtime->state(), loading);
    EXPECT_EQ(host.permsAt(second), osim::PermRead);
}

TEST(Runtime, StatsTrackIpcAndSimTime)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(img.ok);
    const RunStats &stats = runtime->stats();
    EXPECT_EQ(stats.apiCalls, 1u);
    EXPECT_EQ(stats.ipcMessages, 2u); // request + response
    EXPECT_GT(stats.bytesTransferred, 0u);
    EXPECT_GT(stats.elapsed(), 0u);
}

TEST(Runtime, UnknownApiReturnsError)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult result = runtime->invoke("cv2.doesNotExist", {});
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("unknown API"), std::string::npos);
}

TEST(PartitionPlan, CustomMapValidation)
{
    std::map<std::string, uint32_t> map = {{"cv2.imread", 0},
                                           {"cv2.imshow", 1}};
    PartitionPlan plan = PartitionPlan::custom(map, 2);
    EXPECT_EQ(plan.partitionFor("cv2.imread", ApiType::Loading), 0u);
    EXPECT_EQ(plan.partitionFor("cv2.imshow", ApiType::Visualizing),
              1u);
    // Unlisted APIs run in the host under ByApi plans.
    EXPECT_EQ(plan.partitionFor("cv2.erode", ApiType::Processing),
              kHostPartition);
    EXPECT_ANY_THROW(PartitionPlan::custom({{"x", 5}}, 2));
}

TEST(PartitionPlan, PerApiAssignsDistinctPartitions)
{
    PartitionPlan plan =
        PartitionPlan::perApi({"a", "b", "c", "b"});
    EXPECT_EQ(plan.partitionCount(), 3u);
    EXPECT_NE(plan.partitionFor("a", ApiType::Processing),
              plan.partitionFor("b", ApiType::Processing));
}

TEST(FrameworkStates, MappingFromApiType)
{
    EXPECT_EQ(stateForType(ApiType::Storing),
              FrameworkState::Storing);
    EXPECT_EQ(stateForType(ApiType::Visualizing),
              FrameworkState::Visualizing);
}

} // namespace
} // namespace freepart::core
