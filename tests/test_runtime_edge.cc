/**
 * @file
 * Edge-case and failure-injection tests for the runtime: dead hosts,
 * neutral APIs under non-default plans, protection of agent-resident
 * data, oversized messages, checkpoint cadence, restart home
 * reassignment, the at-least-once / exactly-once seams, and the
 * write-time checkpoint verdicts that lookups and restores share.
 */

#include <gtest/gtest.h>

#include "core/runtime.hh"
#include "osim/fault_injection.hh"
#include "util/logging.hh"

namespace freepart::core {
namespace {


struct EdgeEnv {
    EdgeEnv() : registry(fw::buildFullRegistry())
    {
        analysis::HybridCategorizer categorizer(registry);
        cats = categorizer.categorizeAll();
    }

    std::unique_ptr<FreePartRuntime>
    makeRuntime(PartitionPlan plan, RuntimeConfig config = {})
    {
        kernel = std::make_unique<osim::Kernel>();
        fw::seedFixtureFiles(*kernel);
        return std::make_unique<FreePartRuntime>(
            *kernel, registry, cats, std::move(plan), config);
    }

    fw::ApiRegistry registry;
    analysis::Categorization cats;
    std::unique_ptr<osim::Kernel> kernel;
};

EdgeEnv &
env()
{
    static EdgeEnv instance;
    return instance;
}

TEST(RuntimeEdge, InvokeOnCrashedHostFailsGracefully)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    env().kernel->faultProcess(runtime->hostProcess(), "test");
    ApiResult result = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("crashed"), std::string::npos);
}

TEST(RuntimeEdge, NeutralApiFollowsContextOnlyUnderTypePlans)
{
    // Under a ByApi plan the neutral override must not apply (the
    // custom map is authoritative).
    std::map<std::string, uint32_t> map = {{"cv2.imread", 0},
                                           {"cv2.cvtColor", 1}};
    auto runtime =
        env().makeRuntime(PartitionPlan::custom(map, 2));
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(img.ok);
    ApiResult gray = runtime->invoke("cv2.cvtColor",
                                     {img.values[0]});
    ASSERT_TRUE(gray.ok);
    EXPECT_EQ(runtime->homeOf(gray.values[0].asRef().objectId), 1u);
}

TEST(RuntimeEdge, NeutralApiBeforeAnyConcreteCallUsesTypePartition)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    // cvtColor as the very first call: no context yet, so it lands
    // in the processing agent (its static type).
    uint64_t id = runtime->createHostMat(8, 8, 3, 1, "m");
    ApiResult gray = runtime->invoke(
        "cv2.cvtColor",
        {ipc::Value(ipc::ObjectRef{kHostPartition, id})});
    ASSERT_TRUE(gray.ok);
    EXPECT_EQ(runtime->homeOf(gray.values[0].asRef().objectId), 1u);
}

TEST(RuntimeEdge, PartitionDataIsAnnotatedAndProtected)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    osim::Addr addr = runtime->allocInPartition(1, "agent-data", 64);
    // Transitioning out of Initialization protects it, wherever it
    // lives.
    runtime->invoke("cv2.imread",
                    {ipc::Value(std::string("/data/test.fpim"))});
    osim::Process &agent =
        env().kernel->process(runtime->agentPid(1));
    EXPECT_THROW(agent.space().writeValue<uint8_t>(addr, 1),
                 osim::MemFault);
}

TEST(RuntimeEdge, SameStateDataStaysWritableUntilTransition)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    runtime->invoke("cv2.imread",
                    {ipc::Value(std::string("/data/test.fpim"))});
    // Data defined DURING the Loading state...
    osim::Addr addr = runtime->allocHostData("loading-data", 32);
    runtime->invoke("cv2.VideoCapture.read", {});
    // ...stays writable while still in Loading...
    EXPECT_NO_THROW(
        runtime->hostProcess().space().writeValue<uint8_t>(addr, 1));
    // ...and becomes read-only on the next transition.
    uint64_t id = runtime->createHostMat(8, 8, 1, 0, "m");
    runtime->invoke("cv2.GaussianBlur",
                    {ipc::Value(ipc::ObjectRef{kHostPartition, id})});
    EXPECT_THROW(
        runtime->hostProcess().space().writeValue<uint8_t>(addr, 2),
        osim::MemFault);
}

TEST(RuntimeEdge, RepeatedStateCycleReprotectsNewData)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    // Video loop: load -> process -> load -> process; each round's
    // loading-defined data is protected at the next transition.
    for (int round = 0; round < 3; ++round) {
        ApiResult frame = runtime->invoke("cv2.VideoCapture.read",
                                          {});
        ASSERT_TRUE(frame.ok);
        runtime->fetchToHost(frame.values[0].asRef());
        ApiResult blurred = runtime->invoke("cv2.GaussianBlur",
                                            {frame.values[0]});
        ASSERT_TRUE(blurred.ok);
        const fw::MatDesc &host_copy = runtime->hostStore().mat(
            frame.values[0].asRef().objectId);
        EXPECT_THROW(runtime->hostProcess().space().writeValue(
                         host_copy.addr, uint8_t{1}),
                     osim::MemFault)
            << "round " << round;
    }
    EXPECT_GE(runtime->stats().stateChanges, 6u);
}

TEST(RuntimeEdge, CheckpointIntervalControlsCadence)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    // Load a model (loading agent) then mutate it in place so a
    // checkpoint lands after the kCheckpointInterval-th processing
    // call, and not before.
    ApiResult model = runtime->invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    ASSERT_TRUE(model.ok);
    ApiResult data = runtime->invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    auto train = [&]() {
        return runtime
            ->invoke("tf.estimator.DNNClassifier.train",
                     {model.values[0], data.values[0]})
            .ok;
    };
    for (uint32_t i = 1; i < kCheckpointInterval; ++i)
        ASSERT_TRUE(train());
    EXPECT_EQ(runtime->stats().checkpointsTaken, 0u);
    ASSERT_TRUE(train());
    EXPECT_EQ(runtime->stats().checkpointsTaken, 1u);

    uint64_t id = model.values[0].asRef().objectId;
    uint32_t p = runtime->homeOf(id);
    std::vector<uint8_t> trained = runtime->storeOf(p).serialize(id);
    // Crash + restart: the checkpointed weights come back.
    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(p)), "induced");
    ASSERT_TRUE(runtime->restartAgent(p));
    ASSERT_TRUE(runtime->storeOf(p).has(id));
    EXPECT_EQ(runtime->storeOf(p).serialize(id), trained);
}

TEST(RuntimeEdge, RestartReassignsLostObjectHomesToHostCopies)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ipc::ObjectRef ref = img.values[0].asRef();
    // Host keeps a copy, then the object moves onward to processing.
    runtime->fetchToHost(ref);
    ApiResult blurred = runtime->invoke("cv2.GaussianBlur",
                                        {img.values[0]});
    ASSERT_TRUE(blurred.ok);
    uint32_t p = runtime->homeOf(ref.objectId);
    ASSERT_EQ(p, 1u);
    // Crash the processing agent; the home falls back to the host
    // copy, so the object stays usable.
    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(1)), "induced");
    ASSERT_TRUE(runtime->restartAgent(1));
    EXPECT_EQ(runtime->homeOf(ref.objectId), kHostPartition);
    ApiResult again = runtime->invoke("cv2.GaussianBlur",
                                      {ipc::Value(ref)});
    EXPECT_TRUE(again.ok) << again.error;
}

TEST(RuntimeEdge, OversizedMessageIsAnExplicitError)
{
    RuntimeConfig config;
    config.ringBytes = 4096;
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault(),
                                     config);
    // imdecode carries the whole file as a blob inside the message.
    std::vector<uint8_t> blob = fw::encodeImageFile(
        64, 64, 3, fw::synthPixels(64, 64, 3, 0));
    ipc::ValueList args;
    args.emplace_back(std::move(blob));
    EXPECT_THROW(runtime->invoke("cv2.imdecode", std::move(args)),
                 util::FatalError);
}

TEST(RuntimeEdge, StatsLazyFractionBounds)
{
    RunStats stats;
    EXPECT_EQ(stats.lazyFraction(), 0.0);
    stats.lazyCopies = 95;
    stats.eagerCopies = 5;
    EXPECT_DOUBLE_EQ(stats.lazyFraction(), 0.95);
    EXPECT_EQ(stats.copyOps(), 100u);
}

TEST(RuntimeEdge, PartitionNamesAreDescriptive)
{
    PartitionPlan plan = PartitionPlan::freePartDefault();
    EXPECT_EQ(plan.partitionName(0), "agent:loading");
    EXPECT_EQ(plan.partitionName(2), "agent:visualizing");
    EXPECT_EQ(plan.partitionName(kHostPartition), "host");
    PartitionPlan custom = PartitionPlan::custom({{"a", 0}}, 1);
    EXPECT_EQ(custom.partitionName(0), "agent:0");
}

TEST(RuntimeEdge, GetFileWorksAfterLockdown)
{
    // The download socket is cached on first use, so the loading
    // agent can keep "downloading" after connect is dropped.
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult first = runtime->invoke(
        "tf.keras.utils.get_file",
        {ipc::Value(std::string("http://example.com/w"))});
    ASSERT_TRUE(first.ok) << first.error;
    runtime->lockdownAll();
    EXPECT_FALSE(
        runtime->agentFilter(0).permits(osim::Syscall::Connect));
    ApiResult second = runtime->invoke(
        "tf.keras.utils.get_file",
        {ipc::Value(std::string("http://example.com/w"))});
    EXPECT_TRUE(second.ok) << second.error;
}

TEST(RuntimeEdge, LockedAgentRejectsFreshMprotect)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    runtime->lockdownAll();
    osim::Process &agent =
        env().kernel->process(runtime->agentPid(1));
    osim::Addr addr = agent.space().alloc(64);
    EXPECT_THROW(env().kernel->sysMprotect(agent, addr, 64,
                                           osim::PermRWX),
                 osim::SyscallViolation);
}

TEST(RuntimeEdge, TrustedProtectStillWorksAfterLockdown)
{
    // The runtime's own mprotect path is kernel-trusted: locking the
    // agents must not break temporal protection.
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    runtime->lockdownAll();
    osim::Addr addr = runtime->allocHostData("late-data", 64);
    runtime->invoke("cv2.imread",
                    {ipc::Value(std::string("/data/test.fpim"))});
    runtime->invoke("cv2.VideoCapture.read", {});
    uint64_t id = runtime->createHostMat(8, 8, 1, 0, "m");
    runtime->invoke("cv2.GaussianBlur",
                    {ipc::Value(ipc::ObjectRef{kHostPartition, id})});
    EXPECT_THROW(
        runtime->hostProcess().space().writeValue<uint8_t>(addr, 1),
        osim::MemFault);
}

TEST(RuntimeEdge, StoreOfHostReturnsHostStore)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    EXPECT_EQ(&runtime->storeOf(kHostPartition),
              &runtime->hostStore());
}

TEST(RuntimeEdge, HomeOfUnknownObjectPanics)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    EXPECT_ANY_THROW(runtime->homeOf(0xdeadbeefull));
}

TEST(RuntimeEdge, HasObjectSeesCheckpointHeldObjectsAcrossDeadRespawn)
{
    // A checkpointed object must keep resolving even when the fresh
    // incarnation is stillborn (injected restore crash) and the bulk
    // restore never ran: the lost-scan eagerly rebuilds the object
    // from the agent's checkpoints and keeps it homed.
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult model = runtime->invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    ASSERT_TRUE(model.ok) << model.error;
    uint64_t id = model.values[0].asRef().objectId;
    uint32_t p = runtime->homeOf(id);
    runtime->checkpointAgent(p);

    osim::FaultInjector injector(1);
    env().kernel->setFaultInjector(&injector);
    osim::FaultSpec spec;
    spec.point = osim::FaultPoint::Restore;
    spec.action = osim::FaultAction::Crash;
    spec.pid = runtime->agentPid(p);
    spec.count = 1;
    injector.schedule(spec);

    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(p)), "induced");
    EXPECT_FALSE(runtime->restartAgent(p)); // stillborn incarnation
    EXPECT_TRUE(runtime->hasObject(id));
    EXPECT_GE(runtime->stats().checkpointSourcedRestores, 1u);
    // The injected fault is spent: the next restart comes up and the
    // object is still usable.
    ASSERT_TRUE(runtime->restartAgent(p));
    EXPECT_TRUE(runtime->storeOf(runtime->homeOf(id)).has(id));
    env().kernel->setFaultInjector(nullptr);
}

/** Steps shared by the two crash-path regressions below: X loads in
 *  the loading agent (p0), p0 is checkpointed, then cv2.rectangle
 *  moves X to the processing agent (p1) by LDC and draws on it. */
struct MovedAfterCheckpoint {
    std::unique_ptr<FreePartRuntime> runtime =
        env().makeRuntime(PartitionPlan::freePartDefault());
    ipc::ObjectRef x{};
    std::vector<uint8_t> drawn; //!< X's bytes after the rectangle

    MovedAfterCheckpoint()
    {
        ApiResult img = runtime->invoke(
            "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
        EXPECT_TRUE(img.ok) << img.error;
        x = img.values.at(0).asRef();
        EXPECT_EQ(runtime->homeOf(x.objectId), 0u);
        runtime->checkpointAgent(0);
        ApiResult rect = runtime->invoke(
            "cv2.rectangle",
            {ipc::Value(x), ipc::Value(uint64_t{2}), ipc::Value(uint64_t{2}),
             ipc::Value(uint64_t{8}), ipc::Value(uint64_t{8}),
             ipc::Value(uint64_t{255})});
        EXPECT_TRUE(rect.ok) << rect.error;
        EXPECT_EQ(runtime->homeOf(x.objectId), 1u);
        drawn = runtime->storeOf(1).serialize(x.objectId);
    }

    void
    crash(uint32_t partition)
    {
        env().kernel->faultProcess(
            env().kernel->process(runtime->agentPid(partition)),
            "induced");
    }
};

TEST(RuntimeEdge, RestartDoesNotRollBackAnObjectMovedToALiveAgent)
{
    MovedAfterCheckpoint f;
    f.crash(0);
    ASSERT_TRUE(f.runtime->restartAgent(0));
    // The restarted agent gets its checkpointed (older) copy back...
    ASSERT_TRUE(f.runtime->storeOf(0).has(f.x.objectId));
    EXPECT_NE(f.runtime->storeOf(0).serialize(f.x.objectId), f.drawn);
    // ...but X stays with the live agent holding the newer bytes.
    EXPECT_EQ(f.runtime->homeOf(f.x.objectId), 1u);
    ASSERT_TRUE(f.runtime->fetchToHost(f.x));
    EXPECT_EQ(f.runtime->hostStore().serialize(f.x.objectId), f.drawn);
}

TEST(RuntimeEdge, ObjectVouchedForOnlyByADeadAgentsChainFailsTyped)
{
    // p0's checkpoints still hold X, but p0 stays dead; p1, X's home,
    // restarts without a checkpoint of it. X resolves nowhere, so
    // using it is a typed failure, not a host panic in homeOf.
    MovedAfterCheckpoint f;
    f.crash(0);
    f.crash(1);
    ASSERT_TRUE(f.runtime->restartAgent(1));
    EXPECT_FALSE(f.runtime->hasObject(f.x.objectId));
    ApiResult blurred =
        f.runtime->invoke("cv2.GaussianBlur", {ipc::Value(f.x)});
    EXPECT_FALSE(blurred.ok);
    EXPECT_NE(blurred.error.find("was lost in an agent crash"),
              std::string::npos)
        << blurred.error;
    EXPECT_FALSE(f.runtime->fetchToHost(f.x));

    // Once p0 restarts, its restore re-homes the homeless X there.
    ASSERT_TRUE(f.runtime->restartAgent(0));
    ASSERT_TRUE(f.runtime->hasObject(f.x.objectId));
    EXPECT_EQ(f.runtime->homeOf(f.x.objectId), 0u);
    EXPECT_TRUE(f.runtime->fetchToHost(f.x));
}

TEST(RuntimeEdge, EvictedCheckpointedObjectStaysGone)
{
    // Eviction scrubs the checkpoints too, so data deliberately handed
    // to another runtime stops resolving here.
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult model = runtime->invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    ASSERT_TRUE(model.ok) << model.error;
    uint64_t id = model.values[0].asRef().objectId;
    runtime->checkpointAgent(runtime->homeOf(id));
    ASSERT_TRUE(runtime->hasObject(id));
    runtime->evictObject(id);
    EXPECT_FALSE(runtime->hasObject(id));
}

TEST(RuntimeEdge, FetchToHostFallsBackToStaleAgentCopyAfterOwnerDeath)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(img.ok) << img.error;
    ipc::ObjectRef ref = img.values[0].asRef();
    // The object moves loading -> processing; the loading agent keeps
    // a stale copy from before the LDC transfer. No host copy exists.
    ApiResult blurred =
        runtime->invoke("cv2.GaussianBlur", {img.values[0]});
    ASSERT_TRUE(blurred.ok) << blurred.error;
    ASSERT_EQ(runtime->homeOf(ref.objectId), 1u);
    ASSERT_FALSE(runtime->hostStore().has(ref.objectId));

    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(1)), "induced");
    ASSERT_TRUE(runtime->restartAgent(1));
    // Home fell back to the loading agent's stale copy...
    EXPECT_EQ(runtime->homeOf(ref.objectId), 0u);
    // ...and a host dereference of that copy works.
    EXPECT_TRUE(runtime->fetchToHost(ref));
    EXPECT_TRUE(runtime->hostStore().has(ref.objectId));
}

TEST(RuntimeEdge, FetchToHostRefusesAForgedRef)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ipc::ObjectRef forged{1, 0xdeadbeefull};
    osim::SimTime before = env().kernel->now();
    EXPECT_FALSE(runtime->fetchToHost(forged));
    EXPECT_FALSE(runtime->hostStore().has(forged.objectId));
    EXPECT_FALSE(runtime->hasObject(forged.objectId));
    EXPECT_EQ(env().kernel->now(), before);
    EXPECT_EQ(runtime->stats().eagerCopies, 0u);
}

TEST(RuntimeEdge, FetchToHostRefusesAnObjectLostInACrash)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(img.ok) << img.error;
    ApiResult blurred =
        runtime->invoke("cv2.GaussianBlur", {img.values[0]});
    ASSERT_TRUE(blurred.ok) << blurred.error;
    ipc::ObjectRef ref = blurred.values[0].asRef();
    // No host copy and no checkpoint: the result dies with its agent.
    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(1)), "induced");
    ASSERT_TRUE(runtime->restartAgent(1));
    ASSERT_FALSE(runtime->hasObject(ref.objectId));

    osim::SimTime before = env().kernel->now();
    uint64_t copies = runtime->stats().eagerCopies;
    EXPECT_FALSE(runtime->fetchToHost(ref));
    EXPECT_FALSE(runtime->hostStore().has(ref.objectId));
    EXPECT_EQ(env().kernel->now(), before);
    EXPECT_EQ(runtime->stats().eagerCopies, copies);
}

TEST(RuntimeEdge, EvictObjectPrunesDedupEntriesReferencingIt)
{
    auto runtime = env().makeRuntime(PartitionPlan::freePartDefault());
    ApiResult img = runtime->invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(img.ok) << img.error;
    ApiResult blurred =
        runtime->invoke("cv2.GaussianBlur", {img.values[0]});
    ASSERT_TRUE(blurred.ok) << blurred.error;
    uint64_t result_id = blurred.values[0].asRef().objectId;
    size_t cached = runtime->seqCacheSize(1);
    ASSERT_GE(cached, 1u);
    // Evicting the result must drop the cached response that hands
    // out a ref to it — a dedup hit would otherwise dangle.
    runtime->evictObject(result_id);
    EXPECT_LT(runtime->seqCacheSize(1), cached);
    EXPECT_FALSE(runtime->hasObject(result_id));
}

// ---- Checkpoint verdicts: verified once, when written -----------------

/** Two torch.load results in one agent, checkpointing it after each
 *  load; the generation cut after the second load is corrupted at
 *  write time, so only the first load's generation is restorable. */
struct CorruptGenFixture {
    std::unique_ptr<FreePartRuntime> runtime;
    osim::FaultInjector injector{1};
    uint64_t kept = 0;    //!< captured by the intact generation
    uint64_t corrupt = 0; //!< only in the corrupted generation
    uint32_t partition = 0;

    CorruptGenFixture()
    {
        runtime = env().makeRuntime(PartitionPlan::freePartDefault());
        env().kernel->setFaultInjector(&injector);
        kept = load();
        partition = runtime->homeOf(kept);
        runtime->checkpointAgent(partition);
        schedule(osim::FaultPoint::Checkpoint,
                 osim::FaultAction::Corrupt);
        corrupt = load();
        EXPECT_EQ(runtime->homeOf(corrupt), partition);
        runtime->checkpointAgent(partition);
    }

    ~CorruptGenFixture() { env().kernel->setFaultInjector(nullptr); }
    CorruptGenFixture(const CorruptGenFixture &) = delete;
    CorruptGenFixture &operator=(const CorruptGenFixture &) = delete;

    uint64_t
    load()
    {
        ApiResult model = runtime->invoke(
            "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
        EXPECT_TRUE(model.ok) << model.error;
        return model.ok ? model.values[0].asRef().objectId : 0;
    }

    void
    schedule(osim::FaultPoint point, osim::FaultAction action)
    {
        osim::FaultSpec spec;
        spec.point = point;
        spec.action = action;
        spec.pid = runtime->agentPid(partition);
        spec.count = 1;
        injector.schedule(spec);
    }

    void
    crash()
    {
        env().kernel->faultProcess(
            env().kernel->process(runtime->agentPid(partition)),
            "induced");
    }
};

TEST(CheckpointVerdict, LookupAndRestoreSkipTheSameCorruptGeneration)
{
    CorruptGenFixture f;
    // A stillborn respawn skips the bulk restore, so what survives is
    // decided by the lookup path alone (hasObject / the lost-scan).
    f.schedule(osim::FaultPoint::Restore, osim::FaultAction::Crash);
    f.crash();
    EXPECT_FALSE(f.runtime->restartAgent(f.partition));
    bool lookup_kept = f.runtime->hasObject(f.kept);
    bool lookup_corrupt = f.runtime->hasObject(f.corrupt);
    EXPECT_TRUE(lookup_kept);
    EXPECT_FALSE(lookup_corrupt);
    EXPECT_EQ(f.runtime->stats().checkpointFallbacks, 0u);

    // The bulk restore skips the corrupt generation once and restores
    // exactly the ids the lookup vouched for.
    ASSERT_TRUE(f.runtime->restartAgent(f.partition));
    EXPECT_EQ(f.runtime->stats().checkpointFallbacks, 1u);
    fw::ObjectStore &store = f.runtime->storeOf(f.partition);
    EXPECT_EQ(store.has(f.kept), lookup_kept);
    EXPECT_EQ(store.has(f.corrupt), lookup_corrupt);
    EXPECT_EQ(f.runtime->hasObject(f.corrupt), lookup_corrupt);
}

TEST(CheckpointVerdict, EvictingTheOnlyCorruptEntryRestoresTheGeneration)
{
    CorruptGenFixture f;
    f.runtime->evictObject(f.corrupt);
    f.crash();
    ASSERT_TRUE(f.runtime->restartAgent(f.partition));
    // The newest generation lost its only bad entry, so it is
    // restorable again: no fallback.
    EXPECT_EQ(f.runtime->stats().checkpointFallbacks, 0u);
    EXPECT_TRUE(f.runtime->storeOf(f.partition).has(f.kept));
    EXPECT_FALSE(f.runtime->hasObject(f.corrupt));
}

TEST(CheckpointVerdict, SquashScrubbingACorruptEntryKeepsTheCount)
{
    // A processing API that draws into its input in place (the
    // pre-window write that forces a squash) and also mints a blurred
    // copy, so the squash has a checkpointed object to scrub.
    fw::ApiRegistry registry = fw::buildFullRegistry();
    fw::ApiDescriptor api = registry.require("cv2.rectangle");
    api.name = "test.drawAndBlur";
    api.fn = [draw = api.fn,
              blur = registry.require("cv2.GaussianBlur").fn](
                 fw::ExecContext &ctx, const fw::ApiDescriptor &desc,
                 const ipc::ValueList &args) -> ipc::ValueList {
        draw(ctx, desc, args);
        return {args[0], blur(ctx, desc, {args[0]})[0]};
    };
    registry.add(std::move(api));
    analysis::Categorization cats = env().cats;
    cats["test.drawAndBlur"] = cats.at("cv2.rectangle");
    osim::FaultInjector injector(1);
    osim::Kernel kernel;
    fw::seedFixtureFiles(kernel);
    kernel.setFaultInjector(&injector);
    RuntimeConfig config;
    config.pipelineParallel = true;
    config.speculativeFlips = true;
    FreePartRuntime runtime(kernel, registry, cats,
                            PartitionPlan::freePartDefault(), config);

    auto call = [&](const std::string &name, ipc::ValueList args) {
        const ApiResult *res =
            runtime.peekResult(runtime.invokeAsync(name, args));
        EXPECT_TRUE(res && res->ok) << (res ? res->error : name);
        return res && res->ok ? res->values : ipc::ValueList{};
    };
    ipc::ValueList frame =
        call("cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_EQ(frame.size(), 1u);
    // kCheckpointInterval - 1 blurs on the processing agent, then one
    // explicit checkpoint: the cadence cuts the next generation inside
    // the speculative call below, the agent's kCheckpointInterval-th.
    ipc::ValueList chain = frame;
    std::vector<uint64_t> blurs;
    for (uint32_t i = 1; i < kCheckpointInterval; ++i) {
        chain = call("cv2.GaussianBlur", chain);
        ASSERT_EQ(chain.size(), 1u);
        blurs.push_back(chain[0].asRef().objectId);
    }
    uint64_t chain_id = chain[0].asRef().objectId;
    uint32_t p = runtime.homeOf(chain_id);
    runtime.checkpointAgent(p);
    runtime.fetchToHost(chain[0].asRef()); // opens the window
    ASSERT_TRUE(runtime.speculationActive());

    // The generation cut inside the speculative call holds the
    // in-place-written chain and the minted copy, both corrupted.
    osim::FaultSpec spec;
    spec.point = osim::FaultPoint::Checkpoint;
    spec.action = osim::FaultAction::Corrupt;
    spec.pid = runtime.agentPid(p);
    spec.count = 1;
    injector.schedule(spec);
    ipc::ValueList drawn = call(
        "test.drawAndBlur",
        {chain[0], ipc::Value(uint64_t{2}), ipc::Value(uint64_t{2}),
         ipc::Value(uint64_t{8}), ipc::Value(uint64_t{8}),
         ipc::Value(uint64_t{255})});
    ASSERT_EQ(drawn.size(), 2u);
    runtime.drainAll();
    ASSERT_EQ(runtime.stats().speculationRollbacks, 1u);

    // The squash scrubbed the corrupt minted copy; evicting the
    // chain removes the generation's other corrupt entry. No write
    // follows, so the restart reads that very generation: only a
    // count kept in step with both erasures leaves it restorable.
    runtime.evictObject(chain_id);
    kernel.faultProcess(kernel.process(runtime.agentPid(p)), "induced");
    ASSERT_TRUE(runtime.restartAgent(p));
    EXPECT_EQ(runtime.stats().checkpointFallbacks, 0u);
    for (size_t i = 0; i + 1 < blurs.size(); ++i)
        EXPECT_TRUE(runtime.storeOf(p).has(blurs[i])) << i;
    EXPECT_FALSE(runtime.storeOf(p).has(chain_id));
}

TEST(RuntimeConfigValidation, RejectsBrokenCombinations)
{
    auto build = [&](RuntimeConfig config) {
        env().makeRuntime(PartitionPlan::freePartDefault(), config);
    };

    RuntimeConfig ok;
    EXPECT_NO_THROW(build(ok));

    RuntimeConfig ring;
    ring.ringBytes = 0;
    EXPECT_THROW(build(ring), util::FatalError);

}

} // namespace
} // namespace freepart::core
