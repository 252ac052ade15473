/**
 * @file
 * Tests for the cluster chaos-and-recovery layer: the extended fault
 * injector (stall / slow-down magnitudes), seeded ChaosSchedule
 * generation, the HealthMonitor state machine, and the ShardRouter's
 * open-loop invokeAt path — hedged attempts, deadline and queue-depth
 * admission control, degraded replica reads, kill/rejoin recovery,
 * and byte-identical determinism under a fixed chaos seed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/runtime.hh"
#include "shard/chaos.hh"
#include "shard/health_monitor.hh"
#include "shard/shard_router.hh"
#include "util/logging.hh"

namespace freepart::shard {
namespace {

// ---- Fault injector magnitudes --------------------------------------

TEST(ClusterFaults, QueryFireCarriesStallAndSlowMagnitudes)
{
    osim::FaultInjector injector(42);
    osim::FaultSpec stall;
    stall.point = osim::FaultPoint::ShardAdmission;
    stall.action = osim::FaultAction::Stall;
    stall.pid = 3; // shard slot 2
    stall.stallTime = 750'000;
    injector.schedule(stall);
    osim::FaultSpec slow;
    slow.point = osim::FaultPoint::ClusterTransfer;
    slow.action = osim::FaultAction::SlowDown;
    slow.slowFactor = 4.5;
    injector.schedule(slow);

    // Wrong pid: no fire.
    osim::FaultFire miss =
        injector.queryFire(osim::FaultPoint::ShardAdmission, 1);
    EXPECT_EQ(miss.action, osim::FaultAction::None);

    osim::FaultFire hit =
        injector.queryFire(osim::FaultPoint::ShardAdmission, 3);
    EXPECT_EQ(hit.action, osim::FaultAction::Stall);
    EXPECT_EQ(hit.stallTime, 750'000u);

    osim::FaultFire xfer =
        injector.queryFire(osim::FaultPoint::ClusterTransfer, 9);
    EXPECT_EQ(xfer.action, osim::FaultAction::SlowDown);
    EXPECT_DOUBLE_EQ(xfer.slowFactor, 4.5);

    EXPECT_STREQ(faultPointName(osim::FaultPoint::ShardAdmission),
                 "shard-admission");
    EXPECT_STREQ(faultActionName(osim::FaultAction::Stall), "stall");
}

// ---- ChaosSchedule ----------------------------------------------------

TEST(ChaosSchedule, GenerateIsDeterministicPerSeed)
{
    ChaosSchedule a = ChaosSchedule::generate(7, 4, 400, 0.1);
    ChaosSchedule b = ChaosSchedule::generate(7, 4, 400, 0.1);
    ASSERT_EQ(a.specs.size(), b.specs.size());
    for (size_t i = 0; i < a.specs.size(); ++i) {
        EXPECT_EQ(a.specs[i].point, b.specs[i].point);
        EXPECT_EQ(a.specs[i].action, b.specs[i].action);
        EXPECT_EQ(a.specs[i].pid, b.specs[i].pid);
        EXPECT_EQ(a.specs[i].stallTime, b.specs[i].stallTime);
        EXPECT_DOUBLE_EQ(a.specs[i].slowFactor, b.specs[i].slowFactor);
        EXPECT_DOUBLE_EQ(a.specs[i].probability,
                         b.specs[i].probability);
    }
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].atCall, b.events[i].atCall);
        EXPECT_EQ(a.events[i].shard, b.events[i].shard);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    }

    // A different seed reshuffles the plan.
    ChaosSchedule c = ChaosSchedule::generate(8, 4, 400, 0.1);
    bool differs = c.specs.size() != a.specs.size() ||
                   c.events.size() != a.events.size();
    for (size_t i = 0; !differs && i < a.specs.size(); ++i)
        differs = a.specs[i].stallTime != c.specs[i].stallTime ||
                  a.specs[i].slowFactor != c.specs[i].slowFactor;
    for (size_t i = 0; !differs && i < a.events.size(); ++i)
        differs = a.events[i].atCall != c.events[i].atCall ||
                  a.events[i].shard != c.events[i].shard;
    EXPECT_TRUE(differs);
}

TEST(ChaosSchedule, ShapeMatchesContract)
{
    ChaosSchedule plan = ChaosSchedule::generate(11, 4, 400, 0.1);
    // Four degradation specs per shard, at the cluster fault points,
    // each pinned to its shard slot.
    EXPECT_EQ(plan.specs.size(), 16u);
    for (const osim::FaultSpec &spec : plan.specs) {
        EXPECT_TRUE(spec.point == osim::FaultPoint::ShardAdmission ||
                    spec.point == osim::FaultPoint::ClusterTransfer);
        EXPECT_GE(spec.pid, 1u);
        EXPECT_LE(spec.pid, 4u);
        if (spec.action == osim::FaultAction::Stall) {
            EXPECT_GT(spec.stallTime, 0u);
        }
        if (spec.action == osim::FaultAction::SlowDown) {
            EXPECT_GT(spec.slowFactor, 1.0);
        }
    }
    // Every kill is paired with a later rejoin of the same shard,
    // and events are sorted by call index.
    ASSERT_FALSE(plan.events.empty());
    int open = 0;
    uint64_t last = 0;
    for (const ChaosEvent &event : plan.events) {
        EXPECT_GE(event.atCall, last);
        last = event.atCall;
        if (event.kind == ChaosEventKind::ShardKill)
            ++open;
        else
            --open;
        EXPECT_GE(open, 0);
        EXPECT_LE(open, 1); // at most one generated window open
    }
    EXPECT_EQ(open, 0);

    // Rate 0 = no chaos at all.
    EXPECT_EQ(ChaosSchedule::generate(11, 4, 400, 0.0).planSize(), 0u);
}

// ---- HealthMonitor ----------------------------------------------------

TEST(HealthMonitor, MissedHeartbeatsEscalateSuspectThenDead)
{
    HealthMonitor monitor(2);
    EXPECT_EQ(monitor.classify(0), ShardHealth::Healthy);

    osim::SimTime now = kHeartbeatInterval;
    ASSERT_TRUE(monitor.probeDue(0, now));
    monitor.recordProbe(0, now, false);
    EXPECT_EQ(monitor.classify(0), ShardHealth::Healthy);
    monitor.recordProbe(0, now + kHeartbeatInterval, false);
    EXPECT_EQ(monitor.classify(0), ShardHealth::Suspect);
    for (uint32_t i = 0; i < kMissedForDead; ++i)
        monitor.recordProbe(0, now + (i + 2) * kHeartbeatInterval,
                            false);
    EXPECT_EQ(monitor.classify(0), ShardHealth::Dead);
    EXPECT_EQ(monitor.suspectTransitions(), 1u);
    EXPECT_EQ(monitor.deadTransitions(), 1u);

    // The other shard is untouched; a good probe resets shard 0.
    EXPECT_EQ(monitor.classify(1), ShardHealth::Healthy);
    monitor.recordProbe(0, now * 10, true);
    EXPECT_EQ(monitor.classify(0), ShardHealth::Healthy);
}

TEST(HealthMonitor, SlowEwmaAndCrashChurnRaiseSuspicion)
{
    HealthMonitor monitor(2);
    // Establish a fast baseline on shard 1 and a slow EWMA on 0.
    for (int i = 0; i < 20; ++i) {
        monitor.recordSuccess(1, i * 1000, 30'000);
        monitor.recordSuccess(0, i * 1000,
                              30'000 * 40); // 40x the baseline
    }
    EXPECT_GT(monitor.latencyEwma(0), monitor.latencyEwma(1));
    EXPECT_EQ(monitor.classify(1), ShardHealth::Healthy);
    EXPECT_EQ(monitor.classify(0), ShardHealth::Suspect);

    // Supervisor crash churn alone suspects a shard; a success
    // clears the crash count.
    for (uint32_t i = 0; i < kCrashesForSuspect; ++i)
        monitor.recordCrash(1);
    EXPECT_EQ(monitor.classify(1), ShardHealth::Suspect);
    monitor.recordSuccess(1, 100'000, 30'000);
    EXPECT_EQ(monitor.classify(1), ShardHealth::Healthy);
}

// ---- Router fixture ---------------------------------------------------

struct Env {
    Env() : registry(fw::buildFullRegistry()), categorizer(registry)
    {
        cats = categorizer.categorizeAll();
    }

    std::unique_ptr<ShardRouter>
    makeRouter(ShardRouterConfig config)
    {
        return std::make_unique<ShardRouter>(
            registry, cats, core::PartitionPlan::freePartDefault(),
            std::move(config),
            [](osim::Kernel &kernel) { fw::seedFixtureFiles(kernel); });
    }

    fw::ApiRegistry registry;
    analysis::HybridCategorizer categorizer;
    analysis::Categorization cats;
};

Env &
env()
{
    static Env instance;
    return instance;
}

/** First routing key (from base) owned by the given shard. */
uint64_t
keyOwnedBy(const ShardRouter &router, uint32_t shard,
           uint64_t base = 1000)
{
    for (uint64_t key = base; key < base + 100000; ++key)
        if (router.ownerShardOf(key) == shard)
            return key;
    ADD_FAILURE() << "no key found for shard " << shard;
    return 0;
}

ipc::ValueList
imreadArgs()
{
    return {ipc::Value(std::string("/data/test.fpim"))};
}

// ---- invokeAt: hedging, shedding, degradation ------------------------

TEST(ChaosRouter, StalledPrimaryIsHedgedToHealthyPeer)
{
    ShardRouterConfig config;
    config.shardCount = 2;
    auto router = env().makeRouter(config);
    uint64_t key = keyOwnedBy(*router, 0);

    ChaosSchedule plan;
    plan.seed = 1;
    osim::FaultSpec stall;
    stall.point = osim::FaultPoint::ShardAdmission;
    stall.action = osim::FaultAction::Stall;
    stall.pid = 1; // shard slot 0
    stall.count = 1;
    stall.stallTime = 50'000'000; // 50 ms freeze
    plan.specs.push_back(stall);
    router->applyChaosSchedule(plan);

    CallOptions opts;
    opts.arrival = 0;
    opts.dedupToken = 101;
    RoutedCall call = router->invokeAt(key, "cv2.imread",
                                       imreadArgs(), opts);
    ASSERT_TRUE(call.result.ok) << call.result.error;
    EXPECT_TRUE(call.hedged);
    EXPECT_EQ(call.shard, 1u); // served by the healthy peer
    EXPECT_EQ(router->stats().hedgedCalls, 1u);
    EXPECT_EQ(router->stats().chaosStalls, 1u);

    // A resubmit of the acked token collapses in the dedup cache.
    opts.arrival = 1000;
    RoutedCall dup = router->invokeAt(key, "cv2.imread",
                                      imreadArgs(), opts);
    EXPECT_TRUE(dup.deduped);
    EXPECT_EQ(router->stats().dedupHits, 1u);
}

TEST(ChaosRouter, StallDrivesMonitorDrainAndRejoin)
{
    ShardRouterConfig config;
    config.shardCount = 2;
    // No replicas: no hedge or degraded read can avoid the stalled
    // owner, so calls keep routing to it.
    config.replicateObjects = false;
    auto router = env().makeRouter(config);
    uint64_t k0 = keyOwnedBy(*router, 0);
    uint64_t k1 = keyOwnedBy(*router, 1);

    ChaosSchedule plan;
    plan.seed = 2;
    osim::FaultSpec stall;
    stall.point = osim::FaultPoint::ShardAdmission;
    stall.action = osim::FaultAction::Stall;
    stall.pid = 1;
    stall.count = 1;
    stall.stallTime = 3'000'000; // 3 ms >> dead threshold (1 ms)
    plan.specs.push_back(stall);
    router->applyChaosSchedule(plan);

    osim::SimTime step = kHeartbeatInterval;
    CallOptions opts;
    uint64_t token = 500;
    // First call arms the stall on shard 0; subsequent arrivals walk
    // the heartbeat clock until the monitor declares it dead.
    opts.arrival = 0;
    opts.dedupToken = ++token;
    router->invokeAt(k0, "cv2.imread", imreadArgs(), opts);
    bool drained = false;
    for (int i = 1; i <= 8 && !drained; ++i) {
        opts.arrival = i * step;
        opts.dedupToken = ++token;
        router->invokeAt(k1, "cv2.imread", imreadArgs(), opts);
        drained = !router->ring().contains(0);
    }
    EXPECT_TRUE(drained);
    EXPECT_GE(router->stats().deadTransitions, 1u);
    EXPECT_GT(router->stats().probesMissed, 0u);
    EXPECT_GT(router->stats().detectionTime, 0u);

    // Once the stall passes, probes succeed and the shard rejoins.
    bool rejoined = false;
    for (int i = 0; i < 8 && !rejoined; ++i) {
        opts.arrival = 4'000'000 + i * step;
        opts.dedupToken = ++token;
        router->invokeAt(k1, "cv2.imread", imreadArgs(), opts);
        rejoined = router->ring().contains(0);
    }
    EXPECT_TRUE(rejoined);
    EXPECT_GE(router->stats().shardsRejoined, 1u);
    // Hedging and degraded reads both read replicas, so neither ran.
    EXPECT_EQ(router->stats().hedgedCalls, 0u);
    EXPECT_EQ(router->stats().degradedCalls, 0u);
}

TEST(ChaosRouter, OverloadShedsWhenNoAlternative)
{
    ShardRouterConfig config;
    config.shardCount = 1;
    auto router = env().makeRouter(config);
    uint64_t key = keyOwnedBy(*router, 0);

    // A closed fist of simultaneous arrivals, more than the admission
    // queue holds: each one queues a service time deeper.
    CallOptions opts;
    opts.arrival = 0;
    uint64_t shed = 0;
    for (uint64_t i = 0; i < kMaxQueueDepth + 16; ++i) {
        opts.dedupToken = 900 + i;
        RoutedCall call = router->invokeAt(key, "cv2.imread",
                                           imreadArgs(), opts);
        if (call.shed) {
            ++shed;
            EXPECT_EQ(call.errorKind, RouteError::Overloaded);
            EXPECT_FALSE(call.result.ok);
        }
    }
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(router->stats().shedCalls, shed);
    EXPECT_GT(router->stats().queueDepthPeak, 1u);
}

TEST(ChaosRouter, OverloadDegradesToReplicaServingPeer)
{
    ShardRouterConfig config;
    config.shardCount = 2;
    auto router = env().makeRouter(config);
    uint64_t key = keyOwnedBy(*router, 0);

    // Enough simultaneous arrivals to fill both shards' queues.
    CallOptions opts;
    opts.arrival = 0;
    uint64_t degraded = 0;
    uint64_t shed = 0;
    for (uint64_t i = 0; i < 2 * kMaxQueueDepth + 16; ++i) {
        opts.dedupToken = 1900 + i;
        RoutedCall call = router->invokeAt(key, "cv2.imread",
                                           imreadArgs(), opts);
        if (!call.result.ok) {
            // Both shards saturated: the call must shed cleanly, not
            // fail some other way.
            EXPECT_TRUE(call.shed);
            EXPECT_EQ(call.errorKind, RouteError::Overloaded);
            ++shed;
            continue;
        }
        if (call.degraded) {
            ++degraded;
            EXPECT_EQ(call.shard, 1u);
        }
    }
    // The owner saturates first, so some calls must have spilled to
    // the replica-serving peer before the peer saturated too.
    EXPECT_GT(degraded, 0u);
    EXPECT_EQ(router->stats().degradedCalls, degraded);
    EXPECT_EQ(router->stats().shedCalls, shed);
}

TEST(ChaosRouter, InfeasibleDeadlineIsShedBeforeExecution)
{
    ShardRouterConfig config;
    config.shardCount = 1;
    config.defaultDeadline = 1; // 1 ns: nothing fits
    auto router = env().makeRouter(config);
    uint64_t key = keyOwnedBy(*router, 0);

    CallOptions opts;
    opts.arrival = 0;
    opts.dedupToken = 3000;
    RoutedCall call = router->invokeAt(key, "cv2.imread",
                                       imreadArgs(), opts);
    EXPECT_FALSE(call.result.ok);
    EXPECT_TRUE(call.shed);
    EXPECT_EQ(call.errorKind, RouteError::DeadlineExceeded);

    // A generous per-call deadline overrides the router default.
    opts.deadline = 1'000'000'000;
    opts.dedupToken = 3001;
    RoutedCall fine = router->invokeAt(key, "cv2.imread",
                                       imreadArgs(), opts);
    EXPECT_TRUE(fine.result.ok) << fine.result.error;
    EXPECT_FALSE(fine.deadlineMissed);
}

// ---- Kill / rejoin recovery ------------------------------------------

TEST(ChaosRouter, KillAndRejoinEventsRecoverWithZeroLoss)
{
    ShardRouterConfig config;
    config.shardCount = 3;
    auto router = env().makeRouter(config);
    uint64_t keys[3] = {keyOwnedBy(*router, 0), keyOwnedBy(*router, 1),
                        keyOwnedBy(*router, 2)};

    // Objects on every shard before the chaos starts.
    std::vector<uint64_t> objects;
    CallOptions opts;
    uint64_t token = 5000;
    osim::SimTime clock = 0;
    for (int s = 0; s < 3; ++s) {
        opts.arrival = clock += 50'000;
        opts.dedupToken = ++token;
        RoutedCall call = router->invokeAt(keys[s], "cv2.imread",
                                           imreadArgs(), opts);
        ASSERT_TRUE(call.result.ok) << call.result.error;
        objects.push_back(call.result.values[0].asRef().objectId);
    }

    ChaosSchedule plan;
    plan.seed = 3;
    plan.events.push_back({4, 0, ChaosEventKind::ShardKill});
    plan.events.push_back({8, 0, ChaosEventKind::ShardRejoin});
    router->applyChaosSchedule(plan);

    // Keep touching every object through the kill and the rejoin;
    // shard 0's object must survive via its replica.
    uint64_t failed = 0;
    for (int round = 0; round < 4; ++round) {
        for (int s = 0; s < 3; ++s) {
            opts.arrival = clock += 50'000;
            opts.dedupToken = ++token;
            RoutedCall call = router->invokeAt(
                keys[s], "cv2.flip",
                {ipc::Value(ipc::ObjectRef{0, objects[s]})}, opts);
            if (!call.result.ok)
                ++failed;
        }
    }
    EXPECT_EQ(failed, 0u);
    const ClusterStats &stats = router->stats();
    EXPECT_EQ(stats.shardsKilled, 1u);
    EXPECT_GE(stats.shardsRejoined, 1u);
    EXPECT_GE(stats.replicaRestores, 1u);
    EXPECT_EQ(stats.lostObjects, 0u);
    EXPECT_TRUE(router->shardLive(0));
    EXPECT_TRUE(router->ring().contains(0));
}

// ---- Determinism ------------------------------------------------------

TEST(ChaosRouter, SameSeedReplaysByteIdentically)
{
    auto run = [&](uint64_t seed) {
        ShardRouterConfig config;
        config.shardCount = 3;
        auto router = env().makeRouter(config);
        router->applyChaosSchedule(
            ChaosSchedule::generate(seed, 3, 60, 0.3));
        std::vector<osim::SimTime> latencies;
        CallOptions opts;
        osim::SimTime clock = 0;
        for (int i = 0; i < 60; ++i) {
            opts.arrival = clock += 80'000;
            opts.dedupToken = 7000 + i;
            opts.deadline = 20'000'000;
            RoutedCall call = router->invokeAt(
                1000 + (i % 7), "cv2.imread", imreadArgs(), opts);
            latencies.push_back(call.result.ok ? call.latency : 0);
        }
        const ClusterStats &stats = router->stats();
        return std::make_tuple(latencies, stats.callsOk,
                               stats.callsFailed, stats.shedCalls,
                               stats.hedgedCalls, stats.chaosStalls,
                               stats.chaosSlowCalls,
                               stats.messagesDropped, stats.makespan,
                               stats);
    };
    auto a = run(99);
    auto b = run(99);
    EXPECT_TRUE(a == b); // ... down to every cluster and shard counter
    // And the chaos actually did something.
    EXPECT_GT(std::get<1>(a), 0u);
}

// ---- Structured lost-object error (legacy path) ----------------------

TEST(ChaosRouter, LostObjectSurfacesStructuredError)
{
    ShardRouterConfig config;
    config.shardCount = 2;
    config.replicateObjects = false;
    auto router = env().makeRouter(config);
    uint64_t k0 = keyOwnedBy(*router, 0);
    uint64_t k1 = keyOwnedBy(*router, 1);

    uint64_t id = router->createMat(k0, 16, 16, 3, 7, "doomed");
    router->killShard(0);
    RoutedCall call = router->invoke(
        k1, "cv2.flip", {ipc::Value(ipc::ObjectRef{0, id})});
    EXPECT_FALSE(call.result.ok);
    EXPECT_EQ(call.errorKind, RouteError::ObjectLost);
    EXPECT_EQ(call.lostObjectId, id);
    EXPECT_EQ(router->stats().lostObjects, 1u);
    EXPECT_STREQ(routeErrorName(call.errorKind), "object-lost");

    // Same structured surface on the open-loop path.
    CallOptions opts;
    opts.arrival = 1'000'000;
    opts.dedupToken = 8000;
    RoutedCall open = router->invokeAt(
        k1, "cv2.flip", {ipc::Value(ipc::ObjectRef{0, id})}, opts);
    EXPECT_FALSE(open.result.ok);
    EXPECT_EQ(open.errorKind, RouteError::ObjectLost);
    EXPECT_EQ(open.lostObjectId, id);
    EXPECT_EQ(router->stats().lostObjects, 2u);
}

// ---- Config validation ------------------------------------------------

TEST(RouterConfigValidation, RejectsBrokenCombinations)
{
    auto build = [&](ShardRouterConfig config) {
        config.shardCount = 1; // keep construction cheap
        env().makeRouter(std::move(config));
    };

    ShardRouterConfig ok;
    EXPECT_NO_THROW(build(ok));

    ShardRouterConfig dedup;
    dedup.dedupEntries = 0;
    EXPECT_THROW(build(dedup), util::FatalError);

    ShardRouterConfig unrecoverable;
    unrecoverable.migrationMaxBytes = 0;
    unrecoverable.replicateObjects = false;
    EXPECT_THROW(build(unrecoverable), util::FatalError);
    // Either mechanism alone is a legal layout.
    unrecoverable.replicateObjects = true;
    EXPECT_NO_THROW(build(unrecoverable));
}

} // namespace
} // namespace freepart::shard
