/**
 * @file
 * Tests for the multi-tenant serving subsystem: warm agent pooling
 * (checkout/release/reset accounting, background-spawn maturity,
 * target governance), the SLO-driven autoscaler (sustained-pressure
 * scale-up, blip hysteresis, cooldown, panic bypass, idle scale-down,
 * revive-before-grow), shard retirement semantics (evacuation, dedup
 * retention for ended sessions vs pruning for genuinely lost
 * objects), the shared cluster client (chained-call step, result
 * adoption, at-least-once audit, service calibration), and the tenant
 * traffic generator (determinism, session accounting, zero acked
 * calls lost).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/runtime.hh"
#include "serve/agent_pool.hh"
#include "util/logging.hh"
#include "serve/autoscaler.hh"
#include "serve/tenant_workload.hh"
#include "shard/shard_router.hh"

namespace freepart::serve {
namespace {

using shard::RoutedCall;
using shard::ShardRouter;
using shard::ShardRouterConfig;

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

    std::unique_ptr<ShardRouter>
    makeRouter(uint32_t shard_count)
    {
        ShardRouterConfig config;
        config.shardCount = shard_count;
        return makeRouter(std::move(config));
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

// ---- WarmAgentPool ---------------------------------------------------

AgentPoolConfig
smallPool(uint32_t initial)
{
    AgentPoolConfig config;
    config.initialSize = initial;
    config.maxSize = 8;
    config.warmHandoff = 100;
    config.epochReset = 300;
    config.coldSpawn = 10'000;
    return config;
}

TEST(WarmAgentPool, WarmCheckoutFromInitialInventory)
{
    WarmAgentPool pool(smallPool(2));
    PoolCheckout a = pool.checkout(0, 50);
    EXPECT_TRUE(a.warm);
    EXPECT_EQ(a.cost, 100u);
    EXPECT_EQ(a.waited, 0u);
    EXPECT_EQ(pool.leases(0), 1u);
    EXPECT_EQ(pool.idleReady(0, 50), 1u);
}

TEST(WarmAgentPool, DisabledPoolAlwaysColdStarts)
{
    AgentPoolConfig config = smallPool(4);
    config.enabled = false;
    WarmAgentPool pool(config);
    PoolCheckout a = pool.checkout(0, 0);
    EXPECT_FALSE(a.warm);
    EXPECT_EQ(a.cost, 10'000u);
    EXPECT_EQ(pool.stats().coldFallbacks, 1u);
    EXPECT_EQ(pool.stats().warmCheckouts, 0u);
}

TEST(WarmAgentPool, EmptyInventoryFallsBackCold)
{
    WarmAgentPool pool(smallPool(1));
    EXPECT_TRUE(pool.checkout(0, 0).warm);
    PoolCheckout b = pool.checkout(0, 0);
    EXPECT_FALSE(b.warm);
    EXPECT_EQ(pool.leases(0), 2u);
    EXPECT_EQ(pool.stats().coldFallbacks, 1u);
}

TEST(WarmAgentPool, ReleaseRecyclesAfterEpochReset)
{
    WarmAgentPool pool(smallPool(1));
    pool.checkout(0, 0);
    pool.release(0, 1'000); // clean again at 1'300

    // Checked out mid-reset: the session waits out the remainder.
    PoolCheckout mid = pool.checkout(0, 1'100);
    EXPECT_TRUE(mid.warm);
    EXPECT_EQ(mid.waited, 200u);
    EXPECT_EQ(mid.cost, 300u); // handoff + wait
    EXPECT_EQ(pool.stats().resetWaits, 1u);

    pool.release(0, 2'000);
    PoolCheckout done = pool.checkout(0, 5'000);
    EXPECT_TRUE(done.warm);
    EXPECT_EQ(done.waited, 0u);
    EXPECT_EQ(pool.stats().setsRecycled, 2u);
}

TEST(WarmAgentPool, MidSpawnSetsAreNotLeased)
{
    WarmAgentPool pool(smallPool(0));
    pool.ensureShards(1);
    // Governance grows the pool: the set spawns in the background.
    pool.setTarget(0, 1, 0);
    EXPECT_EQ(pool.stats().targetGrows, 1u);

    // Waiting out a 10'000-tick spawn beats nothing — a checkout
    // before maturity cold-starts and leaves the set to finish.
    PoolCheckout early = pool.checkout(0, 100);
    EXPECT_FALSE(early.warm);
    EXPECT_EQ(pool.idleReady(0, 10'000), 1u);

    PoolCheckout late = pool.checkout(0, 10'000);
    EXPECT_TRUE(late.warm);
}

TEST(WarmAgentPool, ShrinkDropsIdleSetsGrowIsBackground)
{
    WarmAgentPool pool(smallPool(4));
    pool.ensureShards(1);
    pool.setTarget(0, 1, 0);
    EXPECT_EQ(pool.stats().setsDropped, 3u);
    EXPECT_EQ(pool.idleReady(0, 0), 1u);

    pool.setTarget(0, 3, 0);
    // Two fresh sets join at spawn maturity, not instantly.
    EXPECT_EQ(pool.idleReady(0, 0), 1u);
    EXPECT_EQ(pool.idleReady(0, 10'000), 3u);
}

TEST(WarmAgentPool, ReleaseOverTargetDropsTheSet)
{
    WarmAgentPool pool(smallPool(2));
    pool.checkout(0, 0);
    pool.checkout(0, 0);
    pool.setTarget(0, 1, 0); // both sets are leased; nothing to drop
    pool.release(0, 10);     // still 1 lease out == target: torn down
    pool.release(0, 20);     // now under target: recycled
    EXPECT_EQ(pool.stats().setsRecycled, 1u);
    EXPECT_EQ(pool.stats().setsDropped, 1u);
}

TEST(WarmAgentPool, DrainLeasePeakResetsToCurrentLevel)
{
    WarmAgentPool pool(smallPool(4));
    pool.checkout(0, 0);
    pool.checkout(0, 0);
    pool.checkout(0, 0);
    pool.release(0, 10);
    EXPECT_EQ(pool.drainLeasePeak(0), 3u);
    EXPECT_EQ(pool.drainLeasePeak(0), 2u); // peak == current now
}

// ---- Autoscaler ------------------------------------------------------

AutoscalerConfig
testScalerConfig(uint32_t min_live, uint32_t max_live)
{
    AutoscalerConfig config;
    config.minLiveShards = min_live;
    config.maxLiveShards = max_live;
    config.tickInterval = 100'000;
    config.scaleUpDepth = 4.0;
    config.scaleDownDepth = 0.5;
    config.panicDepth = 1e9; // opt-in per test
    config.sustainUp = 2;
    config.sustainDown = 3;
    config.cooldown = 50'000;
    config.seed = [](osim::Kernel &kernel) {
        fw::seedFixtureFiles(kernel);
    };
    return config;
}

/** Pressure helper: push a shard's horizon far enough out that its
 *  queue depth clears any up threshold. */
void
loadShard(ShardRouter &router, uint32_t shard, osim::SimTime now,
          osim::SimTime backlog)
{
    router.chargeSessionStart(keyOwnedBy(router, shard), now, backlog,
                              true);
}

TEST(Autoscaler, SustainedPressureAddsAShard)
{
    auto router = env().makeRouter(2u);
    Autoscaler scaler(*router, testScalerConfig(2, 4));

    loadShard(*router, 0, 100'000, 10'000'000);
    scaler.observe(100'000);
    EXPECT_EQ(router->liveShardCount(), 2u); // one vote: not yet
    scaler.observe(200'000);
    EXPECT_EQ(router->liveShardCount(), 3u);
    EXPECT_EQ(scaler.stats().scaleUps, 1u);
    EXPECT_EQ(scaler.stats().shardsAdded, 1u);
    EXPECT_EQ(scaler.stats().shardsRevived, 0u);
}

TEST(Autoscaler, OneTickBlipDoesNotScale)
{
    auto router = env().makeRouter(2u);
    Autoscaler scaler(*router, testScalerConfig(2, 4));

    loadShard(*router, 0, 100'000, 1'000'000);
    scaler.observe(100'000); // pressure...
    // ...but the backlog drains before the next tick: streak broken.
    scaler.observe(2'000'000);
    scaler.observe(2'100'000);
    EXPECT_EQ(router->liveShardCount(), 2u);
    EXPECT_EQ(scaler.stats().scaleUps, 0u);
    EXPECT_GE(scaler.stats().blipsIgnored, 1u);
}

TEST(Autoscaler, CooldownSpacesScaleUpsAndPanicBypassesIt)
{
    AutoscalerConfig config = testScalerConfig(2, 6);
    config.cooldown = 100'000'000; // effectively forever
    auto router = env().makeRouter(2u);
    Autoscaler scaler(*router, config);

    // Moderate sustained pressure: one up, then the cooldown holds.
    loadShard(*router, 0, 0, 40'000'000);
    for (osim::SimTime t = 100'000; t <= 800'000; t += 100'000)
        scaler.observe(t);
    EXPECT_EQ(scaler.stats().scaleUps, 1u);
    EXPECT_GE(scaler.stats().cooldownHolds, 1u);
    EXPECT_EQ(scaler.stats().panicScaleUps, 0u);

    // Same load pattern with a reachable panic threshold: hard
    // overload may ignore the cooldown (scale up fast).
    AutoscalerConfig panicConfig = config;
    panicConfig.panicDepth = 8.0;
    auto router2 = env().makeRouter(2u);
    Autoscaler panicScaler(*router2, panicConfig);
    loadShard(*router2, 0, 0, 40'000'000);
    for (osim::SimTime t = 100'000; t <= 800'000; t += 100'000)
        panicScaler.observe(t);
    EXPECT_GT(panicScaler.stats().scaleUps, 1u);
    EXPECT_GE(panicScaler.stats().panicScaleUps, 1u);
}

TEST(Autoscaler, IdleScalesDownAndPressureRevivesTheRetiredSlot)
{
    auto router = env().makeRouter(3u);
    Autoscaler scaler(*router, testScalerConfig(2, 3));

    // Sustained idleness: the policy retires the shallowest shard.
    osim::SimTime t = 100'000;
    for (; t <= 500'000; t += 100'000)
        scaler.observe(t);
    EXPECT_EQ(scaler.stats().scaleDowns, 1u);
    EXPECT_EQ(router->liveShardCount(), 2u);
    uint32_t retired = shard::kInvalidShard;
    for (uint32_t s = 0; s < router->shardCount(); ++s)
        if (router->shardRetired(s))
            retired = s;
    ASSERT_NE(retired, shard::kInvalidShard);
    EXPECT_EQ(router->stats().shardsRetired, 1u);
    // Floor respected: more idleness never goes below minLiveShards.
    for (; t <= 1'500'000; t += 100'000)
        scaler.observe(t);
    EXPECT_EQ(router->liveShardCount(), 2u);

    // Pressure prefers reviving the retired slot over growing.
    uint32_t live = retired == 0 ? 1 : 0;
    loadShard(*router, live, t, 10'000'000);
    scaler.observe(t);
    scaler.observe(t + 100'000);
    EXPECT_EQ(router->liveShardCount(), 3u);
    EXPECT_EQ(scaler.stats().shardsRevived, 1u);
    EXPECT_EQ(scaler.stats().shardsAdded, 0u);
    EXPECT_FALSE(router->shardRetired(retired));
}

TEST(Autoscaler, GovernsPoolTargetsFromLeasePeaks)
{
    auto router = env().makeRouter(2u);
    AgentPoolConfig poolConfig = smallPool(2);
    WarmAgentPool pool(poolConfig);
    AutoscalerConfig config = testScalerConfig(2, 2);
    config.poolMin = 1;
    config.poolMax = 8;
    Autoscaler scaler(*router, config, &pool);

    pool.checkout(0, 0);
    pool.checkout(0, 0);
    pool.checkout(0, 0);
    scaler.observe(100'000);
    // Peak 3 leases + 2 spares.
    EXPECT_EQ(pool.target(0), 5u);

    // Sessions drain; once the lease peak fades the target shrinks —
    // but only when the gap clears the hysteresis band (2), and never
    // below the quiet-shard slack of peak 0 + 2 spares.
    pool.release(0, 10'000);
    pool.release(0, 20'000);
    pool.release(0, 30'000);
    for (osim::SimTime t = 200'000; t <= 600'000; t += 100'000)
        scaler.observe(t);
    EXPECT_EQ(pool.target(0), 2u);
    EXPECT_EQ(pool.target(1), 2u);
    EXPECT_GE(pool.stats().targetShrinks, 1u);
}

TEST(Autoscaler, ShardSecondsIntegralTracksMembership)
{
    auto router = env().makeRouter(2u);
    AutoscalerConfig config = testScalerConfig(2, 4);
    Autoscaler scaler(*router, config);
    loadShard(*router, 0, 0, 50'000'000);
    scaler.observe(100'000);
    scaler.observe(200'000); // scales to 3 here
    scaler.finish(1'200'000);
    // 2 shards for the first 0.2ms, 3 for the remaining 1.0ms.
    EXPECT_NEAR(scaler.stats().shardSeconds,
                (2.0 * 200'000 + 3.0 * 1'000'000) * 1e-9, 1e-9);
}

TEST(Autoscaler, RejectsDegenerateConfig)
{
    auto router = env().makeRouter(1u);
    AutoscalerConfig bad = testScalerConfig(1, 1);
    bad.minLiveShards = 0;
    EXPECT_THROW(Autoscaler(*router, bad), util::FatalError);
    bad = testScalerConfig(2, 1);
    EXPECT_THROW(Autoscaler(*router, bad), util::FatalError);
    bad = testScalerConfig(1, 2);
    bad.scaleUpDepth = 0.4; // below scaleDownDepth: no hysteresis
    EXPECT_THROW(Autoscaler(*router, bad), util::FatalError);
    bad = testScalerConfig(1, 2);
    bad.panicDepth = 1.0; // below scaleUpDepth
    EXPECT_THROW(Autoscaler(*router, bad), util::FatalError);
}

// ---- Shard retirement semantics -------------------------------------

TEST(ShardRetire, EvacuatesObjectsAndScrubsTheSlot)
{
    auto router = env().makeRouter(3u);
    uint32_t victim = 2;
    uint64_t key = keyOwnedBy(*router, victim);
    RoutedCall load = router->invoke(
        key, "cv2.imread",
        {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(load.result.ok) << load.result.error;
    uint64_t id = load.result.values[0].asRef().objectId;
    ASSERT_EQ(router->homeShardOf(id), victim);

    ASSERT_TRUE(router->retireShard(victim));
    EXPECT_TRUE(router->shardRetired(victim));
    EXPECT_FALSE(router->shardLive(victim));
    EXPECT_FALSE(router->ring().contains(victim));

    // The object survived on a survivor shard, readable through the
    // directory; nothing was lost.
    uint32_t home = router->homeShardOf(id);
    EXPECT_NE(home, victim);
    EXPECT_NE(home, shard::kInvalidShard);
    RoutedCall use = router->invoke(
        key, "cv2.bitwise_not", {ipc::Value(ipc::ObjectRef{0, id})});
    EXPECT_TRUE(use.result.ok) << use.result.error;
    EXPECT_GE(router->stats().retireEvacuations, 1u);
    EXPECT_EQ(router->stats().lostObjects, 0u);
    EXPECT_EQ(router->stats().shardsRetired, 1u);

    // Retiring the last live pair down to one is allowed; retiring
    // the final shard is not.
    EXPECT_TRUE(router->retireShard(0));
    EXPECT_FALSE(router->retireShard(1));
}

TEST(ShardRetire, EndedSessionTokensStillAnswerDeduped)
{
    ShardRouterConfig config;
    config.shardCount = 3;
    auto router = env().makeRouter(std::move(config));
    uint32_t victim = 1;
    uint64_t key = keyOwnedBy(*router, victim);

    // A short session: start, two acked calls, teardown.
    router->chargeSessionStart(key, 0, 1'000, true);
    shard::CallOptions opts;
    opts.dedupToken = 71;
    opts.arrival = 10'000;
    RoutedCall a = router->invokeAt(
        key, "cv2.imread",
        {ipc::Value(std::string("/data/test.fpim"))}, opts);
    ASSERT_TRUE(a.result.ok) << a.result.error;
    opts.dedupToken = 72;
    opts.arrival = 20'000;
    RoutedCall b = router->invokeAt(key, "cv2.bitwise_not",
                                    {a.result.values[0]}, opts);
    ASSERT_TRUE(b.result.ok) << b.result.error;
    EXPECT_GE(router->endSession(key), 1u);
    EXPECT_EQ(router->stats().sessionsEnded, 1u);

    // The teardown scrubbed the session's objects but retained its
    // dedup entries: late duplicates must answer `deduped`, and a
    // later retirement of the owner must not prune them either
    // (deliberate scrub != retirement casualty).
    ASSERT_TRUE(router->retireShard(victim));
    RoutedCall dupA = router->invoke(key, "cv2.bitwise_not", {}, 71);
    RoutedCall dupB = router->invoke(key, "cv2.bitwise_not", {}, 72);
    EXPECT_TRUE(dupA.result.ok && dupA.deduped);
    EXPECT_TRUE(dupB.result.ok && dupB.deduped);
}

TEST(ShardRetire, UnevacuableObjectPrunesItsDedupEntry)
{
    ShardRouterConfig config;
    config.shardCount = 3;
    config.replicateObjects = false; // no replica safety net
    auto router = env().makeRouter(std::move(config));
    uint32_t victim = 1;
    uint64_t key = keyOwnedBy(*router, victim);

    shard::CallOptions opts;
    opts.dedupToken = 91;
    opts.arrival = 10'000;
    RoutedCall load = router->invokeAt(
        key, "cv2.imread",
        {ipc::Value(std::string("/data/test.fpim"))}, opts);
    ASSERT_TRUE(load.result.ok) << load.result.error;
    uint64_t id = load.result.values[0].asRef().objectId;

    // Simulate app-level loss of the authoritative copy: the retire
    // evacuation finds neither a serializable source nor a replica.
    router->runtime(victim).evictObjects({id});
    ASSERT_TRUE(router->retireShard(victim));
    EXPECT_GE(router->stats().dedupScrubbed, 1u);

    // The token's cached answer would have dangled — a resubmit
    // re-executes instead of answering deduped.
    RoutedCall again = router->invoke(
        key, "cv2.imread",
        {ipc::Value(std::string("/data/test.fpim"))}, 91);
    EXPECT_TRUE(again.result.ok) << again.result.error;
    EXPECT_FALSE(again.deduped);
}

TEST(ShardRetire, QueueDepthReadsBusyHorizon)
{
    auto router = env().makeRouter(2u);
    EXPECT_EQ(router->queueDepthAt(0, 0), 0.0);
    uint64_t key = keyOwnedBy(*router, 0);
    router->chargeSessionStart(key, 0, 1'000'000, false);
    EXPECT_GT(router->queueDepthAt(0, 0), 0.0);
    // The horizon drains with time and never goes negative.
    EXPECT_EQ(router->queueDepthAt(0, 2'000'000), 0.0);
    // Dead shards read zero depth.
    router->killShard(1);
    EXPECT_EQ(router->queueDepthAt(1, 0), 0.0);
    const shard::ClusterStats &stats = router->stats();
    EXPECT_EQ(stats.sessionsStarted, 1u);
    EXPECT_EQ(stats.coldStarts, 1u);
    EXPECT_EQ(stats.sessionStartCost, 1'000'000u);
}

// ---- ClusterClient ---------------------------------------------------

TEST(ClusterClient, LoadOrLostChainIssuesImread)
{
    auto router = env().makeRouter(1);
    ClusterClient client(*router, ClusterClient::Loop::Closed);
    Chain chain;

    // No chain yet: a chained op rebuilds from a fresh load.
    RoutedCall first =
        client.step(chain, 1, {"cv2.flip"}, "", {.dedupToken = 1});
    ASSERT_TRUE(first.result.ok);
    ASSERT_TRUE(chain.live);
    EXPECT_EQ(chain.head.kind(), ipc::Value::Kind::Ref);
    uint64_t loaded = chain.head.asRef().objectId;

    // A chained op consumes the chain and adopts its result.
    client.step(chain, 1, {"cv2.flip"}, "", {.dedupToken = 2});
    uint64_t flipped = chain.head.asRef().objectId;
    EXPECT_NE(flipped, loaded);

    // A load reopens the chain even while it is live.
    RoutedCall reload =
        client.step(chain, 1, {"cv2.imread", true}, "", {.dedupToken = 3});
    ASSERT_TRUE(reload.result.ok);
    EXPECT_NE(chain.head.asRef().objectId, flipped);
    EXPECT_EQ(client.acked(), 3u);
}

TEST(ClusterClient, ImwriteStoresTheChainAtThePathAndKeepsIt)
{
    auto router = env().makeRouter(1);
    ClusterClient client(*router, ClusterClient::Loop::Closed);
    Chain chain;
    client.step(chain, 1, {"cv2.imread", true}, "", {.dedupToken = 1});
    ASSERT_TRUE(chain.live);
    ipc::Value head = chain.head;

    // imwrite(path, chain): the path first, then the frame.
    RoutedCall stored = client.step(chain, 1, {"cv2.imwrite"},
                                    "/out/client.fpim", {.dedupToken = 2});
    ASSERT_TRUE(stored.result.ok) << stored.result.error;
    ASSERT_FALSE(stored.result.values.empty());
    EXPECT_NE(stored.result.values[0].kind(), ipc::Value::Kind::Ref);
    // A non-Ref result keeps the chain.
    EXPECT_TRUE(chain.live);
    EXPECT_EQ(chain.head.asRef(), head.asRef());

    // The frame landed at that path.
    RoutedCall reread = router->invoke(
        1, "cv2.imread", {ipc::Value(std::string("/out/client.fpim"))},
        3);
    EXPECT_TRUE(reread.result.ok) << reread.result.error;
}

TEST(ClusterClient, FailedCallDropsTheChain)
{
    ShardRouterConfig config;
    config.shardCount = 2;
    config.replicateObjects = false;
    auto router = env().makeRouter(std::move(config));
    uint64_t k0 = keyOwnedBy(*router, 0);
    uint64_t k1 = keyOwnedBy(*router, 1);
    ClusterClient client(*router, ClusterClient::Loop::Closed);
    Chain chain;
    client.step(chain, k0, {"cv2.imread", true}, "", {.dedupToken = 1});
    ASSERT_TRUE(chain.live);

    // The chain's only copy dies with shard 0: the next op fails.
    router->killShard(0);
    RoutedCall lost =
        client.step(chain, k1, {"cv2.flip"}, "", {.dedupToken = 2});
    EXPECT_FALSE(lost.result.ok);
    EXPECT_EQ(lost.errorKind, shard::RouteError::ObjectLost);
    EXPECT_FALSE(chain.live);
    EXPECT_EQ(client.acked(), 1u);

    // The session rebuilds from a fresh load.
    RoutedCall rebuilt =
        client.step(chain, k1, {"cv2.flip"}, "", {.dedupToken = 3});
    EXPECT_TRUE(rebuilt.result.ok);
    EXPECT_TRUE(chain.live);
    EXPECT_EQ(client.acked(), 2u);
}

TEST(ClusterClient, AuditCountsAckedTokensTheClusterForgot)
{
    // A one-entry dedup cache forgets every token but the latest.
    ShardRouterConfig config;
    config.shardCount = 1;
    config.dedupEntries = 1;
    auto router = env().makeRouter(std::move(config));
    ClusterClient client(*router, ClusterClient::Loop::Closed);
    Chain chain;
    client.step(chain, 1, {"cv2.imread", true}, "", {.dedupToken = 1});
    EXPECT_EQ(client.auditAcks(), 0u); // acked and still answered

    client.step(chain, 1, {"cv2.flip"}, "", {.dedupToken = 2});
    // Token 1 is unknown to the cluster now; token 2 answers deduped.
    EXPECT_EQ(client.auditAcks(), 1u);
}

TEST(ClusterClient, CalibrationIsDeterministic)
{
    apps::WorkloadGenerator::Config wconfig;
    wconfig.imageRows = 32;
    wconfig.imageCols = 32;
    apps::WorkloadGenerator generator(env().registry, wconfig);
    osim::SimTime a =
        calibrateMeanService(env().registry, env().cats, generator);
    osim::SimTime b =
        calibrateMeanService(env().registry, env().cats, generator);
    EXPECT_GT(a, 1u);
    EXPECT_EQ(a, b);
}

TEST(ClusterClient, LatencySummaryIsExactNearestRank)
{
    std::vector<double> samples;
    for (int i = 1000; i >= 1; --i)
        samples.push_back(static_cast<double>(i));
    LatencySummary summary = summarizeLatencies(samples);
    EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end()));
    EXPECT_DOUBLE_EQ(summary.p50Us, 501.0);
    EXPECT_DOUBLE_EQ(summary.p99Us, 990.0);
    EXPECT_DOUBLE_EQ(summary.p999Us, 999.0);
}

// ---- TenantTrafficGenerator -----------------------------------------

TEST(TenantTraffic, DeterministicRunWithZeroLostAcks)
{
    apps::WorkloadGenerator::Config wconfig;
    wconfig.maxRounds = 1;
    wconfig.maxCallsPerRound = 4;
    wconfig.imageRows = 32;
    wconfig.imageCols = 32;
    apps::WorkloadGenerator generator(env().registry, wconfig);

    TenantWorkloadConfig tconfig;
    tconfig.tenants = 40;
    tconfig.zipfExponent = 1.1;
    tconfig.maxConcurrentSessions = 8;

    auto runOnce = [&]() {
        ShardRouterConfig config;
        config.shardCount = 2;
        config.dedupEntries = 1 << 12;
        auto router = env().makeRouter(std::move(config));
        AgentPoolConfig poolConfig;
        // Floor the inventory at the session cap so even a fully
        // skewed shard never cold-starts (the bench lesson).
        poolConfig.initialSize = 8;
        poolConfig.maxSize = 12;
        WarmAgentPool pool(poolConfig);
        TenantTrafficGenerator traffic(generator, tconfig);
        std::vector<RampPhase> phases = {{250, 1'000'000}};
        return traffic.run(*router, phases, nullptr, &pool);
    };

    ServeOutcome a = runOnce();
    ServeOutcome b = runOnce();

    EXPECT_EQ(a.issued, 250u);
    EXPECT_EQ(a.acked, a.issued); // unloaded: everything acks
    EXPECT_EQ(a.lostAcks, 0u);    // at-least-once audit
    EXPECT_GT(a.sessionsStarted, 0u);
    EXPECT_GE(a.sessionsStarted, a.sessionsCompleted);
    EXPECT_EQ(a.cluster.sessionsEnded, a.sessionsStarted);
    EXPECT_GT(a.tenantsTouched, 1u);
    EXPECT_LE(a.pool.leasesPeak, tconfig.maxConcurrentSessions);
    EXPECT_EQ(a.pool.coldFallbacks, 0u);
    EXPECT_GT(a.latency.p50Us, 0.0);
    EXPECT_GE(a.latency.p99Us, a.latency.p50Us);
    EXPECT_GE(a.latency.p999Us, a.latency.p99Us);

    // Byte-identical replay.
    EXPECT_EQ(b.issued, a.issued);
    EXPECT_EQ(b.acked, a.acked);
    EXPECT_EQ(b.sessionsStarted, a.sessionsStarted);
    EXPECT_EQ(b.sessionsCompleted, a.sessionsCompleted);
    EXPECT_EQ(b.latency.p50Us, a.latency.p50Us);
    EXPECT_EQ(b.latency.p99Us, a.latency.p99Us);
    EXPECT_EQ(b.cluster.makespan, a.cluster.makespan);
    EXPECT_EQ(b.pool.warmCheckouts, a.pool.warmCheckouts);
    EXPECT_TRUE(b == a); // the whole outcome, every counter
}

TEST(TenantTraffic, ZipfSkewsTrafficTowardHotTenants)
{
    apps::WorkloadGenerator::Config wconfig;
    wconfig.maxRounds = 1;
    wconfig.maxCallsPerRound = 4;
    wconfig.imageRows = 32;
    wconfig.imageCols = 32;
    apps::WorkloadGenerator generator(env().registry, wconfig);

    TenantWorkloadConfig tconfig;
    tconfig.tenants = 100;
    tconfig.zipfExponent = 1.4;
    tconfig.maxConcurrentSessions = 8;

    ShardRouterConfig config;
    config.shardCount = 2;
    config.dedupEntries = 1 << 12;
    auto router = env().makeRouter(std::move(config));
    TenantTrafficGenerator traffic(generator, tconfig);
    std::vector<RampPhase> phases = {{300, 400'000}};
    ServeOutcome out = traffic.run(*router, phases, nullptr, nullptr);

    // Rank-0 tenants dominate; the long tail still gets touched.
    EXPECT_GT(out.hottestTenantShare, 0.05);
    EXPECT_GT(out.tenantsTouched, 10u);
    EXPECT_GE(out.tenantsInBreakdown, 1u);
    EXPECT_GT(out.worstTenantP99Us, 0.0);
    EXPECT_EQ(out.lostAcks, 0u);
}

TEST(TenantTraffic, PercentileIsNearestRankOnSortedInput)
{
    std::vector<double> sorted;
    for (int i = 1; i <= 100; ++i)
        sorted.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(percentileUs(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileUs(sorted, 0.50), 51.0);
    EXPECT_DOUBLE_EQ(percentileUs(sorted, 1.0), 100.0);
    EXPECT_DOUBLE_EQ(percentileUs({}, 0.99), 0.0);
}

} // namespace
} // namespace freepart::serve
