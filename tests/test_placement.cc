/**
 * @file
 * Tests for load-aware object placement: TraceCollector memory
 * bounds, hypergraph partitioner quality/balance/determinism, the
 * placement-override table layered on the HashRing (overrides survive
 * shard kill and re-apply on revive), bounded per-epoch migration,
 * and the Hash policy remaining a byte-identical no-op.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/runtime.hh"
#include "shard/placement.hh"
#include "shard/shard_router.hh"
#include "util/rng.hh"

namespace freepart::shard {
namespace {

// ---- TraceCollector --------------------------------------------------

placement::ObjectAccess
access(uint64_t id, uint64_t group, uint64_t bytes)
{
    placement::ObjectAccess a;
    a.objectId = id;
    a.group = group;
    a.bytes = bytes;
    return a;
}

TEST(TraceCollector, RecordsCallsAndContracts)
{
    placement::TraceCollector trace;
    EXPECT_TRUE(trace.empty());

    // Two groups whose objects are co-accessed by one call each, plus
    // a call spanning both groups.
    trace.recordCall(10, {access(1, 10, 2048)});
    trace.recordCall(20, {access(2, 20, 2048)});
    trace.recordCall(10, {access(1, 10, 2048), access(2, 20, 2048)});
    EXPECT_EQ(trace.calls(), 3u);
    EXPECT_EQ(trace.objectCount(), 2u);

    placement::GroupHypergraph h = trace.contractByGroup();
    ASSERT_EQ(h.vertices.size(), 2u);
    // Group weight = its calls + KiB-scaled access mass of its
    // objects, so both groups weigh more than their call count alone.
    for (const auto &v : h.vertices)
        EXPECT_GT(v.weight, 1u);
    // The cross-group call produced exactly one 2-pin edge.
    ASSERT_EQ(h.edges.size(), 1u);
    EXPECT_EQ(h.edges[0].pins.size(), 2u);

    EXPECT_EQ(trace.objectsOf(10), std::vector<uint64_t>{1});
    trace.reset();
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.contractByGroup().vertices.size(), 0u);
}

TEST(TraceCollector, BoundedMemory)
{
    placement::TraceCollector trace;

    // More distinct objects than tracked, across 32 groups: only
    // kTraceMaxObjects are recorded individually, the rest still add
    // weight to their group.
    const uint64_t objects = placement::kTraceMaxObjects + 32;
    for (uint64_t i = 0; i < objects; ++i)
        trace.recordCall(100 + i % 32,
                         {access(1'000'000 + i, 100 + i % 32, 4096)});
    EXPECT_EQ(trace.objectCount(), placement::kTraceMaxObjects);
    placement::GroupHypergraph h = trace.contractByGroup();
    EXPECT_EQ(h.vertices.size(), 32u); // groups are always tracked

    // Distinct pin sets (group pairs) beyond kTraceMaxEdges evict the
    // lightest edge.
    uint64_t pairs = 0;
    for (uint64_t a = 0; pairs <= placement::kTraceMaxEdges; ++a)
        for (uint64_t b = a + 1; b < 100; ++b, ++pairs)
            trace.recordCall(1000 + a, {access(a, 1000 + b, 64)});
    EXPECT_EQ(trace.edgeCount(), placement::kTraceMaxEdges);
    EXPECT_GT(trace.edgeEvictions(), 0u);

    // A wide call keeps only kTraceMaxPinsPerEdge pins.
    std::vector<placement::ObjectAccess> wide;
    for (uint64_t i = 0; i < placement::kTraceMaxPinsPerEdge + 4; ++i)
        wide.push_back(access(2000 + i, 200 + i, 64));
    trace.recordCall(200, wide);
    h = trace.contractByGroup();
    for (const auto &e : h.edges)
        EXPECT_LE(e.pins.size(), placement::kTraceMaxPinsPerEdge);
}

// ---- Partitioner -----------------------------------------------------

/** Two 3-group communities with heavy internal co-access and one
 *  light cross edge: the classic should-not-be-cut instance. */
placement::GroupHypergraph
communityGraph()
{
    placement::GroupHypergraph h;
    for (uint64_t g = 0; g < 6; ++g)
        h.vertices.push_back({100 + g, 10});
    auto edge = [&](std::vector<uint32_t> pins, uint64_t w) {
        placement::GroupHypergraph::Edge e;
        e.pins = std::move(pins);
        e.weight = w;
        h.edges.push_back(std::move(e));
    };
    edge({0, 1}, 20);
    edge({1, 2}, 20);
    edge({0, 2}, 20);
    edge({3, 4}, 20);
    edge({4, 5}, 20);
    edge({3, 5}, 20);
    edge({2, 3}, 1); // the only edge worth cutting
    return h;
}

TEST(Partitioner, CutsTheLightEdgeNotTheCommunities)
{
    placement::PartitionResult r =
        placement::partitionGroups(communityGraph(), 2);

    EXPECT_EQ(r.cut, 1u); // only the weight-1 bridge is cut
    EXPECT_LE(r.imbalance, 1.0 + 1e-9);
    // Communities stay whole.
    EXPECT_EQ(r.groupPart.at(100), r.groupPart.at(101));
    EXPECT_EQ(r.groupPart.at(101), r.groupPart.at(102));
    EXPECT_EQ(r.groupPart.at(103), r.groupPart.at(104));
    EXPECT_EQ(r.groupPart.at(104), r.groupPart.at(105));
    EXPECT_NE(r.groupPart.at(100), r.groupPart.at(103));
}

TEST(Partitioner, RespectsBalanceConstraint)
{
    placement::GroupHypergraph h;
    // 16 equal groups, one heavy hub connected to everything: the
    // refiner must not pile neighbors onto the hub's part.
    for (uint64_t g = 0; g < 16; ++g)
        h.vertices.push_back({g, g == 0 ? 40u : 10u});
    for (uint32_t g = 1; g < 16; ++g) {
        placement::GroupHypergraph::Edge e;
        e.pins = {0, g};
        e.weight = 5;
        h.edges.push_back(std::move(e));
    }
    placement::PartitionResult r = placement::partitionGroups(h, 4);

    uint64_t total = 0, heaviest = 0;
    for (const auto &v : h.vertices)
        total += v.weight;
    for (uint64_t w : r.partWeight)
        heaviest = std::max(heaviest, w);
    const double cap = (1.0 + placement::kPlacementBalanceEpsilon) *
                       static_cast<double>(total) / 4.0;
    uint64_t maxPart =
        std::max<uint64_t>(40, static_cast<uint64_t>(cap) + 1);
    EXPECT_LE(heaviest, maxPart);
    for (uint32_t p = 0; p < 4; ++p)
        EXPECT_GT(r.partWeight[p], 0u) << "empty part " << p;
}

TEST(Partitioner, DeterministicForFixedSeedAndTrace)
{
    // A noisy random hypergraph, partitioned twice under the fixed
    // kPlacementSeed: identical assignment, cut, and weights.
    util::Rng rng(7);
    placement::GroupHypergraph h;
    for (uint64_t g = 0; g < 40; ++g)
        h.vertices.push_back({g, 1 + rng.below(20)});
    for (int i = 0; i < 120; ++i) {
        placement::GroupHypergraph::Edge e;
        uint32_t a = static_cast<uint32_t>(rng.below(40));
        uint32_t b = static_cast<uint32_t>(rng.below(40));
        if (a == b)
            continue;
        e.pins = {std::min(a, b), std::max(a, b)};
        e.weight = 1 + rng.below(9);
        h.edges.push_back(std::move(e));
    }
    placement::PartitionResult r1 = placement::partitionGroups(h, 3);
    placement::PartitionResult r2 = placement::partitionGroups(h, 3);
    EXPECT_EQ(r1.groupPart, r2.groupPart);
    EXPECT_EQ(r1.cut, r2.cut);
    EXPECT_EQ(r1.partWeight, r2.partWeight);
    EXPECT_LE(r1.cut, r1.totalEdgeWeight);
}

// ---- Router integration ---------------------------------------------

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

/** Drive a small chained workload over `keys` routing keys; each key
 *  loads an image and runs `ops` unary ops on its own chain. */
void
driveChains(ShardRouter &router, const std::vector<uint64_t> &keys,
            size_t ops)
{
    std::map<uint64_t, ipc::Value> chain;
    for (uint64_t key : keys) {
        RoutedCall load = router.invoke(
            key, "cv2.imread",
            {ipc::Value(std::string("/data/test.fpim"))});
        ASSERT_TRUE(load.result.ok) << load.result.error;
        chain[key] = load.result.values[0];
    }
    for (size_t i = 0; i < ops; ++i) {
        for (uint64_t key : keys) {
            RoutedCall call = router.invoke(
                key, "cv2.bitwise_not", {chain[key]});
            ASSERT_TRUE(call.result.ok) << call.result.error;
            chain[key] = call.result.values[0];
        }
    }
}

ShardRouterConfig
optimizedConfig(uint32_t shards)
{
    ShardRouterConfig config;
    config.shardCount = shards;
    config.placementPolicy = PlacementPolicy::Optimized;
    return config;
}

TEST(PlacementRouter, HashPolicyRecordsAndOverridesNothing)
{
    ShardRouterConfig config;
    config.shardCount = 4;
    auto router = env().makeRouter(std::move(config));
    driveChains(*router, {501, 502, 503, 504}, 3);

    EXPECT_TRUE(router->traceCollector().empty());
    EXPECT_TRUE(router->placementOverrides().empty());
    // Effective owner stays the raw ring owner for every probe key.
    for (uint64_t key = 1000; key < 1200; ++key)
        EXPECT_EQ(router->ownerShardOf(key),
                  router->ring().ownerOf(key));
    const ClusterStats &stats = router->stats();
    EXPECT_EQ(stats.repartitions, 0u);
    EXPECT_EQ(stats.placementMovedBytes, 0u);
}

TEST(PlacementRouter, RepartitionInstallsOverridesOverTheRing)
{
    auto router = env().makeRouter(optimizedConfig(4));
    std::vector<uint64_t> keys = {601, 602, 603, 604,
                                  605, 606, 607, 608};
    driveChains(*router, keys, 4);
    EXPECT_FALSE(router->traceCollector().empty());

    router->repartitionNow();
    const ClusterStats &stats = router->stats();
    EXPECT_EQ(stats.repartitions, 1u);
    // Every observed group is pinned (moved or held in place).
    EXPECT_EQ(router->placementOverrides().size(), keys.size());
    EXPECT_EQ(stats.placementOverrides, keys.size());
    // The window was consumed at the epoch boundary.
    EXPECT_TRUE(router->traceCollector().empty());

    // Calls keep landing on the overridden owners.
    for (uint64_t key : keys) {
        uint32_t owner = router->ownerShardOf(key);
        EXPECT_EQ(owner, router->placementOverrides().at(key));
        RoutedCall call = router->invoke(
            key, "cv2.imread",
            {ipc::Value(std::string("/data/test.fpim"))});
        ASSERT_TRUE(call.result.ok);
        EXPECT_EQ(call.shard, owner);
    }
}

TEST(PlacementRouter, OverridesSurviveKillAndReviveFreshIncarnation)
{
    auto router = env().makeRouter(optimizedConfig(4));
    std::vector<uint64_t> keys = {701, 702, 703, 704, 705, 706};
    driveChains(*router, keys, 4);
    router->repartitionNow();
    ASSERT_FALSE(router->placementOverrides().empty());

    auto [group, target] = *router->placementOverrides().begin();
    ASSERT_EQ(router->ownerShardOf(group), target);

    // Killed override target: the group falls back to the hash ring
    // (never routed at a dead shard) but the entry is kept.
    router->killShard(target);
    uint32_t fallback = router->ownerShardOf(group);
    EXPECT_NE(fallback, target);
    RoutedCall call = router->invoke(
        group, "cv2.imread",
        {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(call.result.ok) << call.result.error;
    EXPECT_EQ(call.shard, fallback);
    EXPECT_EQ(router->placementOverrides().at(group), target);

    // Revive spins up a fresh incarnation of the same slot: the
    // override re-applies without recomputing a placement.
    router->reviveShard(target);
    EXPECT_EQ(router->ownerShardOf(group), target);
    RoutedCall back = router->invoke(
        group, "cv2.imread",
        {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(back.result.ok) << back.result.error;
    EXPECT_EQ(back.shard, target);
}

TEST(PlacementRouter, RetireScrubsOverridesWhereKillKeepsThem)
{
    auto router = env().makeRouter(optimizedConfig(4));
    std::vector<uint64_t> keys = {721, 722, 723, 724, 725, 726};
    driveChains(*router, keys, 4);
    router->repartitionNow();
    ASSERT_FALSE(router->placementOverrides().empty());

    // Pick a pin that genuinely *moved* its group off the ring owner
    // (a held-in-place pin would legitimately re-land on the revived
    // slot via the ring, blurring the final assertion).
    uint64_t group = 0;
    uint32_t target = kInvalidShard;
    for (const auto &[key, shard] : router->placementOverrides()) {
        if (shard != router->ring().ownerOf(key)) {
            group = key;
            target = shard;
            break;
        }
    }
    ASSERT_NE(target, kInvalidShard) << "no moved pin in the epoch";
    ASSERT_EQ(router->ownerShardOf(group), target);
    size_t pinnedToTarget = 0;
    for (const auto &[key, shard] : router->placementOverrides())
        if (shard == target)
            ++pinnedToTarget;

    // Retirement is permanent scale-down, not host loss: the slot's
    // override entries are scrubbed (contrast killShard above, which
    // keeps them for the rebuilt host), and the group settles on its
    // ring fallback for good.
    ASSERT_TRUE(router->retireShard(target));
    EXPECT_EQ(router->placementOverrides().count(group), 0u);
    for (const auto &[key, shard] : router->placementOverrides())
        EXPECT_NE(shard, target);
    EXPECT_EQ(router->stats().overridesScrubbed, pinnedToTarget);

    uint32_t fallback = router->ownerShardOf(group);
    EXPECT_NE(fallback, target);
    RoutedCall call = router->invoke(
        group, "cv2.imread",
        {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(call.result.ok) << call.result.error;
    EXPECT_EQ(call.shard, fallback);

    // A scale-up revive of the same slot must NOT resurrect the old
    // placement — the group stays where the retirement put it until
    // the next repartition epoch decides otherwise.
    router->reviveShard(target);
    EXPECT_EQ(router->ownerShardOf(group), fallback);
    EXPECT_EQ(router->placementOverrides().count(group), 0u);
}

TEST(PlacementRouter, RepartitionDeterministicForFixedSeedAndTrace)
{
    auto a = env().makeRouter(optimizedConfig(4));
    auto b = env().makeRouter(optimizedConfig(4));

    std::vector<uint64_t> keys = {801, 802, 803, 804,
                                  805, 806, 807, 808};
    driveChains(*a, keys, 5);
    driveChains(*b, keys, 5);
    a->repartitionNow();
    b->repartitionNow();

    EXPECT_EQ(a->placementOverrides(), b->placementOverrides());
    const ClusterStats &sa = a->stats();
    const ClusterStats &sb = b->stats();
    EXPECT_EQ(sa.placementCut, sb.placementCut);
    EXPECT_EQ(sa.placementMovedBytes, sb.placementMovedBytes);
    EXPECT_EQ(sa.placementMoves, sb.placementMoves);
}

TEST(PlacementRouter, EpochMovesNeverExceedMigrationBudget)
{
    ShardRouterConfig config = optimizedConfig(4);
    // Budget fits one ~12 KiB fixture mat per epoch but not two, so
    // a rebalance spanning several groups must defer.
    config.migrationMaxBytes = 16 << 10;
    auto router = env().makeRouter(std::move(config));

    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 10; ++k)
        keys.push_back(901 + k);
    uint64_t lastPeak = 0;
    bool deferred = false;
    for (int epoch = 0; epoch < 4; ++epoch) {
        driveChains(*router, keys, 2);
        router->repartitionNow();
        const ClusterStats &stats = router->stats();
        EXPECT_LE(stats.placementEpochBytesPeak, 16u << 10)
            << "epoch " << epoch;
        EXPECT_GE(stats.placementEpochBytesPeak, lastPeak);
        lastPeak = stats.placementEpochBytesPeak;
        deferred = deferred || stats.placementDeferrals > 0;
    }
    const ClusterStats &stats = router->stats();
    EXPECT_EQ(stats.repartitions, 4u);
    // The budget actually bit at least once across the epochs.
    EXPECT_TRUE(deferred || stats.placementMovedBytes == 0);
}

TEST(PlacementRouter, RepartitionNeedsTwoLiveShards)
{
    auto router = env().makeRouter(optimizedConfig(1));
    driveChains(*router, {950, 951}, 2);
    router->repartitionNow();
    const ClusterStats &stats = router->stats();
    EXPECT_EQ(stats.repartitions, 0u);
    EXPECT_TRUE(router->placementOverrides().empty());
    // The window was still consumed: nothing to balance against.
    EXPECT_TRUE(router->traceCollector().empty());
}

} // namespace
} // namespace freepart::shard
