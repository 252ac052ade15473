/**
 * @file
 * Tests for the cluster layer: HashRing placement (uniformity,
 * bounded movement, determinism), per-shard object-id namespacing,
 * and ShardRouter routing (migration, proxying, replica failover,
 * lost inputs on a live owner, at-least-once dedup, drain/kill).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/runtime.hh"
#include "shard/hash_ring.hh"
#include "shard/shard_router.hh"

namespace freepart::shard {
namespace {

// ---- HashRing --------------------------------------------------------

std::vector<uint64_t>
probeKeys(size_t n)
{
    std::vector<uint64_t> keys;
    keys.reserve(n);
    for (size_t i = 0; i < n; ++i)
        keys.push_back(0xabc000 + i * 7);
    return keys;
}

TEST(HashRing, ChiSquareUniformity)
{
    HashRing ring(64);
    for (uint32_t s = 0; s < 4; ++s)
        ring.addShard(s);

    std::map<uint32_t, size_t> counts;
    std::vector<uint64_t> keys = probeKeys(1000);
    for (uint64_t key : keys)
        counts[ring.ownerOf(key)]++;

    ASSERT_EQ(counts.size(), 4u); // every shard owns something
    double expected = static_cast<double>(keys.size()) / 4.0;
    double chi2 = 0.0;
    for (auto &[shard, count] : counts) {
        double diff = static_cast<double>(count) - expected;
        chi2 += diff * diff / expected;
    }
    // df=3; a fair placement lands well under 30 while a broken ring
    // (one shard owning half the keyspace) scores in the hundreds.
    EXPECT_LT(chi2, 30.0) << "chi2=" << chi2;
}

TEST(HashRing, RemovalMovesOnlyTheRemovedShardsKeys)
{
    HashRing before(64);
    for (uint32_t s = 0; s < 4; ++s)
        before.addShard(s);
    HashRing after = before;
    after.removeShard(2);

    std::vector<uint64_t> keys = probeKeys(1000);
    size_t owned = 0;
    for (uint64_t key : keys) {
        uint32_t prev = before.ownerOf(key);
        uint32_t next = after.ownerOf(key);
        EXPECT_NE(next, 2u);
        if (prev == 2) {
            ++owned;
        } else {
            // Bounded movement: a surviving shard's keys never move.
            EXPECT_EQ(next, prev);
        }
    }
    double moved = HashRing::remappedFraction(before, after, keys);
    EXPECT_DOUBLE_EQ(moved,
                     static_cast<double>(owned) / keys.size());
    // ~K/N with vnode smoothing; well under half, above zero.
    EXPECT_GT(moved, 0.10);
    EXPECT_LT(moved, 0.40);
}

TEST(HashRing, AdditionMovesKeysOnlyToTheNewShard)
{
    HashRing before(64);
    for (uint32_t s = 0; s < 4; ++s)
        before.addShard(s);
    HashRing after = before;
    after.addShard(9);

    for (uint64_t key : probeKeys(1000)) {
        uint32_t prev = before.ownerOf(key);
        uint32_t next = after.ownerOf(key);
        if (next != prev) {
            EXPECT_EQ(next, 9u);
        }
    }
}

TEST(HashRing, DeterministicAcrossConstructionAndChurn)
{
    HashRing a(32), b(32);
    for (uint32_t s = 0; s < 5; ++s) {
        a.addShard(s);
        b.addShard(s);
    }
    std::vector<uint64_t> keys = probeKeys(500);
    for (uint64_t key : keys)
        EXPECT_EQ(a.ownerOf(key), b.ownerOf(key));

    // Remove + re-add restores the exact original placement: vnode
    // points are a pure function of (shard, vnode), not history.
    b.removeShard(3);
    b.addShard(3);
    for (uint64_t key : keys)
        EXPECT_EQ(a.ownerOf(key), b.ownerOf(key));
}

TEST(HashRing, EmptyRingHasNoOwner)
{
    HashRing ring;
    EXPECT_EQ(ring.ownerOf(42), kInvalidShard);
    ring.addShard(7);
    EXPECT_EQ(ring.ownerOf(42), 7u);
    ring.removeShard(7);
    EXPECT_EQ(ring.ownerOf(42), kInvalidShard);
}

// ---- Object-id namespacing ------------------------------------------

struct Env {
    Env() : registry(fw::buildFullRegistry()), categorizer(registry)
    {
        cats = categorizer.categorizeAll();
    }

    std::unique_ptr<core::FreePartRuntime>
    makeRuntime(osim::Kernel &kernel, core::RuntimeConfig config = {})
    {
        fw::seedFixtureFiles(kernel);
        return std::make_unique<core::FreePartRuntime>(
            kernel, registry, cats,
            core::PartitionPlan::freePartDefault(), config);
    }

    std::unique_ptr<ShardRouter>
    makeRouter(uint32_t shard_count)
    {
        ShardRouterConfig config;
        config.shardCount = shard_count;
        return makeRouter(std::move(config));
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

TEST(ObjectIdNamespace, ExplicitShardIdsMintDisjointIds)
{
    osim::Kernel k1, k2;
    core::RuntimeConfig c1, c2;
    c1.shardId = 1;
    c2.shardId = 2;
    auto r1 = env().makeRuntime(k1, c1);
    auto r2 = env().makeRuntime(k2, c2);

    uint64_t id1 = r1->createHostMat(8, 8, 1, 11, "a");
    uint64_t id2 = r2->createHostMat(8, 8, 1, 11, "b");
    EXPECT_NE(id1, id2);
    EXPECT_EQ(fw::shardOfObjectId(id1), 1u);
    EXPECT_EQ(fw::shardOfObjectId(id2), 2u);
    EXPECT_EQ(fw::objectIdIndex(id1), fw::objectIdIndex(id2));
    EXPECT_EQ(r1->shardId(), 1u);
}

TEST(ObjectIdNamespace, AutoShardIdsAreProcessUnique)
{
    osim::Kernel k1, k2;
    auto r1 = env().makeRuntime(k1);
    auto r2 = env().makeRuntime(k2);
    // The latent bug this guards against: both counters starting at 0
    // and minting identical ids.
    EXPECT_NE(r1->shardId(), r2->shardId());
    uint64_t id1 = r1->createHostMat(8, 8, 1, 3, "a");
    uint64_t id2 = r2->createHostMat(8, 8, 1, 3, "b");
    EXPECT_NE(id1, id2);
}

// ---- ShardRouter -----------------------------------------------------

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

TEST(ShardRouter, RoutesByKeyAndExecutes)
{
    auto router = env().makeRouter(2u);
    uint64_t k0 = keyOwnedBy(*router, 0);
    uint64_t k1 = keyOwnedBy(*router, 1);

    RoutedCall a = router->invoke(
        k0, "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    RoutedCall b = router->invoke(
        k1, "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(a.result.ok) << a.result.error;
    ASSERT_TRUE(b.result.ok) << b.result.error;
    EXPECT_EQ(a.shard, 0u);
    EXPECT_EQ(b.shard, 1u);

    // Results are tracked in the cluster directory, ids namespaced.
    uint64_t ida = a.result.values[0].asRef().objectId;
    uint64_t idb = b.result.values[0].asRef().objectId;
    EXPECT_EQ(router->homeShardOf(ida), 0u);
    EXPECT_EQ(router->homeShardOf(idb), 1u);
    EXPECT_NE(fw::shardOfObjectId(ida), fw::shardOfObjectId(idb));

    const ClusterStats &stats = router->stats();
    EXPECT_EQ(stats.callsOk, 2u);
    EXPECT_EQ(stats.callsPerShard[0], 1u);
    EXPECT_EQ(stats.callsPerShard[1], 1u);
    EXPECT_GT(stats.makespan, 0u);
}

TEST(ShardRouter, MigratesSmallCrossShardInput)
{
    auto router = env().makeRouter(2u);
    uint64_t k0 = keyOwnedBy(*router, 0);
    uint64_t k1 = keyOwnedBy(*router, 1);

    uint64_t id = router->createMat(k0, 16, 16, 3, 5, "img");
    ASSERT_EQ(router->homeShardOf(id), 0u);

    // Routing key owned by shard 1, input on shard 0, object small:
    // the object migrates to the executing shard.
    RoutedCall call = router->invoke(
        k1, "cv2.GaussianBlur", {ipc::Value(ipc::ObjectRef{0, id})});
    ASSERT_TRUE(call.result.ok) << call.result.error;
    EXPECT_EQ(call.shard, 1u);
    EXPECT_FALSE(call.proxied);
    EXPECT_EQ(router->homeShardOf(id), 1u);

    const ClusterStats &stats = router->stats();
    EXPECT_EQ(stats.migrations, 1u);
    EXPECT_GT(stats.migratedBytes, 0u);
    // The source runtime evicted its copy: exactly one authority.
    EXPECT_FALSE(router->runtime(0).hasObject(id));
    EXPECT_TRUE(router->runtime(1).hasObject(id));
}

TEST(ShardRouter, ProxiesLargeCrossShardInput)
{
    ShardRouterConfig config;
    config.shardCount = 2;
    config.migrationMaxBytes = 256; // anything real exceeds this
    auto router = env().makeRouter(std::move(config));
    uint64_t k0 = keyOwnedBy(*router, 0);
    uint64_t k1 = keyOwnedBy(*router, 1);

    uint64_t id = router->createMat(k0, 32, 32, 3, 5, "big");
    RoutedCall call = router->invoke(
        k1, "cv2.erode", {ipc::Value(ipc::ObjectRef{0, id})});
    ASSERT_TRUE(call.result.ok) << call.result.error;
    // The call went to the data, not the data to the call.
    EXPECT_TRUE(call.proxied);
    EXPECT_EQ(call.shard, 0u);
    EXPECT_EQ(router->homeShardOf(id), 0u);
    EXPECT_EQ(router->stats().migrations, 0u);
    EXPECT_EQ(router->stats().proxiedCalls, 1u);
}

TEST(ShardRouter, KilledShardFailsOverToReplica)
{
    auto router = env().makeRouter(4u);
    uint64_t key = keyOwnedBy(*router, 2);
    uint64_t id = router->createMat(key, 16, 16, 3, 7, "precious");
    ASSERT_EQ(router->homeShardOf(id), 2u);

    router->killShard(2);
    EXPECT_FALSE(router->shardLive(2));
    EXPECT_EQ(router->liveShardCount(), 3u);
    uint32_t newOwner = router->ownerShardOf(key);
    EXPECT_NE(newOwner, 2u);

    // The key remapped and the input is rebuilt from its replica.
    RoutedCall call = router->invoke(
        key, "cv2.dilate", {ipc::Value(ipc::ObjectRef{0, id})},
        /*dedup_token=*/77);
    ASSERT_TRUE(call.result.ok) << call.result.error;
    EXPECT_EQ(call.shard, newOwner);
    EXPECT_GE(router->stats().replicaRestores, 1u);

    // At-least-once: resubmitting the acknowledged token is answered
    // from the cluster dedup cache, not re-executed.
    RoutedCall again = router->invoke(
        key, "cv2.dilate", {ipc::Value(ipc::ObjectRef{0, id})},
        /*dedup_token=*/77);
    ASSERT_TRUE(again.result.ok);
    EXPECT_TRUE(again.deduped);
    EXPECT_EQ(again.result.values.size(), call.result.values.size());
    EXPECT_EQ(router->stats().dedupHits, 1u);
}

TEST(ShardRouter, LostObjectWithoutReplicaFailsTyped)
{
    ShardRouterConfig config;
    config.shardCount = 2;
    config.replicateObjects = false;
    auto router = env().makeRouter(std::move(config));
    uint64_t k0 = keyOwnedBy(*router, 0);
    uint64_t k1 = keyOwnedBy(*router, 1);

    uint64_t id = router->createMat(k0, 16, 16, 3, 7, "doomed");
    router->killShard(0);
    RoutedCall call = router->invoke(
        k1, "cv2.flip", {ipc::Value(ipc::ObjectRef{0, id})});
    EXPECT_FALSE(call.result.ok);
    EXPECT_NE(call.result.error.find("lost"), std::string::npos);
    EXPECT_EQ(router->stats().lostObjects, 1u);
}

/** Leave a GaussianBlur result on the key owner's processing agent,
 *  then crash and respawn that agent: the object is gone from the
 *  live owner (no checkpoint, no host copy) while the cluster
 *  directory still names that shard. */
ipc::Value
loseResultOnLiveOwner(ShardRouter &router, uint64_t key)
{
    uint32_t owner = router.ownerShardOf(key);
    uint64_t src = router.createMat(key, 16, 16, 3, 9, "src");
    RoutedCall blur = router.invoke(
        key, "cv2.GaussianBlur", {ipc::Value(ipc::ObjectRef{0, src})});
    EXPECT_TRUE(blur.result.ok) << blur.result.error;
    ipc::Value ref = blur.result.values.at(0);
    uint64_t id = ref.asRef().objectId;
    core::FreePartRuntime &rt = router.runtime(owner);
    EXPECT_EQ(rt.homeOf(id), 1u);
    router.kernel(owner).faultProcess(
        router.kernel(owner).process(rt.agentPid(1)), "induced");
    EXPECT_TRUE(rt.restartAgent(1));
    EXPECT_FALSE(rt.hasObject(id));
    EXPECT_EQ(router.homeShardOf(id), owner);
    return ref;
}

TEST(ShardRouter, LostInputOnLiveOwnerIsRestoredOrTyped)
{
    // Both entry points stage through the same step: a live owner
    // that lost the object counts as dead, so the input comes from
    // its replica, or the call fails typed — never a router panic.
    for (bool replicate : {true, false}) {
        for (bool open_loop : {false, true}) {
            SCOPED_TRACE(std::string(open_loop ? "invokeAt" : "invoke") +
                         (replicate ? " with replica" : " no replica"));
            ShardRouterConfig config;
            config.shardCount = 2;
            config.replicateObjects = replicate;
            auto router = env().makeRouter(std::move(config));
            uint64_t k0 = keyOwnedBy(*router, 0);
            uint64_t k1 = keyOwnedBy(*router, 1);
            ipc::Value ref = loseResultOnLiveOwner(*router, k0);
            uint64_t id = ref.asRef().objectId;

            ClusterStats before = router->stats();
            RoutedCall call =
                open_loop ? router->invokeAt(k1, "cv2.erode", {ref},
                                             CallOptions())
                          : router->invoke(k1, "cv2.erode", {ref});
            const ClusterStats &after = router->stats();
            if (replicate) {
                ASSERT_TRUE(call.result.ok) << call.result.error;
                EXPECT_EQ(call.shard, 1u);
                EXPECT_EQ(after.replicaRestores,
                          before.replicaRestores + 1);
                EXPECT_EQ(router->homeShardOf(id), 1u);
            } else {
                EXPECT_FALSE(call.result.ok);
                EXPECT_EQ(call.errorKind, RouteError::ObjectLost);
                EXPECT_EQ(call.lostObjectId, id);
                EXPECT_EQ(after.lostObjects, before.lostObjects + 1);
            }
        }
    }
}

TEST(ShardRouter, DrainedShardLeavesRingButServesMigrations)
{
    auto router = env().makeRouter(3u);
    uint64_t key = keyOwnedBy(*router, 1);
    uint64_t id = router->createMat(key, 16, 16, 3, 9, "mov");

    router->drainShard(1);
    EXPECT_TRUE(router->shardLive(1)); // up, just not taking keys
    EXPECT_EQ(router->liveShardCount(), 2u);
    for (uint64_t probe = 0; probe < 200; ++probe)
        EXPECT_NE(router->ownerShardOf(probe), 1u);

    // A call referencing its object migrates it off the draining
    // shard (live source) rather than resorting to the replica.
    RoutedCall call = router->invoke(
        key, "cv2.normalize", {ipc::Value(ipc::ObjectRef{0, id})});
    ASSERT_TRUE(call.result.ok) << call.result.error;
    EXPECT_NE(call.shard, 1u);
    EXPECT_GE(router->stats().migrations, 1u);
    EXPECT_EQ(router->stats().replicaRestores, 0u);
    EXPECT_EQ(router->homeShardOf(id), call.shard);
}

TEST(ShardRouter, AddShardJoinsRingAndPushesRemappedObjects)
{
    auto router = env().makeRouter(2u);
    // Spread objects across many routing keys so some of them are
    // bound to remap onto the joiner.
    std::vector<std::pair<uint64_t, uint64_t>> objects; // key, id
    for (uint64_t key = 2000; key < 2032; ++key)
        objects.emplace_back(
            key, router->createMat(key, 8, 8, 1, key, "obj"));

    uint32_t joiner = router->addShard(
        [](osim::Kernel &kernel) { fw::seedFixtureFiles(kernel); });
    EXPECT_EQ(joiner, 2u);
    EXPECT_EQ(router->shardCount(), 3u);
    EXPECT_EQ(router->liveShardCount(), 3u);

    const ClusterStats &stats = router->stats();
    EXPECT_EQ(stats.shardsJoined, 1u);
    EXPECT_GT(stats.proactivePushes, 0u);
    EXPECT_GT(stats.proactivePushBytes, 0u);
    // Every object whose key now maps to the joiner moved there, and
    // exactly one shard stays authoritative for each.
    for (auto &[key, id] : objects) {
        uint32_t owner = router->ownerShardOf(key);
        EXPECT_EQ(router->homeShardOf(id), owner);
        if (owner == joiner) {
            EXPECT_TRUE(router->runtime(joiner).hasObject(id));
            EXPECT_FALSE(router->runtime(0).hasObject(id));
            EXPECT_FALSE(router->runtime(1).hasObject(id));
        }
    }
    // The joiner serves calls on its keys without a migration stall.
    uint64_t joiner_key = keyOwnedBy(*router, joiner, 2000);
    RoutedCall call = router->invoke(
        joiner_key, "cv2.imread",
        {ipc::Value(std::string("/data/test.fpim"))});
    ASSERT_TRUE(call.result.ok) << call.result.error;
    EXPECT_EQ(call.shard, joiner);
}

TEST(ShardRouter, AddShardSkipsObjectsAboveMigrationLimit)
{
    ShardRouterConfig config;
    config.shardCount = 2;
    config.migrationMaxBytes = 64; // every real Mat exceeds this
    auto router = env().makeRouter(std::move(config));
    for (uint64_t key = 3000; key < 3016; ++key)
        router->createMat(key, 16, 16, 3, key, "big");
    router->addShard(
        [](osim::Kernel &kernel) { fw::seedFixtureFiles(kernel); });
    const ClusterStats &stats = router->stats();
    EXPECT_EQ(stats.shardsJoined, 1u);
    // Oversized objects stay put: they migrate lazily on first touch
    // (or draw the call to themselves via the proxy path).
    EXPECT_EQ(stats.proactivePushes, 0u);
}

TEST(ShardRouter, AsyncPerShardOverlapsAndMatchesResults)
{
    // The same two-session trace, serialized vs async-per-shard: the
    // async run must produce identical object contents and strictly
    // more overlap (a smaller cluster makespan).
    auto run = [&](bool async) {
        ShardRouterConfig config;
        config.shardCount = 2;
        config.runtime.pipelineParallel = async;
        auto router = env().makeRouter(std::move(config));
        std::vector<uint64_t> keys = {keyOwnedBy(*router, 0),
                                      keyOwnedBy(*router, 1)};
        std::vector<ipc::Value> chain(2);
        for (int step = 0; step < 6; ++step) {
            for (size_t s = 0; s < keys.size(); ++s) {
                RoutedCall call =
                    step == 0
                        ? router->invoke(
                              keys[s], "cv2.imread",
                              {ipc::Value(
                                  std::string("/data/test.fpim"))})
                        : router->invoke(keys[s], "cv2.GaussianBlur",
                                         {chain[s]});
                EXPECT_TRUE(call.result.ok) << call.result.error;
                chain[s] = call.result.values[0];
            }
        }
        router->drainAll();
        ClusterStats stats = router->stats();
        std::vector<std::vector<uint8_t>> bytes;
        for (size_t s = 0; s < keys.size(); ++s) {
            uint64_t id = chain[s].asRef().objectId;
            uint32_t home = router->homeShardOf(id);
            core::FreePartRuntime &rt = router->runtime(home);
            bytes.push_back(rt.storeOf(rt.homeOf(id)).serialize(id));
        }
        return std::make_pair(stats, bytes);
    };
    auto [sync_stats, sync_bytes] = run(false);
    auto [async_stats, async_bytes] = run(true);
    EXPECT_EQ(sync_bytes, async_bytes);
    EXPECT_EQ(sync_stats.shardTotals.asyncCalls, 0u);
    EXPECT_GT(async_stats.shardTotals.asyncCalls, 0u);
    EXPECT_LE(async_stats.makespan, sync_stats.makespan);
}

} // namespace
} // namespace freepart::shard
