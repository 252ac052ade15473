/**
 * @file
 * Shared Zipf-skewed placement workload: the driver both
 * bench_shard_cluster (headline hash-vs-optimized comparison) and
 * bench_placement (exponent sweep + budget/determinism assertions)
 * run, so the two benches measure the same traffic.
 *
 * The workload models a community-structured processing service:
 * `slots` routing keys each own an image chain; slot popularity is
 * Zipf-distributed (configurable exponent); every `blendEvery`-th op
 * on a slot blends its chain with a partner slot drawn from the same
 * community block via cv2.addWeighted, pulling the partner's chain
 * head across shards when the two slots are placed apart. Consistent
 * hashing scatters communities; the optimizer co-places them, which
 * is exactly the cut the hypergraph model minimizes.
 */

#ifndef FREEPART_BENCH_PLACEMENT_WORKLOAD_HH
#define FREEPART_BENCH_PLACEMENT_WORKLOAD_HH

#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "core/runtime.hh"
#include "serve/tenant_workload.hh"
#include "shard/shard_router.hh"
#include "util/rng.hh"

namespace freepart::bench {

struct ZipfWorkloadConfig {
    uint32_t shards = 4;
    shard::PlacementPolicy policy = shard::PlacementPolicy::Hash;
    /** Zipf exponent of slot popularity (0 = uniform). */
    double zipfExponent = 1.0;
    size_t slots = 48;      //!< distinct routing keys
    size_t community = 6;   //!< partner pool: slots in the same block
    size_t blendEvery = 3;  //!< every Nth op on a slot is a blend
    size_t calls = 1920;
    uint64_t seed = 0x5eedf00dull;
    /** Epoch length under the Optimized policy (ignored for Hash). */
    uint64_t repartitionEveryCalls = 240;
    /** Per-epoch migration budget; 0 keeps the router default. */
    size_t migrationMaxBytes = 0;
};

struct ZipfOutcome {
    shard::ClusterStats stats;  //!< final cumulative counters
    /** Steady state = second half of the run, measured from counter
     *  deltas so the hash-era warmup does not mask convergence. */
    double imbalanceSteady = 1.0;
    double crossRateSteady = 0.0; //!< crossShardCalls / callsOk
    double throughput = 0.0;
    uint64_t ackedCalls = 0;

    bool operator==(const ZipfOutcome &) const = default;
};

/** One slot's routing key (distinct keys, spread over the ring). */
inline uint64_t
zipfSlotKey(size_t slot)
{
    return 0xf00d00ull + slot * 131;
}

/**
 * Run the Zipf workload against a fresh cluster. The call sequence is
 * a pure function of the config (slot draws and partner picks consume
 * workload-side Rng only), so Hash and Optimized policies face an
 * identical trace and their outcomes are directly comparable.
 */
inline ZipfOutcome
runZipfWorkload(const ZipfWorkloadConfig &wl)
{
    shard::ShardRouterConfig config;
    config.shardCount = wl.shards;
    config.runtime.ringBytes = 2 << 20;
    config.dedupEntries = 4096;
    config.placementPolicy = wl.policy;
    if (wl.migrationMaxBytes > 0)
        config.migrationMaxBytes = wl.migrationMaxBytes;
    if (wl.policy == shard::PlacementPolicy::Optimized)
        config.repartitionEveryCalls = wl.repartitionEveryCalls;
    shard::ShardRouter router(
        registry(), categorization(),
        core::PartitionPlan::freePartDefault(), std::move(config),
        [](osim::Kernel &kernel) { fw::seedFixtureFiles(kernel); });

    util::Rng rng(wl.seed);
    util::ZipfSampler zipf(wl.slots, wl.zipfExponent);
    std::vector<ipc::Value> chain(wl.slots); //!< last result ref
    std::vector<uint8_t> loaded(wl.slots, 0);
    std::vector<uint64_t> opCount(wl.slots, 0);

    ZipfOutcome out;
    shard::ClusterStats mid; //!< counters at the halfway snapshot
    // Communities interleave across the popularity ranking (members
    // of community c are slots c, c+stride, c+2*stride, ...): each
    // community mixes one hot slot with tail slots, so community
    // loads stay comparable and co-locating a whole community is
    // feasible under the balance constraint even at high skew.
    const size_t stride =
        std::max<size_t>(1, (wl.slots + wl.community - 1) /
                                wl.community);
    for (size_t i = 0; i < wl.calls; ++i) {
        size_t slot = zipf.draw(rng);
        // Partner pick consumes one draw unconditionally so the call
        // sequence stays aligned across configs that branch here.
        size_t partner =
            slot % stride + stride * rng.below(wl.community);
        if (partner >= wl.slots)
            partner = slot;

        uint64_t key = zipfSlotKey(slot);
        std::string api;
        ipc::ValueList args;
        if (!loaded[slot]) {
            api = "cv2.imread";
            args.emplace_back(std::string("/data/test.fpim"));
        } else if (wl.blendEvery > 0 &&
                   opCount[slot] % wl.blendEvery == wl.blendEvery - 1 &&
                   partner != slot && loaded[partner]) {
            api = "cv2.addWeighted";
            args.push_back(chain[slot]);
            args.push_back(chain[partner]);
            args.emplace_back(0.618);
            args.emplace_back(0.382);
        } else {
            api = serve::kChainOps[opCount[slot] %
                                   serve::kChainOps.size()];
            args.push_back(chain[slot]);
        }
        shard::RoutedCall call =
            router.invoke(key, api, std::move(args), i + 1);
        ++opCount[slot];
        if (call.result.ok) {
            ++out.ackedCalls;
            if (!call.result.values.empty() &&
                call.result.values[0].kind() == ipc::Value::Kind::Ref) {
                chain[slot] = call.result.values[0];
                loaded[slot] = 1;
            }
        }
        if (i + 1 == wl.calls / 2)
            mid = router.stats();
    }

    router.drainAll();
    out.stats = router.stats();
    out.throughput = out.stats.throughputCallsPerSec();

    // Second-half imbalance: max over mean of per-shard call deltas.
    uint64_t maxDelta = 0, sumDelta = 0;
    for (size_t s = 0; s < out.stats.callsPerShard.size(); ++s) {
        uint64_t before =
            s < mid.callsPerShard.size() ? mid.callsPerShard[s] : 0;
        uint64_t delta = out.stats.callsPerShard[s] - before;
        maxDelta = std::max(maxDelta, delta);
        sumDelta += delta;
    }
    if (sumDelta > 0 && !out.stats.callsPerShard.empty())
        out.imbalanceSteady =
            static_cast<double>(maxDelta) *
            static_cast<double>(out.stats.callsPerShard.size()) /
            static_cast<double>(sumDelta);
    uint64_t okDelta = out.stats.callsOk - mid.callsOk;
    if (okDelta > 0)
        out.crossRateSteady =
            static_cast<double>(out.stats.crossShardCalls -
                                mid.crossShardCalls) /
            static_cast<double>(okDelta);
    return out;
}

} // namespace freepart::bench

#endif // FREEPART_BENCH_PLACEMENT_WORKLOAD_HH
