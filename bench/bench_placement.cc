/**
 * @file
 * Placement-optimizer evaluation: hash vs hypergraph-optimized
 * placement over the shared Zipf workload (placement_workload.hh)
 * across a sweep of skew exponents, plus the three properties the
 * perf gate holds the optimizer to — a hot-key workload rebalanced
 * to <= 1.2 imbalance, per-epoch migration bounded by the configured
 * budget (deferrals pick up the slack next epoch), and bit-identical
 * replay of the whole optimize-and-migrate loop for a fixed seed.
 */

#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "bench/placement_workload.hh"
#include "core/runtime.hh"
#include "shard/shard_router.hh"
#include "util/table.hh"

using namespace freepart;

int
main(int argc, char **argv)
{
    bench::JsonOutput json("placement", argc, argv);
    bench::banner("Load-aware placement",
                  "hypergraph-partitioned object placement vs "
                  "consistent hashing under Zipf-skewed, "
                  "community-structured traffic");

    // ---- Skew sweep: how the win scales with workload skew -----------
    util::TextTable table({"zipf", "policy", "imbalance*",
                           "cross rate*", "calls/s", "epochs",
                           "moved KiB"});
    const double exponents[] = {0.6, 0.9, 1.2};
    bool sweepWin = true;
    for (double exponent : exponents) {
        bench::ZipfOutcome byPolicy[2];
        for (int p = 0; p < 2; ++p) {
            bench::ZipfWorkloadConfig wl;
            wl.zipfExponent = exponent;
            wl.policy = p == 0 ? shard::PlacementPolicy::Hash
                               : shard::PlacementPolicy::Optimized;
            byPolicy[p] = bench::runZipfWorkload(wl);
            const bench::ZipfOutcome &run = byPolicy[p];
            table.addRow(
                {util::fmtDouble(exponent, 1),
                 p == 0 ? "hash" : "optimized",
                 util::fmtDouble(run.imbalanceSteady, 2),
                 util::fmtDouble(run.crossRateSteady, 3),
                 util::fmtDouble(run.throughput, 0),
                 std::to_string(run.stats.repartitions),
                 std::to_string(run.stats.placementMovedBytes /
                                1024)});
        }
        sweepWin = sweepWin && byPolicy[1].crossRateSteady <
                                   byPolicy[0].crossRateSteady;
        std::string tag = std::to_string(
            static_cast<int>(exponent * 10 + 0.5));
        json.metric("imbalance_hash_zipf" + tag,
                    byPolicy[0].imbalanceSteady);
        json.metric("imbalance_opt_zipf" + tag,
                    byPolicy[1].imbalanceSteady);
        json.metric("cross_rate_hash_zipf" + tag,
                    byPolicy[0].crossRateSteady);
        json.metric("cross_rate_opt_zipf" + tag,
                    byPolicy[1].crossRateSteady);
    }
    std::printf("%s", table.render().c_str());
    std::printf("(* steady state: second half of the run; 48 keys, "
                "4 shards, community blends every 3rd op)\n");

    // ---- 4- and 8-shard headline comparison (the gated metrics) ------
    bench::ZipfOutcome headline[4];
    size_t i = 0;
    for (uint32_t shards : {4u, 8u}) {
        for (auto policy : {shard::PlacementPolicy::Hash,
                            shard::PlacementPolicy::Optimized}) {
            bench::ZipfWorkloadConfig wl;
            wl.shards = shards;
            wl.policy = policy;
            headline[i++] = bench::runZipfWorkload(wl);
        }
    }
    const bench::ZipfOutcome &zh4 = headline[0], &zo4 = headline[1];
    const bench::ZipfOutcome &zh8 = headline[2], &zo8 = headline[3];
    std::printf("\nzipf 1.0 headline: 4 shards %.2f->%.2f imbalance, "
                "%.3f->%.3f cross rate; 8 shards %.3f->%.3f cross "
                "rate\n",
                zh4.imbalanceSteady, zo4.imbalanceSteady,
                zh4.crossRateSteady, zo4.crossRateSteady,
                zh8.crossRateSteady, zo8.crossRateSteady);

    // ---- Hot-key rebalance: 8 hot keys over 4 shards -----------------
    // Near-uniform popularity over few keys is the classic skewed
    // keyspace: hashing strands 3 keys on one shard (imbalance 1.5),
    // the optimizer re-spreads them 2-2-2-2.
    bench::ZipfOutcome hot[2];
    for (int p = 0; p < 2; ++p) {
        bench::ZipfWorkloadConfig wl;
        wl.slots = 8;
        wl.community = 4;
        wl.zipfExponent = 0.2;
        wl.policy = p == 0 ? shard::PlacementPolicy::Hash
                           : shard::PlacementPolicy::Optimized;
        hot[p] = bench::runZipfWorkload(wl);
    }
    std::printf("hot-key rebalance (8 keys / 4 shards): steady "
                "imbalance %.2f hash -> %.2f optimized\n",
                hot[0].imbalanceSteady, hot[1].imbalanceSteady);

    // ---- Budget: a tight epoch budget defers, never exceeds ----------
    bench::ZipfWorkloadConfig tight;
    tight.policy = shard::PlacementPolicy::Optimized;
    tight.migrationMaxBytes = 64 << 10; // a handful of mats per epoch
    bench::ZipfOutcome tightRun = bench::runZipfWorkload(tight);
    bool budgetRespected =
        tightRun.stats.placementEpochBytesPeak <= (64u << 10) &&
        zo4.stats.placementEpochBytesPeak <= (4u << 20) &&
        zo8.stats.placementEpochBytesPeak <= (4u << 20);
    std::printf("tight 64 KiB budget: epoch peak %llu bytes, %llu "
                "moves, %llu deferrals -> budget %s\n",
                static_cast<unsigned long long>(
                    tightRun.stats.placementEpochBytesPeak),
                static_cast<unsigned long long>(
                    tightRun.stats.placementMoves),
                static_cast<unsigned long long>(
                    tightRun.stats.placementDeferrals),
                budgetRespected ? "respected" : "EXCEEDED (bug)");

    // ---- Determinism: same seed, fresh cluster, identical run --------
    bench::ZipfWorkloadConfig det;
    det.policy = shard::PlacementPolicy::Optimized;
    bench::ZipfOutcome detA = bench::runZipfWorkload(det);
    bench::ZipfOutcome detB = bench::runZipfWorkload(det);
    bool identical = detA == detB;
    std::printf("deterministic replay (optimize + migrate loop): "
                "%s\n", identical ? "yes" : "NO (bug)");

    bool pass = sweepWin && hot[1].imbalanceSteady <= 1.2 &&
                zo4.crossRateSteady < zh4.crossRateSteady &&
                zo8.crossRateSteady < zh8.crossRateSteady &&
                budgetRespected && identical;

    json.metric("imbalance_zipf_hash_4shards", zh4.imbalanceSteady);
    json.metric("imbalance_zipf_opt_4shards", zo4.imbalanceSteady);
    json.metric("imbalance_zipf_hash_8shards", zh8.imbalanceSteady);
    json.metric("imbalance_zipf_opt_8shards", zo8.imbalanceSteady);
    json.metric("cross_rate_zipf_hash_4shards", zh4.crossRateSteady);
    json.metric("cross_rate_zipf_opt_4shards", zo4.crossRateSteady);
    json.metric("cross_rate_zipf_hash_8shards", zh8.crossRateSteady);
    json.metric("cross_rate_zipf_opt_8shards", zo8.crossRateSteady);
    json.metric("throughput_zipf_hash_4shards", zh4.throughput);
    json.metric("throughput_zipf_opt_4shards", zo4.throughput);
    json.metric("imbalance_hotkeys_hash_4shards",
                hot[0].imbalanceSteady);
    json.metric("imbalance_hotkeys_opt_4shards",
                hot[1].imbalanceSteady);
    json.metric("tight_budget_epoch_peak_bytes",
                tightRun.stats.placementEpochBytesPeak);
    json.metric("tight_budget_deferrals",
                tightRun.stats.placementDeferrals);
    json.metric("budget_respected", budgetRespected ? 1 : 0);
    json.metric("deterministic_replay", identical ? 1 : 0);
    json.metric("cross_shard_calls_opt_4shards",
                zo4.stats.crossShardCalls);
    json.metric("proxied_bytes_opt_4shards", zo4.stats.proxiedBytes);
    json.metric("migrated_bytes_opt_4shards", zo4.stats.migratedBytes);
    json.metric("acceptance_pass", pass ? 1 : 0);
    json.flush();

    bench::note("the optimizer observes the live call trace as a "
                "hypergraph (objects x calls), partitions it with "
                "community coarsening + FM refinement, and applies "
                "moves incrementally under the migrationMaxBytes "
                "epoch budget — overrides layer on the hash ring, so "
                "failover and recovery semantics are unchanged");
    return pass ? 0 : 1;
}
