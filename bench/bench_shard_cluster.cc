/**
 * @file
 * Shard-cluster evaluation: aggregate throughput and latency of the
 * consistent-hash ShardRouter fanning the FreePart runtime out across
 * 1–8 shards, under uniform and skewed routing keys, plus the
 * kill-one-shard recovery drill — a shard dies mid-workload, its keys
 * remap to the survivors (bounded movement), inputs are rebuilt from
 * replicas, and every previously acknowledged call must still be
 * answered from the cluster dedup cache (at-least-once: no acked call
 * is lost). Shards run on independent simulated kernels, so cluster
 * makespan is the max per-shard elapsed time; everything is
 * deterministic sim-time and replays bit-for-bit.
 */

#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "core/runtime.hh"
#include "serve/tenant_workload.hh"
#include "shard/shard_router.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace freepart;

namespace {

constexpr size_t kSessions = 64;
constexpr size_t kOpsPerSession = 22; //!< unary chain between load/store
constexpr uint64_t kKeyBase = 0xbeef00;

/** Routing key of a session: 64 distinct keys spread over the ring
 *  (uniform), or collapsed onto 8 hot keys (skewed 8:1). */
uint64_t
sessionKey(size_t session, bool skewed)
{
    size_t slot = skewed ? session % 8 : session;
    return kKeyBase + slot * 97;
}

struct ClusterOutcome {
    shard::ClusterStats stats;
    double throughput = 0.0; //!< acked calls per simulated second
    uint64_t ackedCalls = 0;
    uint64_t lostAcks = 0;      //!< acked tokens not answered on resubmit
    double remapFraction = 0.0; //!< keys moved by the kill (probe set)
    uint32_t killedShard = 0;

    bool operator==(const ClusterOutcome &) const = default;
};

/**
 * Drive kSessions concurrent sessions round-robin through the router:
 * each session loads an image, chains kOpsPerSession unary ops on its
 * own result refs, and stores the final frame. Every call carries a
 * unique dedup token. With kill_one, the busiest key's owner is
 * killed halfway through and all acknowledged tokens are resubmitted
 * at the end to verify none was lost.
 */
ClusterOutcome
runCluster(uint32_t shard_count, bool skewed, bool kill_one,
           bool async = false,
           shard::PlacementPolicy policy = shard::PlacementPolicy::Hash)
{
    shard::ShardRouterConfig config;
    config.shardCount = shard_count;
    config.runtime.ringBytes = 2 << 20;
    config.runtime.pipelineParallel = async;
    config.dedupEntries = 4096; // hold every token of this run
    config.placementPolicy = policy;
    if (policy == shard::PlacementPolicy::Optimized)
        config.repartitionEveryCalls = 192; // ~8 epochs over the run
    shard::ShardRouter router(
        bench::registry(), bench::categorization(),
        core::PartitionPlan::freePartDefault(), std::move(config),
        [](osim::Kernel &kernel) { fw::seedFixtureFiles(kernel); });

    serve::ClusterClient client(router,
                                serve::ClusterClient::Loop::Closed);
    std::vector<serve::Chain> chain(kSessions);
    ClusterOutcome out;

    const size_t steps = kOpsPerSession + 2; // imread ... imwrite
    const size_t totalCalls = kSessions * steps;
    size_t issued = 0;
    bool killed = false;
    shard::HashRing ringBefore = router.ring();

    for (size_t step = 0; step < steps; ++step) {
        serve::ScriptCall call{"cv2.imread", true};
        if (step == steps - 1)
            call = {"cv2.imwrite"};
        else if (step > 0)
            call = {serve::kChainOps[(step - 1) %
                                     serve::kChainOps.size()]};
        for (size_t session = 0; session < kSessions; ++session) {
            if (kill_one && !killed && issued >= totalCalls / 2) {
                ringBefore = router.ring();
                out.killedShard =
                    router.ownerShardOf(sessionKey(0, skewed));
                router.killShard(out.killedShard);
                killed = true;
            }
            uint64_t token =
                (static_cast<uint64_t>(session) << 32) | (step + 1);
            client.step(chain[session], sessionKey(session, skewed),
                        call,
                        "/out/s" + std::to_string(session) + ".fpim",
                        {.dedupToken = token});
            ++issued;
        }
    }

    if (kill_one) {
        // Bounded movement: how much of the keyspace the kill moved.
        std::vector<uint64_t> probes;
        for (uint64_t p = 0; p < 1000; ++p)
            probes.push_back(kKeyBase + p * 13);
        out.remapFraction = shard::HashRing::remappedFraction(
            ringBefore, router.ring(), probes);

        out.lostAcks = client.auditAcks();
    }

    // Settle per-shard virtual timelines before reading makespans
    // (no-op in the serialized configuration).
    router.drainAll();
    out.stats = router.stats();
    out.ackedCalls = client.acked();
    out.throughput = out.stats.throughputCallsPerSec();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonOutput json("shard_cluster", argc, argv);
    bench::banner("Shard cluster",
                  "consistent-hash routing across 1-8 FreePart "
                  "runtimes: throughput scaling, key skew, and "
                  "kill-one-shard recovery");

    util::TextTable table({"shards", "keys", "acked", "makespan ms",
                           "calls/s", "imbalance", "migrations",
                           "restores"});
    const uint32_t shardCounts[] = {1, 2, 4, 8};
    double uniformTp[9] = {0};
    double uniformImbalance4 = 0.0;

    for (uint32_t shards : shardCounts) {
        ClusterOutcome run = runCluster(shards, false, false);
        uniformTp[shards] = run.throughput;
        if (shards == 4)
            uniformImbalance4 = run.stats.imbalance();
        table.addRow({std::to_string(shards), "uniform",
                      std::to_string(run.ackedCalls),
                      util::fmtDouble(run.stats.makespan / 1e6, 2),
                      util::fmtDouble(run.throughput, 0),
                      util::fmtDouble(run.stats.imbalance(), 2),
                      std::to_string(run.stats.migrations),
                      std::to_string(run.stats.replicaRestores)});
        json.metric("throughput_uniform_" + std::to_string(shards) +
                        "shards",
                    run.throughput);
    }

    // Async-per-shard: same trace, per-shard runtimes in pipeline-
    // parallel mode — calls co-located by the ring overlap on each
    // shard's agent timelines instead of serializing its host clock.
    ClusterOutcome asyncRun = runCluster(4, false, false, true);
    table.addRow({"4", "uniform+async",
                  std::to_string(asyncRun.ackedCalls),
                  util::fmtDouble(asyncRun.stats.makespan / 1e6, 2),
                  util::fmtDouble(asyncRun.throughput, 0),
                  util::fmtDouble(asyncRun.stats.imbalance(), 2),
                  std::to_string(asyncRun.stats.migrations),
                  std::to_string(asyncRun.stats.replicaRestores)});

    ClusterOutcome skew = runCluster(4, true, false);
    table.addRow({"4", "skewed", std::to_string(skew.ackedCalls),
                  util::fmtDouble(skew.stats.makespan / 1e6, 2),
                  util::fmtDouble(skew.throughput, 0),
                  util::fmtDouble(skew.stats.imbalance(), 2),
                  std::to_string(skew.stats.migrations),
                  std::to_string(skew.stats.replicaRestores)});

    // Same skewed trace with the load-aware placement optimizer: the
    // 8 hot keys are re-spread 2-2-2-2 by the first re-partition
    // epochs, so cumulative imbalance converges toward 1.0.
    ClusterOutcome skewOpt = runCluster(
        4, true, false, false, shard::PlacementPolicy::Optimized);
    table.addRow({"4", "skewed+opt",
                  std::to_string(skewOpt.ackedCalls),
                  util::fmtDouble(skewOpt.stats.makespan / 1e6, 2),
                  util::fmtDouble(skewOpt.throughput, 0),
                  util::fmtDouble(skewOpt.stats.imbalance(), 2),
                  std::to_string(skewOpt.stats.migrations),
                  std::to_string(skewOpt.stats.replicaRestores)});
    std::printf("%s", table.render().c_str());

    double speedup4 = uniformTp[1] > 0.0
                          ? uniformTp[4] / uniformTp[1]
                          : 0.0;
    double speedup8 = uniformTp[1] > 0.0
                          ? uniformTp[8] / uniformTp[1]
                          : 0.0;
    std::printf("\nuniform-key speedup vs 1 shard: %.2fx at 4 "
                "shards, %.2fx at 8 shards\n",
                speedup4, speedup8);
    std::printf("skewed keys (8 hot keys / 64 sessions) at 4 shards: "
                "imbalance %.2f, %.2fx vs 1 shard\n",
                skew.stats.imbalance(),
                uniformTp[1] > 0.0 ? skew.throughput / uniformTp[1]
                                   : 0.0);
    double asyncSpeedup = uniformTp[4] > 0.0
                              ? asyncRun.throughput / uniformTp[4]
                              : 0.0;
    std::printf("async-per-shard at 4 shards: %.0f calls/s, %.2fx "
                "over the serialized 4-shard run (%llu async calls)\n",
                asyncRun.throughput, asyncSpeedup,
                static_cast<unsigned long long>(
                    asyncRun.stats.shardTotals.asyncCalls));
    std::printf("skewed keys with optimized placement: imbalance "
                "%.2f (%llu epochs, %llu placement moves, epoch peak "
                "%llu bytes)\n",
                skewOpt.stats.imbalance(),
                static_cast<unsigned long long>(
                    skewOpt.stats.repartitions),
                static_cast<unsigned long long>(
                    skewOpt.stats.placementMoves),
                static_cast<unsigned long long>(
                    skewOpt.stats.placementEpochBytesPeak));

    // ---- Kill-one-shard recovery drill -------------------------------
    ClusterOutcome kill = runCluster(4, false, true);
    std::printf("\nkill-one-of-four: shard %u killed mid-run; %llu/%llu"
                " calls acked, %llu acked lost on resubmit, remap "
                "fraction %.3f, %llu replica restores, %llu dedup "
                "answers\n",
                kill.killedShard,
                static_cast<unsigned long long>(kill.ackedCalls),
                static_cast<unsigned long long>(kSessions *
                                                (kOpsPerSession + 2)),
                static_cast<unsigned long long>(kill.lostAcks),
                kill.remapFraction,
                static_cast<unsigned long long>(
                    kill.stats.replicaRestores),
                static_cast<unsigned long long>(kill.stats.dedupHits));

    // Determinism: same schedule, fresh cluster, identical trace.
    ClusterOutcome a = runCluster(2, false, false);
    ClusterOutcome b = runCluster(2, false, false);
    bool identical = a == b;
    std::printf("deterministic replay: %s\n",
                identical ? "yes" : "NO (bug)");

    bool budgetOk = skewOpt.stats.placementEpochBytesPeak <= (4u << 20);

    bool pass = speedup4 >= 2.5 && kill.lostAcks == 0 &&
                kill.remapFraction <= 0.35 && identical &&
                skewOpt.stats.imbalance() <= 1.2 && budgetOk;

    json.metric("speedup_uniform_4shards", speedup4);
    json.metric("speedup_uniform_8shards", speedup8);
    json.metric("throughput_async_4shards", asyncRun.throughput);
    json.metric("async_speedup_4shards", asyncSpeedup);
    json.metric("throughput_skewed_4shards", skew.throughput);
    json.metric("imbalance_skewed_4shards", skew.stats.imbalance());
    json.metric("imbalance_uniform_4shards", uniformImbalance4);
    json.metric("kill_lost_acks", kill.lostAcks);
    json.metric("kill_remap_fraction", kill.remapFraction);
    json.metric("kill_replica_restores", kill.stats.replicaRestores);
    json.metric("kill_acked_calls", kill.ackedCalls);
    json.metric("kill_migrations", kill.stats.migrations);
    json.metric("deterministic_replay", identical ? 1 : 0);
    json.metric("imbalance_skewed_opt_4shards",
                skewOpt.stats.imbalance());
    json.metric("skewed_opt_repartitions", skewOpt.stats.repartitions);
    json.metric("skewed_opt_epoch_peak_bytes",
                skewOpt.stats.placementEpochBytesPeak);
    json.metric("cross_shard_calls_skewed_4shards",
                skew.stats.crossShardCalls);
    json.metric("cross_shard_calls_skewed_opt_4shards",
                skewOpt.stats.crossShardCalls);
    json.metric("proxied_bytes_skewed_4shards",
                skew.stats.proxiedBytes);
    json.metric("migrated_bytes_skewed_4shards",
                skew.stats.migratedBytes);
    json.metric("placement_budget_respected", budgetOk ? 1 : 0);
    json.metric("acceptance_pass", pass ? 1 : 0);
    json.flush();

    bench::note("shards are independent simulated machines: cluster "
                "makespan is the max per-shard elapsed sim time, "
                "throughput = acked calls / makespan; cross-shard "
                "object traffic pays a simulated network cost (80 us "
                "+ 0.25 ns/B) on top of serialization");
    return pass ? 0 : 1;
}
