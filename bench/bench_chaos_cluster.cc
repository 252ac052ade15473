/**
 * @file
 * Chaos-and-recovery evaluation: the 23 Table 6 application models
 * replayed open-loop through the 4-shard ShardRouter, once clean and
 * once under a seeded 10% chaos plan (shard stalls, slow-agent
 * multipliers, cross-shard message drop/corrupt, one kill+rejoin
 * window per ~shard). Reports what a cluster operator would watch:
 * availability (acked / issued), p50/p99 latency on the open-loop
 * arrival axis, mean failover detection time, shed rate, and the
 * at-least-once audit (every acked token must still be answered from
 * the cluster dedup cache after the run — zero acked calls lost).
 * Everything is seeded simulated time: the same chaos seed replays
 * byte-identically.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "apps/app_models.hh"
#include "apps/workload.hh"
#include "bench/bench_common.hh"
#include "core/runtime.hh"
#include "serve/tenant_workload.hh"
#include "shard/chaos.hh"
#include "shard/shard_router.hh"
#include "util/table.hh"

using namespace freepart;

namespace {

constexpr uint32_t kShards = 4;
constexpr uint64_t kKeyBase = 0xc4a0500;
constexpr uint64_t kChaosSeed = 0x7ab1e6;
constexpr double kChaosRate = 0.10;

/** Per-app session: routing key + its call script. */
struct Session {
    uint32_t id = 0;                //!< app model id (tenant label)
    uint64_t key = 0;
    std::vector<serve::ScriptCall> calls;
    size_t next = 0;                //!< next call to issue
    serve::Chain chain;
    std::vector<double> latenciesUs; //!< per-tenant breakdown
};

struct ChaosOutcome {
    shard::ClusterStats stats;
    uint64_t issued = 0;
    uint64_t acked = 0;
    uint64_t lostAcks = 0; //!< acked tokens not answered on resubmit
    double availability = 0.0;
    serve::LatencySummary latency;
    /** Worst per-app-session (per-tenant) p99 — the breakdown a
     *  multi-tenant operator reads next to the aggregate tail. */
    double worstAppP99Us = 0.0;
    uint32_t worstAppId = 0;
    double shedRate = 0.0;
    double meanFailoverUs = 0.0;

    bool operator==(const ChaosOutcome &) const = default;
};

/**
 * Replay all 23 app sessions round-robin through a fresh 4-shard
 * cluster: each accepted call arrives `interarrival` ns after the
 * previous one on the shared open-loop axis and carries the given
 * deadline plus a unique dedup token. With chaos_rate > 0 a seeded
 * plan is armed before the first call. Ends with the at-least-once
 * audit: every acked token is resubmitted and must answer from the
 * dedup cache without re-executing.
 */
ChaosOutcome
runChaos(const apps::WorkloadGenerator &generator, double chaos_rate,
         osim::SimTime interarrival, osim::SimTime deadline)
{
    shard::ShardRouterConfig config;
    config.shardCount = kShards;
    config.runtime.ringBytes = 2 << 20;
    config.dedupEntries = 1 << 14; // hold every token of the run
    config.replicateObjects = true;
    config.defaultDeadline = deadline;
    shard::ShardRouter router(
        bench::registry(), bench::categorization(),
        core::PartitionPlan::freePartDefault(), std::move(config),
        [&generator](osim::Kernel &kernel) {
            generator.seedInputs(kernel);
        });

    std::vector<Session> sessions;
    uint64_t totalCalls = 0;
    for (const apps::AppModel &model : apps::appModels()) {
        Session session;
        session.id = model.id;
        session.key = kKeyBase + static_cast<uint64_t>(model.id) * 97;
        session.calls = serve::sessionScript(generator, model);
        totalCalls += session.calls.size();
        sessions.push_back(std::move(session));
    }
    if (chaos_rate > 0.0)
        router.applyChaosSchedule(shard::ChaosSchedule::generate(
            kChaosSeed, kShards, totalCalls, chaos_rate));

    ChaosOutcome out;
    serve::ClusterClient client(router, serve::ClusterClient::Loop::Open);
    osim::SimTime arrival = 0;
    uint64_t token = 0;
    bool live = true;
    while (live) {
        live = false;
        for (Session &session : sessions) {
            if (session.next >= session.calls.size())
                continue;
            live = true;
            shard::CallOptions opts;
            opts.dedupToken = ++token;
            opts.arrival = arrival;
            arrival += interarrival;
            shard::RoutedCall routed = client.step(
                session.chain, session.key,
                session.calls[session.next++],
                "/out/app" + std::to_string(session.key & 0xffff) +
                    ".fpim",
                opts);
            ++out.issued;
            if (routed.result.ok)
                session.latenciesUs.push_back(serve::latencyUs(routed));
        }
    }
    out.acked = client.acked();
    out.lostAcks = client.auditAcks();

    router.drainAll();
    out.stats = router.stats();
    out.availability =
        out.issued ? static_cast<double>(out.acked) /
                         static_cast<double>(out.issued)
                   : 0.0;
    out.shedRate =
        out.issued ? static_cast<double>(out.stats.shedCalls) /
                         static_cast<double>(out.issued)
                   : 0.0;
    out.latency = client.latency();
    for (Session &session : sessions) {
        double p99 = serve::summarizeLatencies(session.latenciesUs).p99Us;
        if (p99 > out.worstAppP99Us) {
            out.worstAppP99Us = p99;
            out.worstAppId = session.id;
        }
    }
    if (out.stats.deadTransitions)
        out.meanFailoverUs =
            static_cast<double>(out.stats.detectionTime) / 1000.0 /
            static_cast<double>(out.stats.deadTransitions);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonOutput json("chaos_cluster", argc, argv);
    bench::banner("Chaos cluster",
                  "23 Table 6 app models replayed open-loop through "
                  "4 shards, clean vs a seeded 10% chaos plan "
                  "(stalls, slow-downs, message drop/corrupt, "
                  "kill+rejoin windows)");

    apps::WorkloadGenerator::Config wconfig;
    wconfig.maxRounds = 3;
    wconfig.maxCallsPerRound = 12;
    wconfig.imageRows = 256;
    wconfig.imageCols = 256;
    apps::WorkloadGenerator generator(bench::registry(), wconfig);
    osim::SimTime meanService = serve::calibrateMeanService(
        bench::registry(), bench::categorization(), generator);
    // ~60% utilization across the cluster; deadline budget of 8x the
    // unloaded mean leaves room for queueing and one retry.
    osim::SimTime interarrival =
        std::max<osim::SimTime>(1, meanService / (kShards * 6 / 10));
    osim::SimTime deadline = meanService * 8;
    std::printf("calibration: mean service %.1f us -> interarrival "
                "%.1f us, deadline %.1f us\n\n",
                meanService / 1e3, interarrival / 1e3,
                deadline / 1e3);

    ChaosOutcome clean = runChaos(generator, 0.0, interarrival, deadline);
    ChaosOutcome chaos = runChaos(generator, kChaosRate, interarrival,
                                  deadline);

    util::TextTable table({"run", "issued", "acked", "avail %",
                           "p50 us", "p99 us", "p999 us", "shed %",
                           "hedged", "degraded", "rejoins"});
    auto addRow = [&table](const char *name, const ChaosOutcome &o) {
        table.addRow({name, std::to_string(o.issued),
                      std::to_string(o.acked),
                      util::fmtDouble(o.availability * 100.0, 2),
                      util::fmtDouble(o.latency.p50Us, 1),
                      util::fmtDouble(o.latency.p99Us, 1),
                      util::fmtDouble(o.latency.p999Us, 1),
                      util::fmtDouble(o.shedRate * 100.0, 2),
                      std::to_string(o.stats.hedgedCalls),
                      std::to_string(o.stats.degradedCalls),
                      std::to_string(o.stats.shardsRejoined)});
    };
    addRow("clean", clean);
    addRow("chaos 10%", chaos);
    std::printf("%s", table.render().c_str());

    std::printf("\nchaos plan effects: %llu stalls, %llu slowed "
                "calls, %llu dropped / %llu corrupted messages, "
                "%llu shards killed, %llu rejoined, %llu replica "
                "restores, %llu lost objects\n",
                static_cast<unsigned long long>(
                    chaos.stats.chaosStalls),
                static_cast<unsigned long long>(
                    chaos.stats.chaosSlowCalls),
                static_cast<unsigned long long>(
                    chaos.stats.messagesDropped),
                static_cast<unsigned long long>(
                    chaos.stats.messagesCorrupted),
                static_cast<unsigned long long>(
                    chaos.stats.shardsKilled),
                static_cast<unsigned long long>(
                    chaos.stats.shardsRejoined),
                static_cast<unsigned long long>(
                    chaos.stats.replicaRestores),
                static_cast<unsigned long long>(
                    chaos.stats.lostObjects));
    if (chaos.stats.deadTransitions)
        std::printf("failover detection: %llu dead transitions, "
                    "mean %.1f us from last contact to takeover\n",
                    static_cast<unsigned long long>(
                        chaos.stats.deadTransitions),
                    chaos.meanFailoverUs);
    std::printf("per-tenant tail: worst app-session p99 %.1f us "
                "(app %u clean), %.1f us (app %u chaos)\n",
                clean.worstAppP99Us, clean.worstAppId,
                chaos.worstAppP99Us, chaos.worstAppId);
    std::printf("at-least-once audit: %llu acked lost (clean), "
                "%llu acked lost (chaos)\n",
                static_cast<unsigned long long>(clean.lostAcks),
                static_cast<unsigned long long>(chaos.lostAcks));

    // Determinism: same seed, fresh cluster — byte-identical stats.
    ChaosOutcome replay = runChaos(generator, kChaosRate, interarrival,
                                   deadline);
    bool identical = replay == chaos;
    std::printf("deterministic replay: %s\n",
                identical ? "yes" : "NO (bug)");

    bool pass = clean.availability >= 0.99 &&
                chaos.availability >= 0.95 &&
                clean.lostAcks == 0 && chaos.lostAcks == 0 &&
                chaos.latency.p99Us > 0.0 && identical;

    json.metric("availability_at_0pct", clean.availability);
    json.metric("availability_at_10pct", chaos.availability);
    json.metric("p50_us_at_0pct", clean.latency.p50Us);
    json.metric("p99_us_at_0pct", clean.latency.p99Us);
    json.metric("p999_us_at_0pct", clean.latency.p999Us);
    json.metric("p50_us_at_10pct", chaos.latency.p50Us);
    json.metric("p99_us_at_10pct", chaos.latency.p99Us);
    json.metric("p999_us_at_10pct", chaos.latency.p999Us);
    json.metric("worst_app_p99_us_at_0pct", clean.worstAppP99Us);
    json.metric("worst_app_p99_us_at_10pct", chaos.worstAppP99Us);
    json.metric("shed_rate_at_10pct", chaos.shedRate);
    json.metric("hedged_calls_at_10pct", chaos.stats.hedgedCalls);
    json.metric("degraded_calls_at_10pct", chaos.stats.degradedCalls);
    json.metric("shards_rejoined_at_10pct",
                chaos.stats.shardsRejoined);
    json.metric("mean_failover_us", chaos.meanFailoverUs);
    json.metric("lost_acks_at_0pct", clean.lostAcks);
    json.metric("lost_acks_at_10pct", chaos.lostAcks);
    json.metric("lost_objects_at_10pct", chaos.stats.lostObjects);
    json.metric("deterministic_replay", identical ? 1 : 0);
    json.metric("acceptance_pass", pass ? 1 : 0);
    json.flush();

    bench::note("all time is simulated: arrivals are open-loop on a "
                "shared axis, each shard queues behind its own busy "
                "horizon, and the chaos plan derives from one seed — "
                "the 10% run replays byte-identically");
    return pass ? 0 : 1;
}
