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

/** Unary Mat ops standing in for each app's processing chain (the
 *  trace supplies the per-app call structure; these supply the
 *  simulated work). */
const char *const kOps[] = {"cv2.GaussianBlur", "cv2.erode",
                            "cv2.dilate",       "cv2.flip",
                            "cv2.normalize",    "cv2.bitwise_not"};
constexpr size_t kNumOps = sizeof(kOps) / sizeof(*kOps);

/** One concrete call of an app session. */
struct SessionCall {
    std::string api;
    bool load = false; //!< (re)opens the session's pipeline chain
};

/** Per-app session: routing key + its call list. */
struct Session {
    uint32_t id = 0;                //!< app model id (tenant label)
    uint64_t key = 0;
    std::vector<SessionCall> calls;
    size_t next = 0;                //!< next call to issue
    ipc::Value chain;               //!< last result ref
    bool haveChain = false;
    std::vector<double> latenciesUs; //!< per-tenant breakdown
};

/**
 * Map one Table 6 app model onto a session: the workload generator's
 * trace gives the load/process round structure (rounds x calls per
 * round, derived from the model's per-type call-site counts); loads
 * become cv2.imread of the seeded fixture, chained calls cycle the
 * unary op set, and the session stores its final frame.
 */
Session
buildSession(const apps::WorkloadGenerator &generator,
             const apps::AppModel &model)
{
    Session session;
    session.id = model.id;
    session.key = kKeyBase + static_cast<uint64_t>(model.id) * 97;
    size_t op = static_cast<size_t>(model.id); // de-phase op cycles
    for (const apps::WorkloadCall &call : generator.trace(model)) {
        if (call.startsRound)
            session.calls.push_back({"cv2.imread", true});
        else
            session.calls.push_back({kOps[op++ % kNumOps], false});
    }
    session.calls.push_back({"cv2.imwrite", false});
    return session;
}

struct ChaosOutcome {
    shard::ClusterStats stats;
    uint64_t issued = 0;
    uint64_t acked = 0;
    uint64_t lostAcks = 0; //!< acked tokens not answered on resubmit
    double availability = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    /** Worst per-app-session (per-tenant) p99 — the breakdown a
     *  multi-tenant operator reads next to the aggregate tail. */
    double worstAppP99Us = 0.0;
    uint32_t worstAppId = 0;
    double shedRate = 0.0;
    double meanFailoverUs = 0.0;
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
runChaos(double chaos_rate, osim::SimTime interarrival,
         osim::SimTime deadline)
{
    apps::WorkloadGenerator::Config wconfig;
    wconfig.maxRounds = 3;
    wconfig.maxCallsPerRound = 12;
    wconfig.imageRows = 256;
    wconfig.imageCols = 256;
    apps::WorkloadGenerator generator(bench::registry(), wconfig);

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
        sessions.push_back(buildSession(generator, model));
        totalCalls += sessions.back().calls.size();
    }
    if (chaos_rate > 0.0)
        router.applyChaosSchedule(shard::ChaosSchedule::generate(
            kChaosSeed, kShards, totalCalls, chaos_rate));

    ChaosOutcome out;
    std::vector<double> latenciesUs;
    std::vector<std::pair<uint64_t, uint64_t>> acked; // token, key
    osim::SimTime arrival = 0;
    uint64_t token = 0;
    bool live = true;
    while (live) {
        live = false;
        for (Session &session : sessions) {
            if (session.next >= session.calls.size())
                continue;
            live = true;
            const SessionCall &call = session.calls[session.next++];
            ipc::ValueList args;
            std::string api = call.api;
            if (call.load || !session.haveChain) {
                // Round boundary — or the chain was lost to chaos and
                // the app rebuilds from a fresh load (§4.4.2's
                // accepted state discrepancy).
                api = "cv2.imread";
                args.emplace_back(std::string("/data/test.fpim"));
            } else if (api == "cv2.imwrite") {
                args.emplace_back(
                    std::string("/out/app") +
                    std::to_string(session.key & 0xffff) + ".fpim");
                args.push_back(session.chain);
            } else {
                args.push_back(session.chain);
            }
            shard::CallOptions opts;
            opts.dedupToken = ++token;
            opts.arrival = arrival;
            arrival += interarrival;
            shard::RoutedCall routed =
                router.invokeAt(session.key, api, std::move(args),
                                opts);
            ++out.issued;
            if (!routed.result.ok) {
                session.haveChain = false;
                continue;
            }
            ++out.acked;
            acked.emplace_back(opts.dedupToken, session.key);
            double us = static_cast<double>(routed.latency) / 1000.0;
            latenciesUs.push_back(us);
            session.latenciesUs.push_back(us);
            if (!routed.result.values.empty() &&
                routed.result.values[0].kind() ==
                    ipc::Value::Kind::Ref) {
                session.chain = routed.result.values[0];
                session.haveChain = true;
            }
        }
    }

    // At-least-once audit: every acknowledged call must still be
    // answered from the dedup cache, without re-executing.
    for (auto &[t, key] : acked) {
        shard::RoutedCall replay =
            router.invoke(key, "cv2.bitwise_not", {}, t);
        if (!replay.result.ok || !replay.deduped)
            ++out.lostAcks;
    }

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
    std::sort(latenciesUs.begin(), latenciesUs.end());
    out.p50Us = serve::percentileUs(latenciesUs, 0.50);
    out.p99Us = serve::percentileUs(latenciesUs, 0.99);
    out.p999Us = serve::percentileUs(latenciesUs, 0.999);
    for (Session &session : sessions) {
        std::sort(session.latenciesUs.begin(),
                  session.latenciesUs.end());
        double p99 = serve::percentileUs(session.latenciesUs, 0.99);
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

/** Mean service time of the op mix on an unloaded single shard —
 *  calibrates the open-loop interarrival gap and deadline budget. */
osim::SimTime
calibrateMeanService()
{
    shard::ShardRouterConfig config;
    config.shardCount = 1;
    config.runtime.ringBytes = 2 << 20;
    shard::ShardRouter router(
        bench::registry(), bench::categorization(),
        core::PartitionPlan::freePartDefault(), std::move(config),
        [](osim::Kernel &kernel) {
            apps::WorkloadGenerator::Config wconfig;
            wconfig.imageRows = 256;
            wconfig.imageCols = 256;
            apps::WorkloadGenerator(bench::registry(), wconfig)
                .seedInputs(kernel);
        });
    uint64_t token = 0;
    ipc::ValueList load;
    load.emplace_back(std::string("/data/test.fpim"));
    shard::RoutedCall first =
        router.invoke(1, "cv2.imread", std::move(load), ++token);
    uint64_t calls = 1;
    ipc::Value chain = first.result.values.at(0);
    for (size_t round = 0; round < 4; ++round) {
        for (const char *op : kOps) {
            ipc::ValueList args;
            args.push_back(chain);
            shard::RoutedCall routed =
                router.invoke(1, op, std::move(args), ++token);
            ++calls;
            if (routed.result.ok && !routed.result.values.empty() &&
                routed.result.values[0].kind() ==
                    ipc::Value::Kind::Ref)
                chain = routed.result.values[0];
        }
    }
    router.drainAll();
    return std::max<osim::SimTime>(
        1, router.stats().makespan / std::max<uint64_t>(1, calls));
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

    osim::SimTime meanService = calibrateMeanService();
    // ~60% utilization across the cluster; deadline budget of 8x the
    // unloaded mean leaves room for queueing and one retry.
    osim::SimTime interarrival =
        std::max<osim::SimTime>(1, meanService / (kShards * 6 / 10));
    osim::SimTime deadline = meanService * 8;
    std::printf("calibration: mean service %.1f us -> interarrival "
                "%.1f us, deadline %.1f us\n\n",
                meanService / 1e3, interarrival / 1e3,
                deadline / 1e3);

    ChaosOutcome clean = runChaos(0.0, interarrival, deadline);
    ChaosOutcome chaos = runChaos(kChaosRate, interarrival, deadline);

    util::TextTable table({"run", "issued", "acked", "avail %",
                           "p50 us", "p99 us", "p999 us", "shed %",
                           "hedged", "degraded", "rejoins"});
    auto addRow = [&table](const char *name, const ChaosOutcome &o) {
        table.addRow({name, std::to_string(o.issued),
                      std::to_string(o.acked),
                      util::fmtDouble(o.availability * 100.0, 2),
                      util::fmtDouble(o.p50Us, 1),
                      util::fmtDouble(o.p99Us, 1),
                      util::fmtDouble(o.p999Us, 1),
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
    ChaosOutcome replay = runChaos(kChaosRate, interarrival, deadline);
    bool identical =
        replay.issued == chaos.issued &&
        replay.acked == chaos.acked &&
        replay.stats.makespan == chaos.stats.makespan &&
        replay.stats.chaosStalls == chaos.stats.chaosStalls &&
        replay.stats.messagesDropped == chaos.stats.messagesDropped &&
        replay.stats.shedCalls == chaos.stats.shedCalls &&
        replay.stats.hedgedCalls == chaos.stats.hedgedCalls &&
        replay.stats.shardsRejoined == chaos.stats.shardsRejoined &&
        replay.p99Us == chaos.p99Us &&
        replay.p999Us == chaos.p999Us;
    std::printf("deterministic replay: %s\n",
                identical ? "yes" : "NO (bug)");

    bool pass = clean.availability >= 0.99 &&
                chaos.availability >= 0.95 &&
                clean.lostAcks == 0 && chaos.lostAcks == 0 &&
                chaos.p99Us > 0.0 && identical;

    json.metric("availability_at_0pct", clean.availability);
    json.metric("availability_at_10pct", chaos.availability);
    json.metric("p50_us_at_0pct", clean.p50Us);
    json.metric("p99_us_at_0pct", clean.p99Us);
    json.metric("p999_us_at_0pct", clean.p999Us);
    json.metric("p50_us_at_10pct", chaos.p50Us);
    json.metric("p99_us_at_10pct", chaos.p99Us);
    json.metric("p999_us_at_10pct", chaos.p999Us);
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
