/**
 * @file
 * Multi-tenant serving evaluation (DESIGN.md §14): thousands of
 * tenant sessions drawn from a Zipfian popularity distribution over
 * the 23 Table 6 app models, arriving open-loop as a Poisson process
 * through a low -> peak -> cool load ramp. Four runs compare the
 * serving stack:
 *
 *   autoscaled  SLO-driven autoscaler (2..6 shards) + warm agent pool
 *   replay      same seed, fresh cluster — must be byte-identical
 *   static-max  fixed max-size cluster (the capacity bill baseline)
 *   cold-start  autoscaled, pool disabled — every session forks a
 *               fresh four-agent partition set on the critical path
 *
 * Acceptance: the autoscaled run meets the p99 SLO with strictly
 * fewer shard-seconds than static-max, loses zero acked calls across
 * scale events (at-least-once audit), warm checkout costs a fraction
 * of a cold start, and the whole thing replays byte-identically.
 */

#include <string>
#include <vector>

#include "apps/workload.hh"
#include "bench/bench_common.hh"
#include "core/runtime.hh"
#include "serve/agent_pool.hh"
#include "serve/autoscaler.hh"
#include "serve/tenant_workload.hh"
#include "shard/shard_router.hh"
#include "util/table.hh"

using namespace freepart;

namespace {

constexpr uint32_t kMinShards = 2;
constexpr uint32_t kMaxShards = 6;
constexpr uint32_t kTenants = 1500;
constexpr double kSloFloor = 0.95;
constexpr uint32_t kImageDim = 192;

apps::WorkloadGenerator::Config
workloadConfig()
{
    apps::WorkloadGenerator::Config wconfig;
    wconfig.maxRounds = 1;
    wconfig.maxCallsPerRound = 6;
    wconfig.imageRows = kImageDim;
    wconfig.imageCols = kImageDim;
    return wconfig;
}

enum class Mode { Autoscaled, StaticMax, ColdStart };

/**
 * One full serving run: fresh cluster, warm pool (unless ColdStart),
 * autoscaler (unless StaticMax), and the tenant ramp replayed through
 * it. meanService parameterizes the ramp so all modes see identical
 * arrivals.
 */
serve::ServeOutcome
runServe(Mode mode, osim::SimTime meanService)
{
    apps::WorkloadGenerator generator(bench::registry(),
                                      workloadConfig());

    shard::ShardRouterConfig config;
    config.shardCount =
        mode == Mode::StaticMax ? kMaxShards : kMinShards;
    config.runtime.ringBytes = 2 << 20;
    config.dedupEntries = 1 << 13; // hold every token of the run
    config.replicateObjects = true;
    config.defaultDeadline = meanService * 8;
    shard::ShardRouter::SeedFn seed =
        [&generator](osim::Kernel &kernel) {
            generator.seedInputs(kernel);
        };
    shard::ShardRouter router(
        bench::registry(), bench::categorization(),
        core::PartitionPlan::freePartDefault(), std::move(config),
        seed);

    // Pool costs come from the runtime's own cost model — warm
    // handoff is one promote, a cold start forks host + agents.
    core::FreePartRuntime &probe = router.runtime(0);
    // The frontend admits at most kSessionCap concurrent sessions;
    // the min-size cluster pre-warms enough sets per shard to absorb
    // that many leases without falling back to cold spawns.
    constexpr uint32_t kSessionCap = 40;
    serve::AgentPoolConfig poolConfig;
    poolConfig.enabled = mode != Mode::ColdStart;
    poolConfig.initialSize = kSessionCap / kMinShards;
    poolConfig.maxSize = kSessionCap + 8;
    poolConfig.warmHandoff = probe.sessionWarmHandoffCost();
    poolConfig.epochReset = probe.sessionEpochResetCost();
    poolConfig.coldSpawn = probe.sessionColdStartCost();
    serve::WarmAgentPool pool(poolConfig);

    serve::AutoscalerConfig scalerConfig;
    scalerConfig.minLiveShards = kMinShards;
    scalerConfig.maxLiveShards = kMaxShards;
    scalerConfig.tickInterval = 250'000;
    scalerConfig.scaleUpDepth = 4.0;
    scalerConfig.scaleDownDepth = 0.6;
    scalerConfig.panicDepth = 16.0;
    scalerConfig.sustainUp = 3;
    scalerConfig.sustainDown = 12;
    scalerConfig.cooldown = 2'000'000;
    scalerConfig.seed = seed;
    // Session starts burst (a completed session's slot readmits a
    // parked tenant immediately): keep every pool at its provisioned
    // floor so bursts never fall back to a critical-path cold spawn.
    scalerConfig.poolMin = poolConfig.initialSize;
    scalerConfig.poolMax = poolConfig.maxSize;
    serve::Autoscaler scaler(router, scalerConfig, &pool);

    serve::TenantWorkloadConfig tconfig;
    tconfig.tenants = kTenants;
    tconfig.zipfExponent = 1.1;
    tconfig.maxConcurrentSessions = kSessionCap;
    serve::TenantTrafficGenerator traffic(generator, tconfig);

    // Low -> peak -> cool: the peak needs ~4x the capacity the
    // valleys do, so a fixed min-size cluster drowns and a fixed
    // max-size cluster idles through two thirds of the run.
    std::vector<serve::RampPhase> phases = {
        {1200, meanService * 5 / 4},
        {3600, std::max<osim::SimTime>(1, meanService * 2 / 7)},
        {1200, meanService * 5 / 4},
    };

    return traffic.run(router, phases,
                       mode == Mode::StaticMax ? nullptr : &scaler,
                       &pool);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonOutput json("serve_autoscale", argc, argv);
    bench::banner("Multi-tenant serving",
                  "1500 Zipfian tenants replaying Table 6 app "
                  "sessions open-loop through a low->peak->cool "
                  "ramp: SLO-driven autoscaler + warm agent pool "
                  "vs static max-size and cold-start baselines");

    osim::SimTime meanService = serve::calibrateMeanService(
        bench::registry(), bench::categorization(),
        apps::WorkloadGenerator(bench::registry(), workloadConfig()));
    std::printf("calibration: mean service %.1f us -> peak gap "
                "%.1f us, deadline %.1f us\n\n",
                meanService / 1e3, meanService * 2 / 7 / 1e3,
                meanService * 8 / 1e3);

    serve::ServeOutcome autoRun =
        runServe(Mode::Autoscaled, meanService);
    serve::ServeOutcome replay =
        runServe(Mode::Autoscaled, meanService);
    serve::ServeOutcome staticRun =
        runServe(Mode::StaticMax, meanService);
    serve::ServeOutcome coldRun =
        runServe(Mode::ColdStart, meanService);

    util::TextTable table({"run", "issued", "acked", "SLO %",
                           "p50 us", "p99 us", "p999 us", "shard-s",
                           "starts", "lost"});
    auto addRow = [&table](const char *name,
                           const serve::ServeOutcome &o) {
        table.addRow({name, std::to_string(o.issued),
                      std::to_string(o.acked),
                      util::fmtDouble(o.sloAttainment * 100.0, 2),
                      util::fmtDouble(o.latency.p50Us, 1),
                      util::fmtDouble(o.latency.p99Us, 1),
                      util::fmtDouble(o.latency.p999Us, 1),
                      util::fmtDouble(o.shardSeconds, 3),
                      std::to_string(o.sessionsStarted),
                      std::to_string(o.lostAcks)});
    };
    addRow("autoscaled", autoRun);
    addRow("static-max", staticRun);
    addRow("cold-start", coldRun);
    std::printf("%s", table.render().c_str());

    std::printf(
        "\nautoscaler: %llu ups (%llu revived, %llu added), %llu "
        "downs, live %u..%u, max depth %.1f, %llu blips ignored\n",
        static_cast<unsigned long long>(autoRun.scaler.scaleUps),
        static_cast<unsigned long long>(
            autoRun.scaler.shardsRevived),
        static_cast<unsigned long long>(autoRun.scaler.shardsAdded),
        static_cast<unsigned long long>(autoRun.scaler.scaleDowns),
        autoRun.scaler.liveFloor, autoRun.scaler.livePeak,
        autoRun.scaler.maxDepthSeen,
        static_cast<unsigned long long>(
            autoRun.scaler.blipsIgnored));
    double warmUs = autoRun.pool.meanCheckoutUs();
    double coldUs = coldRun.pool.meanCheckoutUs();
    std::printf("session start: warm pool %.1f us mean (%llu warm / "
                "%llu cold), cold-start baseline %.1f us mean\n",
                warmUs,
                static_cast<unsigned long long>(
                    autoRun.pool.warmCheckouts),
                static_cast<unsigned long long>(
                    autoRun.pool.coldFallbacks),
                coldUs);
    std::printf("tenants: %llu touched, hottest %.2f%% of calls, "
                "worst per-tenant p99 %.1f us over %llu tenants\n",
                static_cast<unsigned long long>(
                    autoRun.tenantsTouched),
                autoRun.hottestTenantShare * 100.0,
                autoRun.worstTenantP99Us,
                static_cast<unsigned long long>(
                    autoRun.tenantsInBreakdown));
    std::printf("capacity: autoscaled %.3f shard-s vs static-max "
                "%.3f shard-s (%.1f%% saved)\n",
                autoRun.shardSeconds, staticRun.shardSeconds,
                staticRun.shardSeconds > 0.0
                    ? (1.0 - autoRun.shardSeconds /
                                 staticRun.shardSeconds) *
                          100.0
                    : 0.0);

    // Determinism: same seed, fresh cluster — byte-identical run.
    bool identical = replay == autoRun;
    std::printf("deterministic replay: %s\n",
                identical ? "yes" : "NO (bug)");

    bool pass = autoRun.sloAttainment >= kSloFloor &&
                autoRun.lostAcks == 0 && staticRun.lostAcks == 0 &&
                coldRun.lostAcks == 0 &&
                autoRun.scaler.scaleUps >= 1 &&
                autoRun.scaler.scaleDowns >= 1 &&
                autoRun.shardSeconds < staticRun.shardSeconds &&
                autoRun.pool.warmCheckouts > 0 && coldUs > 0.0 &&
                (warmUs < coldUs || autoRun.pool.coldFallbacks ==
                                        autoRun.pool.warmCheckouts) &&
                autoRun.latency.p99Us > 0.0 && identical;

    json.metric("slo_attainment_autoscaled", autoRun.sloAttainment);
    json.metric("slo_attainment_static", staticRun.sloAttainment);
    json.metric("slo_attainment_coldstart", coldRun.sloAttainment);
    json.metric("p50_us_autoscaled", autoRun.latency.p50Us);
    json.metric("p99_us_autoscaled", autoRun.latency.p99Us);
    json.metric("p999_us_autoscaled", autoRun.latency.p999Us);
    json.metric("worst_tenant_p99_us", autoRun.worstTenantP99Us);
    json.metric("hottest_tenant_share", autoRun.hottestTenantShare);
    json.metric("tenants_touched", autoRun.tenantsTouched);
    json.metric("sessions_started", autoRun.sessionsStarted);
    json.metric("sessions_completed", autoRun.sessionsCompleted);
    json.metric("shard_seconds_autoscaled", autoRun.shardSeconds);
    json.metric("shard_seconds_static", staticRun.shardSeconds);
    json.metric("shard_seconds_saved_pct",
                staticRun.shardSeconds > 0.0
                    ? (1.0 - autoRun.shardSeconds /
                                 staticRun.shardSeconds) *
                          100.0
                    : 0.0);
    json.metric("scale_up_events", autoRun.scaler.scaleUps);
    json.metric("scale_down_events", autoRun.scaler.scaleDowns);
    json.metric("shards_revived", autoRun.scaler.shardsRevived);
    json.metric("shards_retired", autoRun.cluster.shardsRetired);
    json.metric("warm_checkout_mean_us", warmUs);
    json.metric("cold_checkout_mean_us", coldUs);
    json.metric("warm_vs_cold_speedup",
                warmUs > 0.0 ? coldUs / warmUs : 0.0);
    json.metric("lost_acks_autoscaled", autoRun.lostAcks);
    json.metric("lost_acks_static", staticRun.lostAcks);
    json.metric("lost_acks_coldstart", coldRun.lostAcks);
    json.metric("deterministic_replay", identical ? 1 : 0);
    json.metric("acceptance_pass", pass ? 1 : 0);
    json.flush();

    bench::note("all time is simulated: arrivals are Poisson on a "
                "shared open-loop axis, tenant draws are Zipfian, "
                "and the autoscaler/pool decisions are pure "
                "functions of the seeded call sequence — the run "
                "replays byte-identically");
    return pass ? 0 : 1;
}
