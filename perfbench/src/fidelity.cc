/**
 * @file
 * Load-generator fidelity cross-check: the benchmark's own load generators,
 * run at a shipped bench's settings, must reproduce that bench's
 * numbers in BENCH_freepart.json (compared at the 6 significant
 * digits the bench writes).
 *
 *   fig13_overhead   768^2, 3 rounds, 24 calls/round: mean overhead
 *   fault_recovery   256^2, 2 rounds, 24 calls/round, 10% AgentCall
 *                    crash plan: mean availability, mean MTTR
 *   serve_autoscale  1500 tenants, 1200/3600/1200 arrivals: SLO
 *                    attainment, p99, shard-seconds
 *
 * It also re-measures the serving calibration the frozen offered load
 * of tenant_serve derives from, and reports drift.
 */

#include <cstdio>
#include <string>

#include "perfbench.hh"

namespace perfbench {

namespace {

bool
check(const char *bench, const char *metric, double expected,
      double measured)
{
    char want[32], got[32];
    std::snprintf(want, sizeof(want), "%.6g", expected);
    std::snprintf(got, sizeof(got), "%.6g", measured);
    bool same = std::string(want) == got;
    std::printf("  %-16s %-28s expected %-10s measured %-10s %s\n", bench,
                metric, want, got, same ? "ok" : "MISMATCH");
    return same;
}

Pass
onePass(std::unique_ptr<Workload> workload)
{
    Tracer tracer;
    workload->setup();
    return workload->run(tracer);
}

} // namespace

bool
runFidelity()
{
    std::printf("load-generator fidelity vs BENCH_freepart.json:\n");
    bool ok = true;

    double t0 = hostNow();
    Pass fig13 = onePass(makeAppPipeline(Size::Fidelity, 0));
    ok &= fig13.errors.empty();
    ok &= check("fig13_overhead", "mean_overhead_pct", 1.86121,
                fig13.sim.at("sim_overhead_pct"));

    Pass fault = onePass(makeCrashRecovery(Size::Fidelity, 0));
    ok &= fault.errors.empty();
    ok &= check("fault_recovery", "mean_availability_at_10pct", 0.965898,
                fault.sim.at("availability"));
    ok &= check("fault_recovery", "mean_mttr_us", 3846.29,
                fault.sim.at("sim_mttr_us"));

    Pass serve = onePass(makeTenantServe(Size::Fidelity, 0));
    ok &= serve.errors.empty();
    ok &= check("serve_autoscale", "slo_attainment_autoscaled", 0.994667,
                serve.sim.at("slo_attainment"));
    ok &= check("serve_autoscale", "p99_us_autoscaled", 2332.43,
                serve.simCallUs.quantile(0.99));
    ok &= check("serve_autoscale", "shard_seconds_autoscaled", 5.14088,
                serve.sim.at("shard_seconds"));

    std::unique_ptr<FrameworkContext> ctx = FrameworkContext::build();
    SimTime calibrated = calibrateMeanService(*ctx);
    bool frozen = calibrated == kMeanServiceNs;
    std::printf("  %-16s %-28s frozen   %-10llu measured %-10llu %s\n",
                "tenant_serve", "mean_service_ns",
                static_cast<unsigned long long>(kMeanServiceNs),
                static_cast<unsigned long long>(calibrated),
                frozen ? "ok" : "DRIFT");
    ok &= frozen;
    for (const Pass *p : {&fig13, &fault, &serve})
        for (const std::string &e : p->errors)
            std::printf("  check failed: %s\n", e.c_str());
    std::printf("fidelity: %s (%.1f s host)\n", ok ? "PASS" : "FAIL",
                hostNow() - t0);
    return ok;
}

} // namespace perfbench
