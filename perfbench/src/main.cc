/**
 * @file
 * perfbench: the repository's two-clock benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--size bench|tiny] [--trace-out <path>]
 *   perfbench --fidelity
 *
 * One single-threaded process runs one workload. Set-up (registry,
 * categorization, traces, kernels, fixtures, runtimes, router, pool
 * pre-warm) is repeated kSetupRepeats times and its median reported.
 * Then passes over the seeded inputs run back to back, closed loop on
 * the host clock, until --seconds have elapsed (at least two passes).
 * Every pass must reproduce the first pass's sim-clock results
 * exactly and pass the workload's correctness checks.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 spends the first
 * half of the time untraced and the second half recording spans, and
 * prints the per-layer metrics plus the tracing overhead. The last
 * stdout line is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench.hh"
#include "util/logging.hh"

using namespace perfbench;

namespace {

constexpr int kSetupRepeats = 9;

/** hostSpeedProbe() time that host metrics are normalized to: its
 *  typical reading on the 4-core machine the benchmark was defined on
 *  (Release build). */
constexpr double kProbeNominalSeconds = 3.2e-3;

/** A metric name of the last-line JSON with its BENCHMARK.json unit. */
struct MetricName {
    const char *name;
    const char *unit;
};

/** The end-to-end metrics of the last-line JSON (BENCHMARK.json). */
const MetricName kEndToEnd[] = {
    {"host_calls_per_s", "calls/s"},
    {"host_call_p50_us", "us"},
    {"host_call_p99_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"sim_makespan_ms", "ms"},
    {"sim_call_p50_us", "us"},
    {"sim_call_p99_us", "us"},
};

/** The per-layer metrics of the last-line JSON (BENCHMARK.json):
 *  those with a value on every workload. The text report adds the
 *  layer-specific ones. */
const MetricName kPerLayer[] = {
    {"fw.twin_host_s", "s"},
    {"fw.twin_sim_ms", "ms"},
    {"apps.prepare_args_host_s", "s"},
    {"core.isolation_host_s", "s"},
    {"core.checkpoint_probe_ms", "ms"},
    {"core.has_object_miss_probe_us", "us"},
    {"core.checkpoint_count", "count"},
    {"core.checkpoint_bytes_saved", "bytes"},
    {"core.checkpoint_bytes_restored", "bytes"},
    {"core.checkpoint_fallbacks", "count"},
    {"core.ldc_lazy_share", "ratio"},
    {"core.ldc_bytes", "bytes"},
    {"core.eager_copies", "count"},
    {"ipc.messages", "count"},
    {"ipc.hot_send_share", "ratio"},
    {"ipc.piggybacked_fetches", "count"},
    {"core.protection_flips", "count"},
    {"core.state_changes", "count"},
    {"osim.syscall_denials", "count"},
    {"osim.mem_faults", "count"},
    {"osim.faults_injected", "count"},
    {"core.restarts", "count"},
    {"core.standby_promotions", "count"},
    {"core.retried_calls", "count"},
    {"core.dedup_hits", "count"},
    {"core.quarantines", "count"},
    {"core.host_fallback_calls", "count"},
    {"core.spec_starts", "count"},
    {"core.spec_rollback_share", "ratio"},
    {"core.spec_fetches", "count"},
    {"core.pipeline_barriers", "count"},
    {"core.inflight_stalls", "count"},
    {"core.overlap_fraction", "ratio"},
    {"shard.cross_shard_calls", "count"},
    {"shard.migrated_bytes", "bytes"},
    {"shard.replica_bytes", "bytes"},
    {"shard.shed_calls", "count"},
    {"shard.deadline_misses", "count"},
    {"shard.hedged_calls", "count"},
    {"shard.degraded_calls", "count"},
    {"shard.objects_scrubbed", "count"},
    {"serve.scale_ups", "count"},
    {"serve.scale_downs", "count"},
    {"trace.overhead_pct", "%"},
};

/** Units of the workload-specific end-to-end sim metrics. */
const std::pair<const char *, const char *> kWorkloadSim[] = {
    {"failed_share", "ratio"},   {"sim_overhead_pct", "%"},
    {"slo_attainment", "ratio"}, {"shard_seconds", "shard_s"},
    {"sim_mttr_us", "us"},
};

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Bench;
    std::string traceOut;
    bool fidelity = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <app_pipeline|tenant_serve|"
                 "crash_recovery|async_pipeline> --seed <n> --seconds <s> "
                 "--trace <0|1> [--size bench|tiny] [--trace-out <path>]\n"
                 "       %s --fidelity\n",
                 argv0, argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            o.trace = value() == "1";
        else if (arg == "--size") {
            std::string s = value();
            if (s == "tiny")
                o.size = Size::Tiny;
            else if (s != "bench")
                usage(argv[0]);
        } else if (arg == "--trace-out")
            o.traceOut = value();
        else if (arg == "--fidelity")
            o.fidelity = true;
        else
            usage(argv[0]);
    }
    if (!o.fidelity && o.workload.empty())
        usage(argv[0]);
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "app_pipeline")
        return makeAppPipeline(o.size, o.seed);
    if (o.workload == "tenant_serve")
        return makeTenantServe(o.size, o.seed);
    if (o.workload == "crash_recovery")
        return makeCrashRecovery(o.size, o.seed);
    if (o.workload == "async_pipeline")
        return makeAsyncPipeline(o.size, o.seed);
    return nullptr;
}

/** Run passes until `seconds` of host time have gone by (at least
 *  `min_passes`). */
void
runPasses(Workload &workload, Tracer &tracer, double seconds,
          size_t min_passes, std::vector<Pass> &passes,
          std::vector<std::pair<size_t, size_t>> *span_ranges)
{
    double start = hostNow();
    size_t done = 0;
    while (done < min_passes || hostNow() - start < seconds) {
        size_t from = tracer.size();
        passes.push_back(workload.run(tracer));
        if (span_ranges)
            span_ranges->emplace_back(from, tracer.size());
        ++done;
    }
}

/**
 * Host-speed factor of a pass: the nominal probe time over the probe
 * time measured during the pass. Host times are multiplied by it, so
 * they read as if the shared host had run at its nominal speed.
 */
double
speedFactor(const Pass &pass)
{
    return kProbeNominalSeconds / pass.probeSeconds.median();
}

/** Normalized host metrics over passes [from, to). */
struct HostSummary {
    double callsPerS = 0.0; //!< median over passes
    double p50Us = 0.0;     //!< median over passes of the pass p50
    double p99Us = 0.0;     //!< p99 of every call, pooled
    double rawCallsPerS = 0.0;
    double probeMs = 0.0;
    uint64_t calls = 0;
};

HostSummary
summarize(const std::vector<Pass> &passes, size_t from, size_t to)
{
    Samples rate, raw, p50, pooled, probe;
    for (size_t i = from; i < to; ++i) {
        const Pass &pass = passes[i];
        double f = speedFactor(pass);
        rate.add(static_cast<double>(pass.calls) / (pass.hostSeconds * f));
        raw.add(static_cast<double>(pass.calls) / pass.hostSeconds);
        p50.add(pass.entryHostUs.quantile(0.5) * f);
        for (double us : pass.entryHostUs.values())
            pooled.add(us * f);
        probe.append(pass.probeSeconds);
    }
    HostSummary out;
    out.callsPerS = rate.median();
    out.p50Us = p50.median();
    out.p99Us = pooled.quantile(0.99);
    out.rawCallsPerS = raw.median();
    out.probeMs = probe.median() * 1e3;
    out.calls = pooled.count();
    return out;
}

void
printMetric(const std::string &name, const Metric &m)
{
    if (!m.applicable)
        std::printf("  %-34s %16s  %-8s (not exercised)\n", name.c_str(),
                    "-", m.unit.c_str());
    else
        std::printf("  %-34s %16.6g  %-8s n=%llu\n", name.c_str(), m.value,
                    m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
}

void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const Report &report, const MetricName *names, size_t count)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < count; ++i) {
        const Metric &m = report.get(names[i].name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", names[i].name,
                    m.applicable ? m.value : 0.0, names[i].unit);
    }
    std::printf("}}\n");
}

/** Per-layer host metrics from the traced passes' spans. */
void
layerHostMetrics(const Tracer &tracer,
                 const std::vector<std::pair<size_t, size_t>> &ranges,
                 const std::vector<double> &factors, Report &out)
{
    size_t ops = static_cast<size_t>(Op::Count);
    std::vector<Samples> perPass(ops);
    std::vector<Samples> perCall(ops);
    Samples isolation;
    for (size_t k = 0; k < ranges.size(); ++k) {
        double f = factors[k];
        std::vector<Tracer::OpTotals> t =
            tracer.totals(ranges[k].first, ranges[k].second);
        for (size_t op = 0; op < ops; ++op) {
            perPass[op].add(t[op].selfSeconds * f);
            for (double us : t[op].hostUs.values())
                perCall[op].add(us * f);
        }
        double entry = t[static_cast<size_t>(Op::Invoke)].selfSeconds +
                       t[static_cast<size_t>(Op::InvokeAsync)].selfSeconds +
                       t[static_cast<size_t>(Op::InvokeAt)].selfSeconds;
        isolation.add(
            (entry - t[static_cast<size_t>(Op::TwinInvoke)].selfSeconds) * f);
    }
    auto n = [&](Op op) { return perCall[static_cast<size_t>(op)].count(); };
    auto seconds = [&](const char *name, Op op) {
        if (n(op))
            out.set(name, perPass[static_cast<size_t>(op)].median(), "s",
                    n(op));
        else
            out.absent(name, "s");
    };
    auto quantiles = [&](const std::string &name, Op op) {
        const Samples &s = perCall[static_cast<size_t>(op)];
        if (!s.count()) {
            out.absent(name + ".p50", "us");
            out.absent(name + ".p99", "us");
            return;
        }
        out.set(name + ".p50", s.quantile(0.5), "us", s.count());
        out.set(name + ".p99", s.quantile(0.99), "us", s.count());
    };
    auto median = [&](const char *name, Op op) {
        const Samples &s = perCall[static_cast<size_t>(op)];
        if (s.count())
            out.set(name, s.median(), "us", s.count());
        else
            out.absent(name, "us");
    };
    seconds("fw.twin_host_s", Op::TwinInvoke);
    seconds("apps.prepare_args_host_s", Op::PrepareArgs);
    quantiles("core.invoke_host_us", Op::Invoke);
    seconds("core.invoke_host_s", Op::Invoke);
    out.set("core.isolation_host_s", isolation.median(), "s",
            isolation.count());
    seconds("core.has_object_host_s", Op::HasObject);
    quantiles("core.fetch_to_host_host_us", Op::FetchToHost);
    quantiles("core.invoke_async_host_us", Op::InvokeAsync);
    quantiles("shard.invoke_at_host_us", Op::InvokeAt);
    quantiles("shard.end_session_host_us", Op::EndSession);
    median("serve.pool_checkout_host_us", Op::PoolCheckout);
    median("serve.autoscaler_observe_host_us", Op::Observe);
}

int
runBenchmark(const Options &o)
{
    std::unique_ptr<Workload> workload = makeWorkload(o);
    if (!workload) {
        std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
        return 2;
    }

    Samples setup, rawSetup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        double probe = hostSpeedProbe();
        double t0 = hostNow();
        workload->setup();
        double seconds = hostNow() - t0;
        // The faster of the probes on either side of the set-up.
        probe = std::min(probe, hostSpeedProbe());
        rawSetup.add(seconds);
        setup.add(seconds * kProbeNominalSeconds / probe);
    }

    Tracer tracer;
    std::vector<Pass> passes;
    std::vector<std::pair<size_t, size_t>> ranges;
    size_t untraced = 0;
    if (!o.trace) {
        runPasses(*workload, tracer, o.seconds, 2, passes, nullptr);
        untraced = passes.size();
    } else {
        runPasses(*workload, tracer, o.seconds / 2, 1, passes, nullptr);
        untraced = passes.size();
        tracer.enable(true);
        runPasses(*workload, tracer, o.seconds / 2, 1, passes, &ranges);
        tracer.enable(false);
    }

    // ---- Correctness: checks pass and sim results repeat exactly ----
    const Pass &first = passes.front();
    std::vector<std::string> errors = first.errors;
    uint64_t attempted = 0, failed = 0;
    for (size_t i = 0; i < passes.size(); ++i) {
        attempted += passes[i].calls;
        failed += passes[i].failed;
        if (i && passes[i].fingerprint != first.fingerprint)
            errors.push_back("pass " + std::to_string(i) +
                             ": sim-clock results differ from pass 0");
        if (i && !passes[i].errors.empty() && errors.size() < 16)
            errors.insert(errors.end(), passes[i].errors.begin(),
                          passes[i].errors.end());
    }
    bool correct = errors.empty();

    // ---- End-to-end metrics (untraced passes) ----
    HostSummary host = summarize(passes, 0, untraced);
    Report e2e;
    e2e.set("host_calls_per_s", host.callsPerS, "calls/s", host.calls);
    e2e.set("host_call_p50_us", host.p50Us, "us", host.calls);
    e2e.set("host_call_p99_us", host.p99Us, "us", host.calls);
    e2e.set("setup_s", setup.median(), "s", setup.count());
    e2e.set("peak_rss_mb", peakRssMiB(), "MiB", 1);
    e2e.set("sim_makespan_ms", first.simMakespanMs, "ms", 1);
    e2e.set("sim_call_p50_us", first.simCallUs.quantile(0.5), "us",
            first.simCallUs.count());
    e2e.set("sim_call_p99_us", first.simCallUs.quantile(0.99), "us",
            first.simCallUs.count());
    for (const auto &[name, unit] : kWorkloadSim) {
        auto it = first.sim.find(name);
        if (it != first.sim.end())
            e2e.set(name, it->second, unit, first.calls);
        else
            e2e.absent(name, unit);
    }

    std::printf("perfbench %s seed=%llu: %zu passes (%zu untraced), "
                "%llu calls, set-up x%d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                passes.size(), untraced,
                static_cast<unsigned long long>(attempted), kSetupRepeats);
    std::printf("end-to-end:\n");
    for (const std::string &name : e2e.names())
        printMetric(name, e2e.get(name));
    for (const auto &[name, value] : first.sim)
        if (!e2e.has(name))
            std::printf("  %-34s %16.6g\n", name.c_str(), value);
    std::printf("host speed: probe median %.4f ms (nominal %.4f ms); "
                "unnormalized %.6g calls/s, set-up %.6g s\n",
                host.probeMs, kProbeNominalSeconds * 1e3, host.rawCallsPerS,
                rawSetup.median());

    Report layer;
    if (o.trace) {
        std::vector<double> factors;
        for (size_t i = untraced; i < passes.size(); ++i)
            factors.push_back(speedFactor(passes[i]));
        layerHostMetrics(tracer, ranges, factors, layer);
        for (const std::string &name : first.layer.names()) {
            const Metric &m = first.layer.get(name);
            if (m.applicable)
                layer.set(name, m.value, m.unit, m.samples);
            else
                layer.absent(name, m.unit);
        }
        Samples ckpt, miss;
        for (size_t i = untraced; i < passes.size(); ++i) {
            ckpt.append(passes[i].checkpointProbeMs);
            miss.append(passes[i].missProbeUs);
        }
        layer.set("core.checkpoint_probe_ms", ckpt.median(), "ms",
                  ckpt.count());
        layer.set("core.has_object_miss_probe_us", miss.median(), "us",
                  miss.count());
        double untracedRate = host.callsPerS;
        double tracedRate =
            summarize(passes, untraced, passes.size()).callsPerS;
        layer.set("trace.overhead_pct",
                  (untracedRate - tracedRate) / untracedRate * 100.0, "%",
                  passes.size());
        // Layers a workload does not touch report zero in the JSON.
        for (const MetricName &m : kPerLayer)
            if (!layer.has(m.name))
                layer.absent(m.name, m.unit);
        std::printf("per-layer (%zu traced passes, %zu spans):\n",
                    passes.size() - untraced, tracer.size());
        for (const std::string &name : layer.names())
            printMetric(name, layer.get(name));
        if (!o.traceOut.empty() && !tracer.write(o.traceOut))
            std::fprintf(stderr, "cannot write %s\n", o.traceOut.c_str());
    }

    std::printf("checks: %s\n", correct ? "pass" : "FAIL");
    for (const std::string &e : errors)
        std::printf("  %s\n", e.c_str());
    if (o.trace)
        printJson(correct, attempted, failed, layer, kPerLayer,
                  sizeof(kPerLayer) / sizeof(*kPerLayer));
    else
        printJson(correct, attempted, failed, e2e, kEndToEnd,
                  sizeof(kEndToEnd) / sizeof(*kEndToEnd));
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    freepart::util::setLogLevel(freepart::util::LogLevel::Silent);
    try {
        if (o.fidelity)
            return runFidelity() ? 0 : 1;
        return runBenchmark(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
