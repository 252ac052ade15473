/**
 * @file
 * Shared pieces of the two-clock benchmark: host-clock helpers, sample
 * sets with order statistics, the in-memory span recorder used by the
 * traced run, the metric report, and the workload interface.
 *
 * Two clocks are read everywhere. *Sim* time is osim::Kernel time and
 * carries the paper's claims; it is deterministic for a given seed.
 * *Host* time is the simulator's own wall time (std::chrono::
 * steady_clock), which is what host-side optimizations move.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/hybrid_categorizer.hh"
#include "core/run_stats.hh"
#include "fw/api_registry.hh"
#include "osim/types.hh"

namespace perfbench {

using freepart::osim::SimTime;

/** Host wall clock in seconds (monotonic, arbitrary epoch). */
inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Peak resident set of this process, MiB. */
double peakRssMiB();

/**
 * Host-speed probe: times a fixed chunk of simulator-shaped work (an
 * 8 MiB copy, which like checkpoint and store traffic reaches beyond
 * the core's private caches, a byte-serial hash, ordered-map churn)
 * that is the benchmark's own code, so no change to the system moves
 * it. Passes interleave it with their work to track how fast the
 * shared host is running at the time. Returns seconds.
 */
double hostSpeedProbe();

/** SplitMix64 finalizer: derives independent sub-seeds from --seed. */
inline uint64_t
mixSeed(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** FNV-style fold of a value into a running fingerprint. */
inline void
fold(uint64_t &hash, uint64_t value)
{
    hash = (hash ^ value) * 0x100000001b3ull;
}

/** A set of samples with order statistics. */
class Samples
{
  public:
    void add(double x) { values_.push_back(x); }
    void append(const Samples &other);
    size_t count() const { return values_.size(); }
    double sum() const;
    double mean() const;
    /** Nearest-rank quantile on the index line, the definition
     *  serve::percentileUs uses (0 for an empty set). */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    const std::vector<double> &values() const { return values_; }

  private:
    std::vector<double> values_;
};

/** One reported metric. */
struct Metric {
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0; //!< observations behind the value
    bool applicable = true; //!< false: the layer does no work here
};

/** Named metrics in insertion order. */
class Report
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit, uint64_t samples);
    /** Record a metric the workload does not exercise. */
    void absent(const std::string &name, const std::string &unit);
    bool has(const std::string &name) const;
    const Metric &get(const std::string &name) const;
    const std::vector<std::string> &names() const { return order_; }

  private:
    std::vector<std::string> order_;
    std::map<std::string, Metric> metrics_;
};

/** The public calls the benchmark times. Each one is a span kind. */
enum class Op : uint8_t {
    Replay,        //!< root: one app replay or one serving run
    PrepareArgs,   //!< argument synthesis by the load generator
    Invoke,        //!< FreePartRuntime::invoke
    InvokeAsync,   //!< FreePartRuntime::invokeAsync
    PeekResult,    //!< FreePartRuntime::peekResult
    DrainAll,      //!< FreePartRuntime::drainAll
    FetchToHost,   //!< FreePartRuntime::fetchToHost
    HasObject,     //!< FreePartRuntime::hasObject
    TwinInvoke,    //!< invoke on the in-host twin (fw layer)
    InvokeAt,      //!< ShardRouter::invokeAt
    SessionStart,  //!< ShardRouter::chargeSessionStart
    EndSession,    //!< ShardRouter::endSession
    PoolCheckout,  //!< WarmAgentPool::checkout
    PoolRelease,   //!< WarmAgentPool::release
    Observe,       //!< Autoscaler::observe
    Count,
};

/** Span name of an op ("core.invoke", ...). */
const char *opName(Op op);

/**
 * In-memory span recorder for the traced run. A span carries its op,
 * host and sim start/end, the span that encloses it, and the id of
 * the framework call it belongs to. Nothing is written until the run
 * ends. When disabled, begin()/end() cost one branch.
 */
class Tracer
{
  public:
    static constexpr uint32_t kNone = UINT32_MAX;

    struct Span {
        Op op = Op::Replay;
        uint32_t parent = kNone;
        uint64_t call = 0;
        double hostStart = 0.0;
        double hostEnd = 0.0;
        SimTime simStart = 0;
        SimTime simEnd = 0;
    };

    /** Per-op aggregate over a span range. */
    struct OpTotals {
        double selfSeconds = 0.0; //!< span time minus child spans
        Samples hostUs;           //!< per-span durations, microseconds
    };

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    uint32_t
    begin(Op op, uint64_t call, SimTime sim)
    {
        return enabled_ ? open(op, call, sim) : kNone;
    }

    void
    end(uint32_t span, SimTime sim)
    {
        if (span != kNone)
            close(span, sim);
    }

    size_t size() const { return spans_.size(); }

    /** Aggregate spans [from, to) per op, with self time. */
    std::vector<OpTotals> totals(size_t from, size_t to) const;

    /** Write every span as Chrome trace-event JSON (host time on the
     *  timeline, sim times and ids in args). */
    bool write(const std::string &path) const;

  private:
    uint32_t open(Op op, uint64_t call, SimTime sim);
    void close(uint32_t span, SimTime sim);

    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<uint32_t> stack_;
};

/** Framework registry + offline categorization: the first part of
 *  every workload's set-up, rebuilt on each set-up repetition. */
struct FrameworkContext {
    std::unique_ptr<freepart::fw::ApiRegistry> registry;
    freepart::analysis::Categorization cats;

    static std::unique_ptr<FrameworkContext> build();
};

/** Runtime counters summed over the runtimes of one pass. */
struct CoreCounters {
    freepart::core::RunStats sum;
    Samples overlap; //!< per-runtime overlap fraction
    uint64_t faultsInjected = 0;

    void add(const freepart::core::RunStats &stats);
    /** Emit the core/ipc/osim per-layer counters. */
    void report(Report &layer) const;
};

/** What one pass over a workload's inputs produced. */
struct Pass {
    uint64_t calls = 0;       //!< entry calls issued
    uint64_t failed = 0;      //!< calls with an unexplained error
    uint64_t expectedFailures = 0; //!< shed or fault-plan failures
    double hostSeconds = 0.0; //!< host time of the measured part
    Samples entryHostUs;      //!< host time of each entry call
    Samples probeSeconds;     //!< hostSpeedProbe() readings
    Samples simCallUs;        //!< sim latency of each call
    double simMakespanMs = 0.0;
    uint64_t fingerprint = 0; //!< hash of every sim-clock output
    std::vector<std::string> errors; //!< failed correctness checks

    /** Workload-specific end-to-end sim metrics (name -> value). */
    std::map<std::string, double> sim;
    /** Per-layer counters from RunStats/ClusterStats deltas, plus the
     *  deterministic sim-clock layer metrics. */
    Report layer;
    Samples checkpointProbeMs; //!< per-generation checkpointAgent
    Samples missProbeUs;       //!< hasObject on ids known gone
};

/** Sizes of one workload; `bench` is the measured size, `tiny` is
 *  the self-test, `fidelity` reproduces a shipped bench. */
enum class Size { Bench, Tiny, Fidelity };

/** A named workload. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Everything before the first call (timed as setup_s). */
    virtual void setup() = 0;
    /** One deterministic pass over the seeded inputs. With tracing
     *  on it also runs the end-state probes. */
    virtual Pass run(Tracer &tracer) = 0;
};

std::unique_ptr<Workload> makeAppPipeline(Size size, uint64_t seed);
std::unique_ptr<Workload> makeCrashRecovery(Size size, uint64_t seed);
std::unique_ptr<Workload> makeAsyncPipeline(Size size, uint64_t seed);
std::unique_ptr<Workload> makeTenantServe(Size size, uint64_t seed);

/** Mean service time (sim ns) the tenant_serve offered load is frozen
 *  at; see serve_workload.cc. */
extern const SimTime kMeanServiceNs;

/** bench_serve_autoscale's calibration, measured on the code under
 *  test (fidelity check). */
SimTime calibrateMeanService(const FrameworkContext &ctx);

/** Re-run the benchmark's load generators at shipped bench settings and
 *  compare with BENCH_freepart.json values. Returns true on match. */
bool runFidelity();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
