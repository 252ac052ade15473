/**
 * @file
 * Multi-tenant open-loop traffic generator (DESIGN.md §14.1). Tenants
 * are drawn per call from a Zipfian popularity distribution (a few
 * tenants dominate, a long tail trickles — `util::ZipfSampler`), and
 * call arrivals are a Poisson process on the shared open-loop axis
 * (exponential gaps via the deterministic `Rng::exponential`). Each
 * tenant replays sessions of one of the 23 Table 6 application models
 * (load -> process-chain -> store), checked out against a warm agent
 * pool at session start and torn down — objects scrubbed cluster-wide
 * — at session end.
 *
 * The generator measures what a serving operator watches: per-call
 * p50/p99/p999 latency, SLO attainment (acked within deadline over
 * issued), a per-tenant percentile breakdown, and the capacity bill
 * in shard-seconds. Every draw comes from one seeded Rng, so a run
 * replays byte-identically.
 *
 * The cluster client the generator and the cluster benches share
 * (`ClusterClient`, `sessionScript`, `calibrateMeanService`) lives
 * here too.
 */

#ifndef FREEPART_SERVE_TENANT_WORKLOAD_HH
#define FREEPART_SERVE_TENANT_WORKLOAD_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_models.hh"
#include "apps/workload.hh"
#include "serve/agent_pool.hh"
#include "serve/autoscaler.hh"
#include "shard/shard_router.hh"

namespace freepart::serve {

/** Seed of the single Rng behind tenant draws and arrival gaps. */
constexpr uint64_t kTenantSeed = 0x5eafe11;

/** Routing-key base; tenant t keys at kTenantKeyBase + t * 131. */
constexpr uint64_t kTenantKeyBase = 0x7e4a0000;

/** Tenants with at least this many acked calls enter the per-tenant
 *  percentile breakdown (tiny samples are noise). */
constexpr uint64_t kTenantPercentileMinAcks = 20;

/** Traffic shape. Calls carry the router's defaultDeadline. */
struct TenantWorkloadConfig {
    /** Distinct tenants the popularity distribution draws from. */
    uint32_t tenants = 1000;

    /** Zipf exponent of tenant popularity (0 = uniform). */
    double zipfExponent = 1.1;

    /** Session admission cap of the serving frontend: at most this
     *  many tenant sessions run concurrently (each holds one warm
     *  agent set). Arrivals drawn for a tenant without a slot while
     *  the cap is full advance an already-active session instead —
     *  open-loop call rate is preserved, lease concurrency bounded. */
    uint32_t maxConcurrentSessions = 48;
};

/** One load phase: `calls` arrivals at mean Poisson gap
 *  `meanInterarrival`. A ramp is just a list of phases. */
struct RampPhase {
    uint64_t calls = 0;
    osim::SimTime meanInterarrival = 0;
};

/** Unary Mat ops standing in for an app's processing chain (the
 *  app model's trace supplies the call structure). */
inline constexpr std::array<const char *, 6> kChainOps = {
    "cv2.GaussianBlur", "cv2.erode",     "cv2.dilate",
    "cv2.flip",         "cv2.normalize", "cv2.bitwise_not"};

/** One call of a session script. */
struct ScriptCall {
    const char *api = "";
    bool load = false; //!< (re)opens the session's chain
};

/** An app model's session: cv2.imread at each round start of its
 *  trace, chained calls cycling kChainOps (de-phased by the model
 *  id), then one cv2.imwrite. */
std::vector<ScriptCall> sessionScript(
    const apps::WorkloadGenerator &generator,
    const apps::AppModel &model);

/** A session's pipeline chain: the Ref its next op consumes. */
struct Chain {
    ipc::Value head;
    bool live = false;
};

/** Exact nearest-rank p50/p99/p999 of a latency sample set. */
struct LatencySummary {
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;

    bool operator==(const LatencySummary &) const = default;
};

/** Sorted-vector percentile (nearest-rank on the index line). */
double percentileUs(const std::vector<double> &sorted, double p);

/** Sort `samplesUs` in place and summarize it. */
LatencySummary summarizeLatencies(std::vector<double> &samplesUs);

inline double
latencyUs(const shard::RoutedCall &routed)
{
    return static_cast<double>(routed.latency) / 1000.0;
}

/**
 * The client side of a cluster run. A step issues one scripted call
 * on a session's chain: a load, or any call once the chain was lost
 * (§4.4.2: the app rebuilds from a fresh load), is cv2.imread of the
 * fixture; cv2.imwrite takes `store_path` then the chain; any other
 * op takes the chain. A failed call drops the chain, an acked Ref
 * result advances it. Acked (token, key) pairs and latencies are kept
 * for the audit and the summary.
 */
class ClusterClient
{
  public:
    /** Open: steps arrive at `opts.arrival` (`invokeAt`). Closed:
     *  steps carry only `opts.dedupToken` (`invoke`). */
    enum class Loop { Open, Closed };

    ClusterClient(shard::ShardRouter &router, Loop loop)
        : router_(router), loop_(loop)
    {
    }

    shard::RoutedCall step(Chain &chain, uint64_t key,
                           const ScriptCall &call,
                           const std::string &store_path,
                           const shard::CallOptions &opts);

    /** At-least-once audit: resubmit every acked (token, key) and
     *  count the answers that are not `deduped`. */
    uint64_t auditAcks();

    uint64_t acked() const { return acked_.size(); }

    LatencySummary latency() { return summarizeLatencies(latencyUs_); }

  private:
    shard::ShardRouter &router_;
    Loop loop_;
    std::vector<std::pair<uint64_t, uint64_t>> acked_; //!< token, key
    std::vector<double> latencyUs_;
};

/** Mean service time of one load plus four rounds of kChainOps on an
 *  unloaded single shard seeded by `generator` (closed-loop). */
osim::SimTime calibrateMeanService(
    const fw::ApiRegistry &registry,
    const analysis::Categorization &categorization,
    const apps::WorkloadGenerator &generator);

/** What one run produced. */
struct ServeOutcome {
    uint64_t issued = 0;
    uint64_t acked = 0;
    uint64_t ackedInDeadline = 0;
    uint64_t lostAcks = 0; //!< at-least-once audit failures
    uint64_t sessionsStarted = 0;
    uint64_t sessionsCompleted = 0;
    uint64_t tenantsTouched = 0;

    double sloAttainment = 0.0; //!< ackedInDeadline / issued
    LatencySummary latency;     //!< per-call, over acked calls

    /** Worst per-tenant p99 among tenants with enough samples. */
    double worstTenantP99Us = 0.0;
    /** Tenants that met the sample floor for the breakdown. */
    uint64_t tenantsInBreakdown = 0;
    /** Issued-call share of the hottest tenant (Zipf witness). */
    double hottestTenantShare = 0.0;

    /** Integral of live shards over the arrival axis (shard-s) —
     *  compare against staticShards x duration for the savings. */
    double shardSeconds = 0.0;
    osim::SimTime lastArrival = 0;

    shard::ClusterStats cluster;
    AutoscalerStats scaler; //!< zeroed without an autoscaler
    AgentPoolStats pool;    //!< zeroed without a pool

    bool operator==(const ServeOutcome &) const = default;
};

class TenantTrafficGenerator
{
  public:
    TenantTrafficGenerator(const apps::WorkloadGenerator &generator,
                           TenantWorkloadConfig config);

    /**
     * Drive the ramp through the router open-loop: draws tenant +
     * arrival gap per call, manages session lifecycles against the
     * pool, ticks the autoscaler on the arrival clock, and ends with
     * the at-least-once audit (every acked token resubmitted must
     * answer from the cluster dedup cache). scaler/pool may be null.
     */
    ServeOutcome run(shard::ShardRouter &router,
                     const std::vector<RampPhase> &phases,
                     Autoscaler *scaler, WarmAgentPool *pool);

  private:
    uint64_t keyOf(uint32_t tenant) const;

    /** Per-model scripts, built once from the workload traces. */
    std::vector<std::vector<ScriptCall>> scripts_;
    TenantWorkloadConfig config_;
};

} // namespace freepart::serve

#endif // FREEPART_SERVE_TENANT_WORKLOAD_HH
