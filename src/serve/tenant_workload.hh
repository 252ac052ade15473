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
 */

#ifndef FREEPART_SERVE_TENANT_WORKLOAD_HH
#define FREEPART_SERVE_TENANT_WORKLOAD_HH

#include <cstdint>
#include <string>
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
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;

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
};

/** Sorted-vector percentile (nearest-rank on the index line). */
double percentileUs(const std::vector<double> &sorted, double p);

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

    /** Calls in one session of tenant `t` (its app model's script). */
    size_t sessionLength(uint32_t tenant) const;

  private:
    /** One concrete call of an app script. */
    struct ScriptCall {
        std::string api;
        bool load = false;
    };

    uint64_t keyOf(uint32_t tenant) const;

    /** Per-model scripts, built once from the workload traces. */
    std::vector<std::vector<ScriptCall>> scripts_;
    TenantWorkloadConfig config_;
};

} // namespace freepart::serve

#endif // FREEPART_SERVE_TENANT_WORKLOAD_HH
