/**
 * @file
 * Cluster health monitoring: per-shard heartbeats and call-latency
 * EWMAs on the simulated clock, classified into a three-state machine
 *
 *   Healthy -> Suspect -> Dead
 *
 * Suspicion is *timeout-driven*: a shard that stops answering probes
 * (stalled, frozen, or dead) accumulates missed heartbeats, and a
 * shard whose service-time EWMA drifts far above the cluster baseline
 * turns Suspect even while it still answers — the slow-shard case the
 * quarantine-count signal of PR 4 could never see. Agent crashes
 * reported by the per-runtime supervisors feed in as a third
 * suspicion source (the crash-listener hook on AgentSupervisor).
 *
 * The monitor only *classifies*; the ShardRouter reacts (drain, kill,
 * hedge, rejoin). All time comes from the router's arrival clock, so
 * every transition is deterministic and replayable.
 */

#ifndef FREEPART_SHARD_HEALTH_MONITOR_HH
#define FREEPART_SHARD_HEALTH_MONITOR_HH

#include <cstdint>
#include <vector>

#include "osim/types.hh"

namespace freepart::shard {

/** Health of one shard as seen from the router. */
enum class ShardHealth : uint8_t {
    Healthy, //!< answering probes, latency near the cluster baseline
    Suspect, //!< missed heartbeats, slow EWMA, or crash-looping agents
    Dead,    //!< unresponsive past the dead threshold (or host death)
};

/** Display name of a shard health state. */
const char *shardHealthName(ShardHealth health);

// ---- Health policy (one fixed policy; applies to every shard) ----

/** Probe cadence on the arrival clock. A shard not contacted (call or
 *  probe) for this long gets probed on the next router tick. */
constexpr osim::SimTime kHeartbeatInterval = 200'000; // 0.2 ms

/** Missed consecutive heartbeats before Suspect / Dead. */
constexpr uint32_t kMissedForSuspect = 2;
constexpr uint32_t kMissedForDead = 5;
static_assert(1 <= kMissedForSuspect && kMissedForSuspect <= kMissedForDead,
              "health thresholds need 1 <= suspect <= dead");

/** Service-time EWMA smoothing factor. */
constexpr double kEwmaAlpha = 0.2;
static_assert(kEwmaAlpha > 0.0 && kEwmaAlpha <= 1.0,
              "EWMA smoothing factor outside (0, 1]");

/** A shard whose EWMA exceeds this multiple of the cluster baseline
 *  (mean over its *peers* — the shard itself is excluded so one slow
 *  shard cannot drag the baseline up) turns Suspect. */
constexpr double kSuspectLatencyFactor = 6.0;
static_assert(kSuspectLatencyFactor >= 1.0,
              "a shard must not be suspect for matching its peers");

/** Floor for the baseline so a near-idle cluster does not flag normal
 *  jitter as slowness. */
constexpr osim::SimTime kLatencyBaselineFloor = 20'000; // 20 us

/** Supervisor-reported agent crashes since the last successful call
 *  before the shard turns Suspect. */
constexpr uint32_t kCrashesForSuspect = 3;

/** The monitor. Owned by the ShardRouter; one entry per shard slot. */
class HealthMonitor
{
  public:
    explicit HealthMonitor(uint32_t shard_count);

    /** Track one more shard slot (router addShard). */
    void addShard(osim::SimTime now);

    /** Reset a slot to Healthy (shard revived / rejoined). */
    void reset(uint32_t shard, osim::SimTime now);

    /** A call on the shard completed OK; `service` is the execution
     *  span on the shard's clock (queueing excluded — the EWMA tracks
     *  how fast the shard works, not how loaded it is). */
    void recordSuccess(uint32_t shard, osim::SimTime now,
                       osim::SimTime service);

    /** A call on the shard failed (error, timeout, stall). Counts as
     *  a missed contact: repeated failures raise suspicion even
     *  between probe ticks. */
    void recordFailure(uint32_t shard, osim::SimTime now);

    /** An agent crash inside the shard's runtime (supervisor hook). */
    void recordCrash(uint32_t shard);

    /** Is a heartbeat probe due for this shard at `now`? */
    bool probeDue(uint32_t shard, osim::SimTime now) const;

    /** Outcome of a heartbeat probe. */
    void recordProbe(uint32_t shard, osim::SimTime now,
                     bool responsive);

    /** Current classification (pure function of recorded signals). */
    ShardHealth classify(uint32_t shard) const;

    /** Service-time EWMA of a shard (0 until its first success). */
    osim::SimTime latencyEwma(uint32_t shard) const;

    /** Mean EWMA over shards with samples, floored by
     *  kLatencyBaselineFloor. `exclude` (a shard slot) is left out of
     *  the mean so a shard is always judged against its peers; pass
     *  kExcludeNone for the whole-cluster mean. */
    static constexpr uint32_t kExcludeNone = UINT32_MAX;
    osim::SimTime clusterBaseline(uint32_t exclude = kExcludeNone) const;

    uint32_t missedHeartbeats(uint32_t shard) const;
    osim::SimTime lastContact(uint32_t shard) const;

    /** Health-state transition counters (for ClusterStats roll-up). */
    uint64_t suspectTransitions() const { return suspectTransitions_; }
    uint64_t deadTransitions() const { return deadTransitions_; }

  private:
    struct ShardState {
        osim::SimTime lastContact = 0; //!< last success or good probe
        uint32_t missed = 0;           //!< consecutive missed contacts
        uint32_t crashes = 0;          //!< agent crashes since success
        double ewma = 0.0;             //!< service-time EWMA (ns)
        bool hasSamples = false;
        ShardHealth reported = ShardHealth::Healthy;
    };

    /** Re-classify shard `shard` and count state transitions. */
    void noteTransition(uint32_t shard);

    std::vector<ShardState> shards_;
    uint64_t suspectTransitions_ = 0;
    uint64_t deadTransitions_ = 0;
};

} // namespace freepart::shard

#endif // FREEPART_SHARD_HEALTH_MONITOR_HH
