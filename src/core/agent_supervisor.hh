/**
 * @file
 * Agent supervision: the recovery *policy* layered over the paper's
 * bare restart mechanism (§4.4.2). The runtime reports crashes and
 * outcomes here; the supervisor decides whether another restart is
 * allowed, how long (in simulated time) to back off before it, and
 * when a flapping partition must be quarantined instead of retried
 * forever. It also keeps the per-partition health state machine
 *
 *   Healthy -> Restarting -> Backoff -> (Healthy | Quarantined)
 *
 * and the recovery accounting (outage spans, time-to-recover).
 */

#ifndef FREEPART_CORE_AGENT_SUPERVISOR_HH
#define FREEPART_CORE_AGENT_SUPERVISOR_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "osim/kernel.hh"

namespace freepart::core {

/** Health of one supervised partition. */
enum class AgentHealth : uint8_t {
    Healthy,     //!< serving calls normally
    Restarting,  //!< crashed; a respawn attempt is in progress
    Backoff,     //!< respawn failed; waiting out the backoff delay
    Quarantined, //!< crash-looping; no further restarts attempted
};

/** Display name of a health state. */
const char *agentHealthName(AgentHealth health);

// ---- Fixed restart schedule (one policy; applies to every agent) ----

/** Respawn attempts per outage before quarantining. */
constexpr uint32_t kMaxRestartAttempts = 4;

/** Simulated backoff before the 2nd, 3rd, ... respawn attempt:
 *  base * factor^(n-2), capped. */
constexpr osim::SimTime kBackoffBase = 200'000; // 0.2 ms
constexpr double kBackoffFactor = 2.0;
constexpr osim::SimTime kBackoffMax = 20'000'000; // 20 ms
static_assert(kBackoffFactor >= 1.0, "backoff delays must not shrink");

/** Sliding window of crash-loop detection, measured in application
 *  time (wall clock net of restart machinery — see noteRestartCharge).
 *  70 ms is the historical 100 ms wall-clock span minus the machinery
 *  of a full outage cycle (4 backoffs + 5 cold spawns, ~30 ms). */
constexpr osim::SimTime kCrashLoopSpan = 70'000'000; // 70 ms app time

/** Re-delivery attempts per API call before giving up. */
constexpr uint32_t kCallRetryBudget = 3;

/** Crash-loop detection: this many crashes inside kCrashLoopSpan
 *  quarantines the partition. A quarantined partition runs its
 *  non-stateful APIs in the host (graceful degradation); its stateful
 *  APIs fail fast. */
constexpr uint32_t kCrashLoopThreshold = 5;
static_assert(kCrashLoopThreshold >= 1,
              "0 would quarantine before any crash");

/** Aggregated recovery accounting across all partitions. */
struct SupervisionStats {
    uint64_t crashesObserved = 0;  //!< crashes reported to the supervisor
    uint64_t restartsAllowed = 0;  //!< respawn attempts granted
    uint64_t restartsFailed = 0;   //!< respawns that died immediately
    uint64_t quarantines = 0;      //!< partitions taken out of service
    uint64_t recoveries = 0;       //!< outages closed by a success
    osim::SimTime backoffTime = 0; //!< simulated time spent backing off
    osim::SimTime outageTime = 0;  //!< summed outage spans (closed ones)

    /** Mean simulated time from first crash to next success. */
    osim::SimTime
    meanTimeToRecover() const
    {
        return recoveries ? outageTime / recoveries : 0;
    }
};

/**
 * The supervisor. Owned by the runtime; one instance covers all of a
 * plan's partitions. Time comes from the simulated kernel clock, so
 * backoff and window arithmetic is exactly reproducible.
 */
class AgentSupervisor
{
  public:
    AgentSupervisor(osim::Kernel &kernel, uint32_t partition_count);

    AgentHealth health(uint32_t partition) const;
    bool quarantined(uint32_t partition) const;

    /** Partitions currently quarantined. The shard router drains a
     *  shard from the cluster ring when this crosses its threshold —
     *  the cluster-level reuse of the health state machine. */
    size_t quarantinedCount() const;

    /**
     * Report a crash of a partition's agent. Records it in the
     * sliding window and opens an outage if none is open. Returns
     * true if a restart attempt is allowed, false if the partition is
     * (now) quarantined — either because the crash count within the
     * window crossed the threshold, or because this outage already
     * used up kMaxRestartAttempts respawns.
     */
    bool onCrash(uint32_t partition);

    /**
     * Charge the exponential-backoff delay for the upcoming respawn
     * attempt to the simulated clock (first attempt of an outage is
     * immediate) and mark the partition Restarting.
     */
    void chargeBackoff(uint32_t partition);

    /** Record the outcome of a respawn attempt. */
    void onRestartAttempt(uint32_t partition, bool success);

    /** A call on the partition completed: close any open outage. */
    void onCallSucceeded(uint32_t partition);

    /**
     * Force a partition into quarantine (used when restarts are
     * disabled by config but the caller still wants degradation).
     */
    void quarantine(uint32_t partition);

    /**
     * Consume the partition's warm standby for a promotion. Returns
     * the simulated time the caller must still wait before the
     * standby is ready (0 when the background spawn already finished)
     * and schedules the background replenishment — the next standby
     * becomes ready one processRestart span after this promotion.
     * Only meaningful under RuntimeConfig::backgroundRestart.
     */
    osim::SimTime consumeStandby(uint32_t partition);

    /** When the partition's current standby becomes promotable. */
    osim::SimTime standbyReadyAt(uint32_t partition) const;

    /**
     * Report simulated time spent on restart machinery (standby
     * waits, promotion or respawn cost). The crash-loop window is
     * measured net of this time, so loop detection tracks how fast
     * the *application* re-crashes, invariant to restart latency —
     * otherwise cheap promotions would pack the same crashes into a
     * tighter wall-clock span and look like a crash loop.
     */
    void noteRestartCharge(osim::SimTime duration);

    const SupervisionStats &stats() const { return stats_; }

    /**
     * Observer notified on every reported crash, including crashes of
     * already-quarantined partitions. The cluster health monitor subscribes
     * here so per-runtime crash churn feeds shard-level suspicion
     * without polling quarantinedCount(). One listener per supervisor
     * (latest wins); pass nullptr to unsubscribe.
     */
    void setCrashListener(std::function<void(uint32_t)> listener)
    {
        crashListener_ = std::move(listener);
    }

  private:
    struct PartitionState {
        AgentHealth health = AgentHealth::Healthy;
        std::deque<osim::SimTime> crashTimes; //!< sliding window
        uint32_t attemptsThisOutage = 0;
        bool inOutage = false;
        osim::SimTime downSince = 0;
        /** Background-restart: when the pre-spawned standby is
         *  promotable. The initial standby is spawned alongside the
         *  agent, so it is ready from time 0. */
        osim::SimTime standbyReadyAt = 0;
    };

    void pruneWindow(PartitionState &state) const;

    osim::Kernel &kernel;
    std::vector<PartitionState> parts;
    SupervisionStats stats_;
    std::function<void(uint32_t)> crashListener_;
    /** Cumulative restart-machinery time across ALL partitions
     *  (backoff, standby waits, spawn cost). The crash-loop clock is
     *  kernel.now() minus this, i.e. application time: any
     *  partition's restart stalls the whole workload, so netting
     *  only the crashing partition's share would still let faster
     *  restarts elsewhere tighten this partition's window. */
    osim::SimTime machineryTime = 0;
};

} // namespace freepart::core

#endif // FREEPART_CORE_AGENT_SUPERVISOR_HH
