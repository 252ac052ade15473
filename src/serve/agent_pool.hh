/**
 * @file
 * Warm agent pooling for tenant sessions (DESIGN.md §14.3). FreePart
 * pays its isolation cost per agent process, so cold-starting a fresh
 * four-agent partition set for every tenant session is what makes
 * million-user serving implausible: one session would spend ~5x more
 * simulated time spawning processes than executing a short pipeline.
 *
 * The pool keeps per-shard inventories of *warm agent sets* — spawned
 * ahead of time and checkpoint-restored to a clean epoch between
 * tenants, the same machinery the per-runtime warm-standby path uses
 * for crash recovery. A session checkout hands a clean set over at
 * promote cost (channel remap + policy install, no fork); releasing a
 * session schedules the set's clean-epoch reset in the background, so
 * the reset bounds pool turnaround rather than any call's latency.
 * The pool's per-shard target size is governed by the autoscaler from
 * observed lease concurrency.
 *
 * All times are on the open-loop arrival axis; every decision is a
 * pure function of (config, call sequence), so runs replay
 * byte-identically.
 */

#ifndef FREEPART_SERVE_AGENT_POOL_HH
#define FREEPART_SERVE_AGENT_POOL_HH

#include <cstdint>
#include <vector>

#include "osim/types.hh"

namespace freepart::serve {

/** Pool knobs. Cost defaults mirror the CostModel: warmHandoff =
 *  processPromote, epochReset covers the partition set, coldSpawn =
 *  (1 + partitions) x processSpawn. Benches derive them from the
 *  runtime's session*Cost() helpers instead of trusting these. */
struct AgentPoolConfig {
    /** Off = every checkout cold-starts (the comparison baseline). */
    bool enabled = true;

    /** Warm sets ready per shard at time zero. */
    uint32_t initialSize = 2;

    /** Hard per-shard inventory cap (leased + idle). */
    uint32_t maxSize = 16;

    /** Cost of handing a warm clean set to a session. */
    osim::SimTime warmHandoff = 500'000;

    /** Background clean-epoch reset span per released set. */
    osim::SimTime epochReset = 600'000;

    /** Cold fallback: spawn a fresh agent set on the critical path. */
    osim::SimTime coldSpawn = 12'500'000;
};

/** What one checkout cost the session. */
struct PoolCheckout {
    osim::SimTime cost = 0; //!< charge on the owner shard's horizon
    bool warm = false;      //!< served from the warm inventory
    osim::SimTime waited = 0; //!< reset-in-progress wait inside cost
};

struct AgentPoolStats {
    uint64_t warmCheckouts = 0;
    uint64_t coldFallbacks = 0; //!< empty/disabled pool -> fresh spawn
    uint64_t resetWaits = 0;    //!< warm set taken before reset done
    osim::SimTime waitedTotal = 0;
    osim::SimTime costTotal = 0;
    uint64_t releases = 0;
    uint64_t setsRecycled = 0; //!< released sets re-entering the pool
    uint64_t setsDropped = 0;  //!< released sets over target, destroyed
    uint64_t targetGrows = 0;
    uint64_t targetShrinks = 0;
    uint32_t leasesPeak = 0; //!< max concurrent leases on any shard

    /** Mean agent-acquisition cost per session, microseconds. */
    double
    meanCheckoutUs() const
    {
        uint64_t n = warmCheckouts + coldFallbacks;
        if (n == 0)
            return 0.0;
        return static_cast<double>(costTotal) / 1000.0 /
               static_cast<double>(n);
    }

    bool operator==(const AgentPoolStats &) const = default;
};

/** Per-shard warm agent-set inventory. */
class WarmAgentPool
{
  public:
    explicit WarmAgentPool(AgentPoolConfig config);

    /** Grow the per-shard table (new slots start at initialSize warm
     *  sets, ready immediately). Shrinking never happens. */
    void ensureShards(size_t count);

    /** Check a clean agent set out for a session arriving at `now`. */
    PoolCheckout checkout(uint32_t shard, osim::SimTime now);

    /** Return a session's set; it re-enters the inventory after its
     *  background clean-epoch reset unless the shard is over target. */
    void release(uint32_t shard, osim::SimTime now);

    /** Autoscaler governance: grow spawns sets in the background
     *  (ready after a cold spawn), shrink drops idle sets. */
    void setTarget(uint32_t shard, uint32_t target, osim::SimTime now);

    /** Leases outstanding on a shard right now. */
    uint32_t leases(uint32_t shard) const;

    /** Warm sets whose reset has finished by `now`. */
    uint32_t idleReady(uint32_t shard, osim::SimTime now) const;

    uint32_t target(uint32_t shard) const;

    /** Peak concurrent leases since the last drain — the autoscaler's
     *  per-tick sizing signal. Resets the peak to the current level. */
    uint32_t drainLeasePeak(uint32_t shard);

    const AgentPoolStats &stats() const { return stats_; }

  private:
    struct ShardPool {
        /** Idle sets: time each becomes clean again. Kept unsorted;
         *  checkout scans for the earliest (index order breaks ties),
         *  which is deterministic and tiny at pool sizes. */
        std::vector<osim::SimTime> readyAt;
        uint32_t leases = 0;
        uint32_t leasePeak = 0;
        uint32_t target = 0;
    };

    ShardPool &poolFor(uint32_t shard);

    AgentPoolConfig config_;
    std::vector<ShardPool> pools_;
    AgentPoolStats stats_;
};

} // namespace freepart::serve

#endif // FREEPART_SERVE_AGENT_POOL_HH
