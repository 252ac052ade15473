/**
 * @file
 * SLO-driven shard autoscaler (DESIGN.md §14.2): a deterministic
 * policy loop over signals the cluster layer already produces — per
 * shard queue-depth estimates on the open-loop arrival axis (the same
 * quantity admission control sheds on), and the router's shed /
 * deadline-miss counters. Under sustained queue pressure it adds
 * serving capacity, preferring to revive a previously retired slot
 * (the proactive-push join path) before growing the cluster with a
 * fresh shard; under sustained idleness it retires the least-loaded
 * shard, which evacuates its objects to the survivors so no
 * acknowledged result is lost.
 *
 * Hysteresis is explicit: a scale decision needs `sustainUp` /
 * `sustainDown` *consecutive* over- or under-threshold ticks, and
 * every membership change opens a cooldown window — so chaos-induced
 * blips (a stalled shard, one slow call) don't flap membership.
 *
 * The loop also governs the warm agent pool: each tick resizes every
 * live shard's pool target from its observed peak lease concurrency.
 *
 * Everything is driven off the arrival clock the traffic generator
 * advances; no wall time, no randomness — runs replay byte-
 * identically.
 */

#ifndef FREEPART_SERVE_AUTOSCALER_HH
#define FREEPART_SERVE_AUTOSCALER_HH

#include <cstdint>

#include "osim/types.hh"
#include "shard/shard_router.hh"

namespace freepart::serve {

class WarmAgentPool;

struct AutoscalerConfig {
    /** Live-shard bounds the policy may move between. */
    uint32_t minLiveShards = 1;
    uint32_t maxLiveShards = 8;

    /** Policy evaluation period on the arrival clock. */
    osim::SimTime tickInterval = 250'000;

    /** A tick votes *up* when any shard's queue depth (service-EWMA
     *  units) reaches this, or calls were shed / missed deadlines
     *  since the previous tick. */
    double scaleUpDepth = 8.0;

    /** A tick votes *down* when the *mean* depth across live shards
     *  is at or below this and nothing was shed or late since the
     *  previous tick. Mean, not max: one shard mid-call always has
     *  nonzero depth — capacity decisions read aggregate occupancy,
     *  hotspot decisions (up) read the max. */
    double scaleDownDepth = 0.5;

    /** Hard-overload escape hatch: at or above this max depth a
     *  sustained up vote ignores the cooldown window (scale up fast,
     *  scale down slow — downs always honor the cooldown). */
    double panicDepth = 16.0;

    /** Consecutive votes required before acting (hysteresis). */
    uint32_t sustainUp = 3;
    uint32_t sustainDown = 12;

    /** Quiet window after any membership change. */
    osim::SimTime cooldown = 2'000'000;

    /** Kernel seeding for shards the policy adds (fixture files). */
    shard::ShardRouter::SeedFn seed;

    /** Warm-pool target bounds per shard (governance). */
    uint32_t poolMin = 1;
    uint32_t poolMax = 8;
};

struct AutoscalerStats {
    uint64_t ticks = 0;
    uint64_t scaleUps = 0;
    uint64_t panicScaleUps = 0; //!< ups that bypassed the cooldown
    uint64_t scaleDowns = 0;
    uint64_t shardsRevived = 0; //!< scale-ups served by a retired slot
    uint64_t shardsAdded = 0;   //!< scale-ups that grew the cluster
    uint64_t upVotes = 0;
    uint64_t downVotes = 0;
    uint64_t blipsIgnored = 0;   //!< streaks broken before sustain
    uint64_t cooldownHolds = 0;  //!< sustained votes deferred
    uint32_t livePeak = 0;
    uint32_t liveFloor = 0;
    double maxDepthSeen = 0.0;
    /** Integral of live shards over the arrival axis, in shard-
     *  seconds — the capacity bill a static max-size cluster is
     *  compared against. */
    double shardSeconds = 0.0;

    bool operator==(const AutoscalerStats &) const = default;
};

/** The policy loop. Call observe() as arrivals advance (cheap between
 *  ticks) and finish() once at the end to close the capacity
 *  integral. */
class Autoscaler
{
  public:
    Autoscaler(shard::ShardRouter &router, AutoscalerConfig config,
               WarmAgentPool *pool = nullptr);

    /** Advance the policy clock to `now` (nondecreasing). Runs at
     *  most one policy tick per tickInterval elapsed. */
    void observe(osim::SimTime now);

    /** Close the shard-seconds integral at the end of a run. */
    void finish(osim::SimTime now);

    const AutoscalerStats &stats() const { return stats_; }

  private:
    void tick(osim::SimTime now);
    void scaleUp();
    bool scaleDown(osim::SimTime now);
    void governPool(osim::SimTime now);
    void accumulateCapacity(osim::SimTime now);

    shard::ShardRouter &router_;
    AutoscalerConfig config_;
    WarmAgentPool *pool_;
    AutoscalerStats stats_;

    osim::SimTime lastTick_ = 0;     //!< last policy evaluation
    osim::SimTime lastAccount_ = 0;  //!< capacity-integral watermark
    osim::SimTime nextAllowed_ = 0;  //!< cooldown gate
    uint64_t lastShed_ = 0;
    uint64_t lastMisses_ = 0;
    uint32_t upStreak_ = 0;
    uint32_t downStreak_ = 0;
};

} // namespace freepart::serve

#endif // FREEPART_SERVE_AUTOSCALER_HH
