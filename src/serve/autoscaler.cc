#include "serve/autoscaler.hh"

#include <algorithm>

#include "serve/agent_pool.hh"
#include "util/logging.hh"

namespace freepart::serve {

Autoscaler::Autoscaler(shard::ShardRouter &router,
                       AutoscalerConfig config, WarmAgentPool *pool)
    : router_(router), config_(std::move(config)), pool_(pool)
{
    if (config_.minLiveShards == 0)
        util::fatal("Autoscaler: minLiveShards must be >= 1");
    if (config_.maxLiveShards < config_.minLiveShards)
        util::fatal("Autoscaler: maxLiveShards %u below "
                    "minLiveShards %u",
                    config_.maxLiveShards, config_.minLiveShards);
    if (config_.tickInterval == 0)
        util::fatal("Autoscaler: tickInterval must be > 0");
    if (config_.scaleUpDepth <= config_.scaleDownDepth)
        util::fatal("Autoscaler: scaleUpDepth must exceed "
                    "scaleDownDepth (hysteresis band)");
    if (config_.panicDepth < config_.scaleUpDepth)
        util::fatal("Autoscaler: panicDepth must be at least "
                    "scaleUpDepth");
    if (config_.sustainUp == 0 || config_.sustainDown == 0)
        util::fatal("Autoscaler: sustain counts must be >= 1");
    if (config_.poolMax < config_.poolMin)
        util::fatal("Autoscaler: poolMax below poolMin");
    stats_.liveFloor = static_cast<uint32_t>(router_.liveShardCount());
    stats_.livePeak = stats_.liveFloor;
    if (pool_)
        pool_->ensureShards(router_.shardCount());
}

void
Autoscaler::accumulateCapacity(osim::SimTime now)
{
    if (now <= lastAccount_)
        return;
    stats_.shardSeconds +=
        static_cast<double>(router_.liveShardCount()) *
        static_cast<double>(now - lastAccount_) * 1e-9;
    lastAccount_ = now;
}

void
Autoscaler::observe(osim::SimTime now)
{
    if (now < lastTick_ + config_.tickInterval)
        return;
    // Bill the capacity held since the last evaluation *before* any
    // membership change this tick makes.
    accumulateCapacity(now);
    tick(now);
    lastTick_ = now;
}

void
Autoscaler::finish(osim::SimTime now)
{
    accumulateCapacity(now);
}

void
Autoscaler::tick(osim::SimTime now)
{
    ++stats_.ticks;
    auto live = static_cast<uint32_t>(router_.liveShardCount());
    stats_.livePeak = std::max(stats_.livePeak, live);
    stats_.liveFloor = std::min(stats_.liveFloor, live);

    double maxDepth = 0.0;
    double depthSum = 0.0;
    uint32_t depthShards = 0;
    for (uint32_t s = 0; s < router_.shardCount(); ++s) {
        if (!router_.shardLive(s))
            continue;
        double depth = router_.queueDepthAt(s, now);
        maxDepth = std::max(maxDepth, depth);
        depthSum += depth;
        ++depthShards;
    }
    double meanDepth = depthShards ? depthSum / depthShards : 0.0;
    stats_.maxDepthSeen = std::max(stats_.maxDepthSeen, maxDepth);

    const shard::ClusterStats &qs = router_.quickStats();
    uint64_t shedDelta = qs.shedCalls - lastShed_;
    uint64_t missDelta = qs.deadlineMisses - lastMisses_;
    lastShed_ = qs.shedCalls;
    lastMisses_ = qs.deadlineMisses;

    bool pressure = maxDepth >= config_.scaleUpDepth ||
                    shedDelta > 0 || missDelta > 0;
    // Down votes are predictive: the survivors absorb the victim's
    // load, so project the mean depth onto live-1 shards — retiring
    // into a level that immediately re-triggers pressure just flaps
    // membership.
    double projected = live > 1
                           ? meanDepth * static_cast<double>(live) /
                                 static_cast<double>(live - 1)
                           : meanDepth;
    bool idle = projected <= config_.scaleDownDepth &&
                shedDelta == 0 && missDelta == 0;

    if (pressure) {
        ++upStreak_;
        ++stats_.upVotes;
    } else {
        if (upStreak_ > 0 && upStreak_ < config_.sustainUp)
            ++stats_.blipsIgnored;
        upStreak_ = 0;
    }
    if (idle) {
        ++downStreak_;
        ++stats_.downVotes;
    } else {
        if (downStreak_ > 0 && downStreak_ < config_.sustainDown)
            ++stats_.blipsIgnored;
        downStreak_ = 0;
    }

    if (upStreak_ >= config_.sustainUp && live < config_.maxLiveShards) {
        bool panic = maxDepth >= config_.panicDepth;
        if (now < nextAllowed_ && !panic) {
            ++stats_.cooldownHolds;
        } else {
            scaleUp();
            if (panic && now < nextAllowed_)
                ++stats_.panicScaleUps;
            ++stats_.scaleUps;
            nextAllowed_ = now + config_.cooldown;
            upStreak_ = 0;
            downStreak_ = 0;
            stats_.livePeak = std::max(
                stats_.livePeak,
                static_cast<uint32_t>(router_.liveShardCount()));
        }
    } else if (downStreak_ >= config_.sustainDown &&
               live > config_.minLiveShards) {
        if (now < nextAllowed_) {
            ++stats_.cooldownHolds;
        } else if (scaleDown(now)) {
            ++stats_.scaleDowns;
            nextAllowed_ = now + config_.cooldown;
            upStreak_ = 0;
            downStreak_ = 0;
        }
    }

    governPool(now);
}

void
Autoscaler::scaleUp()
{
    // Prefer reviving a retired slot: the namespace already exists,
    // and reviveShard's proactive push rehydrates its key range.
    for (uint32_t s = 0; s < router_.shardCount(); ++s) {
        if (router_.shardRetired(s)) {
            router_.reviveShard(s);
            ++stats_.shardsRevived;
            if (pool_)
                pool_->ensureShards(router_.shardCount());
            return;
        }
    }
    router_.addShard(config_.seed);
    ++stats_.shardsAdded;
    if (pool_)
        pool_->ensureShards(router_.shardCount());
}

bool
Autoscaler::scaleDown(osim::SimTime now)
{
    // Retire the shallowest queue; ties go to the highest slot so the
    // original shards stay put and growth unwinds in reverse.
    uint32_t victim = shard::kInvalidShard;
    double victimDepth = 0.0;
    for (uint32_t s = 0; s < router_.shardCount(); ++s) {
        if (!router_.shardLive(s) || !router_.ring().contains(s))
            continue;
        double depth = router_.queueDepthAt(s, now);
        if (victim == shard::kInvalidShard || depth < victimDepth ||
            (depth == victimDepth && s > victim)) {
            victim = s;
            victimDepth = depth;
        }
    }
    if (victim == shard::kInvalidShard)
        return false;
    return router_.retireShard(victim);
}

void
Autoscaler::governPool(osim::SimTime now)
{
    if (!pool_)
        return;
    for (uint32_t s = 0; s < router_.shardCount(); ++s) {
        if (!router_.shardLive(s))
            continue;
        // Provision for the recent concurrency peak plus spares;
        // clamped so a quiet shard still keeps warm sets around.
        // Shrinks need slack below the current target (hysteresis):
        // a twitchy target churns real warm sets for pending spawns.
        uint32_t want = pool_->drainLeasePeak(s) + 2;
        want = std::max(want, config_.poolMin);
        want = std::min(want, config_.poolMax);
        uint32_t current = pool_->target(s);
        if (want < current && current - want <= 2)
            want = current;
        pool_->setTarget(s, want, now);
    }
}

} // namespace freepart::serve
