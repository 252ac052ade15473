#include "shard/health_monitor.hh"

#include <algorithm>

namespace freepart::shard {

const char *
shardHealthName(ShardHealth health)
{
    switch (health) {
      case ShardHealth::Healthy:
        return "healthy";
      case ShardHealth::Suspect:
        return "suspect";
      case ShardHealth::Dead:
        return "dead";
    }
    return "?";
}

HealthMonitor::HealthMonitor(uint32_t shard_count) : shards_(shard_count)
{
}

void
HealthMonitor::addShard(osim::SimTime now)
{
    ShardState state;
    state.lastContact = now;
    shards_.push_back(state);
}

void
HealthMonitor::reset(uint32_t shard, osim::SimTime now)
{
    if (shard >= shards_.size())
        return;
    ShardState fresh;
    fresh.lastContact = now;
    shards_[shard] = fresh;
}

void
HealthMonitor::recordSuccess(uint32_t shard, osim::SimTime now,
                             osim::SimTime service)
{
    if (shard >= shards_.size())
        return;
    ShardState &state = shards_[shard];
    state.lastContact = std::max(state.lastContact, now);
    state.missed = 0;
    state.crashes = 0;
    if (!state.hasSamples) {
        state.ewma = static_cast<double>(service);
        state.hasSamples = true;
    } else {
        state.ewma += kEwmaAlpha
                      * (static_cast<double>(service) - state.ewma);
    }
    noteTransition(shard);
}

void
HealthMonitor::recordFailure(uint32_t shard, osim::SimTime now)
{
    if (shard >= shards_.size())
        return;
    ShardState &state = shards_[shard];
    // A failure is evidence of *unresponsiveness*, so it advances the
    // missed-contact counter but does not move lastContact forward:
    // a shard that only ever fails keeps accumulating suspicion.
    (void)now;
    ++state.missed;
    noteTransition(shard);
}

void
HealthMonitor::recordCrash(uint32_t shard)
{
    if (shard >= shards_.size())
        return;
    ShardState &state = shards_[shard];
    ++state.crashes;
    noteTransition(shard);
}

bool
HealthMonitor::probeDue(uint32_t shard, osim::SimTime now) const
{
    if (shard >= shards_.size())
        return false;
    const ShardState &state = shards_[shard];
    return now >= state.lastContact + kHeartbeatInterval;
}

void
HealthMonitor::recordProbe(uint32_t shard, osim::SimTime now,
                           bool responsive)
{
    if (shard >= shards_.size())
        return;
    ShardState &state = shards_[shard];
    if (responsive) {
        state.lastContact = std::max(state.lastContact, now);
        state.missed = 0;
    } else {
        // Advance lastContact by one interval so the next tick can
        // miss again instead of re-missing the same stale window.
        state.lastContact += kHeartbeatInterval;
        ++state.missed;
    }
    noteTransition(shard);
}

ShardHealth
HealthMonitor::classify(uint32_t shard) const
{
    if (shard >= shards_.size())
        return ShardHealth::Dead;
    const ShardState &state = shards_[shard];
    if (state.missed >= kMissedForDead)
        return ShardHealth::Dead;
    if (state.missed >= kMissedForSuspect)
        return ShardHealth::Suspect;
    if (state.crashes >= kCrashesForSuspect)
        return ShardHealth::Suspect;
    if (state.hasSamples) {
        double baseline = static_cast<double>(clusterBaseline(shard));
        if (state.ewma > kSuspectLatencyFactor * baseline)
            return ShardHealth::Suspect;
    }
    return ShardHealth::Healthy;
}

osim::SimTime
HealthMonitor::latencyEwma(uint32_t shard) const
{
    if (shard >= shards_.size() || !shards_[shard].hasSamples)
        return 0;
    return static_cast<osim::SimTime>(shards_[shard].ewma);
}

osim::SimTime
HealthMonitor::clusterBaseline(uint32_t exclude) const
{
    double sum = 0.0;
    uint32_t sampled = 0;
    for (uint32_t s = 0; s < shards_.size(); ++s) {
        const ShardState &state = shards_[s];
        if (s == exclude || !state.hasSamples)
            continue;
        sum += state.ewma;
        ++sampled;
    }
    if (sampled == 0)
        return kLatencyBaselineFloor;
    auto mean = static_cast<osim::SimTime>(sum / sampled);
    return std::max(mean, kLatencyBaselineFloor);
}

uint32_t
HealthMonitor::missedHeartbeats(uint32_t shard) const
{
    return shard < shards_.size() ? shards_[shard].missed : 0;
}

osim::SimTime
HealthMonitor::lastContact(uint32_t shard) const
{
    return shard < shards_.size() ? shards_[shard].lastContact : 0;
}

void
HealthMonitor::noteTransition(uint32_t shard)
{
    // Recompute the externally visible classification and count edges.
    ShardState &state = shards_[shard];
    ShardHealth now = classify(shard);
    if (now == state.reported)
        return;
    if (now == ShardHealth::Suspect
        && state.reported == ShardHealth::Healthy)
        ++suspectTransitions_;
    if (now == ShardHealth::Dead && state.reported != ShardHealth::Dead)
        ++deadTransitions_;
    state.reported = now;
}

} // namespace freepart::shard
