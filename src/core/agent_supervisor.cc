#include "core/agent_supervisor.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace freepart::core {

const char *
agentHealthName(AgentHealth health)
{
    switch (health) {
      case AgentHealth::Healthy:
        return "healthy";
      case AgentHealth::Restarting:
        return "restarting";
      case AgentHealth::Backoff:
        return "backoff";
      case AgentHealth::Quarantined:
        return "quarantined";
    }
    return "?";
}

AgentSupervisor::AgentSupervisor(osim::Kernel &kernel,
                                 uint32_t partition_count)
    : kernel(kernel), parts(partition_count)
{
}

AgentHealth
AgentSupervisor::health(uint32_t partition) const
{
    return parts.at(partition).health;
}

bool
AgentSupervisor::quarantined(uint32_t partition) const
{
    return health(partition) == AgentHealth::Quarantined;
}

size_t
AgentSupervisor::quarantinedCount() const
{
    size_t count = 0;
    for (const PartitionState &state : parts)
        if (state.health == AgentHealth::Quarantined)
            ++count;
    return count;
}

void
AgentSupervisor::pruneWindow(PartitionState &state) const
{
    // The loop clock runs net of restart machinery: crash times are
    // recorded with machineryTime already subtracted, so the window
    // spans application time and detection does not tighten just
    // because restarts got faster.
    osim::SimTime now = kernel.now() - machineryTime;
    osim::SimTime horizon =
        now > kCrashLoopSpan ? now - kCrashLoopSpan : 0;
    while (!state.crashTimes.empty() &&
           state.crashTimes.front() < horizon)
        state.crashTimes.pop_front();
}

bool
AgentSupervisor::onCrash(uint32_t partition)
{
    PartitionState &state = parts.at(partition);
    ++stats_.crashesObserved;
    if (crashListener_)
        crashListener_(partition);
    if (state.health == AgentHealth::Quarantined)
        return false;
    if (!state.inOutage) {
        state.inOutage = true;
        state.downSince = kernel.now();
        state.attemptsThisOutage = 0;
    }
    state.crashTimes.push_back(kernel.now() - machineryTime);
    pruneWindow(state);
    bool looping =
        state.crashTimes.size() >= kCrashLoopThreshold;
    bool exhausted =
        state.attemptsThisOutage >= kMaxRestartAttempts;
    if (looping || exhausted) {
        quarantine(partition);
        return false;
    }
    state.health = AgentHealth::Restarting;
    ++state.attemptsThisOutage;
    ++stats_.restartsAllowed;
    return true;
}

void
AgentSupervisor::chargeBackoff(uint32_t partition)
{
    PartitionState &state = parts.at(partition);
    // The first attempt of an outage restarts immediately; attempt n
    // waits base * factor^(n-2), capped.
    if (state.attemptsThisOutage <= 1)
        return;
    state.health = AgentHealth::Backoff;
    double scaled =
        static_cast<double>(kBackoffBase) *
        std::pow(kBackoffFactor,
                 static_cast<double>(state.attemptsThisOutage - 2));
    osim::SimTime delay = static_cast<osim::SimTime>(
        std::min(scaled, static_cast<double>(kBackoffMax)));
    kernel.advance(delay);
    stats_.backoffTime += delay;
    machineryTime += delay;
    state.health = AgentHealth::Restarting;
}

void
AgentSupervisor::onRestartAttempt(uint32_t partition, bool success)
{
    PartitionState &state = parts.at(partition);
    if (!success) {
        ++stats_.restartsFailed;
        return;
    }
    // The agent is up again; the outage closes when a call succeeds.
    state.health = AgentHealth::Healthy;
}

void
AgentSupervisor::onCallSucceeded(uint32_t partition)
{
    PartitionState &state = parts.at(partition);
    if (!state.inOutage)
        return;
    state.inOutage = false;
    state.attemptsThisOutage = 0;
    state.health = AgentHealth::Healthy;
    ++stats_.recoveries;
    stats_.outageTime += kernel.now() - state.downSince;
}

osim::SimTime
AgentSupervisor::standbyReadyAt(uint32_t partition) const
{
    return parts.at(partition).standbyReadyAt;
}

void
AgentSupervisor::noteRestartCharge(osim::SimTime duration)
{
    machineryTime += duration;
}

osim::SimTime
AgentSupervisor::consumeStandby(uint32_t partition)
{
    PartitionState &state = parts.at(partition);
    osim::SimTime now = kernel.now();
    osim::SimTime wait =
        state.standbyReadyAt > now ? state.standbyReadyAt - now : 0;
    // Replenishment starts the moment this standby is taken: the next
    // one is ready a full cold-spawn span after the promotion point.
    state.standbyReadyAt =
        now + wait + kernel.costs().processRestart;
    return wait;
}

void
AgentSupervisor::quarantine(uint32_t partition)
{
    PartitionState &state = parts.at(partition);
    if (state.health == AgentHealth::Quarantined)
        return;
    state.health = AgentHealth::Quarantined;
    ++stats_.quarantines;
    util::inform("supervisor: partition %u quarantined after %zu "
                 "crashes in window",
                 partition, state.crashTimes.size());
}

} // namespace freepart::core
