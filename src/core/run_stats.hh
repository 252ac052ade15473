/**
 * @file
 * Runtime statistics: the quantities the paper's evaluation reports —
 * IPC message counts and bytes moved (Table 9), lazy vs non-lazy copy
 * operations (Table 12), permission flips, agent crashes/restarts,
 * and simulated wall-clock time (Fig. 13).
 */

#ifndef FREEPART_CORE_RUN_STATS_HH
#define FREEPART_CORE_RUN_STATS_HH

#include <cstdint>
#include <vector>

#include "osim/types.hh"

namespace freepart::core {

/** Counters accumulated by a runtime across invoke() calls. */
struct RunStats {
    uint64_t apiCalls = 0;        //!< framework API invocations
    uint64_t ipcMessages = 0;     //!< RPC messages (both directions)
    uint64_t bytesTransferred = 0; //!< all cross-process bytes
    uint64_t lazyCopies = 0;      //!< ref passes with no data motion
    uint64_t directCopies = 0;    //!< LDC agent-to-agent data fetches
    uint64_t eagerCopies = 0;     //!< host-mediated object copies
    uint64_t piggybackedFetches = 0; //!< LDC copies ridden on a request
    uint64_t hotSends = 0;        //!< ring sends that skipped the wake
    uint64_t protectionFlips = 0; //!< temporal mprotect applications
    uint64_t stateChanges = 0;    //!< framework state transitions
    uint64_t agentCrashes = 0;    //!< agent processes lost to faults
    uint64_t agentRestarts = 0;   //!< respawns performed
    uint64_t retriedCalls = 0;    //!< at-least-once re-executions
    uint64_t memFaults = 0;       //!< blocked memory accesses
    uint64_t syscallDenials = 0;  //!< seccomp SIGSYS deliveries

    // Recovery metrics (supervision layer).
    uint64_t transientFaults = 0;   //!< retryable injected op failures
    uint64_t channelLosses = 0;     //!< RPC messages lost or corrupted
    uint64_t dedupHits = 0;         //!< duplicate requests served from cache
    uint64_t dedupEvictions = 0;    //!< dedup-cache entries evicted (LRU)
    uint64_t retriesExhausted = 0;  //!< calls that used the whole budget
    uint64_t quarantines = 0;       //!< partitions taken out of service
    uint64_t hostFallbackCalls = 0; //!< quarantined calls run in host
    uint64_t statefulFastFails = 0; //!< quarantined stateful calls failed
    uint64_t checkpointsTaken = 0;      //!< checkpoint generations saved
    uint64_t checkpointBytesSaved = 0;  //!< newly serialized bytes
    uint64_t checkpointBytesRestored = 0; //!< bytes restored on respawn
    uint64_t checkpointFallbacks = 0;   //!< corrupt gens skipped at restore
    uint64_t standbyPromotions = 0;     //!< restarts served by a warm standby
    osim::SimTime standbyWaitTime = 0;  //!< waited for standby readiness
    uint64_t recoveries = 0;        //!< outages closed by a success
    osim::SimTime recoveryTime = 0; //!< summed outage spans (sim ns)
    osim::SimTime backoffTime = 0;  //!< simulated backoff waited

    // Pipeline-parallel execution (RuntimeConfig::pipelineParallel).
    uint64_t asyncCalls = 0;       //!< calls issued via invokeAsync
    uint64_t pipelineBarriers = 0; //!< full drains forced by agent-side
                                   //!< protection flips
    uint64_t inFlightStalls = 0;   //!< dispatches stalled on queue depth
    uint64_t inFlightPeak = 0;     //!< deepest per-partition queue seen
    uint64_t checkpointSourcedRestores = 0; //!< objects lazily rebuilt
                                            //!< from checkpoints

    // Speculative execution past protection flips
    // (RuntimeConfig::speculativeFlips, DESIGN.md §15).
    uint64_t speculationStarts = 0;   //!< calls launched under an epoch
    uint64_t speculationCommits = 0;  //!< speculative calls promoted
    uint64_t speculationRollbacks = 0; //!< conflicting calls squashed
    uint64_t squashedWriteBytes = 0;  //!< bytes restored by squashes
    uint64_t speculativeFetches = 0;  //!< host fetches run off-clock on
                                      //!< the producer's timeline
    osim::SimTime recoveredBarrierTime = 0; //!< host-clock waits the
                                            //!< speculation avoided

    /** Bracketed execution time per partition (index = partition). */
    std::vector<osim::SimTime> partitionBusyTime;

    /** Makespan under pipeline accounting (0 when the gate is off). */
    osim::SimTime criticalPathMakespan = 0;

    osim::SimTime startTime = 0;  //!< sim clock at runtime creation
    osim::SimTime endTime = 0;    //!< sim clock at last snapshot

    /** Simulated time elapsed. */
    osim::SimTime
    elapsed() const
    {
        return endTime >= startTime ? endTime - startTime : 0;
    }

    /** Total data-copy operations (lazy + direct + eager). */
    uint64_t
    copyOps() const
    {
        return lazyCopies + directCopies + eagerCopies;
    }

    /** Fraction of copy operations that avoided the host hop. */
    double
    lazyFraction() const
    {
        uint64_t total = copyOps();
        return total ? static_cast<double>(lazyCopies + directCopies) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Summed per-partition busy time (pipeline accounting). */
    osim::SimTime
    totalBusyTime() const
    {
        osim::SimTime total = 0;
        for (osim::SimTime t : partitionBusyTime)
            total += t;
        return total;
    }

    /**
     * Fraction of agent work hidden by overlap: 1 - makespan / total
     * busy time, clamped at 0. Zero under serialized accounting (the
     * makespan then contains every bracketed nanosecond).
     */
    double
    overlapFraction() const
    {
        osim::SimTime busy = totalBusyTime();
        osim::SimTime span =
            criticalPathMakespan ? criticalPathMakespan : elapsed();
        if (busy == 0 || span == 0 || busy <= span)
            return 0.0;
        return 1.0 - static_cast<double>(span) /
                         static_cast<double>(busy);
    }

    /** Mean simulated time from first crash to next success. */
    osim::SimTime
    meanTimeToRecover() const
    {
        return recoveries ? recoveryTime / recoveries : 0;
    }

    bool operator==(const RunStats &) const = default;
};

} // namespace freepart::core

#endif // FREEPART_CORE_RUN_STATS_HH
