/**
 * @file
 * Cluster-level roll-up: what the shard router counts on top of the
 * per-runtime RunStats. Shards run conceptually in parallel (each on
 * its own simulated kernel), so cluster makespan is the *maximum*
 * per-shard elapsed time, not the sum — aggregate throughput is
 * routed calls divided by that makespan.
 */

#ifndef FREEPART_SHARD_CLUSTER_STATS_HH
#define FREEPART_SHARD_CLUSTER_STATS_HH

#include <cstdint>
#include <vector>

#include "core/run_stats.hh"
#include "osim/types.hh"

namespace freepart::shard {

/** Counters accumulated by a ShardRouter across routed calls. */
struct ClusterStats {
    uint64_t routedCalls = 0;   //!< invoke() calls accepted by the router
    uint64_t callsOk = 0;       //!< calls acknowledged to the client
    uint64_t callsFailed = 0;   //!< calls returned with an error
    uint64_t dedupHits = 0;     //!< duplicate tokens served from cache
    uint64_t localInputs = 0;   //!< ref inputs already on the target shard
    uint64_t migrations = 0;    //!< objects moved between shards
    uint64_t migratedBytes = 0; //!< payload bytes moved by migrations
    uint64_t proxiedCalls = 0;  //!< calls executed on the input's owner
    uint64_t proxiedBytes = 0;  //!< input bytes served in place by proxying
    uint64_t crossShardCalls = 0; //!< calls that touched another shard
                                  //!< (migrated/restored inputs, proxy,
                                  //!< hedged or degraded execution)
    uint64_t replicaSaves = 0;  //!< result replicas captured
    uint64_t replicaBytes = 0;  //!< bytes held by the replica store
    uint64_t replicaRestores = 0; //!< objects rebuilt from a replica
    uint64_t failovers = 0;     //!< calls retried on a new ring owner
    uint64_t shardsDrained = 0; //!< shards removed for quarantine pressure
    uint64_t shardsKilled = 0;  //!< shards removed for host death
    uint64_t lostObjects = 0;   //!< inputs unrecoverable after shard loss
    uint64_t shardsJoined = 0;  //!< shards added after construction
    uint64_t proactivePushes = 0; //!< objects eagerly pushed to a joiner
    uint64_t proactivePushBytes = 0; //!< payload bytes of those pushes

    // ---- Chaos / health-era counters (open-loop invokeAt path) ----
    uint64_t hedgedCalls = 0;   //!< calls served by a hedge target
    uint64_t degradedCalls = 0; //!< overload calls served degraded
    uint64_t shedCalls = 0;     //!< calls rejected by admission control
    uint64_t deadlineMisses = 0; //!< acked calls finishing past deadline
    uint64_t retriesSpent = 0;  //!< retry-budget attempts consumed
    uint64_t suspectTransitions = 0; //!< healthy -> suspect edges
    uint64_t deadTransitions = 0;    //!< -> dead edges
    uint64_t probesSent = 0;    //!< heartbeat probes issued
    uint64_t probesMissed = 0;  //!< probes an unresponsive shard missed
    uint64_t shardsRejoined = 0; //!< drained/killed shards re-admitted
    uint64_t chaosStalls = 0;   //!< injected shard-freeze episodes
    uint64_t chaosSlowCalls = 0; //!< calls under an injected slow-down
    uint64_t messagesDropped = 0;   //!< injected cross-shard drops
    uint64_t messagesCorrupted = 0; //!< injected cross-shard corruptions
    uint64_t replicaStaleReads = 0; //!< hedge/degraded replica stagings
    uint64_t queueDepthPeak = 0; //!< max admission queue depth seen

    // ---- Placement-era counters (optimized object placement) ----
    uint64_t repartitions = 0;  //!< placement epochs computed + applied
    uint64_t placementMoves = 0; //!< objects moved by placement epochs
    uint64_t placementMovedBytes = 0; //!< payload bytes of those moves
    /** Max bytes any single epoch moved — the bounded-migration
     *  witness benches and tests assert stays <= migrationMaxBytes. */
    uint64_t placementEpochBytesPeak = 0;
    uint64_t placementDeferrals = 0; //!< group moves deferred by budget
    uint64_t placementOverrides = 0; //!< override entries resolving live
    uint64_t placementCut = 0;  //!< last solution: weighted hyperedge cut
    double placementImbalance = 0.0; //!< last solution: weight imbalance
    /** Summed time from last good contact to dead classification —
     *  divide by deadTransitions for mean failover detection time. */
    osim::SimTime detectionTime = 0;

    // ---- Serving-era counters (multi-tenant sessions + autoscale) ----
    uint64_t sessionsStarted = 0; //!< tenant sessions opened
    uint64_t sessionsEnded = 0;   //!< tenant sessions torn down
    uint64_t warmCheckouts = 0;   //!< sessions served by a warm agent set
    uint64_t coldStarts = 0;      //!< sessions that cold-started agents
    /** Summed simulated agent-start cost charged to shards by
     *  sessions (warm handoffs + cold spawns + pool waits). */
    osim::SimTime sessionStartCost = 0;
    uint64_t sessionObjectsScrubbed = 0; //!< objects evicted at session end
    uint64_t shardsRetired = 0; //!< shards permanently scaled down
    uint64_t retireEvacuations = 0; //!< objects evacuated by retirements
    uint64_t overridesScrubbed = 0; //!< override entries dropped at retire
    uint64_t dedupScrubbed = 0; //!< dangling dedup entries pruned at retire

    /** Calls landed per shard (indexed by shard slot). */
    std::vector<uint64_t> callsPerShard;

    /** Per-runtime counters summed across all shards. */
    core::RunStats shardTotals;

    /** Max per-shard elapsed simulated time (parallel shards). */
    osim::SimTime makespan = 0;

    /** Aggregate throughput over the cluster makespan. */
    double
    throughputCallsPerSec() const
    {
        if (makespan == 0)
            return 0.0;
        return static_cast<double>(callsOk) * 1e9 /
               static_cast<double>(makespan);
    }

    /** Load imbalance: max over mean of callsPerShard (1.0 = even). */
    double
    imbalance() const
    {
        uint64_t max = 0, sum = 0;
        size_t live = 0;
        for (uint64_t calls : callsPerShard) {
            if (calls > max)
                max = calls;
            sum += calls;
            if (calls > 0)
                ++live;
        }
        if (live == 0 || sum == 0)
            return 1.0;
        double mean = static_cast<double>(sum) /
                      static_cast<double>(live);
        return static_cast<double>(max) / mean;
    }

    bool operator==(const ClusterStats &) const = default;
};

} // namespace freepart::shard

#endif // FREEPART_SHARD_CLUSTER_STATS_HH
