/**
 * @file
 * ShardRouter: the cluster layer that fans FreePart out across N
 * independent runtime shards. Each shard is a full FreePart stack —
 * its own simulated kernel, host process, agents, supervisor and
 * checkpoints — and the router places every API call on the shard
 * that owns the call's routing key under a consistent-hash ring.
 *
 * Cross-shard inputs are handled LDC-style at cluster scope: a ref
 * argument living on another shard is either migrated to the
 * executing shard (small objects; the source runtime evicts its copy
 * so exactly one shard stays authoritative) or the whole call is
 * proxied to the input's owner (large objects, where moving the call
 * is cheaper than moving the data). Object ids are namespaced per
 * shard (fw::objectIdNamespace) so shard-local id counters can never
 * collide.
 *
 * Failure handling reuses the per-runtime supervision signals: a
 * shard whose host dies is killed, one whose supervisor quarantined
 * too many partitions is drained. Either way its vnodes leave the
 * ring, keys remap to the survivors (bounded movement), and in-flight
 * calls fail over to the new owner under at-least-once semantics — a
 * cluster-level dedup cache answers re-submitted tokens of already
 * acknowledged calls without re-executing.
 */

#ifndef FREEPART_SHARD_SHARD_ROUTER_HH
#define FREEPART_SHARD_SHARD_ROUTER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dedup_cache.hh"
#include "core/partition_plan.hh"
#include "core/runtime.hh"
#include "osim/fault_injection.hh"
#include "osim/kernel.hh"
#include "shard/chaos.hh"
#include "shard/cluster_stats.hh"
#include "shard/hash_ring.hh"
#include "shard/health_monitor.hh"
#include "shard/placement.hh"

namespace freepart::shard {

/** How routing keys are placed on shards. */
enum class PlacementPolicy : uint8_t {
    /** Pure consistent hashing (the pre-placement behavior; runs are
     *  byte-identical to a router built before this policy existed). */
    Hash,
    /** Hash placement plus a load-aware override table computed by
     *  hypergraph partitioning over the observed call trace, applied
     *  incrementally under the migrationMaxBytes epoch budget. */
    Optimized,
};

// ---- Fixed cluster policy ----

/** Virtual nodes each shard contributes to the consistent-hash ring. */
constexpr uint32_t kVnodesPerShard = 64;
static_assert(kVnodesPerShard >= 1, "a shard needs a ring point");

/** Drain a shard from the ring once its supervisor has this many
 *  partitions quarantined (the health integration signal). */
constexpr size_t kDrainQuarantineThreshold = 2;

/** Simulated cross-shard network: per-byte and per-transfer fixed
 *  cost, charged to the receiving shard's kernel. Distinct from (and
 *  above) the intra-shard shared-memory costs. */
constexpr double kNetPerByte = 0.25;
constexpr osim::SimTime kNetRoundTrip = 80'000;
static_assert(kNetPerByte >= 0.0, "a transfer cannot refund time");

/** Attempts per invokeAt call across failovers and chaos drops (the
 *  closed-loop invoke path keeps its shardCount-bounded loop). */
constexpr uint32_t kRetryBudget = 3;
static_assert(kRetryBudget >= 1, "a hedge rides a retry slot");

/** Admission control: shed when a shard's queue (in units of its
 *  service-time EWMA) is deeper than this. */
constexpr uint64_t kMaxQueueDepth = 64;
static_assert(kMaxQueueDepth >= 1, "0 would shed every admission");

/** Cluster knobs. */
struct ShardRouterConfig {
    uint32_t shardCount = 4;

    /**
     * Migrate-vs-proxy threshold: a cross-shard ref input at or below
     * this many bytes is migrated to the routing-key owner; above it
     * the call is proxied to the (largest) input's shard instead.
     */
    size_t migrationMaxBytes = 4 << 20;

    /** Capture a serialized replica of every result object so a
     *  shard's objects survive its death (restored on the failover
     *  owner). Off = objects on a killed shard are lost, and invokeAt
     *  neither hedges nor serves degraded (both read replicas). */
    bool replicateObjects = true;

    /** Cluster-level at-least-once dedup cache capacity (tokens). */
    size_t dedupEntries = 1024;

    /** Default per-call deadline for invokeAt, relative to arrival.
     *  0 = no deadline (CallOptions::deadline overrides per call). */
    osim::SimTime defaultDeadline = 0;

    // ---- Load-aware placement (DESIGN.md §13) ----

    PlacementPolicy placementPolicy = PlacementPolicy::Hash;

    /** Re-partition period in accepted calls (Optimized only; 0 =
     *  re-partition only on explicit repartitionNow() calls). */
    uint64_t repartitionEveryCalls = 0;

    /** Per-shard runtime feature switches. The router overrides
     *  RuntimeConfig::shardId per shard (namespace s+1). */
    core::RuntimeConfig runtime;
};

/** Structured failure cause of a routed call (error string stays the
 *  human-readable detail; this is the machine-checkable kind). */
enum class RouteError : uint8_t {
    None = 0,
    NoLiveShards,     //!< the ring is empty
    ObjectLost,       //!< a ref input has no live copy and no replica
    Overloaded,       //!< shed: admission queue over kMaxQueueDepth
    DeadlineExceeded, //!< shed: deadline infeasible before execution
    ExecutionFailed,  //!< the runtime returned an error
    RetriesExhausted, //!< budget spent without an acknowledgment
};

/** Display name of a route error. */
const char *routeErrorName(RouteError error);

/** Per-call options for the open-loop invokeAt path. */
struct CallOptions {
    uint64_t dedupToken = 0;

    /** Arrival time on the open-loop axis (ns since run start).
     *  Callers submit nondecreasing arrivals; the router queues the
     *  call behind the target shard's busy horizon. */
    osim::SimTime arrival = 0;

    /** Deadline relative to arrival; 0 = router default. */
    osim::SimTime deadline = 0;
};

/** Outcome of one routed call. */
struct RoutedCall {
    core::ApiResult result;
    uint32_t shard = kInvalidShard; //!< shard that executed the call
    uint32_t failovers = 0; //!< ring re-routes taken by this call
    bool proxied = false;   //!< executed on an input's owner shard
    bool deduped = false;   //!< answered from the cluster dedup cache

    /** Machine-checkable failure cause (None when result.ok). */
    RouteError errorKind = RouteError::None;
    /** The unrecoverable input when errorKind == ObjectLost. */
    uint64_t lostObjectId = 0;

    // ---- invokeAt (open-loop) extras ----
    bool hedged = false;   //!< served by a hedge target, not the owner
    bool degraded = false; //!< served degraded (stale replica reads)
    bool shed = false;     //!< rejected by admission control
    bool deadlineMissed = false; //!< acked, but past its deadline
    osim::SimTime latency = 0;   //!< completion - arrival
    osim::SimTime queueWait = 0; //!< time queued before execution
};

/** The cluster front end. */
class ShardRouter
{
  public:
    /** Per-shard kernel preparation (fixture seeding etc.), run
     *  before the shard's runtime is created. */
    using SeedFn = std::function<void(osim::Kernel &)>;

    ShardRouter(const fw::ApiRegistry &registry,
                analysis::Categorization categorization,
                core::PartitionPlan plan, ShardRouterConfig config,
                SeedFn seed = nullptr);
    ~ShardRouter();

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    // ---- Client surface ----------------------------------------------

    /**
     * Route one API call. The routing key (a session/object grouping
     * chosen by the caller) picks the executing shard via the ring;
     * ref arguments are resolved cluster-wide and migrated or proxied
     * as needed. A nonzero dedup_token makes the call at-least-once
     * across failovers: a token already acknowledged is answered from
     * the cluster dedup cache.
     */
    RoutedCall invoke(uint64_t routing_key, const std::string &api_name,
                      ipc::ValueList args, uint64_t dedup_token = 0);

    /**
     * Open-loop variant: the call *arrives* at opts.arrival on a
     * shared timeline and queues behind the target shard's busy
     * horizon. This is where the chaos-era machinery lives — health
     * probing, deadline-aware budgeted retries, one hedged attempt
     * when the primary is suspect, and queue-depth / deadline
     * admission control with degraded fallback. Arrivals must be
     * nondecreasing across calls.
     */
    RoutedCall invokeAt(uint64_t routing_key,
                        const std::string &api_name,
                        ipc::ValueList args, const CallOptions &opts);

    /** Create a Mat on the routing key's owner shard. */
    uint64_t createMat(uint64_t routing_key, uint32_t rows,
                       uint32_t cols, uint32_t ch, uint64_t seed,
                       const std::string &label);

    /**
     * Barrier across the cluster: settle every shard's virtual
     * timelines (a no-op unless the per-shard runtimes run with
     * pipelineParallel on). Call before reading makespans that must
     * include in-flight async work.
     */
    void drainAll();

    // ---- Membership and failure --------------------------------------

    /**
     * Add a fresh shard (own kernel + runtime) to the cluster and the
     * ring. Routing keys that remap to the joiner have their objects
     * pushed over eagerly when they fit migrationMaxBytes — instead
     * of migrating lazily on first touch. Returns the new shard slot.
     */
    uint32_t addShard(SeedFn seed = nullptr);

    /** Shard slots configured (live or not). */
    uint32_t shardCount() const;

    /** Shards still serving (live and in the ring). */
    size_t liveShardCount() const;

    bool shardLive(uint32_t shard) const;

    /** Kill a shard outright (host death): it leaves the ring and can
     *  no longer serve as migration source; its objects survive only
     *  as replicas. Used by benches to model machine loss. */
    void killShard(uint32_t shard);

    /** Drain a shard: vnodes leave the ring so no new keys land on
     *  it, but the runtime stays up (migration source, in-flight
     *  completion). The quarantine-pressure path. */
    void drainShard(uint32_t shard);

    /**
     * Revive a killed shard slot with a fresh incarnation (new kernel
     * + runtime, same slot and namespace). Directory entries pointing
     * into the dead incarnation are scrubbed so staging falls through
     * to replicas; keys remapping back get their small objects pushed
     * proactively, like addShard.
     */
    void reviveShard(uint32_t shard);

    /**
     * Permanently retire a live shard — planned scale-down, distinct
     * from killShard (host loss) and drainShard (quarantine): the
     * slot's vnodes leave the ring, every object it still owns is
     * evacuated to its surviving ring owner (so zero acknowledged
     * results are lost), placement overrides pointing at the slot are
     * scrubbed (kill deliberately keeps them for the revive path),
     * and cluster-dedup entries whose cached result objects no longer
     * resolve anywhere are pruned. The slot keeps its runtime frozen
     * and can rejoin later via reviveShard (the autoscaler's
     * scale-up fast path). Returns false — and does nothing — when
     * the shard is not a live ring member or is the last one.
     */
    bool retireShard(uint32_t shard);

    /** Was this slot removed by retireShard (and not yet revived)? */
    bool shardRetired(uint32_t shard) const;

    // ---- Tenant sessions (serving layer) -----------------------------

    /**
     * Charge a session's agent-acquisition cost to the routing key's
     * owner shard on the open-loop axis: the shard's busy horizon and
     * kernel clock advance by `cost`, so calls arriving behind a cold
     * start queue exactly as they would behind real process spawns.
     * `warm` only selects which counter the charge lands in.
     */
    void chargeSessionStart(uint64_t routing_key,
                            osim::SimTime arrival, osim::SimTime cost,
                            bool warm);

    /**
     * Tear down a tenant session: evict every object created under
     * the routing key from the runtimes still holding one, drop the
     * directory and replica entries, and return how many objects were
     * scrubbed. Cluster-dedup entries for the session's tokens are
     * deliberately retained — a late duplicate submission must still
     * answer `deduped` rather than re-execute against freed state.
     */
    size_t endSession(uint64_t routing_key);

    // ---- Autoscaler signals ------------------------------------------

    /**
     * Queue-depth estimate of a shard at `now` on the open-loop axis,
     * in units of its service-time EWMA — the same quantity admission
     * control sheds on. 0 for idle or out-of-ring shards.
     */
    double queueDepthAt(uint32_t shard, osim::SimTime now) const;

    /** Router counters without the per-shard RunStats roll-up: the
     *  autoscaler polls this every tick, and stats() walks every
     *  runtime. Per-shard totals/makespan in here are stale. */
    const ClusterStats &quickStats() const { return stats_; }

    /**
     * Arm a chaos plan: the specs go to a router-owned FaultInjector
     * consulted at ShardAdmission / ClusterTransfer, the membership
     * events fire as invokeAt accepts calls. Replaces any previous
     * plan. With no plan armed the chaos paths consume no randomness,
     * so pre-existing runs stay byte-identical.
     */
    void applyChaosSchedule(const ChaosSchedule &plan);

    /** The armed injector (null when no chaos plan is active). */
    const osim::FaultInjector *chaosInjector() const
    {
        return chaos_.get();
    }

    // ---- Load-aware placement ----------------------------------------

    /**
     * Compute and apply a placement epoch now (Optimized policy):
     * contract the current trace window into a group hypergraph,
     * partition it across the live ring shards, install overrides for
     * the groups whose move set fits the remaining migrationMaxBytes
     * epoch budget (migrating their recently-accessed objects), and
     * reset the trace window. Groups that do not fit are deferred to
     * a later epoch. No-op under the Hash policy, with fewer than two
     * live shards, or on an empty trace window.
     */
    void repartitionNow();

    /** Active placement-override table (routing key -> shard). */
    const std::map<uint64_t, uint32_t> &placementOverrides() const
    {
        return override_;
    }

    /** The online trace collector (read-only introspection). */
    const placement::TraceCollector &traceCollector() const
    {
        return trace_;
    }

    // ---- Introspection -----------------------------------------------

    const HashRing &ring() const { return ring_; }

    /** Effective owner of a routing key right now: the placement
     *  override when one points at a live in-ring shard, else the
     *  consistent-hash ring (always the ring under the Hash policy). */
    uint32_t ownerShardOf(uint64_t routing_key) const;

    /** Shard currently holding an object: the directory, lazily
     *  adopting ids minted by direct runtime access; kInvalidShard
     *  when the object resolves nowhere. */
    uint32_t homeShardOf(uint64_t object_id) const;

    /** A shard's runtime (live or dead — introspection only). */
    core::FreePartRuntime &runtime(uint32_t shard);

    /** A shard's simulated kernel. */
    osim::Kernel &kernel(uint32_t shard);

    /** The failure detector (read-only introspection). */
    const HealthMonitor &healthMonitor() const { return monitor_; }

    /** Current classification of a shard. */
    ShardHealth shardHealth(uint32_t shard) const
    {
        return monitor_.classify(shard);
    }

    /** Roll-up: routing counters + per-shard RunStats totals +
     *  cluster makespan (max per-shard elapsed — shards are
     *  conceptually parallel machines). */
    const ClusterStats &stats();

  private:
    struct Shard {
        uint32_t id = 0;
        std::unique_ptr<osim::Kernel> kernel;
        std::unique_ptr<core::FreePartRuntime> runtime;
        bool live = true;
        bool retired = false; //!< removed by retireShard, revivable
        uint64_t calls = 0;   //!< calls executed here
    };

    /** Bring up a fresh incarnation (kernel + runtime) in a slot,
     *  tearing down any previous one. */
    void bootShard(Shard &shard, const SeedFn &seed);

    /** Record one call into the trace window (Optimized policy) and
     *  fire the periodic re-partition when the epoch fills. */
    void notePlacementCall(uint64_t routing_key,
                           const ipc::ValueList &args);

    /** Serialized size of an object wherever it currently lives
     *  (authoritative store, else replica; 0 when unresolvable). */
    uint64_t objectBytesOf(uint64_t object_id) const;

    /** Install the solution's overrides and migrate the moved groups'
     *  recent objects, bounded by migrationMaxBytes for this epoch.
     *  `targets` maps part index -> live shard id. */
    void applyPlacement(const placement::PartitionResult &solution,
                        const std::vector<uint32_t> &targets);

    /** Move an object's data between two live shards' runtimes. */
    void migrateObject(uint32_t from, uint32_t to, uint64_t object_id);

    /** Ship an object's replica into a shard's host store, charging
     *  the transfer; false when no replica exists. */
    bool copyReplica(uint32_t to, uint64_t object_id);

    /** Rebuild an object from its replica on a live shard. Returns
     *  false when no replica exists (the object is lost). */
    bool restoreReplica(uint32_t to, uint64_t object_id);

    /** Record result objects: directory entries + replicas + the
     *  routing key they were created under (drives proactive push). */
    void noteResults(uint32_t shard, uint64_t routing_key,
                     const ipc::ValueList &values);

    /** Capture (or refresh) an object's replica from its shard. */
    void saveReplica(uint32_t shard, uint64_t object_id);

    // ---- Per-attempt steps shared by invoke and invokeAt ----

    /** Does a live shard's runtime still resolve the object? A live
     *  owner that lost it (agent crash past its last checkpoint)
     *  counts as dead for staging. */
    bool holdsObject(uint32_t shard, uint64_t object_id) const;

    /** The store holding an object on a live shard that still holds
     *  it outside its checkpoints; nullptr otherwise. */
    fw::ObjectStore *liveStoreOf(uint32_t shard,
                                 uint64_t object_id) const;

    /** Answer an already-acknowledged token from the cluster dedup
     *  cache. False for token 0 or an unknown token. */
    bool answerFromDedup(uint64_t token, uint64_t routing_key,
                         RoutedCall &out);

    /** Migrate-vs-proxy: the in-ring shard holding the largest
     *  cross-shard input above migrationMaxBytes (the call moves to
     *  its data; `proxied` set), else `target`. */
    uint32_t chooseExecShard(uint32_t target, const ipc::ValueList &args,
                             bool &proxied) const;

    /** Stage every ref input onto `exec`: held locally, migrated from
     *  a live owner, or restored from its replica — or, with
     *  `replica_reads`, read from replicas without moving authority.
     *  Sets `cross` when data crossed shards. False when an input is
     *  lost; `out` then holds the typed ObjectLost failure. */
    bool stageInputs(uint32_t exec, const ipc::ValueList &args,
                     bool proxied, bool replica_reads, bool &cross,
                     RoutedCall &out);

    /** Run (and count) the call on a shard: invokeAsync under
     *  pipelineParallel (calls overlap on its timelines), else a
     *  blocking invoke. */
    core::ApiResult issueOn(Shard &shard, const std::string &api_name,
                            const ipc::ValueList &args);

    /** Record a successful call: results, dedup token, counters. */
    void acknowledge(uint32_t exec, uint64_t routing_key, uint64_t token,
                     bool proxied, bool cross, core::ApiResult result,
                     RoutedCall &out);

    /** Post-failure health check: kill on host death, drain on
     *  quarantine pressure. Returns true if the shard left the ring
     *  (the caller should fail over). */
    bool checkShardHealth(uint32_t shard);

    // ---- invokeAt (open-loop / chaos) machinery ----

    /** Fire chaos membership events due at the current call count. */
    void applyChaosEvents();

    /** Heartbeat pass at `now`: probe stale shards, take Dead ones
     *  out of the ring, re-admit recovered monitor-drained ones. */
    void healthTick(osim::SimTime now);

    /** Is the shard frozen by an injected stall at `now`? */
    bool stalledAt(uint32_t shard, osim::SimTime now) const;

    /** Healthiest least-busy live ring shard != avoid (kInvalidShard
     *  when there is no healthy alternative). */
    uint32_t pickAlternative(uint32_t avoid) const;

    /** Stage an input onto `to` from its replica WITHOUT moving
     *  authority — the stale-read path of hedged/degraded attempts. */
    bool stageReplicaRead(uint32_t to, uint64_t object_id);

    /** Eagerly migrate small objects whose routing key now maps to
     *  `target` (shared by addShard and reviveShard). */
    void proactivePush(uint32_t target);

    /** Simulated network cost of one cross-shard transfer of `bytes`
     *  to shard `dest`: round trip + per-byte, plus the resends and
     *  slow-downs of any armed chaos plan (no chaos armed consumes no
     *  randomness). */
    osim::SimTime transferCost(uint32_t dest, size_t bytes);

    const fw::ApiRegistry &registry;
    analysis::Categorization cats;
    core::PartitionPlan plan_;
    ShardRouterConfig config;

    HashRing ring_;
    std::vector<Shard> shards_;
    /** Cluster object directory: object id -> shard slot. Mutable so
     *  homeShardOf() can lazily adopt ids minted by direct runtime
     *  access (mirrors FreePartRuntime::objectHome). */
    mutable std::map<uint64_t, uint32_t> objectShard_;
    /** object id -> routing key it was created under. Ring ownership
     *  is keyed by routing keys, not object ids, so a joiner's push
     *  set is exactly the objects whose key now maps to it. */
    std::map<uint64_t, uint64_t> objectKey_;
    /** Serialized copies of result objects for cross-shard failover. */
    std::map<uint64_t, fw::ObjectSnapshot> replicas_;
    core::DedupCache dedup_;
    ClusterStats stats_;

    /** Placement-override table layered over the ring: routing key ->
     *  shard. Entries survive the target's death (bypassed while it
     *  is out of the ring, effective again after reviveShard). */
    std::map<uint64_t, uint32_t> override_;
    placement::TraceCollector trace_;
    uint64_t callsSinceRepartition_ = 0;

    SeedFn seed_; //!< kept for reviveShard's fresh incarnations
    HealthMonitor monitor_;
    std::unique_ptr<osim::FaultInjector> chaos_;
    std::vector<ChaosEvent> chaosEvents_; //!< sorted by atCall
    size_t chaosCursor_ = 0;
    uint64_t openLoopCalls_ = 0; //!< invokeAt calls accepted
    /** Per-shard open-loop state on the shared arrival axis. */
    std::vector<osim::SimTime> busyUntil_;    //!< queue busy horizon
    std::vector<osim::SimTime> stalledUntil_; //!< injected freeze end
    std::vector<uint8_t> monitorDrained_;     //!< drained by detector
};

} // namespace freepart::shard

#endif // FREEPART_SHARD_SHARD_ROUTER_HH
