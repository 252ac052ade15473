/**
 * @file
 * FreePartRuntime: the online half of FreePart (§4.3, §4.4). It
 * spawns the host process and one agent process per partition, hooks
 * every framework API call into an RPC over shared-memory channels,
 * moves data objects lazily between agents (LDC, §4.3.2), drives the
 * framework state machine and flips host data read-only on state
 * transitions (§4.4.3), installs per-agent seccomp allowlists with
 * the init-phase grace period (§4.4.1), and restarts crashed agents
 * with at-least-once RPC semantics and periodic state checkpoints
 * (§4.4.2, A.2.4).
 *
 * The same class also runs the baselines: with a different
 * PartitionPlan and RuntimeConfig it behaves as whole-library
 * isolation, per-API isolation, code-based isolation, memory-based
 * protection, or no isolation at all.
 */

#ifndef FREEPART_CORE_RUNTIME_HH
#define FREEPART_CORE_RUNTIME_HH

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/hybrid_categorizer.hh"
#include "core/agent_supervisor.hh"
#include "core/checkpoint_store.hh"
#include "core/dedup_cache.hh"
#include "core/partition_plan.hh"
#include "core/run_stats.hh"
#include "fw/api_registry.hh"
#include "fw/image_format.hh"
#include "fw/invoker.hh"
#include "ipc/channel.hh"
#include "osim/kernel.hh"

namespace freepart::core {

/** The framework execution state (Fig. 3). */
enum class FrameworkState : uint8_t {
    Initialization = 0,
    Loading,
    Processing,
    Visualizing,
    Storing,
};

/** State entered when an API of the given type executes. */
FrameworkState stateForType(fw::ApiType type);

/** Sentinel: allocate a process-unique object-id namespace. */
constexpr uint32_t kAutoShardId = UINT32_MAX;

/** Calls between periodic checkpoints of an agent's state (A.2.4). */
constexpr uint32_t kCheckpointInterval = 8;
static_assert(kCheckpointInterval >= 1, "calls between checkpoints");

/** At-least-once delivery: per-agent LRU dedup cache capacity. */
constexpr size_t kDedupCacheEntries = 64;
static_assert(kDedupCacheEntries >= 1,
              "at-least-once delivery needs the cache");

/** Pipeline-parallel mode: max issued-but-unwaited async calls per
 *  partition before the dispatcher stalls on the oldest completion. */
constexpr uint32_t kMaxInFlightPerPartition = 4;
static_assert(kMaxInFlightPerPartition >= 1,
              "an async call needs a queue slot");

/** Feature switches (defaults = full FreePart). */
struct RuntimeConfig {
    bool lazyDataCopy = true;       //!< LDC on (§4.3.2)
    /** FreePart's batched zero-copy RPC transport: piggyback LDC
     *  fetches on the request batch (in-place encode into ring
     *  storage) and skip futex wakes inside a hot window of
     *  consecutive same-partition calls. Prior-technique baselines
     *  turn this off to keep their classic per-message transport. */
    bool batchedRpc = true;
    /**
     * Object-id namespace stamped into the high bits of every id this
     * runtime mints (fw::objectIdNamespace). Two runtimes used to
     * start their id counters at 0 and mint identical ids; the stamp
     * makes ids disjoint across runtimes — the shard router relies on
     * it, and the auto default fixes the collision even for plain
     * single-runtime code that happens to create a second runtime.
     * kAutoShardId draws the next process-unique namespace.
     */
    uint32_t shardId = kAutoShardId;
    bool restartAgents = true;      //!< respawn crashed agents
    bool enforceMemoryProtection = true; //!< temporal mprotect
    bool restrictSyscalls = true;   //!< install seccomp policies
    bool lockAfterInit = true;      //!< drop init-only syscalls + lock
    size_t ringBytes = 8 << 20;     //!< per-direction ring capacity
    /**
     * Pipeline-parallel execution: agents run on per-process virtual
     * timelines, invoke() becomes wait(invokeAsync()), and calls to
     * different partitions with disjoint object sets overlap in
     * simulated time. Off (the default) keeps the classic fully
     * serialized accounting — the Table 9 baseline numbers.
     */
    bool pipelineParallel = false;
    /**
     * Speculate past pending protection flips instead of draining
     * every timeline (DESIGN.md §15). A transition whose flip touches
     * agent address spaces opens a SpeculationEpoch: the flip is
     * modeled as landing at the flipped pids' quiesce horizon, calls
     * issued before that horizon run speculatively (argument objects
     * snapshotted first), and a speculative call that writes
     * pre-epoch data is squashed — its checkpoints restored
     * byte-exact, its minted ids discarded, the call re-issued after
     * the horizon. Host fetches of still-running producers likewise
     * run off-clock on the producer's timeline instead of syncing the
     * host. Off (the default) keeps the hard pipeline barriers and
     * the classic fetch synchronization.
     * Meaningful only with pipelineParallel.
     */
    bool speculativeFlips = false;
    /** Keep a warm standby process per partition and promote it on
     *  crash instead of forking on the critical path. The fork cost is
     *  paid in background (simulated) time; a crash arriving before
     *  the standby finished spawning waits out the remainder — never
     *  longer than a cold restart would have taken. Off = cold
     *  respawn on every restart. */
    bool backgroundRestart = true;
};

/** Result of one framework API invocation. */
struct ApiResult {
    bool ok = false;
    std::string error;       //!< failure description when !ok
    bool agentCrashed = false; //!< the executing process died
    bool quarantined = false;  //!< partition was quarantined (typed
                               //!< fail-fast for stateful APIs)
    ipc::ValueList values;   //!< return values when ok
};

/** Handle to an in-flight asynchronous invocation. */
struct CallTicket {
    uint64_t id = 0;
};

/** An annotated data object under temporal protection (§4.4.3). */
struct ProtectedVar {
    std::string name;
    osim::Pid pid;          //!< process holding the data
    osim::Addr addr;
    size_t len;
    FrameworkState definedIn; //!< state active at definition time
    bool isProtected = false; //!< already flipped read-only
};

/**
 * Callback tapped on every API dispatch that crosses into an agent
 * (partition != kHostPartition), with the marshaled argument list as
 * it will hit the wire. The partition-boundary linter uses this to
 * spot critical data crossing by value; observers must not invoke
 * back into the runtime.
 */
using BoundaryObserver = std::function<void(
    const std::string &api_name, uint32_t partition,
    const ipc::ValueList &args)>;

/** The runtime. */
class FreePartRuntime
{
  public:
    /**
     * Create host + agents and install policies.
     *
     * @param kernel  The simulated kernel to run on.
     * @param registry  Framework API registry (hooked APIs).
     * @param categorization  Offline analysis output (API types +
     *        syscall profiles), from analysis::HybridCategorizer.
     * @param plan  Partitioning layout.
     * @param config  Feature switches.
     */
    FreePartRuntime(osim::Kernel &kernel,
                    const fw::ApiRegistry &registry,
                    analysis::Categorization categorization,
                    PartitionPlan plan,
                    RuntimeConfig config = RuntimeConfig());

    FreePartRuntime(const FreePartRuntime &) = delete;
    FreePartRuntime &operator=(const FreePartRuntime &) = delete;

    // ---- Host-side surface --------------------------------------------

    osim::Pid hostPid() const { return hostPid_; }
    osim::Process &hostProcess();
    bool hostAlive() const;
    fw::ObjectStore &hostStore() { return *hostStore_; }

    /** Invoke a hooked framework API from the host program. Under
     *  pipelineParallel this is wait(invokeAsync(...)). */
    ApiResult invoke(const std::string &api_name, ipc::ValueList args);

    // ---- Asynchronous invocation (pipeline-parallel mode) ------------
    //
    // Execution stays eager and single-threaded in program order, so
    // results and object contents are byte-identical to the sync
    // path; what overlaps is simulated *time*. Each call runs inside
    // a kernel task bracket on its agent's virtual timeline, started
    // at max(host clock, agent timeline, readiness of every ObjectRef
    // argument). Args and results form the call's read/write set:
    // both become ready at its completion, so conflicting calls chain
    // while disjoint calls to different partitions overlap.

    /**
     * Issue a call without synchronizing the host clock to its
     * completion. The host is only charged the dispatch cost. With
     * the gate off this degrades to a completed synchronous call.
     */
    CallTicket invokeAsync(const std::string &api_name,
                           ipc::ValueList args);

    /**
     * Retire a ticket: advances the host clock to the call's
     * completion time and returns (and forgets) its result.
     */
    ApiResult wait(CallTicket ticket);

    /**
     * Peek a ticket's result without synchronizing the host clock
     * (execution is eager, so the result already exists). Used to
     * wire dataflow between async calls. nullptr for unknown/retired
     * tickets; the pointer is invalidated by wait() and drainAll().
     */
    const ApiResult *peekResult(CallTicket ticket) const;

    /**
     * Full barrier: advance the host clock past every outstanding
     * timeline and forget all pending tickets.
     */
    void drainAll();

    /** Tickets issued but not yet retired. */
    size_t pendingAsyncCalls() const { return pendingAsync_.size(); }

    /**
     * Annotate existing host-process data for temporal protection
     * (the user annotation the paper requires for custom structures).
     */
    void annotateData(const std::string &name, osim::Addr addr,
                      size_t len);

    /** Allocate + annotate host data in one step. */
    osim::Addr allocHostData(const std::string &name, size_t len);

    /**
     * Allocate + annotate data inside a *partition's* process (used
     * by baseline layouts where critical data does not live in the
     * host, e.g. code-based API isolation).
     */
    osim::Addr allocInPartition(uint32_t partition,
                                const std::string &name, size_t len);

    /** Create an annotated Mat in the host store; returns object id. */
    uint64_t createHostMat(uint32_t rows, uint32_t cols, uint32_t ch,
                           uint64_t seed, const std::string &label);

    /** Create an annotated byte object in the host store. */
    uint64_t createHostBytes(const std::vector<uint8_t> &bytes,
                             const std::string &label);

    /** Copy an object's current data into the host store (the app
     *  dereferencing a result — a non-lazy copy). Returns false, and
     *  changes nothing, when the ref resolves nowhere (!hasObject:
     *  forged, or lost in an agent crash). */
    bool fetchToHost(const ipc::ObjectRef &ref);

    // ---- Introspection -------------------------------------------------

    FrameworkState state() const { return state_; }
    const PartitionPlan &plan() const { return plan_; }
    osim::Kernel &kernel() { return kernel_; }

    /** Object-id namespace this runtime mints from (resolved value
     *  when the config asked for kAutoShardId). */
    uint32_t shardId() const { return shardId_; }

    /** Whether a speculation window is currently open (a deferred
     *  protection flip / speculative fetch has not reached its commit
     *  horizon yet). Always false with speculativeFlips off. */
    bool speculationActive() const { return speculation_.active; }
    const analysis::Categorization &categorization() const
    {
        return cats;
    }

    /** Partition an API would execute in right now. */
    uint32_t partitionOfApi(const std::string &api_name) const;

    osim::Pid agentPid(uint32_t partition) const;
    bool agentAlive(uint32_t partition) const;
    const osim::SyscallFilter &agentFilter(uint32_t partition) const;

    /** Object store of a partition (kHostPartition = host). */
    fw::ObjectStore &storeOf(uint32_t partition);

    /** Partition currently holding an object's data. */
    uint32_t homeOf(uint64_t object_id) const;

    /** Whether homeOf() resolves the object: it has a recorded home
     *  or sits in the host store. A restart keeps every object its
     *  own checkpoints vouch for homed, so false means genuinely lost
     *  (a dead agent's checkpoints do not count until it restarts). */
    bool hasObject(uint64_t object_id) const;

    /** Snapshot stats (sets endTime to the current sim clock and
     *  mirrors the supervisor's recovery accounting). */
    const RunStats &stats();

    /** The supervision layer (health states, recovery policy). */
    const AgentSupervisor &supervisor() const { return supervisor_; }
    AgentSupervisor &supervisor() { return supervisor_; }

    /** Entries in a partition's at-least-once dedup cache. The cache
     *  is host-side state, so it must survive agent restarts. */
    size_t seqCacheSize(uint32_t partition) const;

    /** The annotated/protected variables and their status. */
    const std::vector<ProtectedVar> &protectedVars() const
    {
        return vars;
    }

    /** Install (or clear, with nullptr) the boundary-crossing tap.
     *  Both dispatch paths (sync and pipelined) fire it. */
    void setBoundaryObserver(BoundaryObserver observer)
    {
        boundaryObserver_ = std::move(observer);
    }

    // ---- Lifecycle ------------------------------------------------------

    /**
     * Finish the initialization grace period on every agent: drop
     * init-only syscalls (mprotect/connect), pin fd-sensitive
     * syscalls to the opened device fds, and lock the filters with
     * PR_SET_NO_NEW_PRIVS (§4.4.1).
     */
    void lockdownAll();

    /**
     * Respawn one crashed agent (policy + checkpointed state).
     * Returns false when the fresh incarnation is itself dead (an
     * injected respawn/restore fault — the crash-loop case).
     */
    bool restartAgent(uint32_t partition);

    /**
     * Snapshot an agent's object store (stateful-API checkpoint) into
     * its CheckpointStore, which verifies every entry once as it is
     * written and falls back past a corrupted checkpoint at restore.
     */
    void checkpointAgent(uint32_t partition);

    /**
     * Remove an object from every store in this runtime (the cluster
     * layer migrated it to another runtime; stale local copies must
     * stop resolving). Cached responses referencing it are pruned
     * from the dedup caches.
     */
    void evictObject(uint64_t object_id);

    /**
     * Bulk evictObject for tenant-session teardown: erases every
     * listed object, then prunes each agent's dedup cache once at the
     * end instead of once per object. Returns how many of the ids
     * still resolved here (hasObject).
     */
    size_t evictObjects(const std::vector<uint64_t> &object_ids);

    // ---- Serving-layer pool accounting ----------------------------

    /** Simulated cost of cold-starting a tenant session's agent set:
     *  one fork + runtime init per partition agent plus the host-side
     *  wiring, charged as one extra spawn. This is what every session
     *  pays when the warm pool is disabled or empty. */
    osim::SimTime sessionColdStartCost() const;

    /** Cost of handing a warm clean-epoch agent set to a session:
     *  channel remap + policy install + role handoff — the same
     *  promote cost the warm-standby path pays, no fork involved. */
    osim::SimTime sessionWarmHandoffCost() const;

    /** Background cost of restoring a released agent set to a clean
     *  epoch (per-agent baseline checkpoint re-install). Bounds warm
     *  pool turnaround, not per-call latency. */
    osim::SimTime sessionEpochResetCost() const;

  private:
    struct Agent {
        uint32_t partition = 0;
        osim::Pid pid = 0;
        std::unique_ptr<fw::ObjectStore> store;
        fw::DeviceFds devices;
        std::unique_ptr<ipc::Channel> channel;
        std::set<osim::Syscall> policy; //!< installed allowlist
        bool locked = false;            //!< lockdown applied
        std::set<std::string> executedApis; //!< first-exec tracking
        std::set<std::string> assignedApis; //!< APIs routed here
        uint64_t callsSinceCheckpoint = 0;
        /**
         * At-least-once dedup cache: seq -> response values. Lives on
         * the host side of the RPC boundary, so it survives agent
         * restarts — a re-delivered request whose response was lost
         * is recognized as a duplicate even across a respawn. Bounded
         * (LRU) so long runs cannot grow it without limit.
         */
        DedupCache seqCache{kDedupCacheEntries};
        CheckpointStore checkpoints;
    };

    /** A call issued through invokeAsync, awaiting wait()/drainAll().
     *  Execution already happened (eagerly); `readyAt` is where it
     *  lands on the virtual timelines. */
    struct PendingCall {
        ApiResult result;
        osim::SimTime issuedAt = 0;
        osim::SimTime readyAt = 0;
        uint32_t partition = kHostPartition;
    };

    /** Pre-execution snapshot of one argument object of a speculative
     *  call: enough to restore the exact bytes (and home binding) if
     *  the call is squashed. */
    struct SpecCheckpoint {
        uint64_t id = 0;
        uint32_t home = kHostPartition;
        fw::ObjectSnapshot snapshot;
    };

    /**
     * An open speculation window (speculativeFlips, DESIGN.md §15).
     * Deferred protection flips / speculative fetches are modeled as
     * landing at `commitAt`; calls whose task bracket starts earlier
     * run speculatively. Objects with id <= `bornBefore` (the counter
     * value when the window opened) predate the window — writing one under speculation is the conflict that
     * squashes a call. Nested pending flips extend `commitAt`
     * monotonically instead of opening a second window.
     */
    struct SpeculationEpoch {
        bool active = false;
        osim::SimTime commitAt = 0;
        uint64_t bornBefore = 0;
    };

    /** Outcome of one RPC delivery attempt. */
    enum class Attempt {
        Ok,          //!< API executed (or deduplicated) successfully
        AppError,    //!< application-level failure; agent survives
        Transient,   //!< injected retryable fault; agent survives
        ChannelLost, //!< request/response lost or corrupt on the ring
        Crashed,     //!< the agent process died
    };

    void setupAgents();
    std::set<osim::Syscall> buildPolicy(const Agent &agent) const;
    void installPolicy(Agent &agent);
    void lockdownAgent(Agent &agent);
    void maybeAutoLockdown(Agent &agent);
    void applyTemporalProtection(FrameworkState previous);
    void enterState(FrameworkState next);
    void registerResultHomes(uint32_t partition,
                             const ipc::ValueList &values);
    /** Move object data between partitions; counts bytes + cost. */
    void transferObject(uint32_t from, uint32_t to, uint64_t id,
                        bool eager);
    void ensureArgsMaterialized(uint32_t partition,
                                const ipc::ValueList &args);
    ApiResult executeInHost(const fw::ApiDescriptor &desc,
                            const ipc::ValueList &args);
    /** Run an API body in `proc` and classify what it throws: memory
     *  and syscall faults and process crashes are Crashed (the fault
     *  counters and `faultProcess` are applied here), a transient
     *  fault is Transient, an application error AppError. */
    Attempt runApi(fw::ExecContext &ctx, osim::Process &proc,
                   const fw::ApiDescriptor &desc,
                   const ipc::ValueList &args, ApiResult &result);
    /** Supervision loop: attempts, retries, restarts, degradation. */
    ApiResult executeOnAgent(uint32_t partition,
                             const fw::ApiDescriptor &desc,
                             const ipc::ValueList &args);
    /** One request/execute/response cycle under a fixed seq. */
    Attempt attemptOnAgent(uint32_t partition,
                           const fw::ApiDescriptor &desc,
                           const ipc::ValueList &args, uint64_t seq,
                           ApiResult &result);
    /** Encode LDC fetches for out-of-partition ref args as Deliver
     *  messages riding the request batch (zero extra round trips). */
    void buildDeliverBatch(uint32_t partition,
                           const ipc::ValueList &args, uint64_t seq,
                           std::vector<ipc::Message> &batch);
    /** Agent-side intake of a request batch's Deliver messages (their
     *  object bytes are moved out). */
    void absorbDelivers(uint32_t partition,
                        std::vector<ipc::Message> &batch);
    /** Forget the hot send window (the peers stopped busy-polling). */
    void coolRpcWindow() { hotPartition_ = kHostPartition; }
    /** Restart (with backoff) until up, quarantined, or disallowed. */
    bool recoverAgent(uint32_t partition);
    /** Graceful degradation for calls on a quarantined partition. */
    ApiResult quarantinedCall(uint32_t partition,
                              const fw::ApiDescriptor &desc,
                              const ipc::ValueList &args);
    /** Drop cached responses whose object refs no longer resolve. */
    void pruneSeqCache(Agent &agent);

    /**
     * The dispatch prologue both invoke paths share: API lookup,
     * host-alive and lost-argument checks, ++apiCalls,
     * categorization, the state transition (behind a pipeline barrier
     * or a speculation window under pipelineParallel), neutral-API
     * partition inheritance, and the boundary tap for agent calls.
     * Returns the API's descriptor and sets `partition`, or returns
     * nullptr with `result.error` set when the call cannot dispatch.
     */
    const fw::ApiDescriptor *beginCall(const std::string &api_name,
                                       const ipc::ValueList &args,
                                       uint32_t &partition,
                                       ApiResult &result);
    /** Typed error naming the first ref argument that resolves
     *  nowhere any more; empty when every argument still resolves. */
    std::string lostArgumentError(const ipc::ValueList &args) const;
    /** `floor` raised to the readiness time of every ref argument:
     *  the earliest a task reading `args` may start. */
    osim::SimTime argsReadyAt(const ipc::ValueList &args,
                              osim::SimTime floor) const;
    /** The classic fully-serialized invoke path (gate off). */
    ApiResult invokeSync(const std::string &api_name,
                         ipc::ValueList args);
    /** Pipelined dispatch: run the call in a task bracket on its
     *  agent's timeline and fill `out` without syncing the host. */
    void dispatchPipelined(uint64_t ticket_id,
                           const std::string &api_name,
                           ipc::ValueList args, PendingCall &out);
    /** Would entering a new state flip protection on data living in
     *  an *agent* address space? (Host-only flips are applied by the
     *  dispatcher itself and need no barrier.) */
    bool pendingProtectionFlips(FrameworkState previous) const;
    /** Drain every timeline before a protection flip lands under
     *  still-running agent tasks. */
    void pipelineBarrier();
    /** Open (or extend) the speculation window for a transition out
     *  of `previous` whose flip touches agent address spaces: the
     *  flip is modeled as landing at the flipped pids' quiesce
     *  horizon instead of draining every timeline. */
    void openSpeculation(FrameworkState previous);
    /** Fold a deferred completion horizon (a speculative fetch, a
     *  nested flip) into the window, opening it if needed. */
    void extendSpeculation(osim::SimTime commit_at);
    /** Close the window once the host clock has passed its commit
     *  horizon (every speculative call already committed or was
     *  squashed at dispatch time). */
    void maybeRetireSpeculation();
    /** Serialize the argument objects of a speculative call for a
     *  possible squash (the §8.2 checkpoint path, per call). */
    std::vector<SpecCheckpoint>
    checkpointSpecArgs(const ipc::ValueList &args);
    /** Did the speculative call write pre-epoch data? The dispatcher
     *  already observes the write set (result refs); a result that
     *  names an object minted before the window opened — with bytes
     *  that actually changed — conflicts with the deferred flip. */
    bool specConflict(const ipc::ValueList &results,
                      const std::vector<SpecCheckpoint> &saved);
    /** Squash a conflicting speculative call: restore checkpointed
     *  argument bytes, discard objects the call minted, rewind the id
     *  counter so the re-issue mints identical ids. */
    void squashSpeculativeCall(
        const std::vector<SpecCheckpoint> &saved, uint64_t pre_id,
        uint32_t partition);
    /** Advance the host clock to an object's readiness time. */
    void syncObjectReady(uint64_t object_id);
    /** Mark refs in `values` as produced/settled at `ready`. */
    void noteObjectsReady(const ipc::ValueList &values,
                          osim::SimTime ready);
    /** Drop an object from every store, checkpoint store, home
     *  and readiness record of this runtime (dedup caches are the
     *  caller's to prune). */
    void eraseEverywhere(uint64_t id);
    /** Materialize a checkpointed copy into the agent's store and
     *  count the restored bytes (homes are the caller's). */
    void restoreCheckpointed(Agent &agent, uint64_t id,
                             const fw::ObjectSnapshot &snap);
    /** Whether `home`'s store holds the object, first rebuilding it
     *  from the agent's checkpoints if a restart left it out. */
    bool ensureResident(uint32_t home, uint64_t id);

    osim::Kernel &kernel_;
    const fw::ApiRegistry &registry;
    analysis::Categorization cats;
    PartitionPlan plan_;
    RuntimeConfig config;
    AgentSupervisor supervisor_;

    osim::Pid hostPid_ = 0;
    uint32_t shardId_ = 0;  //!< resolved object-id namespace
    uint64_t idCounter = 0;
    std::unique_ptr<fw::ObjectStore> hostStore_;
    fw::DeviceFds hostDevices;
    std::vector<Agent> agents;

    FrameworkState state_ = FrameworkState::Initialization;
    uint32_t lastPartition = kHostPartition; //!< for neutral APIs
    /** Partition of the last completed ring exchange (kHostPartition
     *  = none). A call to it finds both sides still busy-polling (the
     *  adaptive-spin hot window) and skips the futex wakes. */
    uint32_t hotPartition_ = kHostPartition;
    std::vector<ProtectedVar> vars;
    /** object id -> home partition. Mutable so homeOf() can lazily
     *  adopt host-store objects created outside invoke(). */
    mutable std::map<uint64_t, uint32_t> objectHome;
    uint64_t nextSeq = 1;
    /** Readiness time of each object on the virtual timelines (only
     *  maintained in pipeline mode; absent = ready immediately). */
    std::map<uint64_t, osim::SimTime> objectReadyAt_;
    /** ticket id -> pending call. std::map for pointer stability
     *  (peekResult hands out pointers into it). */
    std::map<uint64_t, PendingCall> pendingAsync_;
    uint64_t nextTicket_ = 1;
    SpeculationEpoch speculation_;
    BoundaryObserver boundaryObserver_;
    RunStats stats_;
};

} // namespace freepart::core

#endif // FREEPART_CORE_RUNTIME_HH
