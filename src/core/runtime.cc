#include "core/runtime.hh"

#include <algorithm>
#include <atomic>

#include "util/logging.hh"

namespace freepart::core {

namespace {

/** Infrastructure syscalls every agent needs regardless of its APIs:
 *  the IPC machinery (shm + futex), allocator traffic, and clean
 *  shutdown. prctl is included so the agent can lock its own filter. */
const std::set<osim::Syscall> kInfraSyscalls = {
    osim::Syscall::Futex,   osim::Syscall::ShmOpen,
    osim::Syscall::Mmap,    osim::Syscall::Munmap,
    osim::Syscall::Brk,     osim::Syscall::Exit,
    osim::Syscall::Prctl,   osim::Syscall::SchedYield,
    osim::Syscall::Getpid,
};

/** Process-unique object-id namespaces for kAutoShardId: the first
 *  runtime in a process keeps namespace 0 (ids unchanged from the
 *  pre-namespacing world), every later one gets the next. */
uint32_t
nextAutoShardId()
{
    static std::atomic<uint32_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed) &
           ((1u << fw::kObjectIdShardBits) - 1);
}

} // namespace

FrameworkState
stateForType(fw::ApiType type)
{
    switch (type) {
      case fw::ApiType::Loading:
        return FrameworkState::Loading;
      case fw::ApiType::Processing:
        return FrameworkState::Processing;
      case fw::ApiType::Visualizing:
        return FrameworkState::Visualizing;
      case fw::ApiType::Storing:
        return FrameworkState::Storing;
      case fw::ApiType::Neutral:
      case fw::ApiType::Unknown:
        break;
    }
    return FrameworkState::Processing;
}

FreePartRuntime::FreePartRuntime(osim::Kernel &kernel,
                                 const fw::ApiRegistry &registry,
                                 analysis::Categorization categorization,
                                 PartitionPlan plan,
                                 RuntimeConfig config)
    : kernel_(kernel), registry(registry),
      cats(std::move(categorization)), plan_(std::move(plan)),
      config(config),
      supervisor_(kernel, plan_.partitionCount())
{
    // Reject configurations whose only possible behavior is a latent
    // div-by-zero, a stall, or silent data loss — a clear message at
    // construction beats a wrong simulation result later.
    if (config.ringBytes < 4096)
        util::fatal("RuntimeConfig: ringBytes %zu is below the 4 KiB "
                    "minimum ring capacity",
                    config.ringBytes);

    osim::Process &host = kernel_.spawn("host-program");
    hostPid_ = host.pid();
    shardId_ = config.shardId == kAutoShardId ? nextAutoShardId()
                                              : config.shardId;
    idCounter = fw::objectIdNamespace(shardId_);
    hostStore_ = std::make_unique<fw::ObjectStore>(kernel_, hostPid_,
                                                   &idCounter);
    setupAgents();
    stats_.partitionBusyTime.assign(plan_.partitionCount(), 0);
    stats_.startTime = kernel_.now();
}

void
FreePartRuntime::setupAgents()
{
    agents.resize(plan_.partitionCount());
    for (uint32_t p = 0; p < plan_.partitionCount(); ++p) {
        Agent &agent = agents[p];
        agent.partition = p;
        osim::Process &proc = kernel_.spawn(plan_.partitionName(p));
        agent.pid = proc.pid();
        agent.store = std::make_unique<fw::ObjectStore>(
            kernel_, agent.pid, &idCounter);
        agent.channel = std::make_unique<ipc::Channel>(
            kernel_, "ch:" + plan_.partitionName(p), hostPid_,
            agent.pid, config.ringBytes);
    }
    // Record which APIs route to which agent (drives the per-agent
    // syscall unions and the lockdown trigger).
    for (const auto &[name, entry] : cats) {
        uint32_t p = plan_.partitionFor(name, entry.type);
        if (p != kHostPartition && p < agents.size())
            agents[p].assignedApis.insert(name);
    }
    for (Agent &agent : agents)
        if (config.restrictSyscalls)
            installPolicy(agent);
}

std::set<osim::Syscall>
FreePartRuntime::buildPolicy(const Agent &agent) const
{
    // Union of the required syscalls of every API assigned to this
    // agent (§4.4.1 "Overlapping System Calls Between APIs").
    std::set<osim::Syscall> allowed = kInfraSyscalls;
    for (const std::string &name : agent.assignedApis) {
        auto it = cats.find(name);
        if (it == cats.end())
            continue;
        allowed.insert(it->second.syscalls.begin(),
                       it->second.syscalls.end());
    }
    return allowed;
}

void
FreePartRuntime::installPolicy(Agent &agent)
{
    agent.policy = buildPolicy(agent);
    osim::Process &proc = kernel_.process(agent.pid);
    proc.filter().install(agent.policy);
    agent.locked = false;
}

void
FreePartRuntime::lockdownAgent(Agent &agent)
{
    if (agent.locked)
        return;
    osim::Process &proc = kernel_.process(agent.pid);
    // Drop the init-only syscalls (mprotect / connect) — they were
    // needed only for first executions (§4.4.1).
    for (osim::Syscall call : osim::allSyscalls())
        if (osim::isInitOnlySyscall(call))
            proc.filter().deny(call);
    // Pin fd-sensitive syscalls to the device fds opened during the
    // grace period ("operate only on the designated files").
    std::set<osim::Fd> device_fds;
    if (agent.devices.camera >= 0)
        device_fds.insert(agent.devices.camera);
    if (agent.devices.gui >= 0)
        device_fds.insert(agent.devices.gui);
    if (agent.devices.net >= 0)
        device_fds.insert(agent.devices.net);
    proc.filter().restrictFds(osim::Syscall::Ioctl, device_fds);
    proc.filter().restrictFds(osim::Syscall::Select, device_fds);
    // Lock with PR_SET_NO_NEW_PRIVS via the agent's own prctl.
    kernel_.sysPrctlNoNewPrivs(proc);
    agent.locked = true;
}

void
FreePartRuntime::maybeAutoLockdown(Agent &agent)
{
    if (!config.restrictSyscalls || !config.lockAfterInit ||
        agent.locked)
        return;
    // All assigned APIs have executed at least once: the grace
    // period is over ("FreePart first executes all the framework
    // APIs and then restricts them afterwards").
    if (agent.executedApis.size() >= agent.assignedApis.size())
        lockdownAgent(agent);
}

void
FreePartRuntime::lockdownAll()
{
    for (Agent &agent : agents)
        if (config.restrictSyscalls)
            lockdownAgent(agent);
}

osim::Process &
FreePartRuntime::hostProcess()
{
    return kernel_.process(hostPid_);
}

bool
FreePartRuntime::hostAlive() const
{
    return kernel_.process(hostPid_).alive();
}

void
FreePartRuntime::annotateData(const std::string &name, osim::Addr addr,
                              size_t len)
{
    vars.push_back({name, hostPid_, addr, len, state_, false});
}

osim::Addr
FreePartRuntime::allocHostData(const std::string &name, size_t len)
{
    osim::Addr addr = kernel_.process(hostPid_).space().alloc(
        len, osim::PermRW, name);
    annotateData(name, addr, len);
    return addr;
}

osim::Addr
FreePartRuntime::allocInPartition(uint32_t partition,
                                  const std::string &name, size_t len)
{
    osim::Pid pid = partition == kHostPartition
                        ? hostPid_
                        : agents.at(partition).pid;
    osim::Addr addr =
        kernel_.process(pid).space().alloc(len, osim::PermRW, name);
    vars.push_back({name, pid, addr, len, state_, false});
    return addr;
}

uint64_t
FreePartRuntime::createHostMat(uint32_t rows, uint32_t cols,
                               uint32_t ch, uint64_t seed,
                               const std::string &label)
{
    osim::AddressSpace &space = kernel_.process(hostPid_).space();
    fw::MatDesc mat;
    mat.rows = rows;
    mat.cols = cols;
    mat.channels = ch;
    mat.addr = space.alloc(mat.byteLen(), osim::PermRW, label);
    std::vector<uint8_t> pixels =
        fw::synthPixels(rows, cols, ch, seed);
    space.write(mat.addr, pixels.data(), pixels.size());
    uint64_t id = hostStore_->putMat(mat, label);
    objectHome[id] = kHostPartition;
    vars.push_back({label, hostPid_, mat.addr, mat.byteLen(), state_,
                    false});
    return id;
}

uint64_t
FreePartRuntime::createHostBytes(const std::vector<uint8_t> &bytes,
                                 const std::string &label)
{
    osim::AddressSpace &space = kernel_.process(hostPid_).space();
    osim::Addr addr = space.alloc(bytes.size() ? bytes.size() : 1,
                                  osim::PermRW, label);
    space.write(addr, bytes.data(), bytes.size());
    uint64_t id = hostStore_->putBytes(addr, bytes.size(), label);
    objectHome[id] = kHostPartition;
    vars.push_back({label, hostPid_, addr, bytes.size(), state_,
                    false});
    return id;
}

uint32_t
FreePartRuntime::partitionOfApi(const std::string &api_name) const
{
    auto it = cats.find(api_name);
    fw::ApiType type =
        it != cats.end() ? it->second.type : fw::ApiType::Unknown;
    const fw::ApiDescriptor *desc = registry.byName(api_name);
    bool neutral = (it != cats.end() && it->second.typeNeutral) ||
                   (desc && desc->typeNeutral);
    if (neutral && lastPartition != kHostPartition &&
        plan_.kind() == PlanKind::ByType)
        return lastPartition;
    return plan_.partitionFor(api_name, type);
}

osim::Pid
FreePartRuntime::agentPid(uint32_t partition) const
{
    return agents.at(partition).pid;
}

bool
FreePartRuntime::agentAlive(uint32_t partition) const
{
    return kernel_.process(agents.at(partition).pid).alive();
}

const osim::SyscallFilter &
FreePartRuntime::agentFilter(uint32_t partition) const
{
    return kernel_.process(agents.at(partition).pid).filter();
}

fw::ObjectStore &
FreePartRuntime::storeOf(uint32_t partition)
{
    if (partition == kHostPartition)
        return *hostStore_;
    return *agents.at(partition).store;
}

uint32_t
FreePartRuntime::homeOf(uint64_t object_id) const
{
    auto it = objectHome.find(object_id);
    if (it != objectHome.end())
        return it->second;
    // Objects created directly in the host store (e.g. by the
    // workload harness) are adopted lazily as host-homed.
    if (hostStore_->has(object_id)) {
        objectHome[object_id] = kHostPartition;
        return kHostPartition;
    }
    util::panic("runtime: object %llu has no recorded home",
                static_cast<unsigned long long>(object_id));
}

bool
FreePartRuntime::hasObject(uint64_t object_id) const
{
    return objectHome.count(object_id) > 0 || hostStore_->has(object_id);
}

void
FreePartRuntime::restoreCheckpointed(Agent &agent, uint64_t id,
                                     const fw::ObjectSnapshot &snap)
{
    agent.store->restore(id, snap);
    stats_.checkpointBytesRestored += snap.size();
}

bool
FreePartRuntime::ensureResident(uint32_t home, uint64_t id)
{
    if (home == kHostPartition || storeOf(home).has(id))
        return storeOf(home).has(id);
    Agent &agent = agents.at(home);
    const fw::ObjectSnapshot *snap = agent.checkpoints.lookup(id);
    if (snap) {
        restoreCheckpointed(agent, id, *snap);
        ++stats_.checkpointSourcedRestores;
    }
    return snap != nullptr;
}

const RunStats &
FreePartRuntime::stats()
{
    stats_.endTime = kernel_.now();
    if (config.pipelineParallel) {
        // The run is not over until every virtual timeline is: the
        // makespan is the critical path through the issued tasks.
        stats_.endTime =
            std::max(stats_.endTime, kernel_.maxTimeline());
        stats_.criticalPathMakespan =
            stats_.endTime >= stats_.startTime
                ? stats_.endTime - stats_.startTime
                : 0;
    }
    const SupervisionStats &sup = supervisor_.stats();
    stats_.quarantines = sup.quarantines;
    stats_.recoveries = sup.recoveries;
    stats_.recoveryTime = sup.outageTime;
    stats_.backoffTime = sup.backoffTime;
    return stats_;
}

void
FreePartRuntime::enterState(FrameworkState next)
{
    if (next == state_)
        return;
    FrameworkState previous = state_;
    state_ = next;
    ++stats_.stateChanges;
    if (config.enforceMemoryProtection)
        applyTemporalProtection(previous);
}

void
FreePartRuntime::applyTemporalProtection(FrameworkState previous)
{
    // All data objects defined during the previous state become
    // read-only (Fig. 3).
    for (ProtectedVar &var : vars) {
        if (var.isProtected || var.definedIn != previous)
            continue;
        // Erasing an object unmaps its memory (a re-fetch moves the
        // host copy, an eviction drops it): nothing is left to flip.
        if (!kernel_.process(var.pid).space().isMapped(var.addr,
                                                       var.len)) {
            var.isProtected = true;
            continue;
        }
        kernel_.trustedProtect(var.pid, var.addr, var.len,
                               osim::PermRead);
        var.isProtected = true;
        ++stats_.protectionFlips;
    }
}

void
FreePartRuntime::transferObject(uint32_t from, uint32_t to,
                                uint64_t id, bool eager)
{
    if (from == to)
        return;
    // The source store may have lost the bytes (cleared on a restart
    // whose restore skipped this object) while its checkpoints still
    // vouch for it — rebuild lazily before copying out.
    ensureResident(from, id);
    fw::ObjectSnapshot snap = storeOf(from).snapshot(id);
    storeOf(to).restore(id, snap);
    kernel_.advance(kernel_.costs().copyCost(snap.size()));
    stats_.bytesTransferred += snap.size();
    objectHome[id] = to;
    if (eager) {
        // Host-mediated copies ride their own request/response pair
        // (Fig. 11-(b)), unlike LDC's piggybacked direct fetches. The
        // detour also ends any hot window: the peer that was spinning
        // on our ring went back to sleep while the host shuffled data.
        kernel_.advance(kernel_.costs().ipcRoundTrip);
        stats_.ipcMessages += 2;
        ++stats_.eagerCopies;
        coolRpcWindow();
    } else {
        ++stats_.directCopies;
    }
}

void
FreePartRuntime::ensureArgsMaterialized(uint32_t partition,
                                        const ipc::ValueList &args)
{
    for (const ipc::Value &value : args) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        uint64_t id = value.asRef().objectId;
        uint32_t home = homeOf(id);
        if (home == partition) {
            // Reference pass: no data motion at all.
            ++stats_.lazyCopies;
            continue;
        }
        if (config.lazyDataCopy) {
            // LDC: one direct copy from the owning process into the
            // executing agent, at dereference time (Fig. 11-(a)).
            transferObject(home, partition, id, /*eager=*/false);
        } else {
            // Without LDC the object data flows through the host
            // process (Fig. 11-(b)): owner -> host, host -> agent.
            if (home != kHostPartition)
                transferObject(home, kHostPartition, id,
                               /*eager=*/true);
            transferObject(kHostPartition, partition, id,
                           /*eager=*/true);
        }
    }
}

void
FreePartRuntime::registerResultHomes(uint32_t partition,
                                     const ipc::ValueList &values)
{
    for (const ipc::Value &value : values) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        uint64_t id = value.asRef().objectId;
        fw::ObjectStore &store = storeOf(partition);
        if (store.has(id))
            objectHome[id] = partition;
    }
}

bool
FreePartRuntime::fetchToHost(const ipc::ObjectRef &ref)
{
    // A ref that resolves nowhere (forged, or lost with a crashed
    // agent) is a typed refusal, never a host panic.
    if (!hasObject(ref.objectId))
        return false;
    maybeRetireSpeculation();
    uint32_t home = homeOf(ref.objectId);
    auto ready = objectReadyAt_.find(ref.objectId);
    // Speculative fetch (speculativeFlips, DESIGN.md §15): when the
    // producer is still running on its virtual timeline, run the
    // dereference — copy and round trip — on the *host process's*
    // virtual timeline instead of stalling the host clock until the
    // producer's tail: the trusted runtime copies the settled object
    // out of shared memory itself (the LDC data path), so the
    // producer keeps computing. The copy is a snapshot, not a
    // migration — the object stays homed at the producer, so the
    // next consumer on that partition passes it by reference instead
    // of bouncing it back through the host. The host program pays
    // only the issue cost; the fetched copy settles (and the temporal
    // flip of the "fetched:" var is modeled as landing) at the copy's
    // completion, which extends the speculation window so calls
    // issued before then are checkpointed and squashable.
    if (config.pipelineParallel && config.speculativeFlips &&
        !kernel_.taskActive() && home != kHostPartition &&
        ready != objectReadyAt_.end() && ready->second > kernel_.now()) {
        osim::SimTime start = std::max(
            {ready->second, kernel_.timelineOf(hostPid_), kernel_.now()});
        kernel_.beginTask(hostPid_, start);
        transferObject(home, kHostPartition, ref.objectId, /*eager=*/true);
        objectHome[ref.objectId] = home;
        osim::SimTime done = kernel_.endTask();
        if (home < stats_.partitionBusyTime.size())
            stats_.partitionBusyTime[home] += done - start;
        kernel_.advance(kernel_.costs().ipcPerMessage);
        ++stats_.speculativeFetches;
        extendSpeculation(done);
    } else {
        // Pipeline mode: dereferencing a result is a per-object
        // synchronization point — the host clock catches up with the
        // call that produces it (but not with unrelated timelines).
        syncObjectReady(ref.objectId);
        if (home == kHostPartition)
            return true;
        // The host program dereferences the data: a non-lazy copy.
        transferObject(home, kHostPartition, ref.objectId, /*eager=*/true);
    }
    // Host-resident copies of framework objects fall under temporal
    // protection from the state they were fetched in.
    const fw::StoredObject &obj = hostStore_->get(ref.objectId);
    vars.push_back({"fetched:" + obj.label, hostPid_, obj.addr,
                    obj.byteLen, state_, false});
    return true;
}

ApiResult
FreePartRuntime::invoke(const std::string &api_name,
                        ipc::ValueList args)
{
    if (!config.pipelineParallel)
        return invokeSync(api_name, std::move(args));
    return wait(invokeAsync(api_name, std::move(args)));
}

const fw::ApiDescriptor *
FreePartRuntime::beginCall(const std::string &api_name,
                           const ipc::ValueList &args,
                           uint32_t &partition, ApiResult &result)
{
    const fw::ApiDescriptor *desc = registry.byName(api_name);
    if (!desc) {
        result.error = "unknown API: " + api_name;
        return nullptr;
    }
    if (!hostAlive()) {
        result.error = "host program has crashed";
        return nullptr;
    }
    ++stats_.apiCalls;

    result.error = lostArgumentError(args);
    if (!result.error.empty())
        return nullptr;

    auto it = cats.find(api_name);
    fw::ApiType type =
        it != cats.end() ? it->second.type : desc->declaredType;
    bool neutral = (it != cats.end() && it->second.typeNeutral) ||
                   desc->typeNeutral;

    // Framework-state machine: concrete API types drive transitions;
    // type-neutral APIs inherit the current state (§4.2).
    if (!neutral && type != fw::ApiType::Unknown) {
        FrameworkState next = stateForType(type);
        if (config.pipelineParallel && next != state_ &&
            pendingProtectionFlips(state_)) {
            // The transition will mprotect data inside an agent
            // address space. In-flight tasks on the virtual timelines
            // may still be writing it. Conservative reading of §4.4.3
            // under overlap: drain everything before the flip lands.
            // Speculative reading (§15): defer the flip's commit to
            // the quiesce horizon of just the affected timelines and
            // keep dispatching — calls issued before that horizon run
            // checkpointed and are squashed on conflict. Host-resident
            // flips need no barrier either way: the dispatcher itself
            // applies them, synchronously with issuing.
            if (config.speculativeFlips)
                openSpeculation(state_);
            else
                pipelineBarrier();
        }
        enterState(next);
    }

    partition = plan_.partitionFor(api_name, type);
    if (neutral && lastPartition != kHostPartition &&
        plan_.kind() == PlanKind::ByType)
        partition = lastPartition;
    if (partition != kHostPartition && boundaryObserver_)
        boundaryObserver_(api_name, partition, args);
    return desc;
}

std::string
FreePartRuntime::lostArgumentError(const ipc::ValueList &args) const
{
    // An argument object can be gone entirely — lost with a crashed
    // agent that had neither a checkpoint of it nor a host copy. That
    // is a typed per-call failure, never a host panic.
    for (const ipc::Value &value : args)
        if (value.kind() == ipc::Value::Kind::Ref &&
            !hasObject(value.asRef().objectId))
            return "argument object " +
                   std::to_string(value.asRef().objectId) +
                   " was lost in an agent crash";
    return {};
}

osim::SimTime
FreePartRuntime::argsReadyAt(const ipc::ValueList &args,
                             osim::SimTime floor) const
{
    for (const ipc::Value &value : args) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        auto ready = objectReadyAt_.find(value.asRef().objectId);
        if (ready != objectReadyAt_.end())
            floor = std::max(floor, ready->second);
    }
    return floor;
}

ApiResult
FreePartRuntime::invokeSync(const std::string &api_name,
                            ipc::ValueList args)
{
    ApiResult result;
    uint32_t partition = kHostPartition;
    const fw::ApiDescriptor *desc =
        beginCall(api_name, args, partition, result);
    if (!desc)
        return result;
    if (partition == kHostPartition)
        return executeInHost(*desc, args);
    result = executeOnAgent(partition, *desc, args);
    lastPartition = partition;
    return result;
}

CallTicket
FreePartRuntime::invokeAsync(const std::string &api_name,
                             ipc::ValueList args)
{
    CallTicket ticket{nextTicket_++};
    PendingCall pending;
    if (!config.pipelineParallel) {
        // Gate off: execute synchronously and hand back an
        // already-completed ticket, so async call sites work
        // unchanged under serialized accounting.
        pending.result = invokeSync(api_name, std::move(args));
        pending.readyAt = kernel_.now();
        pending.issuedAt = pending.readyAt;
    } else {
        ++stats_.asyncCalls;
        dispatchPipelined(ticket.id, api_name, std::move(args),
                          pending);
    }
    pendingAsync_.emplace(ticket.id, std::move(pending));
    return ticket;
}

void
FreePartRuntime::dispatchPipelined(uint64_t ticket_id,
                                   const std::string &api_name,
                                   ipc::ValueList args,
                                   PendingCall &out)
{
    out.issuedAt = kernel_.now();
    out.readyAt = kernel_.now();
    maybeRetireSpeculation();

    uint32_t partition = kHostPartition;
    const fw::ApiDescriptor *desc =
        beginCall(api_name, args, partition, out.result);
    if (!desc)
        return;

    if (partition == kHostPartition) {
        // Host execution is its own synchronization point: the host
        // program touches the argument objects directly, so the
        // clock first catches up with their producers.
        kernel_.advance(argsReadyAt(args, kernel_.now()) -
                        kernel_.now());
        out.result = executeInHost(*desc, args);
        out.readyAt = kernel_.now();
        out.partition = kHostPartition;
        noteObjectsReady(out.result.values, out.readyAt);
        return;
    }

    Agent &agent = agents.at(partition);

    // Bounded in-flight depth: reap completions the host clock has
    // already passed; if the queue is still full, stall the
    // dispatcher until the oldest call retires.
    agent.channel->reapCompleted(kernel_.now());
    while (agent.channel->inFlightDepth() >= kMaxInFlightPerPartition) {
        osim::SimTime oldest = agent.channel->oldestInFlightDone();
        if (oldest > kernel_.now())
            kernel_.advance(oldest - kernel_.now());
        ++stats_.inFlightStalls;
        if (agent.channel->reapCompleted(kernel_.now()) == 0)
            break; // defensive: queue cannot drain further
    }

    // The task starts once the host has issued it, the agent has
    // finished its previous task, and every argument object has been
    // produced (the read set) — the object-dependency schedule.
    osim::SimTime start = argsReadyAt(
        args, std::max(kernel_.now(), kernel_.timelineOf(agent.pid)));

    // Speculative launch (§15): the call's bracket starts before a
    // deferred protection flip commits, so the data it touches may be
    // flipped read-only "underneath" it. Checkpoint the argument
    // objects (the call's read set — also its only reachable write
    // set, since in-place mutators return their inputs) so that a
    // conflicting write can be squashed byte-exactly.
    bool speculative = speculation_.active &&
                       start < speculation_.commitAt;
    std::vector<SpecCheckpoint> saved;
    uint64_t preId = idCounter;
    if (speculative) {
        ++stats_.speculationStarts;
        saved = checkpointSpecArgs(args);
    }

    // Execute eagerly (program order) inside a task bracket: every
    // nanosecond the exchange charges — marshalling, ring transfer,
    // agent compute, retries, even a restart — lands on the agent's
    // virtual timeline instead of the global clock.
    kernel_.beginTask(agent.pid, start);
    out.result = executeOnAgent(partition, *desc, args);
    lastPartition = partition;
    osim::SimTime done = kernel_.endTask();
    osim::SimTime busy = done - start;

    if (speculative) {
        if (out.result.ok && specConflict(out.result.values, saved)) {
            // Misprediction: the call wrote an object the deferred
            // flip covers. Restore the checkpointed bytes, discard
            // everything the ticket minted, and re-issue the call
            // after the flip commits. The squashed bracket's time
            // stays on the agent timeline — that work really burned —
            // and the deterministic re-execution recreates identical
            // ids and bytes, keeping replay byte-identical to the
            // synchronous schedule.
            squashSpeculativeCall(saved, preId, partition);
            osim::SimTime restart = argsReadyAt(
                args, std::max({speculation_.commitAt,
                                kernel_.timelineOf(agent.pid),
                                kernel_.now()}));
            kernel_.beginTask(agent.pid, restart);
            out.result = executeOnAgent(partition, *desc, args);
            done = kernel_.endTask();
            busy += done - restart;
            // Re-encoding the request costs the host another message.
            kernel_.advance(kernel_.costs().ipcPerMessage);
            ++stats_.speculationRollbacks;
        } else {
            ++stats_.speculationCommits;
        }
    }

    out.partition = partition;
    out.readyAt = done;
    if (partition < stats_.partitionBusyTime.size())
        stats_.partitionBusyTime[partition] += busy;

    // Conservative read/write sets: argument objects may have been
    // migrated (LDC rehoming) and results were produced — both settle
    // at the call's completion.
    noteObjectsReady(args, done);
    noteObjectsReady(out.result.values, done);

    // Issuing is not free for the host: it encoded the request into
    // the ring. One per-message charge on the real clock.
    kernel_.advance(kernel_.costs().ipcPerMessage);
    agent.channel->noteInFlight(ticket_id, done);
    stats_.inFlightPeak = std::max<uint64_t>(
        stats_.inFlightPeak, agent.channel->inFlightDepth());
}

ApiResult
FreePartRuntime::wait(CallTicket ticket)
{
    auto it = pendingAsync_.find(ticket.id);
    if (it == pendingAsync_.end()) {
        ApiResult res;
        res.error = "unknown or already-retired call ticket " +
                    std::to_string(ticket.id);
        return res;
    }
    PendingCall pending = std::move(it->second);
    pendingAsync_.erase(it);
    if (pending.readyAt > kernel_.now())
        kernel_.advance(pending.readyAt - kernel_.now());
    if (pending.partition != kHostPartition &&
        pending.partition < agents.size())
        agents[pending.partition].channel->reapCompleted(
            kernel_.now());
    return std::move(pending.result);
}

const ApiResult *
FreePartRuntime::peekResult(CallTicket ticket) const
{
    auto it = pendingAsync_.find(ticket.id);
    return it == pendingAsync_.end() ? nullptr : &it->second.result;
}

void
FreePartRuntime::drainAll()
{
    osim::SimTime target = kernel_.maxTimeline();
    for (const auto &[id, pending] : pendingAsync_)
        target = std::max(target, pending.readyAt);
    if (target > kernel_.now())
        kernel_.advance(target - kernel_.now());
    pendingAsync_.clear();
    for (Agent &agent : agents)
        agent.channel->clearInFlight();
    maybeRetireSpeculation();
}

bool
FreePartRuntime::pendingProtectionFlips(FrameworkState previous) const
{
    if (!config.enforceMemoryProtection)
        return false;
    for (const ProtectedVar &var : vars)
        if (!var.isProtected && var.definedIn == previous &&
            var.pid != hostPid_)
            return true;
    return false;
}

void
FreePartRuntime::pipelineBarrier()
{
    // Object readiness times never exceed their producer's timeline,
    // so catching the clock up to every timeline retires all
    // in-flight work.
    kernel_.syncToTimelines();
    for (Agent &agent : agents)
        agent.channel->reapCompleted(kernel_.now());
    ++stats_.pipelineBarriers;
    maybeRetireSpeculation();
}

void
FreePartRuntime::openSpeculation(FrameworkState previous)
{
    // Quiesce horizon: the flip only touches the address spaces that
    // hold unprotected vars of the outgoing state, so it can land as
    // soon as *those* timelines drain — unrelated partitions keep
    // running past it. That horizon becomes (or extends) the
    // speculation window's commit point.
    std::vector<osim::Pid> pids;
    for (const ProtectedVar &var : vars)
        if (!var.isProtected && var.definedIn == previous &&
            var.pid != hostPid_)
            pids.push_back(var.pid);
    extendSpeculation(kernel_.maxTimelineOf(pids));
}

void
FreePartRuntime::extendSpeculation(osim::SimTime commit_at)
{
    if (commit_at <= kernel_.now())
        return; // already quiesced — the flip lands immediately
    if (!speculation_.active) {
        speculation_.active = true;
        speculation_.commitAt = commit_at;
        speculation_.bornBefore = idCounter;
        stats_.recoveredBarrierTime += commit_at - kernel_.now();
        return;
    }
    // Nested pending flips extend the window monotonically, and each
    // one widens the protected set to every object minted before it:
    // the newest pending flip covers data that may have been created
    // since the window opened. Widening is conservative — a squash is
    // always safe, it only costs the re-execution.
    speculation_.bornBefore =
        std::max(speculation_.bornBefore, idCounter);
    if (commit_at > speculation_.commitAt) {
        stats_.recoveredBarrierTime +=
            commit_at - std::max(speculation_.commitAt, kernel_.now());
        speculation_.commitAt = commit_at;
    }
}

void
FreePartRuntime::maybeRetireSpeculation()
{
    if (speculation_.active && kernel_.now() >= speculation_.commitAt)
        speculation_ = SpeculationEpoch();
}

std::vector<FreePartRuntime::SpecCheckpoint>
FreePartRuntime::checkpointSpecArgs(const ipc::ValueList &args)
{
    std::vector<SpecCheckpoint> saved;
    for (const ipc::Value &value : args) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        uint64_t id = value.asRef().objectId;
        auto it = objectHome.find(id);
        if (it == objectHome.end() ||
            std::any_of(saved.begin(), saved.end(),
                        [&](const SpecCheckpoint &cp) { return cp.id == id; }))
            continue;
        uint32_t home = it->second;
        if (!ensureResident(home, id))
            continue; // unresolvable: nothing to checkpoint
        saved.push_back({id, home, storeOf(home).snapshot(id)});
    }
    return saved;
}

bool
FreePartRuntime::specConflict(const ipc::ValueList &results,
                              const std::vector<SpecCheckpoint> &saved)
{
    // Write set = result refs (in-place mutators return their input).
    // A conflict is a write to an object that predates the epoch —
    // exactly the data a deferred flip could cover — confirmed
    // byte-for-byte so an API that returns its input unchanged does
    // not count as a write.
    for (const ipc::Value &value : results) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        uint64_t id = value.asRef().objectId;
        if (id > speculation_.bornBefore)
            continue; // minted under the epoch: no flip covers it
        for (const SpecCheckpoint &cp : saved) {
            if (cp.id != id)
                continue;
            auto it = objectHome.find(id);
            if (it == objectHome.end())
                break;
            fw::ObjectStore &store = storeOf(it->second);
            if (store.has(id) && !store.matches(id, cp.snapshot))
                return true;
            break;
        }
    }
    return false;
}

void
FreePartRuntime::squashSpeculativeCall(
    const std::vector<SpecCheckpoint> &saved, uint64_t pre_id,
    uint32_t partition)
{
    // Restore every checkpointed argument whose bytes moved: the
    // squash must leave exactly the pre-speculation state. Objects
    // restore into their *current* home — an agent restart may have
    // rehomed or dropped them since the checkpoint was cut.
    for (const SpecCheckpoint &cp : saved) {
        auto it = objectHome.find(cp.id);
        if (it == objectHome.end())
            continue; // lost meanwhile: gone in both schedules
        fw::ObjectStore &store = storeOf(it->second);
        if (store.has(cp.id) && store.matches(cp.id, cp.snapshot))
            continue;
        store.restore(cp.id, cp.snapshot);
        stats_.squashedWriteBytes += cp.snapshot.size();
    }
    // Discard the ticket's effects: objects the squashed execution
    // minted stop resolving, and the id counter rewinds so the
    // re-issue mints identical ids (single-threaded eager execution
    // makes the rewind safe and keeps replay byte-identical).
    // A checkpoint cut mid-speculation may hold a minted object;
    // scrubbing it means a post-crash restore cannot resurrect a
    // squashed copy under a re-minted id.
    for (uint64_t id = pre_id + 1; id <= idCounter; ++id)
        eraseEverywhere(id);
    idCounter = pre_id;
    // The squashed exchange may have cached a response referencing
    // the discarded ids; prune it so a duplicate delivery cannot hand
    // out dangling refs before the re-issue re-mints them.
    pruneSeqCache(agents.at(partition));
}

void
FreePartRuntime::syncObjectReady(uint64_t object_id)
{
    auto it = objectReadyAt_.find(object_id);
    if (it != objectReadyAt_.end() && it->second > kernel_.now())
        kernel_.advance(it->second - kernel_.now());
}

void
FreePartRuntime::noteObjectsReady(const ipc::ValueList &values,
                                  osim::SimTime ready)
{
    for (const ipc::Value &value : values) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        osim::SimTime &slot =
            objectReadyAt_[value.asRef().objectId];
        slot = std::max(slot, ready);
    }
}

ApiResult
FreePartRuntime::executeInHost(const fw::ApiDescriptor &desc,
                               const ipc::ValueList &args)
{
    ApiResult result;
    osim::Process &host = kernel_.process(hostPid_);
    // Host execution means no agent is being exchanged with; any
    // spinning peer times out back to its futex.
    coolRpcWindow();
    // Args may reference objects living in agents (mixed plans):
    // bring them home first.
    for (const ipc::Value &value : args) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        uint64_t id = value.asRef().objectId;
        if (homeOf(id) != kHostPartition)
            transferObject(homeOf(id), kHostPartition, id, true);
    }
    fw::ExecContext ctx(kernel_, host, *hostStore_, hostDevices,
                        kHostPartition);
    switch (runApi(ctx, host, desc, args, result)) {
      case Attempt::Ok:
        registerResultHomes(kHostPartition, result.values);
        break;
      case Attempt::Transient:
        // Retryable by the caller; the host process survives.
        ++stats_.transientFaults;
        break;
      case Attempt::Crashed:
        result.agentCrashed = true;
        break;
      default:
        break;
    }
    return result;
}

FreePartRuntime::Attempt
FreePartRuntime::runApi(fw::ExecContext &ctx, osim::Process &proc,
                        const fw::ApiDescriptor &desc,
                        const ipc::ValueList &args, ApiResult &result)
{
    try {
        result.values = desc.fn(ctx, desc, args);
        result.ok = true;
        return Attempt::Ok;
    } catch (const osim::MemFault &fault) {
        ++stats_.memFaults;
        kernel_.faultProcess(proc, fault.what());
        result.error = fault.what();
    } catch (const osim::SyscallViolation &violation) {
        ++stats_.syscallDenials;
        result.error = violation.what();
    } catch (const osim::TransientFault &fault) {
        result.error = fault.what();
        return Attempt::Transient;
    } catch (const osim::ProcessCrash &crash) {
        if (proc.alive())
            kernel_.faultProcess(proc, crash.what());
        result.error = crash.what();
    } catch (const util::FatalError &error) {
        // Application-level failure (bad input, shape mismatch): the
        // process survives.
        result.error = error.what();
        return Attempt::AppError;
    }
    return Attempt::Crashed; // a memory or syscall fault, or a crash
}

ApiResult
FreePartRuntime::executeOnAgent(uint32_t partition,
                                const fw::ApiDescriptor &desc,
                                const ipc::ValueList &args)
{
    if (supervisor_.quarantined(partition))
        return quarantinedCall(partition, desc, args);

    // One sequence number per logical call; every re-delivery reuses
    // it so the dedup cache recognizes duplicates (§4.3, §4.4.2).
    uint64_t seq = nextSeq++;
    ApiResult result;
    bool crashed_once = false;
    for (uint32_t attempt = 0; attempt <= kCallRetryBudget; ++attempt) {
        if (attempt)
            ++stats_.retriedCalls;
        if (!agentAlive(partition) && !recoverAgent(partition)) {
            if (supervisor_.quarantined(partition)) {
                // When this very call's attempts crashed the agent,
                // its input is treated as hostile (a poisoned frame
                // crashing the loader is the paper's DoS case) and
                // must never fall back into the host process. Only
                // calls arriving after the quarantine degrade.
                if (crashed_once) {
                    result.ok = false;
                    result.agentCrashed = true;
                    result.quarantined = true;
                    result.error =
                        "partition " + plan_.partitionName(partition) +
                        " quarantined while executing " + desc.name +
                        "; suspect input not re-executed in host";
                    return result;
                }
                result = quarantinedCall(partition, desc, args);
                result.agentCrashed = crashed_once;
                return result;
            }
            result.ok = false;
            result.error = "agent " + plan_.partitionName(partition) +
                           " is dead";
            result.agentCrashed = crashed_once;
            return result;
        }
        // A crash on an earlier attempt may have destroyed an
        // argument object outright; re-delivery cannot succeed, so
        // fail the call typed.
        std::string lost = lostArgumentError(args);
        if (!lost.empty()) {
            result.ok = false;
            result.agentCrashed = crashed_once;
            result.error = std::move(lost);
            return result;
        }
        switch (attemptOnAgent(partition, desc, args, seq, result)) {
          case Attempt::Ok:
            supervisor_.onCallSucceeded(partition);
            result.agentCrashed = crashed_once;
            return result;
          case Attempt::AppError:
            // The agent survives an application-level failure; a
            // retry would deterministically fail the same way.
            result.agentCrashed = crashed_once;
            return result;
          case Attempt::Transient:
            ++stats_.transientFaults;
            continue;
          case Attempt::ChannelLost:
            ++stats_.channelLosses;
            continue;
          case Attempt::Crashed:
            ++stats_.agentCrashes;
            crashed_once = true;
            continue; // recoverAgent runs at the top of the loop
        }
    }
    ++stats_.retriesExhausted;
    result.ok = false;
    result.agentCrashed = crashed_once;
    result.error = "retry budget (" + std::to_string(kCallRetryBudget) +
                   ") exhausted for " + desc.name +
                   (result.error.empty() ? "" : ": " + result.error);
    return result;
}

void
FreePartRuntime::buildDeliverBatch(uint32_t partition,
                                   const ipc::ValueList &args,
                                   uint64_t seq,
                                   std::vector<ipc::Message> &batch)
{
    for (const ipc::Value &value : args) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        uint64_t id = value.asRef().objectId;
        uint32_t home = homeOf(id);
        if (home == partition) {
            // Reference pass: no data motion at all.
            ++stats_.lazyCopies;
            continue;
        }
        // LDC fetch piggybacked on the request batch (Fig. 11-(a),
        // but riding the same round trip instead of its own): the
        // object bytes are encoded straight into the ring frame.
        ensureResident(home, id);
        const fw::StoredObject &obj = storeOf(home).get(id);
        ipc::Message deliver;
        deliver.kind = ipc::MsgKind::Deliver;
        deliver.seq = seq;
        deliver.values.emplace_back(id);
        deliver.values.emplace_back(static_cast<uint64_t>(obj.kind));
        deliver.values.emplace_back(obj.label);
        deliver.values.emplace_back(storeOf(home).serialize(id));
        batch.push_back(std::move(deliver));
    }
}

void
FreePartRuntime::absorbDelivers(uint32_t partition,
                                std::vector<ipc::Message> &batch)
{
    Agent &agent = agents.at(partition);
    for (ipc::Message &msg : batch) {
        if (msg.kind != ipc::MsgKind::Deliver)
            continue;
        uint64_t id = msg.values.at(0).asU64();
        fw::ObjectSnapshot snap = fw::snapshotFromBytes(
            static_cast<fw::ObjKind>(msg.values.at(1).asU64()),
            msg.values.at(3).asBlob(), msg.values.at(2).asStr());
        agent.store->restore(id, snap);
        objectHome[id] = partition;
        // In-place rate: the bytes were never staged outside the
        // ring; one memcpy out of shared memory, no re-serialize.
        kernel_.advance(kernel_.costs().copyCostInPlace(snap.size()));
        ++stats_.directCopies;
        ++stats_.piggybackedFetches;
    }
}

void
FreePartRuntime::eraseEverywhere(uint64_t id)
{
    hostStore_->erase(id);
    objectHome.erase(id);
    objectReadyAt_.erase(id);
    for (Agent &agent : agents) {
        agent.store->erase(id);
        agent.checkpoints.erase(id);
    }
}

void
FreePartRuntime::evictObject(uint64_t object_id)
{
    evictObjects({object_id});
}

size_t
FreePartRuntime::evictObjects(const std::vector<uint64_t> &object_ids)
{
    size_t dropped = 0;
    for (uint64_t id : object_ids) {
        if (hasObject(id))
            ++dropped;
        // Settle any in-flight producer first: the cluster layer is
        // about to serialize the bytes out of this runtime. Scrubbing
        // the checkpoints too means a post-crash restore cannot
        // resurrect a stale copy of data that now lives (and
        // mutates) in another runtime.
        syncObjectReady(id);
        eraseEverywhere(id);
    }
    // Cached responses referencing an evicted object would hand out
    // a dangling ref on a dedup hit; one sweep per agent covers every
    // erased id.
    for (Agent &agent : agents)
        pruneSeqCache(agent);
    return dropped;
}

osim::SimTime
FreePartRuntime::sessionColdStartCost() const
{
    return kernel_.costs().processSpawn *
           static_cast<osim::SimTime>(1 + agents.size());
}

osim::SimTime
FreePartRuntime::sessionWarmHandoffCost() const
{
    return kernel_.costs().processPromote;
}

osim::SimTime
FreePartRuntime::sessionEpochResetCost() const
{
    return kernel_.costs().agentEpochReset *
           static_cast<osim::SimTime>(agents.size());
}

FreePartRuntime::Attempt
FreePartRuntime::attemptOnAgent(uint32_t partition,
                                const fw::ApiDescriptor &desc,
                                const ipc::ValueList &args,
                                uint64_t seq, ApiResult &result)
{
    Agent &agent = agents.at(partition);
    result = ApiResult();

    // Hot window: the last ring exchange was with this partition, so
    // its agent is still busy-polling the request ring (and we will
    // busy-poll the response ring) — both futex wakes are skipped for
    // the whole exchange.
    bool hot = config.batchedRpc && hotPartition_ == partition;

    // Host -> agent request over the shared-memory channel, batched
    // with any piggybacked LDC object deliveries.
    std::vector<ipc::Message> batch;
    if (config.lazyDataCopy && config.batchedRpc)
        buildDeliverBatch(partition, args, seq, batch);
    else
        ensureArgsMaterialized(partition, args);
    ipc::Message request;
    request.kind = ipc::MsgKind::Request;
    request.seq = seq;
    request.apiId = desc.id;
    request.values = args;
    batch.push_back(std::move(request));
    agent.channel->sendRequestBatch(batch, hot);
    ++stats_.ipcMessages; // the Request; Delivers ride along
    if (hot)
        ++stats_.hotSends;

    std::vector<ipc::Message> incomingBatch;
    if (!agent.channel->receiveRequestBatch(incomingBatch)) {
        // The agent never woke up; the next exchange starts cold.
        coolRpcWindow();
        result.error = "request lost on channel to " +
                       plan_.partitionName(partition);
        return Attempt::ChannelLost;
    }
    stats_.bytesTransferred += ipc::batchWireSize(incomingBatch);
    absorbDelivers(partition, incomingBatch);
    ipc::Message incoming;
    bool have_request = false;
    for (ipc::Message &msg : incomingBatch) {
        if (msg.kind == ipc::MsgKind::Deliver)
            continue;
        incoming = std::move(msg);
        have_request = true;
    }
    if (!have_request)
        util::fatal("runtime: request batch without a Request frame");

    // At-least-once dedup: a duplicate sequence number returns the
    // cached response without re-executing the API (§4.3 "FreePart as
    // RPC"). A re-delivered request that is NOT in the cache (the
    // crash interrupted its first execution) re-executes — for
    // stateful APIs this is the paper's accepted double-execution.
    const ipc::ValueList *cached = agent.seqCache.find(incoming.seq);
    bool from_cache = cached != nullptr;
    if (from_cache) {
        ++stats_.dedupHits;
        result.values = *cached;
        result.ok = true;
    } else {
        osim::Process &proc = kernel_.process(agent.pid);
        if (kernel_.queryFault(osim::FaultPoint::AgentCall,
                               agent.pid) ==
            osim::FaultAction::Crash) {
            kernel_.faultProcess(proc,
                                 "injected: crash during " + desc.name);
            result.error = "injected: crash during " + desc.name;
            coolRpcWindow();
            return Attempt::Crashed;
        }
        fw::ExecContext ctx(kernel_, proc, *agent.store,
                            agent.devices, partition);
        Attempt ran = runApi(ctx, proc, desc, incoming.values, result);
        if (ran == Attempt::Crashed)
            coolRpcWindow();
        if (ran == Attempt::Crashed || ran == Attempt::Transient)
            return ran;

        if (result.ok) {
            agent.executedApis.insert(desc.name);
            registerResultHomes(partition, result.values);
            if (!config.lazyDataCopy) {
                // Without LDC every result object is copied back
                // through the host immediately (Fig. 11-(b)).
                for (const ipc::Value &value : result.values) {
                    if (value.kind() != ipc::Value::Kind::Ref)
                        continue;
                    uint64_t id = value.asRef().objectId;
                    if (homeOf(id) != kHostPartition)
                        transferObject(partition, kHostPartition, id,
                                       true);
                }
            } else {
                // LDC: results stay put; the host gets references.
                for (const ipc::Value &value : result.values)
                    if (value.kind() == ipc::Value::Kind::Ref)
                        ++stats_.lazyCopies;
            }
            stats_.dedupEvictions +=
                agent.seqCache.insert(incoming.seq, result.values);
        }
    }

    // Agent -> host response. One shared path for cached and fresh
    // executions, so loss handling and byte accounting never diverge.
    // The host has been busy-polling the response ring since the send,
    // so the response rides the same hot window as the request.
    ipc::Message response;
    response.kind = ipc::MsgKind::Response;
    response.seq = incoming.seq;
    response.status = result.ok ? 0 : 1;
    response.values = result.values;
    agent.channel->sendResponseBatch({response}, hot);
    ++stats_.ipcMessages;
    std::vector<ipc::Message> doneBatch;
    if (!agent.channel->receiveResponseBatch(doneBatch)) {
        // The API may have executed; the cached seq makes the retry a
        // dedup hit instead of a re-execution.
        coolRpcWindow();
        result.error = "response lost on channel from " +
                       plan_.partitionName(partition);
        return Attempt::ChannelLost;
    }
    stats_.bytesTransferred += ipc::batchWireSize(doneBatch);
    // A complete exchange keeps both sides spinning briefly: the next
    // call to this partition (if it comes right away) starts hot.
    hotPartition_ = partition;

    if (!from_cache) {
        // Checkpoint stateful state periodically (A.2.4).
        if (++agent.callsSinceCheckpoint >= kCheckpointInterval) {
            checkpointAgent(partition);
            agent.callsSinceCheckpoint = 0;
        }
        maybeAutoLockdown(agent);
    }
    return result.ok ? Attempt::Ok : Attempt::AppError;
}

bool
FreePartRuntime::recoverAgent(uint32_t partition)
{
    if (!config.restartAgents)
        return false;
    // Each failed respawn is itself a crash: it lands in the sliding
    // window and consumes a restart attempt, so a flapping partition
    // converges to quarantine instead of retrying forever.
    while (supervisor_.onCrash(partition)) {
        supervisor_.chargeBackoff(partition);
        bool up = restartAgent(partition);
        supervisor_.onRestartAttempt(partition, up);
        if (up)
            return true;
    }
    return false;
}

ApiResult
FreePartRuntime::quarantinedCall(uint32_t partition,
                                 const fw::ApiDescriptor &desc,
                                 const ipc::ValueList &args)
{
    if (!desc.stateful) {
        // Graceful degradation: run the API in the host process, the
        // baseline no-isolation path. Protection is reduced for this
        // call, but the application keeps making progress. Arguments
        // that died with the quarantined agent fail the call typed.
        ApiResult result;
        result.quarantined = true;
        result.error = lostArgumentError(args);
        if (!result.error.empty())
            return result;
        ++stats_.hostFallbackCalls;
        result = executeInHost(desc, args);
        result.quarantined = true;
        return result;
    }
    // Stateful APIs cannot fall back (their agent-side state is the
    // whole point); fail fast with a typed error.
    ++stats_.statefulFastFails;
    ApiResult result;
    result.quarantined = true;
    result.error = "partition " + plan_.partitionName(partition) +
                   " is quarantined; stateful API " + desc.name +
                   " fails fast";
    return result;
}

void
FreePartRuntime::checkpointAgent(uint32_t partition)
{
    Agent &agent = agents.at(partition);
    if (!agentAlive(partition))
        return;

    osim::FaultAction action =
        kernel_.queryFault(osim::FaultPoint::Checkpoint, agent.pid);
    if (action == osim::FaultAction::Crash) {
        kernel_.faultProcess(kernel_.process(agent.pid),
                             "injected: crash during checkpoint");
        return;
    }
    CheckpointWrite written =
        agent.checkpoints.write(*agent.store, action, kernel_.faultInjector());
    if (!written.taken)
        return; // skipped; the old checkpoints remain
    stats_.checkpointBytesSaved += written.bytesSaved;
    ++stats_.checkpointsTaken;
}

bool
FreePartRuntime::restartAgent(uint32_t partition)
{
    Agent &agent = agents.at(partition);
    if (!config.restartAgents)
        return false;
    if (config.backgroundRestart) {
        // Background restart: promote the pre-spawned warm standby
        // instead of forking on the critical path. If a crash arrives
        // before the standby finished its background spawn, wait out
        // the remainder — by construction never longer than a cold
        // restart. Queued callers resume when the promotion lands.
        osim::SimTime wait = supervisor_.consumeStandby(partition);
        if (wait) {
            kernel_.advance(wait);
            stats_.standbyWaitTime += wait;
        }
        kernel_.promote(agent.pid);
        ++stats_.standbyPromotions;
        supervisor_.noteRestartCharge(
            wait + kernel_.costs().processPromote);
    } else {
        kernel_.respawn(agent.pid);
        supervisor_.noteRestartCharge(
            kernel_.costs().processRestart);
    }
    ++stats_.agentRestarts;
    coolRpcWindow();
    // Fresh address space: clear the store, re-map the channel,
    // reopen devices lazily, reinstall the policy (the new
    // incarnation re-runs its initialization, A.2.4).
    agent.store->clear();
    agent.devices = fw::DeviceFds();
    agent.channel->remapInto(agent.pid);
    agent.executedApis.clear();
    agent.callsSinceCheckpoint = 0;
    if (config.restrictSyscalls)
        installPolicy(agent);
    osim::Process &proc = kernel_.process(agent.pid);
    // An injected respawn fault leaves the incarnation stillborn.
    bool up = proc.alive();
    if (up && kernel_.queryFault(osim::FaultPoint::Restore,
                                 agent.pid) ==
                  osim::FaultAction::Crash) {
        kernel_.faultProcess(
            proc, "injected: crash during checkpoint restore");
        up = false;
    }
    if (up) {
        // Restore from the newest restorable checkpoint; every newer
        // generation with a corrupt entry is skipped (one fallback
        // each). Values newer than the chosen checkpoint are
        // intentionally NOT restored (§6 "Restoring States of Crashed
        // Process"). An object that moved on to a store still holding
        // it keeps that home: its checkpointed bytes are older.
        CheckpointRestore restore = agent.checkpoints.restoreSet();
        if (restore.skipped > 0) {
            stats_.checkpointFallbacks += restore.skipped;
            util::inform("runtime: %zu corrupt checkpoint(s) for "
                         "partition %u skipped at restore",
                         restore.skipped, partition);
        }
        for (const auto &[id, snap] : restore.objects) {
            restoreCheckpointed(agent, id, *snap);
            auto home = objectHome.find(id);
            if (home == objectHome.end() || home->second == partition ||
                !storeOf(home->second).has(id))
                objectHome[id] = partition;
        }
    }
    // Objects whose authoritative copy died with the old incarnation
    // fall back to a stale copy elsewhere — the host's if it has one,
    // else any live agent still holding one from an earlier LDC
    // transfer. Only an object with no copy anywhere is gone (the
    // paper's accepted state discrepancy). This runs even when the
    // fresh incarnation is itself dead, so the home map never points
    // at a cleared store.
    std::vector<uint64_t> lost;
    for (auto &[id, home] : objectHome) {
        if (home != partition || agent.store->has(id))
            continue;
        if (hostStore_->has(id)) {
            home = kHostPartition;
            continue;
        }
        auto other = std::find_if(
            agents.begin(), agents.end(), [&](const Agent &a) {
                return a.partition != partition && a.store->has(id) &&
                       agentAlive(a.partition);
            });
        // Else, when the bulk restore above did not run (the fresh
        // incarnation is itself dead), the agent's checkpoints may
        // still vouch for the object: rebuild it eagerly so it keeps
        // resolving (hasObject).
        if (other != agents.end())
            home = other->partition;
        else if (!ensureResident(partition, id))
            lost.push_back(id);
    }
    for (uint64_t id : lost)
        objectHome.erase(id);
    // The dedup cache is host-side state and survives the restart
    // (the at-least-once contract needs it to), but cached responses
    // whose object refs no longer resolve are dropped.
    pruneSeqCache(agent);
    return up && proc.alive();
}

size_t
FreePartRuntime::seqCacheSize(uint32_t partition) const
{
    return agents.at(partition).seqCache.size();
}

void
FreePartRuntime::pruneSeqCache(Agent &agent)
{
    agent.seqCache.pruneIf([this](const ipc::ValueList &values) {
        for (const ipc::Value &value : values) {
            if (value.kind() != ipc::Value::Kind::Ref)
                continue;
            if (!objectHome.count(value.asRef().objectId))
                return true; // dead ref: drop the cached response
        }
        return false;
    });
}

} // namespace freepart::core
