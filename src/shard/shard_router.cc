#include "shard/shard_router.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "util/logging.hh"

namespace freepart::shard {

namespace {

/** Sum one shard's runtime counters into the cluster roll-up.
 *  Time-window fields (startTime/endTime) stay per-shard — the
 *  cluster aggregates them as makespan, not a sum. */
void
accumulate(core::RunStats &into, const core::RunStats &s)
{
    into.apiCalls += s.apiCalls;
    into.ipcMessages += s.ipcMessages;
    into.bytesTransferred += s.bytesTransferred;
    into.lazyCopies += s.lazyCopies;
    into.directCopies += s.directCopies;
    into.eagerCopies += s.eagerCopies;
    into.piggybackedFetches += s.piggybackedFetches;
    into.hotSends += s.hotSends;
    into.protectionFlips += s.protectionFlips;
    into.stateChanges += s.stateChanges;
    into.agentCrashes += s.agentCrashes;
    into.agentRestarts += s.agentRestarts;
    into.retriedCalls += s.retriedCalls;
    into.memFaults += s.memFaults;
    into.syscallDenials += s.syscallDenials;
    into.transientFaults += s.transientFaults;
    into.channelLosses += s.channelLosses;
    into.dedupHits += s.dedupHits;
    into.dedupEvictions += s.dedupEvictions;
    into.retriesExhausted += s.retriesExhausted;
    into.quarantines += s.quarantines;
    into.hostFallbackCalls += s.hostFallbackCalls;
    into.statefulFastFails += s.statefulFastFails;
    into.checkpointsTaken += s.checkpointsTaken;
    into.checkpointBytesSaved += s.checkpointBytesSaved;
    into.checkpointBytesRestored += s.checkpointBytesRestored;
    into.checkpointFallbacks += s.checkpointFallbacks;
    into.standbyPromotions += s.standbyPromotions;
    into.standbyWaitTime += s.standbyWaitTime;
    into.recoveries += s.recoveries;
    into.recoveryTime += s.recoveryTime;
    into.backoffTime += s.backoffTime;
    into.asyncCalls += s.asyncCalls;
    into.pipelineBarriers += s.pipelineBarriers;
    into.inFlightStalls += s.inFlightStalls;
    into.inFlightPeak = std::max(into.inFlightPeak, s.inFlightPeak);
    into.checkpointSourcedRestores += s.checkpointSourcedRestores;
    into.speculationStarts += s.speculationStarts;
    into.speculationCommits += s.speculationCommits;
    into.speculationRollbacks += s.speculationRollbacks;
    into.squashedWriteBytes += s.squashedWriteBytes;
    into.speculativeFetches += s.speculativeFetches;
    into.recoveredBarrierTime += s.recoveredBarrierTime;
    if (into.partitionBusyTime.size() < s.partitionBusyTime.size())
        into.partitionBusyTime.resize(s.partitionBusyTime.size(), 0);
    for (size_t p = 0; p < s.partitionBusyTime.size(); ++p)
        into.partitionBusyTime[p] += s.partitionBusyTime[p];
    into.criticalPathMakespan =
        std::max(into.criticalPathMakespan, s.criticalPathMakespan);
}

} // namespace

const char *
routeErrorName(RouteError error)
{
    switch (error) {
      case RouteError::None:
        return "none";
      case RouteError::NoLiveShards:
        return "no-live-shards";
      case RouteError::ObjectLost:
        return "object-lost";
      case RouteError::Overloaded:
        return "overloaded";
      case RouteError::DeadlineExceeded:
        return "deadline-exceeded";
      case RouteError::ExecutionFailed:
        return "execution-failed";
      case RouteError::RetriesExhausted:
        return "retries-exhausted";
    }
    return "?";
}

ShardRouter::ShardRouter(const fw::ApiRegistry &registry,
                         analysis::Categorization categorization,
                         core::PartitionPlan plan,
                         ShardRouterConfig config_in, SeedFn seed)
    : registry(registry), cats(std::move(categorization)),
      plan_(std::move(plan)), config(std::move(config_in)),
      ring_(kVnodesPerShard), dedup_(config.dedupEntries),
      seed_(std::move(seed)), monitor_(0)
{
    // Reject configurations whose only possible behavior is silent
    // data loss, a guaranteed stall, or a div-by-zero downstream.
    if (config.dedupEntries == 0)
        util::fatal("ShardRouterConfig: dedupEntries must be >= 1 "
                    "(at-least-once failover needs the cluster cache)");
    if (config.migrationMaxBytes == 0 && !config.replicateObjects)
        util::fatal("ShardRouterConfig: migrationMaxBytes 0 with "
                    "replicateObjects off makes every cross-shard "
                    "input unrecoverable after a shard loss");
    if (config.repartitionEveryCalls > 0 &&
        config.placementPolicy != PlacementPolicy::Optimized)
        util::fatal("ShardRouterConfig: repartitionEveryCalls needs "
                    "placementPolicy Optimized (the Hash policy never "
                    "re-partitions)");

    if (config.shardCount == 0)
        config.shardCount = 1;
    shards_.reserve(config.shardCount);
    for (uint32_t s = 0; s < config.shardCount; ++s) {
        Shard shard;
        shard.id = s;
        bootShard(shard, seed_);
        ring_.addShard(s);
        shards_.push_back(std::move(shard));
        monitor_.addShard(0);
        busyUntil_.push_back(0);
        stalledUntil_.push_back(0);
        monitorDrained_.push_back(0);
    }
}

ShardRouter::~ShardRouter() = default;

void
ShardRouter::bootShard(Shard &shard, const SeedFn &seed)
{
    // Tear down any old incarnation before its kernel: the runtime
    // (and its object stores) unmap through the kernel on
    // destruction, so the kernel must outlive it.
    shard.runtime.reset();
    shard.kernel = std::make_unique<osim::Kernel>();
    if (seed)
        seed(*shard.kernel);
    core::RuntimeConfig rc = config.runtime;
    // Namespace s+1: every shard mints from disjoint high bits, and
    // namespace 0 (an unconfigured standalone runtime) can never
    // alias a cluster id.
    rc.shardId = shard.id + 1;
    shard.runtime = std::make_unique<core::FreePartRuntime>(
        *shard.kernel, registry, cats, plan_, rc);
    uint32_t id = shard.id;
    shard.runtime->supervisor().setCrashListener(
        [this, id](uint32_t) { monitor_.recordCrash(id); });
}

uint32_t
ShardRouter::shardCount() const
{
    return static_cast<uint32_t>(shards_.size());
}

size_t
ShardRouter::liveShardCount() const
{
    size_t live = 0;
    for (const Shard &shard : shards_)
        if (shard.live && ring_.contains(shard.id))
            ++live;
    return live;
}

bool
ShardRouter::shardLive(uint32_t shard) const
{
    return shards_.at(shard).live;
}

uint32_t
ShardRouter::ownerShardOf(uint64_t routing_key) const
{
    auto it = override_.find(routing_key);
    if (it != override_.end()) {
        uint32_t shard = it->second;
        // An override whose target is dead or drained is bypassed
        // (ring fallback) but kept: it re-applies when the shard
        // rejoins, and reviveShard's proactive push restores the
        // group's objects there.
        if (shard < shards_.size() && shards_[shard].live &&
            ring_.contains(shard))
            return shard;
    }
    return ring_.ownerOf(routing_key);
}

core::FreePartRuntime &
ShardRouter::runtime(uint32_t shard)
{
    return *shards_.at(shard).runtime;
}

osim::Kernel &
ShardRouter::kernel(uint32_t shard)
{
    return *shards_.at(shard).kernel;
}

uint32_t
ShardRouter::homeShardOf(uint64_t object_id) const
{
    auto it = objectShard_.find(object_id);
    if (it != objectShard_.end())
        return it->second;
    // Lazy adoption: the object was minted by direct runtime access
    // (createHostMat on a runtime handle, a test fixture, ...).
    for (const Shard &shard : shards_) {
        if (shard.live && shard.runtime->hasObject(object_id)) {
            objectShard_[object_id] = shard.id;
            return shard.id;
        }
    }
    return kInvalidShard;
}

void
ShardRouter::killShard(uint32_t shard_id)
{
    Shard &shard = shards_.at(shard_id);
    if (!shard.live)
        return;
    shard.live = false;
    ring_.removeShard(shard_id);
    ++stats_.shardsKilled;
    util::inform("cluster: shard %u killed; %zu shards remain in ring",
                 shard_id, ring_.shardCount());
}

void
ShardRouter::drainShard(uint32_t shard_id)
{
    if (!ring_.contains(shard_id))
        return;
    ring_.removeShard(shard_id);
    ++stats_.shardsDrained;
    util::inform("cluster: shard %u drained; %zu shards remain in ring",
                 shard_id, ring_.shardCount());
}

bool
ShardRouter::checkShardHealth(uint32_t shard_id)
{
    Shard &shard = shards_.at(shard_id);
    bool wasInRing = ring_.contains(shard_id);
    if (!shard.runtime->hostAlive()) {
        killShard(shard_id);
        return wasInRing;
    }
    if (shard.runtime->supervisor().quarantinedCount() >=
        kDrainQuarantineThreshold) {
        drainShard(shard_id);
        return wasInRing;
    }
    return false;
}

void
ShardRouter::migrateObject(uint32_t from, uint32_t to,
                           uint64_t object_id)
{
    if (from == to)
        return;
    Shard &src = shards_.at(from);
    Shard &dst = shards_.at(to);
    core::FreePartRuntime &srcRt = *src.runtime;
    fw::ObjectSnapshot snap =
        srcRt.storeOf(srcRt.homeOf(object_id)).snapshot(object_id);
    // Source pays the serialize; destination pays the network hop.
    // The two shards run on separate simulated kernels, so each side's
    // clock advances by its own share.
    src.kernel->advance(src.kernel->costs().copyCost(snap.size()));
    dst.kernel->advance(transferCost(to, snap.size()));
    dst.runtime->hostStore().restore(object_id, snap);
    // Exactly one shard stays authoritative: stale copies on the
    // source stop resolving (and its dedup caches drop responses that
    // referenced the object).
    srcRt.evictObject(object_id);
    objectShard_[object_id] = to;
    ++stats_.migrations;
    stats_.migratedBytes += snap.size();
}

bool
ShardRouter::copyReplica(uint32_t to, uint64_t object_id)
{
    auto it = replicas_.find(object_id);
    if (it == replicas_.end())
        return false;
    Shard &dst = shards_.at(to);
    dst.kernel->advance(transferCost(to, it->second.size()));
    dst.runtime->hostStore().restore(object_id, it->second);
    return true;
}

bool
ShardRouter::restoreReplica(uint32_t to, uint64_t object_id)
{
    if (!copyReplica(to, object_id))
        return false;
    objectShard_[object_id] = to;
    ++stats_.replicaRestores;
    return true;
}

bool
ShardRouter::stageReplicaRead(uint32_t to, uint64_t object_id)
{
    if (shards_.at(to).runtime->hasObject(object_id))
        return true;
    // Deliberately NOT moving authority: the directory keeps pointing
    // at the primary copy; this shard serves from a possibly stale
    // replica snapshot (the hedged/degraded read contract).
    if (!copyReplica(to, object_id))
        return false;
    ++stats_.replicaStaleReads;
    return true;
}

osim::SimTime
ShardRouter::transferCost(uint32_t dest, size_t bytes)
{
    osim::SimTime send =
        kNetRoundTrip +
        static_cast<osim::SimTime>(kNetPerByte * static_cast<double>(bytes));
    if (!chaos_)
        return send;
    osim::SimTime extra = 0;
    // A dropped or corrupted transfer costs a wasted send and gets
    // retried; stop re-rolling after a few so even a 100%-drop plan
    // terminates (the transfer then just goes through expensive).
    for (int attempt = 0; attempt < 4; ++attempt) {
        osim::FaultFire fire = chaos_->queryFire(
            osim::FaultPoint::ClusterTransfer,
            static_cast<osim::Pid>(dest + 1));
        if (fire.action == osim::FaultAction::Transient) {
            ++stats_.messagesDropped;
            extra += send;
            continue;
        }
        if (fire.action == osim::FaultAction::Corrupt) {
            // Checksummed framing: the receiver detects the flip and
            // asks for a resend, same cost shape as a drop.
            ++stats_.messagesCorrupted;
            extra += send;
            continue;
        }
        if (fire.action == osim::FaultAction::SlowDown &&
            fire.slowFactor > 1.0)
            extra += static_cast<osim::SimTime>(
                static_cast<double>(send) * (fire.slowFactor - 1.0));
        break;
    }
    return send + extra;
}

void
ShardRouter::saveReplica(uint32_t shard_id, uint64_t object_id)
{
    fw::ObjectStore *store = liveStoreOf(shard_id, object_id);
    if (!store)
        return;
    fw::ObjectSnapshot replica = store->snapshot(object_id);
    // Capture rides the result path while the data is hot: in-place
    // copy rate, charged to the owning shard.
    osim::Kernel &kernel = *shards_[shard_id].kernel;
    kernel.advance(kernel.costs().copyCostInPlace(replica.size()));
    auto it = replicas_.find(object_id);
    if (it != replicas_.end())
        stats_.replicaBytes -= it->second.size();
    stats_.replicaBytes += replica.size();
    replicas_[object_id] = std::move(replica);
    ++stats_.replicaSaves;
}

void
ShardRouter::noteResults(uint32_t shard_id, uint64_t routing_key,
                         const ipc::ValueList &values)
{
    for (const ipc::Value &value : values) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        uint64_t id = value.asRef().objectId;
        objectShard_[id] = shard_id;
        objectKey_[id] = routing_key;
        if (config.replicateObjects)
            saveReplica(shard_id, id);
    }
}

uint64_t
ShardRouter::createMat(uint64_t routing_key, uint32_t rows,
                       uint32_t cols, uint32_t ch, uint64_t seed,
                       const std::string &label)
{
    uint32_t owner = ownerShardOf(routing_key);
    if (owner == kInvalidShard)
        util::panic("createMat: no live shards in the ring");
    Shard &shard = shards_.at(owner);
    uint64_t id =
        shard.runtime->createHostMat(rows, cols, ch, seed, label);
    objectShard_[id] = owner;
    objectKey_[id] = routing_key;
    if (config.replicateObjects)
        saveReplica(owner, id);
    return id;
}

void
ShardRouter::drainAll()
{
    for (Shard &shard : shards_)
        if (shard.live)
            shard.runtime->drainAll();
}

void
ShardRouter::proactivePush(uint32_t target)
{
    // Proactive push: keys whose ring slot remapped to the joiner get
    // their objects sent over now, while the join is the only traffic,
    // instead of as a first-touch migration stall inside some later
    // call. Large objects still move lazily (or draw the call to
    // themselves via the proxy path).
    std::vector<std::pair<uint64_t, uint64_t>> snapshot(
        objectKey_.begin(), objectKey_.end());
    for (const auto &[object_id, routing_key] : snapshot) {
        if (ownerShardOf(routing_key) != target)
            continue;
        uint32_t owner = homeShardOf(object_id);
        if (owner == target)
            continue;
        fw::ObjectStore *store = liveStoreOf(owner, object_id);
        if (!store)
            continue;
        size_t bytes = store->get(object_id).byteLen;
        if (bytes > config.migrationMaxBytes)
            continue;
        migrateObject(owner, target, object_id);
        ++stats_.proactivePushes;
        stats_.proactivePushBytes += bytes;
    }
}

uint32_t
ShardRouter::addShard(SeedFn seed)
{
    uint32_t id = static_cast<uint32_t>(shards_.size());
    Shard shard;
    shard.id = id;
    bootShard(shard, seed);
    shards_.push_back(std::move(shard));
    ring_.addShard(id);
    ++stats_.shardsJoined;
    monitor_.addShard(0);
    busyUntil_.push_back(0);
    stalledUntil_.push_back(0);
    monitorDrained_.push_back(0);

    proactivePush(id);
    util::inform("cluster: shard %u joined; %zu shards in ring, "
                 "%llu objects pushed",
                 id, ring_.shardCount(),
                 static_cast<unsigned long long>(
                     stats_.proactivePushes));
    return id;
}

void
ShardRouter::reviveShard(uint32_t shard_id)
{
    Shard &shard = shards_.at(shard_id);
    if (shard.live && ring_.contains(shard_id))
        return;
    if (!shard.live) {
        // Host death: the old incarnation's stores are gone. Scrub
        // directory entries still pointing at it so staging falls
        // through to replicas, then bring up a fresh incarnation on
        // the same slot (same id namespace).
        for (auto it = objectShard_.begin();
             it != objectShard_.end();) {
            if (it->second == shard_id)
                it = objectShard_.erase(it);
            else
                ++it;
        }
        bootShard(shard, seed_);
        shard.live = true;
    }
    // A drained shard keeps its runtime (and its objects); either way
    // the slot re-enters the ring with a clean health history.
    shard.retired = false;
    if (!ring_.contains(shard_id))
        ring_.addShard(shard_id);
    stalledUntil_[shard_id] = 0;
    monitorDrained_[shard_id] = 0;
    monitor_.reset(shard_id, busyUntil_[shard_id]);
    ++stats_.shardsRejoined;
    proactivePush(shard_id);
    util::inform("cluster: shard %u rejoined; %zu shards in ring",
                 shard_id, ring_.shardCount());
}

bool
ShardRouter::retireShard(uint32_t shard_id)
{
    Shard &shard = shards_.at(shard_id);
    if (!shard.live || !ring_.contains(shard_id))
        return false;
    if (ring_.shardCount() <= 1)
        return false; // never retire the last serving shard

    // Leave the ring first so placeKey resolves the evacuation
    // targets among the survivors.
    ring_.removeShard(shard_id);

    // Scrub overrides before evacuating: an overridden group must
    // evacuate to its ring fallback, and the override table must not
    // steer keys back here if the slot is later revived for scale-up
    // (contrast killShard, whose overrides deliberately survive so a
    // rebuilt host picks its load back up).
    for (auto it = override_.begin(); it != override_.end();) {
        if (it->second == shard_id) {
            it = override_.erase(it);
            ++stats_.overridesScrubbed;
        } else {
            ++it;
        }
    }

    // Evacuate every object this shard still owns so no acknowledged
    // result is lost: serializable copies migrate (authority moves,
    // source evicts), checkpoint-only stragglers restore from their
    // replica on the new owner, anything else just drops out of the
    // directory.
    std::vector<uint64_t> owned;
    for (const auto &[object_id, owner] : objectShard_)
        if (owner == shard_id)
            owned.push_back(object_id);
    std::set<uint64_t> lostIds;
    for (uint64_t id : owned) {
        auto keyIt = objectKey_.find(id);
        uint64_t key = keyIt != objectKey_.end() ? keyIt->second : id;
        uint32_t dest = ownerShardOf(key);
        if (dest == kInvalidShard || dest == shard_id) {
            objectShard_.erase(id);
            lostIds.insert(id);
            continue;
        }
        if (liveStoreOf(shard_id, id)) {
            migrateObject(shard_id, dest, id);
            ++stats_.retireEvacuations;
            continue;
        }
        objectShard_.erase(id);
        if (restoreReplica(dest, id))
            ++stats_.retireEvacuations;
        else
            lostIds.insert(id);
    }

    // Dedup scrub, scoped to this retirement's casualties: a cached
    // response referencing an object the retirement could not
    // evacuate must not answer a late duplicate with a dangling ref —
    // prune it so the duplicate re-executes. Entries whose objects
    // were scrubbed *deliberately* (endSession) stay: those must keep
    // answering `deduped`, and dedup hits never dereference refs.
    if (!lostIds.empty()) {
        uint64_t pruned = 0;
        dedup_.pruneIf([&lostIds,
                        &pruned](const ipc::ValueList &values) {
            for (const ipc::Value &value : values) {
                if (value.kind() == ipc::Value::Kind::Ref &&
                    lostIds.count(value.asRef().objectId) != 0) {
                    ++pruned;
                    return true;
                }
            }
            return false;
        });
        stats_.dedupScrubbed += pruned;
    }

    // The slot keeps its (now empty) runtime frozen — stats() still
    // rolls it up, and reviveShard can bring a fresh incarnation back
    // for scale-up.
    shard.live = false;
    shard.retired = true;
    stalledUntil_[shard_id] = 0;
    monitorDrained_[shard_id] = 0;
    ++stats_.shardsRetired;
    util::inform("cluster: shard %u retired; %zu shards remain in "
                 "ring, %llu objects evacuated",
                 shard_id, ring_.shardCount(),
                 static_cast<unsigned long long>(
                     stats_.retireEvacuations));
    return true;
}

bool
ShardRouter::shardRetired(uint32_t shard) const
{
    return shard < shards_.size() && shards_[shard].retired;
}

void
ShardRouter::chargeSessionStart(uint64_t routing_key,
                                osim::SimTime arrival,
                                osim::SimTime cost, bool warm)
{
    uint32_t owner = ownerShardOf(routing_key);
    ++stats_.sessionsStarted;
    if (warm)
        ++stats_.warmCheckouts;
    else
        ++stats_.coldStarts;
    stats_.sessionStartCost += cost;
    if (owner == kInvalidShard)
        return;
    // The session's first call queues behind its own agent
    // acquisition, exactly as it would behind real process spawns.
    busyUntil_[owner] = std::max(busyUntil_[owner], arrival) + cost;
    shards_.at(owner).kernel->advance(cost);
}

size_t
ShardRouter::endSession(uint64_t routing_key)
{
    // Collect the session's objects per owning shard so each runtime
    // gets one bulk eviction pass.
    std::map<uint32_t, std::vector<uint64_t>> perShard;
    std::vector<uint64_t> ids;
    for (const auto &[object_id, key] : objectKey_) {
        if (key != routing_key)
            continue;
        ids.push_back(object_id);
        auto it = objectShard_.find(object_id);
        if (it != objectShard_.end() && it->second < shards_.size() &&
            shards_[it->second].live)
            perShard[it->second].push_back(object_id);
    }
    for (const auto &[shard_id, objects] : perShard)
        shards_[shard_id].runtime->evictObjects(objects);
    for (uint64_t id : ids) {
        objectShard_.erase(id);
        objectKey_.erase(id);
        auto it = replicas_.find(id);
        if (it != replicas_.end()) {
            stats_.replicaBytes -= it->second.size();
            replicas_.erase(it);
        }
    }
    // Cluster-dedup entries for the session's tokens are deliberately
    // NOT pruned: a late duplicate must answer `deduped` rather than
    // re-execute against freed state. Dedup hits never dereference
    // the cached refs, so they stay safe after the scrub.
    ++stats_.sessionsEnded;
    stats_.sessionObjectsScrubbed += ids.size();
    return ids.size();
}

double
ShardRouter::queueDepthAt(uint32_t shard, osim::SimTime now) const
{
    if (shard >= shards_.size() || !shards_[shard].live ||
        !ring_.contains(shard))
        return 0.0;
    osim::SimTime busy =
        std::max(busyUntil_[shard], stalledUntil_[shard]);
    if (busy <= now)
        return 0.0;
    osim::SimTime serviceEst =
        std::max(monitor_.latencyEwma(shard), kLatencyBaselineFloor);
    return static_cast<double>(busy - now) /
           static_cast<double>(std::max<osim::SimTime>(serviceEst, 1));
}

void
ShardRouter::applyChaosSchedule(const ChaosSchedule &plan)
{
    chaos_ = std::make_unique<osim::FaultInjector>(plan.seed);
    for (const osim::FaultSpec &spec : plan.specs)
        chaos_->schedule(spec);
    chaosEvents_ = plan.events;
    chaosCursor_ = 0;
}

void
ShardRouter::applyChaosEvents()
{
    while (chaosCursor_ < chaosEvents_.size() &&
           chaosEvents_[chaosCursor_].atCall <= openLoopCalls_) {
        const ChaosEvent &event = chaosEvents_[chaosCursor_++];
        if (event.shard >= shards_.size())
            continue;
        if (event.kind == ChaosEventKind::ShardKill) {
            // Never take out the last serving shard: one-survivor
            // floors are a different experiment.
            if (liveShardCount() > 1)
                killShard(event.shard);
        } else {
            reviveShard(event.shard);
        }
    }
}

bool
ShardRouter::stalledAt(uint32_t shard, osim::SimTime now) const
{
    return stalledUntil_[shard] > now;
}

uint32_t
ShardRouter::pickAlternative(uint32_t avoid) const
{
    uint32_t best = kInvalidShard;
    osim::SimTime bestBusy = 0;
    for (const Shard &shard : shards_) {
        uint32_t s = shard.id;
        if (s == avoid || !shard.live || !ring_.contains(s))
            continue;
        if (monitor_.classify(s) != ShardHealth::Healthy)
            continue;
        osim::SimTime busy =
            std::max(busyUntil_[s], stalledUntil_[s]);
        if (best == kInvalidShard || busy < bestBusy) {
            best = s;
            bestBusy = busy;
        }
    }
    return best;
}

void
ShardRouter::healthTick(osim::SimTime now)
{
    for (Shard &shard : shards_) {
        uint32_t s = shard.id;
        if (!shard.live)
            continue; // killed slots rejoin only via reviveShard
        bool inRing = ring_.contains(s);
        if (!inRing && !monitorDrained_[s])
            continue; // quarantine-drained: the legacy signal owns it
        if (!monitor_.probeDue(s, now))
            continue;
        bool responsive =
            shard.runtime->hostAlive() && !stalledAt(s, now);
        ++stats_.probesSent;
        if (!responsive)
            ++stats_.probesMissed;
        monitor_.recordProbe(s, now, responsive);
        ShardHealth health = monitor_.classify(s);
        if (inRing && health == ShardHealth::Dead) {
            // Detection latency: the dead threshold's worth of missed
            // heartbeats is how long the stall went unnoticed.
            stats_.detectionTime +=
                static_cast<osim::SimTime>(monitor_.missedHeartbeats(s)) *
                kHeartbeatInterval;
            if (!shard.runtime->hostAlive()) {
                killShard(s);
            } else {
                drainShard(s);
                monitorDrained_[s] = 1;
            }
        } else if (!inRing && monitorDrained_[s] && responsive &&
                   health == ShardHealth::Healthy) {
            // The stall passed: re-admit the drained shard.
            ring_.addShard(s);
            monitorDrained_[s] = 0;
            monitor_.reset(s, now);
            ++stats_.shardsRejoined;
        }
    }
}

// ---- Load-aware placement (DESIGN.md §13) ----------------------------

uint64_t
ShardRouter::objectBytesOf(uint64_t object_id) const
{
    if (fw::ObjectStore *store =
            liveStoreOf(homeShardOf(object_id), object_id))
        return store->get(object_id).byteLen;
    auto it = replicas_.find(object_id);
    return it != replicas_.end() ? it->second.size() : 0;
}

void
ShardRouter::notePlacementCall(uint64_t routing_key,
                               const ipc::ValueList &args)
{
    if (config.placementPolicy != PlacementPolicy::Optimized)
        return;
    // Host-side bookkeeping only: recording advances no kernel and
    // consumes no randomness, so Hash-policy runs (which skip it
    // entirely) and Optimized runs share identical simulated costs
    // until a re-partition actually moves data.
    std::vector<placement::ObjectAccess> inputs;
    for (const ipc::Value &value : args) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        placement::ObjectAccess access;
        access.objectId = value.asRef().objectId;
        auto it = objectKey_.find(access.objectId);
        access.group =
            it != objectKey_.end() ? it->second : routing_key;
        access.bytes = objectBytesOf(access.objectId);
        inputs.push_back(access);
    }
    trace_.recordCall(routing_key, inputs);
    if (config.repartitionEveryCalls > 0 &&
        ++callsSinceRepartition_ >= config.repartitionEveryCalls) {
        callsSinceRepartition_ = 0;
        repartitionNow();
    }
}

void
ShardRouter::repartitionNow()
{
    if (config.placementPolicy != PlacementPolicy::Optimized ||
        trace_.empty())
        return;
    std::vector<uint32_t> live;
    for (const Shard &shard : shards_)
        if (shard.live && ring_.contains(shard.id))
            live.push_back(shard.id);
    if (live.size() < 2) {
        trace_.reset(); // nothing to balance against
        return;
    }
    placement::GroupHypergraph hypergraph = trace_.contractByGroup();
    if (hypergraph.vertices.empty()) {
        trace_.reset();
        return;
    }

    placement::PartitionResult solution = placement::partitionGroups(
        hypergraph, static_cast<uint32_t>(live.size()));

    // Map solution parts onto shard slots so the labels line up with
    // where the mass already sits: greedy maximum-overlap matching,
    // which keeps a near-no-op solution a near-no-op application.
    const size_t k = live.size();
    std::map<uint64_t, uint64_t> groupWeight;
    for (const auto &vertex : hypergraph.vertices)
        groupWeight[vertex.group] = std::max<uint64_t>(vertex.weight, 1);
    std::vector<std::vector<uint64_t>> overlap(
        k, std::vector<uint64_t>(k, 0));
    for (const auto &[group, part] : solution.groupPart) {
        uint32_t current = ownerShardOf(group);
        for (size_t slot = 0; slot < k; ++slot)
            if (live[slot] == current) {
                overlap[part][slot] += groupWeight[group];
                break;
            }
    }
    std::vector<uint32_t> partShard(k, kInvalidShard);
    std::vector<uint8_t> partDone(k, 0), slotDone(k, 0);
    for (size_t round = 0; round < k; ++round) {
        size_t bestPart = k, bestSlot = k;
        uint64_t bestOverlap = 0;
        for (size_t part = 0; part < k; ++part) {
            if (partDone[part])
                continue;
            for (size_t slot = 0; slot < k; ++slot) {
                if (slotDone[slot])
                    continue;
                if (bestPart == k || overlap[part][slot] > bestOverlap) {
                    bestPart = part;
                    bestSlot = slot;
                    bestOverlap = overlap[part][slot];
                }
            }
        }
        partShard[bestPart] = live[bestSlot];
        partDone[bestPart] = 1;
        slotDone[bestSlot] = 1;
    }

    ++stats_.repartitions;
    stats_.placementCut = solution.cut;
    stats_.placementImbalance = solution.imbalance;
    applyPlacement(solution, partShard);
    trace_.reset(); // next epoch sees a fresh window
}

void
ShardRouter::applyPlacement(const placement::PartitionResult &solution,
                            const std::vector<uint32_t> &targets)
{
    struct GroupMove {
        uint64_t bytes = 0;
        uint64_t group = 0;
        uint32_t to = 0;
        std::vector<std::pair<uint32_t, uint64_t>> objects; // from, id
    };
    std::vector<GroupMove> moves;
    for (const auto &[group, part] : solution.groupPart) {
        uint32_t to = targets.at(part);
        if (ownerShardOf(group) == to) {
            // Already in place: pin it against ring churn for free.
            override_[group] = to;
            continue;
        }
        GroupMove move;
        move.group = group;
        move.to = to;
        for (uint64_t id : trace_.objectsOf(group)) {
            uint32_t owner = homeShardOf(id);
            if (owner == kInvalidShard || owner == to ||
                !shards_.at(owner).live)
                continue;
            uint64_t bytes = objectBytesOf(id);
            if (bytes == 0 || bytes > config.migrationMaxBytes)
                continue; // oversized: stays put, the proxy path owns it
            move.objects.emplace_back(owner, id);
            move.bytes += bytes;
        }
        moves.push_back(std::move(move));
    }

    // Cheapest groups first, so the epoch budget relocates as many
    // keys as possible; groups that do not fit are deferred — the
    // next epoch recomputes from a fresh trace and retries.
    std::sort(moves.begin(), moves.end(),
              [](const GroupMove &a, const GroupMove &b) {
                  if (a.bytes != b.bytes)
                      return a.bytes < b.bytes;
                  return a.group < b.group;
              });
    uint64_t moved = 0;
    for (const GroupMove &move : moves) {
        if (moved + move.bytes > config.migrationMaxBytes) {
            ++stats_.placementDeferrals;
            continue;
        }
        override_[move.group] = move.to;
        for (const auto &[from, id] : move.objects) {
            migrateObject(from, move.to, id);
            ++stats_.placementMoves;
        }
        moved += move.bytes;
    }
    stats_.placementMovedBytes += moved;
    stats_.placementEpochBytesPeak =
        std::max(stats_.placementEpochBytesPeak, moved);
    if (moved > 0)
        util::inform("cluster: placement epoch moved %llu bytes "
                     "(%llu overrides active)",
                     static_cast<unsigned long long>(moved),
                     static_cast<unsigned long long>(override_.size()));
}

bool
ShardRouter::holdsObject(uint32_t shard, uint64_t object_id) const
{
    return shard != kInvalidShard && shards_.at(shard).live &&
           shards_[shard].runtime->hasObject(object_id);
}

fw::ObjectStore *
ShardRouter::liveStoreOf(uint32_t shard, uint64_t object_id) const
{
    if (!holdsObject(shard, object_id))
        return nullptr;
    core::FreePartRuntime &rt = *shards_[shard].runtime;
    fw::ObjectStore &store = rt.storeOf(rt.homeOf(object_id));
    return store.has(object_id) ? &store : nullptr;
}

bool
ShardRouter::answerFromDedup(uint64_t token, uint64_t routing_key,
                             RoutedCall &out)
{
    // At-least-once dedup: a token already acknowledged is answered
    // from the cluster cache — the client may resubmit after a shard
    // failure without double-executing.
    if (token == 0)
        return false;
    const ipc::ValueList *hit = dedup_.find(token);
    if (!hit)
        return false;
    ++stats_.dedupHits;
    out.result.ok = true;
    out.result.values = *hit;
    out.deduped = true;
    out.shard = ownerShardOf(routing_key);
    return true;
}

uint32_t
ShardRouter::chooseExecShard(uint32_t target, const ipc::ValueList &args,
                             bool &proxied) const
{
    // Migrate-vs-proxy: a large input on another live, serving shard
    // pulls the call to itself instead of moving its bytes.
    uint32_t exec = target;
    proxied = false;
    uint64_t largest = config.migrationMaxBytes;
    for (const ipc::Value &value : args) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        uint64_t id = value.asRef().objectId;
        uint32_t owner = homeShardOf(id);
        if (owner == target || !holdsObject(owner, id) ||
            !ring_.contains(owner))
            continue;
        uint64_t bytes = objectBytesOf(id);
        if (bytes > largest) {
            largest = bytes;
            exec = owner;
            proxied = true;
        }
    }
    return exec;
}

bool
ShardRouter::stageInputs(uint32_t exec, const ipc::ValueList &args,
                         bool proxied, bool replica_reads, bool &cross,
                         RoutedCall &out)
{
    for (const ipc::Value &value : args) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        uint64_t id = value.asRef().objectId;
        if (replica_reads) {
            if (stageReplicaRead(exec, id))
                continue;
        } else {
            // An owner whose runtime no longer holds the object (its
            // agent crashed past the last checkpoint) counts as dead:
            // the directory entry is stale, so fall back to a replica.
            uint32_t owner = homeShardOf(id);
            bool held = holdsObject(owner, id);
            if (held && owner == exec) {
                ++stats_.localInputs;
                if (proxied)
                    stats_.proxiedBytes += objectBytesOf(id);
                continue;
            }
            if (held) {
                migrateObject(owner, exec, id);
                cross = true;
                continue;
            }
            if (restoreReplica(exec, id)) {
                cross = true;
                continue;
            }
        }
        out.result = core::ApiResult();
        out.result.error = "cluster: object " + std::to_string(id) +
                           " lost (no live copy, no replica)";
        out.errorKind = RouteError::ObjectLost;
        out.lostObjectId = id;
        out.shard = exec;
        ++stats_.lostObjects;
        ++stats_.callsFailed;
        return false;
    }
    return true;
}

core::ApiResult
ShardRouter::issueOn(Shard &shard, const std::string &api_name,
                     const ipc::ValueList &args)
{
    ++shard.calls;
    if (!config.runtime.pipelineParallel)
        return shard.runtime->invoke(api_name, args);
    // Async-per-shard: issue without waiting so consecutive calls
    // landing on the same shard overlap on its agent timelines.
    // invoke() would sync the shard's host clock per call and
    // serialize everything the ring co-located. args stays intact: a
    // failed call may retry on the next ring owner.
    core::CallTicket ticket = shard.runtime->invokeAsync(api_name, args);
    if (const core::ApiResult *peeked = shard.runtime->peekResult(ticket))
        return *peeked;
    core::ApiResult vanished;
    vanished.error = "async ticket vanished";
    return vanished;
}

void
ShardRouter::acknowledge(uint32_t exec, uint64_t routing_key,
                         uint64_t token, bool proxied, bool cross,
                         core::ApiResult result, RoutedCall &out)
{
    noteResults(exec, routing_key, result.values);
    if (token != 0)
        dedup_.insert(token, result.values);
    ++stats_.callsOk;
    if (proxied)
        ++stats_.proxiedCalls;
    if (cross)
        ++stats_.crossShardCalls;
    out.result = std::move(result);
    out.shard = exec;
    out.proxied = proxied;
}

RoutedCall
ShardRouter::invoke(uint64_t routing_key, const std::string &api_name,
                    ipc::ValueList args, uint64_t dedup_token)
{
    ++stats_.routedCalls;
    notePlacementCall(routing_key, args);
    RoutedCall out;
    if (answerFromDedup(dedup_token, routing_key, out))
        return out;

    // Failover loop: each iteration routes against the current ring;
    // a shard that leaves the ring mid-call sends us back here with
    // the keys already remapped to the survivors.
    for (uint32_t attempt = 0; attempt <= config.shardCount;
         ++attempt) {
        uint32_t target = ownerShardOf(routing_key);
        if (target == kInvalidShard) {
            out.result.error = "cluster: no live shards in the ring";
            out.errorKind = RouteError::NoLiveShards;
            ++stats_.callsFailed;
            return out;
        }
        bool proxied = false;
        uint32_t exec = chooseExecShard(target, args, proxied);
        bool cross = proxied;
        if (!stageInputs(exec, args, proxied, /*replica_reads=*/false,
                         cross, out))
            return out;

        core::ApiResult result = issueOn(shards_.at(exec), api_name,
                                         args);
        if (result.ok) {
            acknowledge(exec, routing_key, dedup_token, proxied, cross,
                        std::move(result), out);
            return out;
        }

        // Health integration: host death kills the shard, quarantine
        // pressure drains it. Either way the ring loses its vnodes
        // and this call retries on the new owner of the key.
        if (checkShardHealth(exec)) {
            ++out.failovers;
            ++stats_.failovers;
            continue;
        }
        out.result = std::move(result);
        out.shard = exec;
        out.proxied = proxied;
        out.errorKind = RouteError::ExecutionFailed;
        ++stats_.callsFailed;
        return out;
    }

    if (out.result.error.empty())
        out.result.error = "cluster: failover budget exhausted";
    out.errorKind = RouteError::RetriesExhausted;
    ++stats_.callsFailed;
    return out;
}

RoutedCall
ShardRouter::invokeAt(uint64_t routing_key, const std::string &api_name,
                      ipc::ValueList args, const CallOptions &opts)
{
    ++stats_.routedCalls;
    notePlacementCall(routing_key, args);
    ++openLoopCalls_;
    applyChaosEvents();

    const osim::SimTime arrival = opts.arrival;
    healthTick(arrival);

    RoutedCall out;
    osim::SimTime deadline =
        opts.deadline != 0 ? opts.deadline : config.defaultDeadline;

    if (answerFromDedup(opts.dedupToken, routing_key, out))
        return out;

    auto startAt = [&](uint32_t s) {
        return std::max({busyUntil_[s], stalledUntil_[s], arrival});
    };

    for (uint32_t attempt = 0; attempt < kRetryBudget; ++attempt) {
        if (attempt > 0)
            ++stats_.retriesSpent;
        uint32_t target = ownerShardOf(routing_key);
        if (target == kInvalidShard) {
            out.result.error = "cluster: no live shards in the ring";
            out.errorKind = RouteError::NoLiveShards;
            ++stats_.callsFailed;
            return out;
        }

        // Injected admission chaos against the ring owner.
        double slowFactor = 1.0;
        if (chaos_) {
            osim::FaultFire fire = chaos_->queryFire(
                osim::FaultPoint::ShardAdmission,
                static_cast<osim::Pid>(target + 1));
            switch (fire.action) {
              case osim::FaultAction::Stall:
                stalledUntil_[target] =
                    std::max(stalledUntil_[target], arrival) +
                    fire.stallTime;
                ++stats_.chaosStalls;
                break;
              case osim::FaultAction::SlowDown:
                slowFactor = std::max(fire.slowFactor, 1.0);
                if (slowFactor > 1.0)
                    ++stats_.chaosSlowCalls;
                break;
              case osim::FaultAction::Transient:
                // The routed request is dropped on the wire before
                // the shard sees it: burn the attempt and retry.
                ++stats_.messagesDropped;
                monitor_.recordFailure(target, arrival);
                continue;
              case osim::FaultAction::Crash:
              case osim::FaultAction::Corrupt:
              case osim::FaultAction::None:
                break;
            }
        }

        // Hedge: a stalled or suspect primary loses the attempt to a
        // healthy peer serving from replica snapshots; a duplicate
        // answer from the primary later collapses in the dedup cache.
        uint32_t exec = target;
        bool hedged = false;
        if (config.replicateObjects &&
            (stalledAt(target, arrival) ||
             monitor_.classify(target) != ShardHealth::Healthy)) {
            uint32_t alt = pickAlternative(target);
            if (alt != kInvalidShard) {
                exec = alt;
                hedged = true;
            }
        }

        bool proxied = false;
        if (!hedged)
            exec = chooseExecShard(target, args, proxied);

        // Admission control before any data moves: the call would
        // start after the queue ahead of it and any injected stall.
        osim::SimTime start = startAt(exec);
        osim::SimTime wait = start - arrival;
        osim::SimTime serviceEst =
            std::max(monitor_.latencyEwma(exec), kLatencyBaselineFloor);
        uint64_t depth = wait / std::max<osim::SimTime>(serviceEst, 1);
        stats_.queueDepthPeak = std::max(stats_.queueDepthPeak, depth);
        bool infeasible =
            deadline != 0 && wait + serviceEst > deadline;
        bool degraded = false;
        if (depth > kMaxQueueDepth || infeasible) {
            // Degraded fallback: serve from the least-loaded healthy
            // shard via stale replica reads rather than queueing
            // without bound — shed only when no shard can take it.
            uint32_t alt = config.replicateObjects ? pickAlternative(exec)
                                                   : kInvalidShard;
            bool altOk = false;
            if (alt != kInvalidShard) {
                osim::SimTime altWait = startAt(alt) - arrival;
                uint64_t altDepth =
                    altWait / std::max<osim::SimTime>(serviceEst, 1);
                altOk = altDepth <= kMaxQueueDepth &&
                        (deadline == 0 ||
                         altWait + serviceEst <= deadline);
            }
            if (altOk) {
                exec = alt;
                degraded = true;
                proxied = false;
                start = startAt(exec);
                wait = start - arrival;
            } else {
                out.result = core::ApiResult();
                out.result.error =
                    infeasible
                        ? "cluster: deadline infeasible at admission"
                        : "cluster: shard admission queue full";
                out.errorKind = infeasible
                                    ? RouteError::DeadlineExceeded
                                    : RouteError::Overloaded;
                out.shed = true;
                out.shard = exec;
                out.queueWait = wait;
                ++stats_.shedCalls;
                ++stats_.callsFailed;
                return out;
            }
        }

        // Stage inputs onto the executing shard. Hedged/degraded
        // attempts read replica snapshots without moving authority.
        Shard &shard = shards_.at(exec);
        osim::SimTime before = shard.kernel->now();
        bool cross = proxied || hedged || degraded;
        if (!stageInputs(exec, args, proxied, hedged || degraded, cross,
                         out))
            return out;

        core::ApiResult result = issueOn(shard, api_name, args);
        osim::SimTime span = shard.kernel->now() - before;
        if (slowFactor > 1.0 && exec == target && span > 0) {
            // The injected slow-down stretches everything this call
            // did on the shard (staging + execution).
            auto extra = static_cast<osim::SimTime>(
                static_cast<double>(span) * (slowFactor - 1.0));
            shard.kernel->advance(extra);
            span += extra;
        }

        if (result.ok) {
            busyUntil_[exec] = start + span;
            out.latency = busyUntil_[exec] - arrival;
            out.queueWait = wait;
            monitor_.recordSuccess(exec, arrival, span);
            acknowledge(exec, routing_key, opts.dedupToken, proxied,
                        cross, std::move(result), out);
            if (hedged)
                ++stats_.hedgedCalls;
            if (degraded)
                ++stats_.degradedCalls;
            if (deadline != 0 && out.latency > deadline) {
                out.deadlineMissed = true;
                ++stats_.deadlineMisses;
            }
            out.hedged = hedged;
            out.degraded = degraded;
            return out;
        }

        // Failure: the shard still ran (and burned) simulated time.
        busyUntil_[exec] = start + span;
        monitor_.recordFailure(exec, arrival);
        out.result = std::move(result);
        out.shard = exec;
        out.errorKind = RouteError::ExecutionFailed;
        if (checkShardHealth(exec)) {
            ++out.failovers;
            ++stats_.failovers;
        }
    }

    if (out.result.error.empty())
        out.result.error = "cluster: retry budget exhausted";
    out.errorKind = RouteError::RetriesExhausted;
    ++stats_.callsFailed;
    return out;
}

const ClusterStats &
ShardRouter::stats()
{
    stats_.suspectTransitions = monitor_.suspectTransitions();
    stats_.deadTransitions = monitor_.deadTransitions();
    stats_.callsPerShard.assign(shards_.size(), 0);
    core::RunStats totals;
    osim::SimTime makespan = 0;
    for (Shard &shard : shards_) {
        stats_.callsPerShard[shard.id] = shard.calls;
        const core::RunStats &rs = shard.runtime->stats();
        accumulate(totals, rs);
        makespan = std::max(makespan, rs.elapsed());
    }
    stats_.shardTotals = totals;
    stats_.makespan = makespan;
    stats_.placementOverrides = 0;
    for (const auto &[group, target] : override_)
        if (target < shards_.size() && shards_[target].live &&
            ring_.contains(target))
            ++stats_.placementOverrides;
    return stats_;
}

} // namespace freepart::shard
