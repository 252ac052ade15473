/**
 * @file
 * tenant_serve: Zipf(1.1) tenants replay Table 6 session scripts
 * against a 2..6-shard autoscaled cluster with a warm agent pool.
 * Load is open loop on the sim clock: Poisson arrivals at three fixed
 * rates (low -> peak -> cool) with a fixed per-call deadline.
 *
 * The offered load is a constant of the benchmark, not a calibration
 * of the code under test: bench_serve_autoscale derives its gaps and
 * deadline from the measured mean service time, so a change to the
 * simulated service time would shift both the traffic and the SLO.
 * Here the gaps, deadline, session cap and pool/autoscaler settings
 * are frozen at the values that calibration gives on the tree the
 * benchmark was defined on (kMeanServiceNs). The fidelity check
 * re-runs the calibration and reports any drift.
 *
 * The arrival loop mirrors serve::TenantTrafficGenerator draw for draw
 * so that at the shipped bench's settings it reproduces that bench's
 * SLO attainment, p99 and shard-seconds; every public call into the
 * shard and serve layers is timed on both clocks. An in-host twin
 * replays each acknowledged call's API on the session's twin chain,
 * which measures the fw-layer cost of the same work.
 */

#include <algorithm>
#include <string>

#include "apps/app_models.hh"
#include "apps/workload.hh"
#include "core/runtime.hh"
#include "perfbench.hh"
#include "serve/agent_pool.hh"
#include "serve/autoscaler.hh"
#include "shard/shard_router.hh"
#include "util/rng.hh"

namespace perfbench {

/**
 * Mean service time (sim ns) of the serving op mix on an unloaded
 * single shard, as bench_serve_autoscale's calibrateMeanService()
 * measures it on the tree this benchmark was defined on (192x192
 * frames, default runtime, 2 MiB rings). Every rate and the deadline
 * below derive from it.
 */
const SimTime kMeanServiceNs = 300167;

namespace {

using namespace freepart;

constexpr uint32_t kMinShards = 2;
constexpr uint32_t kMaxShards = 6;
constexpr uint32_t kSessionCap = 40;
constexpr uint32_t kImageDim = 192;
constexpr double kZipfExponent = 1.1;
constexpr uint64_t kKeyBase = 0x7e4a0000;
constexpr uint64_t kTrafficSeed = 0x5eafe11; //!< the shipped bench's
constexpr size_t kMissProbeIds = 64;

/** Unary Mat ops standing in for processing chains. */
const char *const kOps[] = {"cv2.GaussianBlur", "cv2.erode",
                            "cv2.dilate",       "cv2.flip",
                            "cv2.normalize",    "cv2.bitwise_not"};
constexpr size_t kNumOps = sizeof(kOps) / sizeof(*kOps);

apps::WorkloadGenerator::Config
workloadConfig(Size size)
{
    apps::WorkloadGenerator::Config c;
    c.maxRounds = 1;
    c.maxCallsPerRound = 6;
    c.imageRows = c.imageCols = size == Size::Tiny ? 48 : kImageDim;
    return c;
}

/** Load shape of one size: tenants and calls per ramp phase. */
struct Ramp {
    uint32_t tenants;
    uint64_t low, peak, cool;
};

Ramp
rampFor(Size size)
{
    switch (size) {
    case Size::Fidelity: return {1500, 1200, 3600, 1200};
    case Size::Tiny: return {200, 60, 180, 60};
    case Size::Bench: break;
    }
    return {1500, 300, 900, 300};
}

struct ScriptCall {
    std::string api;
    bool load = false;
};

class ServeWorkload : public Workload
{
  public:
    ServeWorkload(Size size, uint64_t seed)
        : size_(size), ramp_(rampFor(size)),
          trafficSeed_(size == Size::Fidelity ? kTrafficSeed
                                              : mixSeed(seed ^ 0x5e7e)),
          runsPerPass_(size == Size::Bench ? 4 : 1)
    {
    }

    void
    setup() override
    {
        ctx_ = FrameworkContext::build();
        generator_ = std::make_unique<apps::WorkloadGenerator>(
            *ctx_->registry, workloadConfig(size_));
        scripts_.clear();
        for (const apps::AppModel &model : apps::appModels()) {
            std::vector<ScriptCall> script;
            size_t op = static_cast<size_t>(model.id);
            for (const apps::WorkloadCall &call : generator_->trace(model))
                script.push_back(call.startsRound
                                     ? ScriptCall{"cv2.imread", true}
                                     : ScriptCall{kOps[op++ % kNumOps],
                                                  false});
            script.push_back({"cv2.imwrite", false});
            scripts_.push_back(std::move(script));
        }
        // The cluster every pass builds: router with seeded shards,
        // pool pre-warm, autoscaler.
        Cluster cluster(*this);
    }

    Pass run(Tracer &tracer) override;

  private:
    /** Sums over the serving runs of one pass. */
    struct Totals {
        CoreCounters counters;
        Samples queueWaitUs;
        Samples imbalance;
        uint64_t ackedInDeadline = 0, lostAcks = 0, lostObjects = 0;
        uint64_t twinCalls = 0, crossShardCalls = 0, migratedBytes = 0;
        uint64_t replicaBytes = 0, shedCalls = 0, deadlineMisses = 0;
        uint64_t hedgedCalls = 0, degradedCalls = 0, scrubbed = 0;
        uint64_t warmCheckouts = 0, checkouts = 0, scaleUps = 0;
        uint64_t scaleDowns = 0, ticks = 0;
        SimTime makespan = 0, twinSim = 0, poolWait = 0;
        double shardSeconds = 0.0, maxDepth = 0.0;
    };

    /** One serving run on a fresh cluster: the ramp, session
     *  teardown, probes (traced), and the at-least-once audit. */
    void serveOnce(Tracer &tracer, uint64_t traffic_seed, Pass &pass,
                   Totals &totals);

    /** One serving run's stack. */
    struct Cluster {
        std::unique_ptr<shard::ShardRouter> router;
        std::unique_ptr<serve::WarmAgentPool> pool;
        std::unique_ptr<serve::Autoscaler> scaler;

        explicit Cluster(const ServeWorkload &w)
        {
            const apps::WorkloadGenerator &generator = *w.generator_;
            shard::ShardRouter::SeedFn seed =
                [&generator](osim::Kernel &kernel) {
                    generator.seedInputs(kernel);
                };
            shard::ShardRouterConfig config;
            config.shardCount = kMinShards;
            config.runtime.ringBytes = 2 << 20;
            config.dedupEntries = 1 << 13;
            config.replicateObjects = true;
            config.defaultDeadline = kMeanServiceNs * 8;
            router = std::make_unique<shard::ShardRouter>(
                *w.ctx_->registry, w.ctx_->cats,
                core::PartitionPlan::freePartDefault(), std::move(config),
                seed);

            core::FreePartRuntime &probe = router->runtime(0);
            serve::AgentPoolConfig pc;
            pc.initialSize = kSessionCap / kMinShards;
            pc.maxSize = kSessionCap + 8;
            pc.warmHandoff = probe.sessionWarmHandoffCost();
            pc.epochReset = probe.sessionEpochResetCost();
            pc.coldSpawn = probe.sessionColdStartCost();
            pool = std::make_unique<serve::WarmAgentPool>(pc);
            pool->ensureShards(router->shardCount());

            serve::AutoscalerConfig sc;
            sc.minLiveShards = kMinShards;
            sc.maxLiveShards = kMaxShards;
            sc.tickInterval = 250'000;
            sc.scaleUpDepth = 4.0;
            sc.scaleDownDepth = 0.6;
            sc.panicDepth = 16.0;
            sc.sustainUp = 3;
            sc.sustainDown = 12;
            sc.cooldown = 2'000'000;
            sc.seed = seed;
            sc.poolMin = pc.initialSize;
            sc.poolMax = pc.maxSize;
            scaler = std::make_unique<serve::Autoscaler>(*router, sc,
                                                         pool.get());
        }
    };

    uint64_t
    keyOf(uint32_t tenant) const
    {
        return kKeyBase + static_cast<uint64_t>(tenant) * 131;
    }

    Size size_;
    Ramp ramp_;
    uint64_t trafficSeed_;
    /** Independent ramps per pass (sub-seeds of the traffic seed):
     *  averaging them keeps seed-to-seed spread low. */
    uint32_t runsPerPass_;
    std::unique_ptr<FrameworkContext> ctx_;
    std::unique_ptr<apps::WorkloadGenerator> generator_;
    std::vector<std::vector<ScriptCall>> scripts_;
};

void
ServeWorkload::serveOnce(Tracer &tracer, uint64_t traffic_seed, Pass &pass,
                         Totals &totals)
{
    Cluster cluster(*this);
    shard::ShardRouter &router = *cluster.router;
    serve::WarmAgentPool &pool = *cluster.pool;
    serve::Autoscaler &scaler = *cluster.scaler;

    // In-host twin: same API sequence per session on its own chain.
    osim::Kernel twin_kernel;
    generator_->seedInputs(twin_kernel);
    core::FreePartRuntime twin(twin_kernel, *ctx_->registry, ctx_->cats,
                               core::PartitionPlan::inHost(),
                               core::RuntimeConfig());

    struct Session {
        uint32_t tenant = 0;
        size_t next = 0;
        ipc::Value chain;
        bool haveChain = false;
        uint32_t leaseShard = 0;
        ipc::Value twinChain;
        bool haveTwinChain = false;
        std::vector<uint64_t> twinIds;
        std::vector<std::pair<uint32_t, uint64_t>> resultIds;
    };

    util::Rng rng(traffic_seed);
    util::ZipfSampler popularity(ramp_.tenants, kZipfExponent);
    // Tenant -> slot of its active session in `active`, -1 for none.
    std::vector<int32_t> slot(ramp_.tenants, -1);
    std::vector<Session> active;
    active.reserve(kSessionCap);
    std::vector<std::pair<uint64_t, uint64_t>> acked; // token, key
    std::vector<std::pair<uint32_t, uint64_t>> scrubbed; // shard, id
    uint64_t call_id = 0;
    SimTime arrival = 0, last_done = 0;
    uint64_t token = 0;
    double twin_seconds = 0.0;

    auto endSessionAt = [&](size_t idx, SimTime now) {
        Session &session = active[idx];
        uint32_t span = tracer.begin(Op::EndSession, 0, now);
        router.endSession(keyOf(session.tenant));
        tracer.end(span, now);
        span = tracer.begin(Op::PoolRelease, 0, now);
        pool.release(session.leaseShard, now);
        tracer.end(span, now);
        for (const auto &id : session.resultIds)
            if (scrubbed.size() < kMissProbeIds)
                scrubbed.push_back(id);
        double t0 = hostNow();
        twin.evictObjects(session.twinIds);
        twin_seconds += hostNow() - t0;
        slot[session.tenant] = -1;
        if (idx + 1 != active.size()) {
            active[idx] = std::move(active.back());
            slot[active[idx].tenant] =
                static_cast<int32_t>(idx);
        }
        active.pop_back();
    };

    double loop0 = hostNow();
    uint32_t root = tracer.begin(Op::Replay, 1, 0);
    const std::pair<uint64_t, SimTime> phases[] = {
        {ramp_.low, kMeanServiceNs * 5 / 4},
        {ramp_.peak, std::max<SimTime>(1, kMeanServiceNs * 2 / 7)},
        {ramp_.cool, kMeanServiceNs * 5 / 4},
    };
    for (const auto &[calls, gap] : phases) {
        for (uint64_t i = 0; i < calls; ++i) {
            ++call_id;
            if (call_id % 64 == 1) {
                double t0 = hostNow();
                pass.probeSeconds.add(hostSpeedProbe());
                twin_seconds += hostNow() - t0; // not the system's time
            }
            arrival += std::max<SimTime>(
                1, static_cast<SimTime>(
                       rng.exponential(static_cast<double>(gap))));
            auto t = static_cast<uint32_t>(popularity.draw(rng));

            if (slot[t] < 0) {
                if (active.size() < kSessionCap) {
                    // Session start: lease a warm agent set on the
                    // key's owner shard; the first call queues behind
                    // the acquisition.
                    uint64_t key = keyOf(t);
                    uint32_t owner = router.ownerShardOf(key);
                    if (owner == shard::kInvalidShard)
                        owner = 0;
                    uint32_t span =
                        tracer.begin(Op::PoolCheckout, call_id, arrival);
                    serve::PoolCheckout checkout =
                        pool.checkout(owner, arrival);
                    tracer.end(span, arrival);
                    span = tracer.begin(Op::SessionStart, call_id, arrival);
                    router.chargeSessionStart(key, arrival, checkout.cost,
                                              checkout.warm);
                    tracer.end(span, arrival);
                    slot[t] =
                        static_cast<int32_t>(active.size());
                    Session fresh;
                    fresh.tenant = t;
                    fresh.leaseShard = owner;
                    active.push_back(std::move(fresh));
                } else {
                    // Admission cap full: the arrival advances an
                    // active session instead (deterministic pick).
                    t = active[t % active.size()].tenant;
                }
            }

            Session &session =
                active[static_cast<size_t>(slot[t])];
            uint64_t key = keyOf(t);
            const std::vector<ScriptCall> &script =
                scripts_[t % scripts_.size()];
            const ScriptCall &call = script[session.next++];

            uint32_t prep = tracer.begin(Op::PrepareArgs, call_id, arrival);
            std::string api = call.api;
            ipc::ValueList args, twin_args;
            bool load = call.load || !session.haveChain;
            if (load) {
                api = "cv2.imread";
                args.emplace_back(std::string("/data/test.fpim"));
            } else if (api == "cv2.imwrite") {
                args.emplace_back(std::string("/out/tenant") +
                                  std::to_string(t) + ".fpim");
                args.push_back(session.chain);
            } else {
                args.push_back(session.chain);
            }
            tracer.end(prep, arrival);

            shard::CallOptions opts;
            opts.dedupToken = ++token;
            opts.arrival = arrival;
            double host0 = hostNow();
            uint32_t span = tracer.begin(Op::InvokeAt, call_id, arrival);
            shard::RoutedCall routed =
                router.invokeAt(key, api, std::move(args), opts);
            tracer.end(span, arrival + routed.latency);
            pass.entryHostUs.add((hostNow() - host0) * 1e6);
            ++pass.calls;

            if (routed.result.ok) {
                if (!routed.deadlineMissed)
                    ++totals.ackedInDeadline;
                acked.emplace_back(opts.dedupToken, key);
                pass.simCallUs.add(static_cast<double>(routed.latency) /
                                   1e3);
                totals.queueWaitUs.add(static_cast<double>(routed.queueWait) /
                                  1e3);
                fold(pass.fingerprint, routed.latency);
                last_done = std::max(last_done, arrival + routed.latency);
                if (!routed.result.values.empty() &&
                    routed.result.values[0].kind() ==
                        ipc::Value::Kind::Ref) {
                    session.chain = routed.result.values[0];
                    session.haveChain = true;
                    session.resultIds.emplace_back(
                        routed.shard, session.chain.asRef().objectId);
                }
                // The twin runs the same API on its own chain.
                double t0 = hostNow();
                if (load || !session.haveTwinChain) {
                    twin_args.emplace_back(std::string("/data/test.fpim"));
                    api = "cv2.imread";
                } else {
                    if (api == "cv2.imwrite")
                        twin_args.emplace_back(std::string("/out/twin.fpim"));
                    twin_args.push_back(session.twinChain);
                }
                uint32_t tspan =
                    tracer.begin(Op::TwinInvoke, call_id, twin_kernel.now());
                core::ApiResult tres = twin.invoke(api, std::move(twin_args));
                tracer.end(tspan, twin_kernel.now());
                ++totals.twinCalls;
                if (!tres.ok) {
                    ++pass.failed;
                } else if (!tres.values.empty() &&
                           tres.values[0].kind() == ipc::Value::Kind::Ref) {
                    session.twinChain = tres.values[0];
                    session.haveTwinChain = true;
                    session.twinIds.push_back(
                        session.twinChain.asRef().objectId);
                }
                twin_seconds += hostNow() - t0;
            } else {
                session.haveChain = false;
                // Typed refusals (shed, infeasible deadline) and inputs
                // the router reports lost are outcomes the serving
                // contract allows; they count in failed_share.
                if (routed.shed ||
                    routed.errorKind == shard::RouteError::DeadlineExceeded ||
                    routed.errorKind == shard::RouteError::ObjectLost) {
                    ++pass.expectedFailures;
                    totals.lostObjects +=
                        routed.errorKind == shard::RouteError::ObjectLost;
                } else if (++pass.failed <= 4) {
                    pass.errors.push_back(
                        "call " + std::to_string(call_id) + " (" + api +
                        "): " + shard::routeErrorName(routed.errorKind) +
                        ": " + routed.result.error);
                }
            }

            if (session.next >= script.size())
                endSessionAt(static_cast<size_t>(slot[t]),
                             arrival);

            span = tracer.begin(Op::Observe, call_id, arrival);
            scaler.observe(arrival);
            tracer.end(span, arrival);
        }
    }
    while (!active.empty())
        endSessionAt(active.size() - 1, arrival);
    tracer.end(root, arrival);
    pass.hostSeconds += hostNow() - loop0 - twin_seconds;

    // ---- End-state probes (traced passes only) ----
    if (tracer.enabled()) {
        for (uint32_t s = 0; s < router.shardCount(); ++s) {
            if (!router.shardLive(s))
                continue;
            core::FreePartRuntime &runtime = router.runtime(s);
            for (uint32_t p = 0; p < runtime.plan().partitionCount(); ++p) {
                if (!runtime.agentAlive(p))
                    continue;
                double t0 = hostNow();
                runtime.checkpointAgent(p);
                pass.checkpointProbeMs.add((hostNow() - t0) * 1e3);
            }
        }
        // Objects scrubbed at session end must be gone everywhere.
        for (const auto &[s, id] : scrubbed) {
            if (!router.shardLive(s))
                continue;
            double t0 = hostNow();
            bool found = router.runtime(s).hasObject(id);
            pass.missProbeUs.add((hostNow() - t0) * 1e6);
            if (found)
                pass.errors.push_back("scrubbed object still resolves");
        }
    }

    // At-least-once audit: every acknowledged token must still answer
    // from the cluster dedup cache.
    for (const auto &[seq, key] : acked) {
        shard::RoutedCall replay =
            router.invoke(key, "cv2.bitwise_not", {}, seq);
        if (!replay.result.ok || !replay.deduped)
            ++totals.lostAcks;
    }
    scaler.finish(arrival);
    router.drainAll();
    const shard::ClusterStats &cs = router.stats();
    const serve::AutoscalerStats &ss = scaler.stats();
    const serve::AgentPoolStats &ps = pool.stats();
    totals.counters.add(cs.shardTotals);
    totals.makespan += last_done;
    totals.twinSim += twin_kernel.now();
    totals.shardSeconds += ss.shardSeconds;
    totals.crossShardCalls += cs.crossShardCalls;
    totals.migratedBytes += cs.migratedBytes;
    totals.replicaBytes += cs.replicaBytes;
    totals.shedCalls += cs.shedCalls;
    totals.deadlineMisses += cs.deadlineMisses;
    totals.hedgedCalls += cs.hedgedCalls;
    totals.degradedCalls += cs.degradedCalls;
    totals.scrubbed += cs.sessionObjectsScrubbed;
    totals.imbalance.add(cs.imbalance());
    totals.warmCheckouts += ps.warmCheckouts;
    totals.checkouts += ps.warmCheckouts + ps.coldFallbacks;
    totals.poolWait += ps.waitedTotal;
    totals.scaleUps += ss.scaleUps;
    totals.scaleDowns += ss.scaleDowns;
    totals.ticks += ss.ticks;
    totals.maxDepth = std::max(totals.maxDepth, ss.maxDepthSeen);
    fold(pass.fingerprint, cs.makespan);
    fold(pass.fingerprint, ss.scaleUps);
    fold(pass.fingerprint, ss.scaleDowns);
    fold(pass.fingerprint, ps.warmCheckouts);
    fold(pass.fingerprint, twin_kernel.now());
}

Pass
ServeWorkload::run(Tracer &tracer)
{
    Pass pass;
    Totals t;
    for (uint32_t k = 0; k < runsPerPass_; ++k)
        serveOnce(tracer, k ? mixSeed(trafficSeed_ + k) : trafficSeed_,
                  pass, t);

    if (t.lostAcks)
        pass.errors.push_back(std::to_string(t.lostAcks) +
                              " acknowledged calls lost");
    if (pass.failed)
        pass.errors.push_back("unexplained failed call");
    if (t.counters.sum.memFaults || t.counters.sum.syscallDenials)
        pass.errors.push_back("memory fault or syscall denial");

    auto share = [](uint64_t part, uint64_t whole) {
        return whole ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
    };
    pass.simMakespanMs = static_cast<double>(t.makespan) / 1e6;
    pass.sim["failed_share"] =
        share(pass.failed + pass.expectedFailures, pass.calls);
    pass.sim["slo_attainment"] = share(t.ackedInDeadline, pass.calls);
    pass.sim["shard_seconds"] = t.shardSeconds;
    pass.sim["lost_acks"] = static_cast<double>(t.lostAcks);
    pass.sim["lost_objects"] = static_cast<double>(t.lostObjects);
    fold(pass.fingerprint, pass.calls);
    fold(pass.fingerprint, t.ackedInDeadline);

    t.counters.report(pass.layer);
    Report &layer = pass.layer;
    auto count = [&layer](const char *name, uint64_t value) {
        layer.set(name, static_cast<double>(value), "count", 1);
    };
    auto bytes = [&layer](const char *name, uint64_t value) {
        layer.set(name, static_cast<double>(value), "bytes", 1);
    };
    layer.set("fw.twin_sim_ms", static_cast<double>(t.twinSim) / 1e6, "ms",
              t.twinCalls);
    layer.absent("core.invoke_sim_us.p50", "us");
    layer.absent("core.invoke_sim_us.p99", "us");
    layer.set("shard.queue_wait_us.p50", t.queueWaitUs.quantile(0.5), "us",
              t.queueWaitUs.count());
    layer.set("shard.queue_wait_us.p99", t.queueWaitUs.quantile(0.99), "us",
              t.queueWaitUs.count());
    count("shard.cross_shard_calls", t.crossShardCalls);
    bytes("shard.migrated_bytes", t.migratedBytes);
    bytes("shard.replica_bytes", t.replicaBytes);
    count("shard.shed_calls", t.shedCalls);
    count("shard.deadline_misses", t.deadlineMisses);
    count("shard.hedged_calls", t.hedgedCalls);
    count("shard.degraded_calls", t.degradedCalls);
    layer.set("shard.imbalance", t.imbalance.mean(), "ratio",
              t.imbalance.count());
    count("shard.objects_scrubbed", t.scrubbed);
    layer.set("serve.pool_warm_share", share(t.warmCheckouts, t.checkouts),
              "ratio", t.checkouts);
    layer.set("serve.pool_wait_ms", static_cast<double>(t.poolWait) / 1e6,
              "ms", t.checkouts);
    count("serve.scale_ups", t.scaleUps);
    count("serve.scale_downs", t.scaleDowns);
    layer.set("serve.max_depth", t.maxDepth, "depth", t.ticks);
    return pass;
}

} // namespace

SimTime
calibrateMeanService(const FrameworkContext &ctx)
{
    apps::WorkloadGenerator generator(*ctx.registry,
                                      workloadConfig(Size::Fidelity));
    shard::ShardRouterConfig config;
    config.shardCount = 1;
    config.runtime.ringBytes = 2 << 20;
    shard::ShardRouter router(
        *ctx.registry, ctx.cats, core::PartitionPlan::freePartDefault(),
        std::move(config),
        [&generator](osim::Kernel &kernel) { generator.seedInputs(kernel); });
    uint64_t token = 0;
    ipc::ValueList load;
    load.emplace_back(std::string("/data/test.fpim"));
    shard::RoutedCall first =
        router.invoke(1, "cv2.imread", std::move(load), ++token);
    uint64_t calls = 1;
    ipc::Value chain = first.result.values.at(0);
    for (size_t round = 0; round < 4; ++round) {
        for (const char *op : kOps) {
            ipc::ValueList args;
            args.push_back(chain);
            shard::RoutedCall routed =
                router.invoke(1, op, std::move(args), ++token);
            ++calls;
            if (routed.result.ok && !routed.result.values.empty() &&
                routed.result.values[0].kind() == ipc::Value::Kind::Ref)
                chain = routed.result.values[0];
        }
    }
    router.drainAll();
    return std::max<SimTime>(1, router.stats().makespan / calls);
}

std::unique_ptr<Workload>
makeTenantServe(Size size, uint64_t seed)
{
    return std::make_unique<ServeWorkload>(size, seed);
}

} // namespace perfbench
