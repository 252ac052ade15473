#include "serve/tenant_workload.hh"

#include <algorithm>
#include <string_view>

#include "util/logging.hh"
#include "util/rng.hh"

namespace freepart::serve {

double
percentileUs(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

LatencySummary
summarizeLatencies(std::vector<double> &samplesUs)
{
    std::sort(samplesUs.begin(), samplesUs.end());
    return {percentileUs(samplesUs, 0.50), percentileUs(samplesUs, 0.99),
            percentileUs(samplesUs, 0.999)};
}

std::vector<ScriptCall>
sessionScript(const apps::WorkloadGenerator &generator,
              const apps::AppModel &model)
{
    std::vector<ScriptCall> script;
    size_t op = static_cast<size_t>(model.id); // de-phase op cycles
    for (const apps::WorkloadCall &call : generator.trace(model)) {
        if (call.startsRound)
            script.push_back({"cv2.imread", true});
        else
            script.push_back({kChainOps[op++ % kChainOps.size()]});
    }
    script.push_back({"cv2.imwrite"});
    return script;
}

shard::RoutedCall
ClusterClient::step(Chain &chain, uint64_t key, const ScriptCall &call,
                    const std::string &store_path,
                    const shard::CallOptions &opts)
{
    const char *api = call.api;
    ipc::ValueList args;
    if (call.load || !chain.live) {
        api = "cv2.imread";
        args.emplace_back(std::string("/data/test.fpim"));
    } else {
        if (std::string_view(api) == "cv2.imwrite")
            args.emplace_back(store_path);
        args.push_back(chain.head);
    }
    shard::RoutedCall routed =
        loop_ == Loop::Open
            ? router_.invokeAt(key, api, std::move(args), opts)
            : router_.invoke(key, api, std::move(args), opts.dedupToken);
    if (!routed.result.ok) {
        chain.live = false;
        return routed;
    }
    acked_.emplace_back(opts.dedupToken, key);
    latencyUs_.push_back(latencyUs(routed));
    if (!routed.result.values.empty() &&
        routed.result.values[0].kind() == ipc::Value::Kind::Ref) {
        chain.head = routed.result.values[0];
        chain.live = true;
    }
    return routed;
}

uint64_t
ClusterClient::auditAcks()
{
    uint64_t lost = 0;
    for (const auto &[token, key] : acked_) {
        shard::RoutedCall replay =
            router_.invoke(key, "cv2.bitwise_not", {}, token);
        if (!replay.result.ok || !replay.deduped)
            ++lost;
    }
    return lost;
}

osim::SimTime
calibrateMeanService(const fw::ApiRegistry &registry,
                     const analysis::Categorization &categorization,
                     const apps::WorkloadGenerator &generator)
{
    shard::ShardRouterConfig config;
    config.shardCount = 1;
    config.runtime.ringBytes = 2 << 20;
    shard::ShardRouter router(
        registry, categorization, core::PartitionPlan::freePartDefault(),
        std::move(config), [&generator](osim::Kernel &kernel) {
            generator.seedInputs(kernel);
        });
    ClusterClient client(router, ClusterClient::Loop::Closed);
    Chain chain;
    uint64_t token = 0;
    client.step(chain, 1, {"cv2.imread", true}, "", {.dedupToken = ++token});
    for (size_t round = 0; round < 4; ++round)
        for (const char *op : kChainOps)
            client.step(chain, 1, {op}, "", {.dedupToken = ++token});
    router.drainAll();
    return std::max<osim::SimTime>(1, router.stats().makespan / token);
}

TenantTrafficGenerator::TenantTrafficGenerator(
    const apps::WorkloadGenerator &generator,
    TenantWorkloadConfig config)
    : config_(config)
{
    if (config_.tenants == 0)
        util::fatal("TenantTrafficGenerator: tenants must be >= 1");
    if (config_.zipfExponent < 0.0)
        util::fatal("TenantTrafficGenerator: zipfExponent must be "
                    ">= 0");
    for (const apps::AppModel &model : apps::appModels())
        scripts_.push_back(sessionScript(generator, model));
}

uint64_t
TenantTrafficGenerator::keyOf(uint32_t tenant) const
{
    return kTenantKeyBase + static_cast<uint64_t>(tenant) * 131;
}

ServeOutcome
TenantTrafficGenerator::run(shard::ShardRouter &router,
                            const std::vector<RampPhase> &phases,
                            Autoscaler *scaler, WarmAgentPool *pool)
{
    struct Tenant {
        int32_t activeIdx = -1; //!< slot in `active`, -1 = none
        uint64_t issued = 0;
        std::vector<double> latenciesUs;
    };
    struct ActiveSession {
        uint32_t tenant = 0;
        size_t next = 0;
        Chain chain;
        uint32_t leaseShard = 0;
    };

    util::Rng rng(kTenantSeed);
    util::ZipfSampler popularity(config_.tenants,
                                 config_.zipfExponent);
    std::vector<Tenant> tenants(config_.tenants);
    std::vector<ActiveSession> active;
    active.reserve(config_.maxConcurrentSessions);
    if (pool)
        pool->ensureShards(router.shardCount());

    ServeOutcome out;
    ClusterClient client(router, ClusterClient::Loop::Open);
    osim::SimTime arrival = 0;
    uint64_t token = 0;

    auto endSessionAt = [&](size_t idx, osim::SimTime now) {
        ActiveSession &session = active[idx];
        router.endSession(keyOf(session.tenant));
        if (pool)
            pool->release(session.leaseShard, now);
        tenants[session.tenant].activeIdx = -1;
        if (idx + 1 != active.size()) {
            active[idx] = std::move(active.back());
            tenants[active[idx].tenant].activeIdx =
                static_cast<int32_t>(idx);
        }
        active.pop_back();
    };

    for (const RampPhase &phase : phases) {
        for (uint64_t i = 0; i < phase.calls; ++i) {
            arrival += std::max<osim::SimTime>(
                1, static_cast<osim::SimTime>(rng.exponential(
                       static_cast<double>(
                           phase.meanInterarrival))));
            auto t = static_cast<uint32_t>(popularity.draw(rng));

            if (tenants[t].activeIdx < 0) {
                if (active.size() <
                    config_.maxConcurrentSessions) {
                    // Session start: check an agent set out of the
                    // warm pool on the key's owner shard and charge
                    // the acquisition to its horizon — the session's
                    // first call queues behind it.
                    uint64_t key = keyOf(t);
                    uint32_t owner = router.ownerShardOf(key);
                    if (owner == shard::kInvalidShard)
                        owner = 0;
                    PoolCheckout checkout;
                    checkout.warm = true; // free start without a pool
                    if (pool)
                        checkout = pool->checkout(owner, arrival);
                    router.chargeSessionStart(key, arrival,
                                              checkout.cost,
                                              checkout.warm);
                    tenants[t].activeIdx =
                        static_cast<int32_t>(active.size());
                    ActiveSession &fresh = active.emplace_back();
                    fresh.tenant = t;
                    fresh.leaseShard = owner;
                    ++out.sessionsStarted;
                } else {
                    // Admission cap full: the frontend parks the new
                    // tenant and the arrival advances an active
                    // session instead (deterministic pick).
                    t = active[t % active.size()].tenant;
                }
            }

            ActiveSession &session =
                active[static_cast<size_t>(tenants[t].activeIdx)];
            Tenant &tenant = tenants[t];
            uint64_t key = keyOf(t);
            const std::vector<ScriptCall> &script =
                scripts_[t % scripts_.size()];
            shard::CallOptions opts;
            opts.dedupToken = ++token;
            opts.arrival = arrival;
            shard::RoutedCall routed = client.step(
                session.chain, key, script[session.next++],
                "/out/tenant" + std::to_string(t) + ".fpim", opts);
            ++out.issued;
            ++tenant.issued;
            if (routed.result.ok) {
                if (!routed.deadlineMissed)
                    ++out.ackedInDeadline;
                tenant.latenciesUs.push_back(latencyUs(routed));
            }

            if (session.next >= script.size()) {
                // Session end: scrub the tenant's objects cluster-
                // wide and return the agent set to the pool (its
                // clean-epoch reset runs in the background).
                endSessionAt(
                    static_cast<size_t>(tenants[t].activeIdx),
                    arrival);
                ++out.sessionsCompleted;
            }

            if (scaler)
                scaler->observe(arrival);
        }
    }
    out.lastArrival = arrival;

    // Close out sessions still mid-script so lease accounting and the
    // scrub counters balance.
    while (!active.empty())
        endSessionAt(active.size() - 1, arrival);

    // At-least-once audit: session teardown scrubs objects, never
    // acks.
    out.acked = client.acked();
    out.lostAcks = client.auditAcks();

    if (scaler)
        scaler->finish(arrival);
    router.drainAll();
    out.cluster = router.stats();
    if (scaler) {
        out.scaler = scaler->stats();
        out.shardSeconds = out.scaler.shardSeconds;
    } else {
        out.shardSeconds = static_cast<double>(
                               router.liveShardCount()) *
                           static_cast<double>(arrival) * 1e-9;
    }
    if (pool)
        out.pool = pool->stats();

    out.sloAttainment =
        out.issued ? static_cast<double>(out.ackedInDeadline) /
                         static_cast<double>(out.issued)
                   : 0.0;
    out.latency = client.latency();

    uint64_t hottest = 0;
    for (Tenant &tenant : tenants) {
        if (tenant.issued > 0)
            ++out.tenantsTouched;
        hottest = std::max(hottest, tenant.issued);
        if (tenant.latenciesUs.size() < kTenantPercentileMinAcks)
            continue;
        ++out.tenantsInBreakdown;
        out.worstTenantP99Us =
            std::max(out.worstTenantP99Us,
                     summarizeLatencies(tenant.latenciesUs).p99Us);
    }
    out.hottestTenantShare =
        out.issued ? static_cast<double>(hottest) /
                         static_cast<double>(out.issued)
                   : 0.0;
    return out;
}

} // namespace freepart::serve
