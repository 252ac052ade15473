#include "serve/tenant_workload.hh"

#include <algorithm>
#include <map>

#include "util/logging.hh"
#include "util/rng.hh"

namespace freepart::serve {

namespace {

/** Unary Mat ops standing in for processing chains (the app model's
 *  trace supplies the call structure; these supply the work). */
const char *const kOps[] = {"cv2.GaussianBlur", "cv2.erode",
                            "cv2.dilate",       "cv2.flip",
                            "cv2.normalize",    "cv2.bitwise_not"};
constexpr size_t kNumOps = sizeof(kOps) / sizeof(*kOps);

} // namespace

double
percentileUs(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
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
    const std::vector<apps::AppModel> &models = apps::appModels();
    for (const apps::AppModel &model : models) {
        std::vector<ScriptCall> script;
        size_t op = static_cast<size_t>(model.id); // de-phase op cycles
        for (const apps::WorkloadCall &call : generator.trace(model)) {
            if (call.startsRound)
                script.push_back({"cv2.imread", true});
            else
                script.push_back({kOps[op++ % kNumOps], false});
        }
        script.push_back({"cv2.imwrite", false});
        scripts_.push_back(std::move(script));
    }
}

uint64_t
TenantTrafficGenerator::keyOf(uint32_t tenant) const
{
    return kTenantKeyBase + static_cast<uint64_t>(tenant) * 131;
}

size_t
TenantTrafficGenerator::sessionLength(uint32_t tenant) const
{
    return scripts_[tenant % scripts_.size()].size();
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
        ipc::Value chain;
        bool haveChain = false;
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
    std::vector<double> latenciesUs;
    std::vector<std::pair<uint64_t, uint64_t>> acked; // token, key
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
                    ActiveSession fresh;
                    fresh.tenant = t;
                    fresh.leaseShard = owner;
                    active.push_back(std::move(fresh));
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
            const ScriptCall &call = script[session.next++];
            ipc::ValueList args;
            std::string api = call.api;
            if (call.load || !session.haveChain) {
                // Round boundary — or the chain was lost (shed call,
                // chaos) and the app rebuilds from a fresh load.
                api = "cv2.imread";
                args.emplace_back(std::string("/data/test.fpim"));
            } else if (api == "cv2.imwrite") {
                args.emplace_back(std::string("/out/tenant") +
                                  std::to_string(t) + ".fpim");
                args.push_back(session.chain);
            } else {
                args.push_back(session.chain);
            }

            shard::CallOptions opts;
            opts.dedupToken = ++token;
            opts.arrival = arrival;
            shard::RoutedCall routed =
                router.invokeAt(key, api, std::move(args), opts);
            ++out.issued;
            ++tenant.issued;

            if (routed.result.ok) {
                ++out.acked;
                if (!routed.deadlineMissed)
                    ++out.ackedInDeadline;
                acked.emplace_back(opts.dedupToken, key);
                double us =
                    static_cast<double>(routed.latency) / 1000.0;
                latenciesUs.push_back(us);
                tenant.latenciesUs.push_back(us);
                if (!routed.result.values.empty() &&
                    routed.result.values[0].kind() ==
                        ipc::Value::Kind::Ref) {
                    session.chain = routed.result.values[0];
                    session.haveChain = true;
                }
            } else {
                session.haveChain = false;
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

    // At-least-once audit: every acknowledged token must still answer
    // from the cluster dedup cache — session teardown scrubs objects,
    // never acks.
    for (const auto &[seq, key] : acked) {
        shard::RoutedCall replay =
            router.invoke(key, "cv2.bitwise_not", {}, seq);
        if (!replay.result.ok || !replay.deduped)
            ++out.lostAcks;
    }

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
    std::sort(latenciesUs.begin(), latenciesUs.end());
    out.p50Us = percentileUs(latenciesUs, 0.50);
    out.p99Us = percentileUs(latenciesUs, 0.99);
    out.p999Us = percentileUs(latenciesUs, 0.999);

    uint64_t hottest = 0;
    for (Tenant &tenant : tenants) {
        if (tenant.issued > 0)
            ++out.tenantsTouched;
        hottest = std::max(hottest, tenant.issued);
        if (tenant.latenciesUs.size() < kTenantPercentileMinAcks)
            continue;
        std::sort(tenant.latenciesUs.begin(),
                  tenant.latenciesUs.end());
        ++out.tenantsInBreakdown;
        out.worstTenantP99Us =
            std::max(out.worstTenantP99Us,
                     percentileUs(tenant.latenciesUs, 0.99));
    }
    out.hottestTenantShare =
        out.issued ? static_cast<double>(hottest) /
                         static_cast<double>(out.issued)
                   : 0.0;
    return out;
}

} // namespace freepart::serve
