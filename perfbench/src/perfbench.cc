#include "perfbench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "util/logging.hh"

namespace perfbench {

double
peakRssMiB()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
hostSpeedProbe()
{
    static std::vector<uint8_t> src(8 << 20, 0x5a), dst(8 << 20);
    static std::map<uint64_t, uint64_t> table;
    double t0 = hostNow();
    std::memcpy(dst.data(), src.data(), src.size());
    uint64_t hash = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < (512u << 10); ++i)
        hash = (hash ^ dst[i]) * 0x100000001b3ull;
    table.clear();
    for (uint64_t i = 0; i < 2048; ++i)
        table[mixSeed(i ^ hash)] = i;
    for (uint64_t i = 0; i < 2048; ++i)
        hash += table.count(mixSeed(i));
    asm volatile("" : : "g"(hash) : "memory"); // keep the work
    return hostNow() - t0;
}

void
Samples::append(const Samples &other)
{
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
}

double
Samples::sum() const
{
    return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double
Samples::mean() const
{
    return values_.empty() ? 0.0
                           : sum() / static_cast<double>(values_.size());
}

double
Samples::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    auto idx = static_cast<size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

void
Report::set(const std::string &name, double value,
            const std::string &unit, uint64_t samples)
{
    if (!metrics_.count(name))
        order_.push_back(name);
    metrics_[name] = Metric{value, unit, samples, true};
}

void
Report::absent(const std::string &name, const std::string &unit)
{
    if (!metrics_.count(name))
        order_.push_back(name);
    metrics_[name] = Metric{0.0, unit, 0, false};
}

bool
Report::has(const std::string &name) const
{
    return metrics_.count(name) > 0;
}

const Metric &
Report::get(const std::string &name) const
{
    auto it = metrics_.find(name);
    if (it == metrics_.end())
        freepart::util::panic("perfbench: no metric %s", name.c_str());
    return it->second;
}

const char *
opName(Op op)
{
    switch (op) {
    case Op::Replay: return "bench.replay";
    case Op::PrepareArgs: return "apps.prepare_args";
    case Op::Invoke: return "core.invoke";
    case Op::InvokeAsync: return "core.invoke_async";
    case Op::PeekResult: return "core.peek_result";
    case Op::DrainAll: return "core.drain_all";
    case Op::FetchToHost: return "core.fetch_to_host";
    case Op::HasObject: return "core.has_object";
    case Op::TwinInvoke: return "fw.twin_invoke";
    case Op::InvokeAt: return "shard.invoke_at";
    case Op::SessionStart: return "shard.charge_session_start";
    case Op::EndSession: return "shard.end_session";
    case Op::PoolCheckout: return "serve.pool_checkout";
    case Op::PoolRelease: return "serve.pool_release";
    case Op::Observe: return "serve.autoscaler_observe";
    case Op::Count: break;
    }
    return "?";
}

uint32_t
Tracer::open(Op op, uint64_t call, SimTime sim)
{
    Span span;
    span.op = op;
    span.parent = stack_.empty() ? kNone : stack_.back();
    if (call == 0 && span.parent != kNone)
        call = spans_[span.parent].call;
    span.call = call;
    span.simStart = sim;
    span.hostStart = hostNow();
    auto idx = static_cast<uint32_t>(spans_.size());
    spans_.push_back(span);
    stack_.push_back(idx);
    return idx;
}

void
Tracer::close(uint32_t span, SimTime sim)
{
    Span &s = spans_[span];
    s.hostEnd = hostNow();
    s.simEnd = sim;
    if (!stack_.empty() && stack_.back() == span)
        stack_.pop_back();
}

std::vector<Tracer::OpTotals>
Tracer::totals(size_t from, size_t to) const
{
    std::vector<OpTotals> out(static_cast<size_t>(Op::Count));
    std::vector<double> childSeconds(to - from, 0.0);
    for (size_t i = from; i < to; ++i) {
        const Span &s = spans_[i];
        if (s.parent != kNone && s.parent >= from)
            childSeconds[s.parent - from] += s.hostEnd - s.hostStart;
    }
    for (size_t i = from; i < to; ++i) {
        const Span &s = spans_[i];
        double dur = s.hostEnd - s.hostStart;
        OpTotals &t = out[static_cast<size_t>(s.op)];
        t.selfSeconds += dur - childSeconds[i - from];
        t.hostUs.add(dur * 1e6);
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    double origin = spans_.empty() ? 0.0 : spans_.front().hostStart;
    std::fprintf(file, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(
            file,
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
            "\"parent\":%lld,\"call\":%llu,\"sim_start_ns\":%llu,"
            "\"sim_end_ns\":%llu}}%s\n",
            opName(s.op), (s.hostStart - origin) * 1e6,
            (s.hostEnd - s.hostStart) * 1e6, i,
            s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
            static_cast<unsigned long long>(s.call),
            static_cast<unsigned long long>(s.simStart),
            static_cast<unsigned long long>(s.simEnd),
            i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
}

void
CoreCounters::add(const freepart::core::RunStats &s)
{
    freepart::core::RunStats &t = sum;
    t.apiCalls += s.apiCalls;
    t.ipcMessages += s.ipcMessages;
    t.bytesTransferred += s.bytesTransferred;
    t.lazyCopies += s.lazyCopies;
    t.directCopies += s.directCopies;
    t.eagerCopies += s.eagerCopies;
    t.piggybackedFetches += s.piggybackedFetches;
    t.hotSends += s.hotSends;
    t.protectionFlips += s.protectionFlips;
    t.stateChanges += s.stateChanges;
    t.agentRestarts += s.agentRestarts;
    t.retriedCalls += s.retriedCalls;
    t.memFaults += s.memFaults;
    t.syscallDenials += s.syscallDenials;
    t.dedupHits += s.dedupHits;
    t.quarantines += s.quarantines;
    t.hostFallbackCalls += s.hostFallbackCalls;
    t.checkpointsTaken += s.checkpointsTaken;
    t.checkpointBytesSaved += s.checkpointBytesSaved;
    t.checkpointBytesRestored += s.checkpointBytesRestored;
    t.checkpointFallbacks += s.checkpointFallbacks;
    t.standbyPromotions += s.standbyPromotions;
    t.recoveries += s.recoveries;
    t.recoveryTime += s.recoveryTime;
    t.backoffTime += s.backoffTime;
    t.pipelineBarriers += s.pipelineBarriers;
    t.inFlightStalls += s.inFlightStalls;
    t.speculationStarts += s.speculationStarts;
    t.speculationRollbacks += s.speculationRollbacks;
    t.speculativeFetches += s.speculativeFetches;
    t.recoveredBarrierTime += s.recoveredBarrierTime;
    overlap.add(s.overlapFraction());
}

void
CoreCounters::report(Report &r) const
{
    const freepart::core::RunStats &s = sum;
    auto share = [](uint64_t part, uint64_t whole) {
        return whole ? static_cast<double>(part) /
                           static_cast<double>(whole)
                     : 0.0;
    };
    auto count = [&r](const char *name, uint64_t value) {
        r.set(name, static_cast<double>(value), "count", 1);
    };
    auto simMs = [&r](const char *name, SimTime ns) {
        r.set(name, static_cast<double>(ns) / 1e6, "ms", 1);
    };
    uint64_t copies = s.lazyCopies + s.directCopies + s.eagerCopies;
    count("core.checkpoint_count", s.checkpointsTaken);
    r.set("core.checkpoint_bytes_saved",
          static_cast<double>(s.checkpointBytesSaved), "bytes", 1);
    r.set("core.checkpoint_bytes_restored",
          static_cast<double>(s.checkpointBytesRestored), "bytes", 1);
    count("core.checkpoint_fallbacks", s.checkpointFallbacks);
    r.set("core.ldc_lazy_share",
          share(s.lazyCopies + s.directCopies, copies), "ratio",
          copies);
    r.set("core.ldc_bytes", static_cast<double>(s.bytesTransferred),
          "bytes", 1);
    count("core.eager_copies", s.eagerCopies);
    count("ipc.messages", s.ipcMessages);
    r.set("ipc.hot_send_share", share(s.hotSends, s.ipcMessages),
          "ratio", s.ipcMessages);
    count("ipc.piggybacked_fetches", s.piggybackedFetches);
    count("core.protection_flips", s.protectionFlips);
    count("core.state_changes", s.stateChanges);
    count("osim.syscall_denials", s.syscallDenials);
    count("osim.mem_faults", s.memFaults);
    count("osim.faults_injected", faultsInjected);
    count("core.restarts", s.agentRestarts);
    count("core.standby_promotions", s.standbyPromotions);
    count("core.retried_calls", s.retriedCalls);
    count("core.dedup_hits", s.dedupHits);
    count("core.quarantines", s.quarantines);
    count("core.host_fallback_calls", s.hostFallbackCalls);
    simMs("core.backoff_ms", s.backoffTime);
    simMs("core.recovery_ms", s.recoveryTime);
    count("core.spec_starts", s.speculationStarts);
    r.set("core.spec_rollback_share",
          share(s.speculationRollbacks, s.speculationStarts), "ratio",
          s.speculationStarts);
    count("core.spec_fetches", s.speculativeFetches);
    simMs("core.spec_recovered_barrier_ms", s.recoveredBarrierTime);
    count("core.pipeline_barriers", s.pipelineBarriers);
    count("core.inflight_stalls", s.inFlightStalls);
    r.set("core.overlap_fraction", overlap.mean(), "ratio",
          overlap.count());
}

std::unique_ptr<FrameworkContext>
FrameworkContext::build()
{
    auto ctx = std::make_unique<FrameworkContext>();
    ctx->registry = std::make_unique<freepart::fw::ApiRegistry>(
        freepart::fw::buildFullRegistry());
    freepart::analysis::HybridCategorizer categorizer(*ctx->registry);
    ctx->cats = categorizer.categorizeAll();
    return ctx;
}

} // namespace perfbench
