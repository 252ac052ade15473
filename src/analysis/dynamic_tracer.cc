#include "analysis/dynamic_tracer.hh"

#include <algorithm>

#include "util/logging.hh"

namespace freepart::analysis {

DynamicTracer::DynamicTracer()
    : kernel(std::make_unique<osim::Kernel>())
{
    osim::Process &proc = kernel->spawn("dynamic-tracer");
    tracerPid = proc.pid();
    fw::seedFixtureFiles(*kernel);
    store = std::make_unique<fw::ObjectStore>(*kernel, tracerPid,
                                              &idCounter);
    invoker = std::make_unique<fw::Invoker>(*kernel, *store,
                                            /*partition=*/0);
}

TraceResult
DynamicTracer::trace(const fw::ApiDescriptor &api, int runs)
{
    TraceResult result;
    if (!api.implemented())
        return result;

    osim::Process &proc = kernel->process(tracerPid);
    // Fresh device-connection state per API: init-only syscalls
    // (socket/connect/open) must show up in EVERY API's profile,
    // not just the first GUI/camera API traced (§4.4.1 derives the
    // per-API required-syscall sets from these traces).
    fw::DeviceFds fresh_devices;
    for (int run = 0; run < runs; ++run) {
        fw::FlowTrace sink;
        fw::ExecContext ctx(*kernel, proc, *store, fresh_devices,
                            /*partition=*/0);
        ctx.setTraceSink(&sink);
        auto counts_before = proc.syscallCounts;
        try {
            ipc::ValueList args = invoker->prepareArgs(
                api, static_cast<uint64_t>(run));
            api.fn(ctx, api, args);
            result.executed = true;
        } catch (const std::exception &e) {
            util::warn("tracer: %s raised: %s", api.name.c_str(),
                       e.what());
        }
        for (const fw::FlowOp &op : sink.ops) {
            if (std::find(result.ops.begin(), result.ops.end(), op) ==
                result.ops.end())
                result.ops.push_back(op);
        }
        for (size_t i = 0; i < osim::kNumSyscalls; ++i)
            if (proc.syscallCounts[i] > counts_before[i])
                result.syscalls.insert(
                    static_cast<osim::Syscall>(i));
    }
    return result;
}

CoverageReport
DynamicTracer::coverFramework(const fw::ApiRegistry &registry,
                              fw::Framework framework)
{
    CoverageReport report;
    for (const fw::ApiDescriptor *api :
         registry.byFramework(framework)) {
        ++report.apisTotal;
        report.irOpsTotal += api->ir.size();
        TraceResult t = trace(*api);
        if (!t.executed)
            continue;
        ++report.apisExecuted;
        // IR ops observed: declared ops matched by an observed op
        // (ignoring the indirect flag — dynamic analysis sees through
        // indirection).
        for (const fw::FlowOp &declared : api->ir) {
            bool seen =
                std::find(t.ops.begin(), t.ops.end(), declared) !=
                t.ops.end();
            // The file-copy reduction may have merged a declared
            // spill/reload pair into a MEM->MEM op at runtime.
            if (!seen) {
                fw::FlowOp mem_mem{fw::StorageKind::Mem,
                                   fw::StorageKind::Mem, false};
                seen = std::find(t.ops.begin(), t.ops.end(),
                                 mem_mem) != t.ops.end();
            }
            if (seen)
                ++report.irOpsObserved;
        }
    }
    return report;
}

} // namespace freepart::analysis
