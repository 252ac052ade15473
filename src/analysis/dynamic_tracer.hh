/**
 * @file
 * Dynamic analysis: execute framework APIs in an instrumented scratch
 * process, replaying test-suite-style fixture inputs (§4.2.2), and
 * record the *actual* data-flow operations and syscalls. Catches the
 * flows the static pass misses (indirect ops) and produces the
 * per-API syscall profiles the seccomp policy builder consumes
 * (§4.4.1 "Identifying Required System Calls").
 */

#ifndef FREEPART_ANALYSIS_DYNAMIC_TRACER_HH
#define FREEPART_ANALYSIS_DYNAMIC_TRACER_HH

#include <memory>
#include <set>

#include "fw/api_registry.hh"
#include "fw/invoker.hh"
#include "osim/kernel.hh"

namespace freepart::analysis {

/** Observations from tracing one API. */
struct TraceResult {
    bool executed = false;           //!< body ran to completion
    std::vector<fw::FlowOp> ops;     //!< observed flow operations
    std::set<osim::Syscall> syscalls; //!< syscalls actually issued
};

/** Per-framework coverage of the dynamic pass (Table 11). */
struct CoverageReport {
    size_t apisTotal = 0;
    size_t apisExecuted = 0;
    size_t irOpsTotal = 0;
    size_t irOpsObserved = 0;

    double
    apiCoverage() const
    {
        return apisTotal
                   ? static_cast<double>(apisExecuted) / apisTotal
                   : 0.0;
    }

    double
    irCoverage() const
    {
        return irOpsTotal
                   ? static_cast<double>(irOpsObserved) / irOpsTotal
                   : 0.0;
    }
};

/**
 * The tracer. Owns a private scratch kernel and process so tracing
 * never perturbs the system under test.
 */
class DynamicTracer
{
  public:
    DynamicTracer();

    /** Execute and observe one API with fixture inputs. */
    TraceResult trace(const fw::ApiDescriptor &api, int runs = 1);

    /** Coverage over one framework's APIs (Table 11 rows). */
    CoverageReport coverFramework(const fw::ApiRegistry &registry,
                                  fw::Framework framework);

  private:
    std::unique_ptr<osim::Kernel> kernel;
    osim::Pid tracerPid;
    uint64_t idCounter = 0;
    std::unique_ptr<fw::ObjectStore> store;
    std::unique_ptr<fw::Invoker> invoker;
};

} // namespace freepart::analysis

#endif // FREEPART_ANALYSIS_DYNAMIC_TRACER_HH
