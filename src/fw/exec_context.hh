/**
 * @file
 * ExecContext: the environment a framework API body executes in. It
 * binds the body to one simulated process (its memory, fd table, and
 * syscall filter), one object store, and the tracing hooks the
 * dynamic analysis uses. Whether that process is the host (no
 * isolation) or an agent (FreePart / baselines) is decided by the
 * runtime — API bodies are oblivious, exactly like LD_PRELOAD-hooked
 * framework functions in the paper.
 */

#ifndef FREEPART_FW_EXEC_CONTEXT_HH
#define FREEPART_FW_EXEC_CONTEXT_HH

#include <vector>

#include "fw/api_types.hh"
#include "fw/object_store.hh"
#include "osim/kernel.hh"

namespace freepart::fw {

/** Per-process device-connection cache (persists across API calls). */
struct DeviceFds {
    osim::Fd camera = -1; //!< open fd for /dev/camera0
    osim::Fd gui = -1;    //!< connected GUI socket
    osim::Fd net = -1;    //!< connected download socket
};

/** Observed data-flow trace sink (dynamic analysis). */
struct FlowTrace {
    std::vector<FlowOp> ops; //!< observed W(dst, R(src)) ops
};

/**
 * Execution context for one framework API invocation.
 */
class ExecContext
{
  public:
    ExecContext(osim::Kernel &kernel, osim::Process &proc,
                ObjectStore &store, DeviceFds &devices,
                uint32_t partition)
        : kernel_(kernel), proc_(proc), store_(store),
          devices(devices), partition_(partition)
    {
    }

    osim::Kernel &kernel() { return kernel_; }
    osim::Process &proc() { return proc_; }
    osim::AddressSpace &space() { return proc_.space(); }
    ObjectStore &store() { return store_; }
    uint32_t partition() const { return partition_; }

    // ---- Dynamic-analysis tracing -----------------------------------

    /** Direct observed flow ops into sink (nullptr disables). */
    void setTraceSink(FlowTrace *sink) { trace = sink; }

    /** Record one observed data-flow operation. */
    void
    traceOp(StorageKind dst, StorageKind src)
    {
        if (trace)
            trace->ops.push_back({dst, src, false});
    }

    // ---- Costs -------------------------------------------------------

    /** Charge compute time for an n-element kernel. */
    void
    chargeCompute(size_t elements)
    {
        kernel_.advance(kernel_.costs().computeCost(elements));
    }

    // ---- Devices (lazily opened, cached per process) ------------------

    /** Open (once) and return the camera fd. */
    osim::Fd cameraFd();

    /**
     * Connect (once) and return the GUI socket fd. The one-time
     * connect() is exactly the init-only syscall pattern of §4.4.1.
     */
    osim::Fd guiFd();

    /** Connect (once) and return the network download socket. */
    osim::Fd netFd(const std::string &dest);

    // ---- Allocation helpers ------------------------------------------

    /** Allocate a Mat buffer in this process. */
    MatDesc allocMat(uint32_t rows, uint32_t cols, uint32_t channels,
                     const std::string &label = "mat");

    /** Allocate a Tensor buffer in this process. */
    TensorDesc allocTensor(std::vector<uint32_t> shape,
                           const std::string &label = "tensor");

  private:
    osim::Kernel &kernel_;
    osim::Process &proc_;
    ObjectStore &store_;
    DeviceFds &devices;
    uint32_t partition_;
    FlowTrace *trace = nullptr;
};

} // namespace freepart::fw

#endif // FREEPART_FW_EXEC_CONTEXT_HH
