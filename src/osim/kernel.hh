/**
 * @file
 * The simulated kernel: process lifecycle, the filtered syscall
 * surface, shared memory, devices, the VFS and the simulated clock.
 *
 * Two trust domains exist, mirroring the paper's threat model (§2):
 * framework/application code runs *inside* simulated processes and may
 * only touch the world through the filtered sys* calls; the FreePart
 * runtime is "protected via the OS kernel" and uses the trusted*
 * entry points, which bypass per-process seccomp filters (but still
 * respect page permissions and charge simulated time).
 */

#ifndef FREEPART_OSIM_KERNEL_HH
#define FREEPART_OSIM_KERNEL_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "osim/cost_model.hh"
#include "osim/devices.hh"
#include "osim/fault_injection.hh"
#include "osim/process.hh"
#include "osim/types.hh"
#include "osim/vfs.hh"

namespace freepart::osim {

/** Ioctl request code: capture one camera frame. */
constexpr uint64_t kIoctlCaptureFrame = 0xc0de0001;

/** A named shared-memory segment mappable into several processes. */
struct ShmSegment {
    uint32_t id;
    std::string name;
    Backing backing;
};

/**
 * The simulated kernel. Single-threaded and deterministic: syscalls
 * execute synchronously and advance the simulated clock according to
 * the CostModel.
 */
class Kernel
{
  public:
    explicit Kernel(CostModel costs = CostModel());

    // ---- Process lifecycle -------------------------------------------

    /** Create a new process; charges spawn cost. */
    Process &spawn(const std::string &name);

    /** Look up a process by pid; panics on unknown pid. */
    Process &process(Pid pid);
    const Process &process(Pid pid) const;

    /** True if the pid exists (crashed processes still exist). */
    bool hasProcess(Pid pid) const;

    /** Number of processes ever spawned (including crashed). */
    size_t processCount() const { return procs.size(); }

    /** Pids of all live processes. */
    std::vector<Pid> livePids() const;

    /**
     * Restart a crashed/exited process in place: fresh address space,
     * fresh (unlocked) filter, same pid, incarnation+1. Used by
     * FreePart's agent-restart support (§4.4.2).
     */
    Process &respawn(Pid pid);

    /**
     * Restart a crashed process by promoting a pre-spawned warm
     * standby into its slot: same reset semantics as respawn(), but
     * only processPromote is charged to the clock — the fork and
     * runtime init were paid in the background while the old
     * incarnation served. The caller is responsible for having a
     * ready standby (see AgentSupervisor::consumeStandby).
     */
    Process &promote(Pid pid);

    /** Mark a process crashed (fault escalation). */
    void faultProcess(Process &proc, const std::string &why);

    // ---- Clock and costs ---------------------------------------------

    SimTime now() const { return taskActive_ ? taskClock_ : clock; }

    void
    advance(SimTime ns)
    {
        if (taskActive_)
            taskClock_ += ns;
        else
            clock += ns;
    }

    CostModel &costs() { return costModel; }
    const CostModel &costs() const { return costModel; }

    // ---- Per-process virtual timelines (pipeline accounting) ---------
    //
    // Each Process carries a `readyAt` timeline layered on the kernel
    // clock. While a task bracket is open for pid P, every advance()
    // is charged to P's virtual clock instead of the global one; the
    // global clock only catches up at synchronization points (wait,
    // drain, fetch) by taking the max over the timelines involved.
    // Everything stays single-threaded and deterministic — only the
    // *accounting* of time overlaps.

    /**
     * Open a task bracket for `pid` starting at `start_at` (the caller
     * computes the max of the issuing clock, the pid's timeline, and
     * any data dependencies). Brackets do not nest.
     */
    void beginTask(Pid pid, SimTime start_at);

    /**
     * Close the current bracket: records the bracket clock as the
     * pid's `readyAt` and returns it. The global clock is NOT
     * advanced — that is what lets tasks overlap.
     */
    SimTime endTask();

    bool taskActive() const { return taskActive_; }

    /** Virtual timeline of a pid (0 until it first runs a task). */
    SimTime timelineOf(Pid pid) const;

    /** Max over the global clock and every process timeline. */
    SimTime maxTimeline() const;

    /**
     * Quiesce horizon of a pid subset: max over the global clock and
     * the listed processes' timelines. This is when a protection flip
     * touching only those address spaces can safely land — unrelated
     * timelines keep running past it (the speculative-flip commit
     * point, as opposed to the full syncToTimelines barrier).
     */
    SimTime maxTimelineOf(const std::vector<Pid> &pids) const;

    /** Advance the global clock to maxTimeline() (full barrier). */
    void syncToTimelines();

    // ---- Fault injection ----------------------------------------------

    /**
     * Attach (or detach, with nullptr) a fault injector. The kernel
     * does not own it; the caller keeps it alive for the kernel's
     * lifetime. With no injector attached every fault point is free.
     */
    void setFaultInjector(FaultInjector *injector)
    {
        injector_ = injector;
    }

    FaultInjector *faultInjector() { return injector_; }

    /**
     * Consult the attached injector at a fault point; FaultAction::None
     * when no injector is attached or nothing fires.
     */
    FaultAction
    queryFault(FaultPoint point, Pid pid)
    {
        return injector_ ? injector_->query(point, pid)
                         : FaultAction::None;
    }

    // ---- Trusted runtime operations ----------------------------------

    /** Flip page permissions in a process (runtime mprotect path). */
    void trustedProtect(Pid pid, Addr addr, size_t len, Perms perms);

    /**
     * Copy bytes between two processes' address spaces. Respects page
     * permissions on both sides and charges per-byte copy cost. This
     * is the data path for RPC argument marshalling and LDC direct
     * agent-to-agent copies.
     */
    void trustedCopy(Pid src_pid, Addr src, Pid dst_pid, Addr dst,
                     size_t len);

    // ---- Filtered syscall surface ------------------------------------

    /** openat(2): open a VFS file or device node. */
    Fd sysOpen(Process &proc, const std::string &path, bool writable);

    /** read(2): file/device/socket read into process memory. */
    size_t sysRead(Process &proc, Fd fd, Addr dst, size_t len);

    /** write(2): write from process memory to a file. */
    size_t sysWrite(Process &proc, Fd fd, Addr src, size_t len);

    /** close(2). */
    void sysClose(Process &proc, Fd fd);

    /** lseek(2): set the file cursor; returns new offset. */
    size_t sysLseek(Process &proc, Fd fd, size_t offset);

    /** fstat(2): returns the file size. */
    size_t sysFstat(Process &proc, Fd fd);

    /** mmap(2): anonymous mapping in the process. */
    Addr sysMmap(Process &proc, size_t size, Perms perms,
                 const std::string &label);

    /**
     * mprotect(2) issued by *process* code — the code-manipulation
     * attack path (Fig. 2 discussion). Subject to the filter.
     */
    void sysMprotect(Process &proc, Addr addr, size_t len, Perms perms);

    /** brk(2): grows the heap (modeled as a no-op allocation). */
    void sysBrk(Process &proc);

    /** socket(2): create an unconnected socket. */
    Fd sysSocket(Process &proc);

    /** connect(2): connect a socket to a destination (fd-checked). */
    void sysConnect(Process &proc, Fd fd, const std::string &dest);

    /** send(2): transmit process memory to the socket's peer. */
    void sysSend(Process &proc, Fd fd, Addr src, size_t len);

    /** recvfrom(2): modeled as returning no data. */
    size_t sysRecvfrom(Process &proc, Fd fd, Addr dst, size_t len);

    /** ioctl(2) (fd-checked). kIoctlCaptureFrame arms the camera. */
    void sysIoctl(Process &proc, Fd fd, uint64_t request);

    /** select(2) (fd-checked). */
    void sysSelect(Process &proc, Fd fd);

    /** getrandom(2): deterministic pseudo-random value. */
    uint64_t sysGetrandom(Process &proc);

    /** shm_open(2): map a named segment; returns its base address. */
    Addr sysShmOpen(Process &proc, const std::string &name, Perms perms);

    /** prctl(PR_SET_NO_NEW_PRIVS): locks the process filter. */
    void sysPrctlNoNewPrivs(Process &proc);

    /** fork(2): spawns a child (the fork-bomb payload path, A.7). */
    Pid sysFork(Process &proc);

    /** exit(2). */
    void sysExit(Process &proc);

    /**
     * Miscellaneous no-effect syscalls (getpid, gettimeofday, ...):
     * enforced and charged, no state change.
     */
    void sysMisc(Process &proc, Syscall call);

    /**
     * GUI write: sends pixels over a connected GUI socket (select +
     * sendto under the hood) and records a ShowEvent.
     */
    void guiShow(Process &proc, Fd gui_fd, const std::string &window,
                 uint32_t w, uint32_t h, Addr pixels, size_t len);

    // ---- Shared memory -----------------------------------------------

    /** Create a named shared segment of the given size. */
    uint32_t shmCreate(const std::string &name, size_t size);

    /** Map a segment into a process from trusted runtime context. */
    Addr trustedShmMap(Pid pid, uint32_t seg_id, Perms perms);

    /** Backing bytes of a segment. */
    Backing shmBacking(uint32_t seg_id) const;

    // ---- Devices and VFS ---------------------------------------------

    Vfs &vfs() { return vfs_; }
    const Vfs &vfs() const { return vfs_; }
    CameraDevice &camera() { return camera_; }
    DisplayDevice &display() { return display_; }
    NetworkDevice &network() { return network_; }

  private:
    /**
     * Count, filter-check, and charge one syscall. Denial kills the
     * process (SIGSYS) and throws SyscallViolation.
     */
    void enforce(Process &proc, Syscall call, Fd fd = -1);

    /** Look up an fd or throw a fault against the process. */
    OpenFile &requireFd(Process &proc, Fd fd);

    CostModel costModel;
    FaultInjector *injector_ = nullptr;
    SimTime clock = 0;
    bool taskActive_ = false;
    Pid taskPid_ = 0;
    SimTime taskClock_ = 0;
    Pid nextPid = 100;
    std::map<Pid, std::unique_ptr<Process>> procs;
    std::vector<ShmSegment> shmSegs;
    Vfs vfs_;
    CameraDevice camera_;
    DisplayDevice display_;
    NetworkDevice network_;
    uint64_t randomState = 0x5eed5eed5eedull;
};

} // namespace freepart::osim

#endif // FREEPART_OSIM_KERNEL_HH
