#include "osim/kernel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace freepart::osim {

Kernel::Kernel(CostModel costs) : costModel(costs)
{
}

Process &
Kernel::spawn(const std::string &name)
{
    Pid pid = nextPid++;
    auto proc = std::make_unique<Process>(pid, name);
    Process &ref = *proc;
    procs.emplace(pid, std::move(proc));
    advance(costModel.processSpawn);
    return ref;
}

Process &
Kernel::process(Pid pid)
{
    auto it = procs.find(pid);
    if (it == procs.end())
        util::panic("kernel: unknown pid %u", pid);
    return *it->second;
}

const Process &
Kernel::process(Pid pid) const
{
    auto it = procs.find(pid);
    if (it == procs.end())
        util::panic("kernel: unknown pid %u", pid);
    return *it->second;
}

bool
Kernel::hasProcess(Pid pid) const
{
    return procs.count(pid) > 0;
}

std::vector<Pid>
Kernel::livePids() const
{
    std::vector<Pid> out;
    for (const auto &[pid, proc] : procs)
        if (proc->alive())
            out.push_back(pid);
    return out;
}

Process &
Kernel::respawn(Pid pid)
{
    Process &proc = process(pid);
    proc.resetForRespawn();
    advance(costModel.processRestart);
    // An injected respawn fault kills the fresh incarnation before it
    // can serve anything — the crash-loop generator. The caller is
    // responsible for checking alive() on the returned process.
    if (queryFault(FaultPoint::Respawn, pid) == FaultAction::Crash)
        faultProcess(proc, "injected: crash during respawn");
    return proc;
}

Process &
Kernel::promote(Pid pid)
{
    Process &proc = process(pid);
    proc.resetForRespawn();
    advance(costModel.processPromote);
    // The promoted standby is subject to the same stillborn fault as
    // a cold respawn: the injection point models "the replacement
    // process dies before serving", however it was brought up.
    if (queryFault(FaultPoint::Respawn, pid) == FaultAction::Crash)
        faultProcess(proc, "injected: crash during respawn");
    return proc;
}

void
Kernel::faultProcess(Process &proc, const std::string &why)
{
    proc.markCrashed(why);
}

void
Kernel::trustedProtect(Pid pid, Addr addr, size_t len, Perms perms)
{
    Process &proc = process(pid);
    proc.space().protect(addr, len, perms);
    size_t pages = (len + kPageSize - 1) / kPageSize;
    advance(costModel.syscallBase +
            costModel.protectPerPage * pages);
}

void
Kernel::trustedCopy(Pid src_pid, Addr src, Pid dst_pid, Addr dst,
                    size_t len)
{
    if (len == 0)
        return;
    Process &sp = process(src_pid);
    Process &dp = process(dst_pid);
    const uint8_t *s = sp.space().checkedSpan(src, len);
    uint8_t *d = dp.space().checkedSpan(dst, len, true);
    std::memcpy(d, s, len);
    advance(costModel.copyCost(len));
}

void
Kernel::enforce(Process &proc, Syscall call, Fd fd)
{
    if (!proc.alive())
        throw ProcessCrash(proc.pid(),
                           "syscall from dead process: " +
                               std::string(syscallName(call)));
    ++proc.syscallCounts[static_cast<size_t>(call)];
    bool ok = fd >= 0 && needsFdRestriction(call)
                  ? proc.filter().permitsFd(call, fd)
                  : proc.filter().permits(call);
    if (!ok) {
        ++proc.deniedSyscalls;
        advance(costModel.sigsysDeliver);
        std::string what = std::string(syscallName(call)) +
                           (fd >= 0 ? " fd=" + std::to_string(fd) : "");
        proc.markCrashed("SIGSYS: " + what);
        throw SyscallViolation(proc.pid(), what);
    }
    advance(costModel.syscallCost(call));
    switch (queryFault(FaultPoint::SyscallEntry, proc.pid())) {
      case FaultAction::Crash:
        faultProcess(proc, std::string("injected: crash at ") +
                               syscallName(call));
        throw ProcessCrash(proc.pid(),
                           std::string("injected crash at ") +
                               syscallName(call));
      case FaultAction::Transient:
        throw TransientFault(proc.pid(),
                             std::string("injected EIO at ") +
                                 syscallName(call));
      default:
        break;
    }
}

OpenFile &
Kernel::requireFd(Process &proc, Fd fd)
{
    OpenFile *file = proc.findFd(fd);
    if (!file)
        throw ProcessCrash(proc.pid(), "EBADF fd=" + std::to_string(fd));
    return *file;
}

Fd
Kernel::sysOpen(Process &proc, const std::string &path, bool writable)
{
    enforce(proc, Syscall::Openat);
    OpenFile file;
    if (path.rfind("/dev/camera", 0) == 0) {
        file.kind = FdKind::Camera;
    } else {
        file.kind = FdKind::File;
        if (!writable && !vfs_.exists(path))
            throw ProcessCrash(proc.pid(), "ENOENT: " + path);
    }
    file.path = path;
    file.writable = writable;
    return proc.addFd(std::move(file));
}

size_t
Kernel::sysRead(Process &proc, Fd fd, Addr dst, size_t len)
{
    enforce(proc, Syscall::Read);
    OpenFile &file = requireFd(proc, fd);
    FaultAction fault = FaultAction::None;
    if (file.kind == FdKind::Camera || file.kind == FdKind::File)
        fault = queryFault(FaultPoint::DeviceRead, proc.pid());
    if (fault == FaultAction::Transient)
        throw TransientFault(proc.pid(), "injected EIO: " + file.path);
    if (file.kind == FdKind::Camera) {
        std::vector<uint8_t> frame = camera_.captureFrame();
        if (fault == FaultAction::Corrupt && injector_)
            injector_->corrupt(frame);
        size_t n = std::min(len, frame.size());
        proc.space().write(dst, frame.data(), n);
        advance(costModel.copyCost(n));
        return n;
    }
    if (file.kind == FdKind::File) {
        const auto &data = vfs_.getFile(file.path);
        if (file.offset >= data.size())
            return 0;
        size_t n = std::min(len, data.size() - file.offset);
        std::vector<uint8_t> buf(data.begin() +
                                     static_cast<ptrdiff_t>(file.offset),
                                 data.begin() +
                                     static_cast<ptrdiff_t>(file.offset +
                                                            n));
        if (fault == FaultAction::Corrupt && injector_)
            injector_->corrupt(buf);
        proc.space().write(dst, buf.data(), n);
        file.offset += n;
        advance(costModel.copyCost(n));
        return n;
    }
    return 0;
}

size_t
Kernel::sysWrite(Process &proc, Fd fd, Addr src, size_t len)
{
    enforce(proc, Syscall::Write);
    OpenFile &file = requireFd(proc, fd);
    if (file.kind != FdKind::File || !file.writable)
        throw ProcessCrash(proc.pid(), "EBADF write fd");
    std::vector<uint8_t> buf(len);
    proc.space().read(src, buf.data(), len);
    auto &data = vfs_.openForWrite(file.path);
    if (data.size() < file.offset + len)
        data.resize(file.offset + len);
    std::copy(buf.begin(), buf.end(), data.begin() +
              static_cast<ptrdiff_t>(file.offset));
    file.offset += len;
    advance(costModel.copyCost(len));
    return len;
}

void
Kernel::sysClose(Process &proc, Fd fd)
{
    enforce(proc, Syscall::Close);
    if (!proc.closeFd(fd))
        throw ProcessCrash(proc.pid(), "EBADF close");
}

size_t
Kernel::sysLseek(Process &proc, Fd fd, size_t offset)
{
    enforce(proc, Syscall::Lseek);
    OpenFile &file = requireFd(proc, fd);
    file.offset = offset;
    return offset;
}

size_t
Kernel::sysFstat(Process &proc, Fd fd)
{
    enforce(proc, Syscall::Fstat);
    OpenFile &file = requireFd(proc, fd);
    if (file.kind == FdKind::Camera)
        return camera_.frameBytes();
    return vfs_.sizeOf(file.path);
}

Addr
Kernel::sysMmap(Process &proc, size_t size, Perms perms,
                const std::string &label)
{
    enforce(proc, Syscall::Mmap);
    return proc.space().alloc(size, perms, label);
}

void
Kernel::sysMprotect(Process &proc, Addr addr, size_t len, Perms perms)
{
    enforce(proc, Syscall::Mprotect);
    proc.space().protect(addr, len, perms);
}

void
Kernel::sysBrk(Process &proc)
{
    enforce(proc, Syscall::Brk);
}

Fd
Kernel::sysSocket(Process &proc)
{
    enforce(proc, Syscall::Socket);
    OpenFile file;
    file.kind = FdKind::Socket;
    return proc.addFd(std::move(file));
}

void
Kernel::sysConnect(Process &proc, Fd fd, const std::string &dest)
{
    enforce(proc, Syscall::Connect, fd);
    OpenFile &file = requireFd(proc, fd);
    if (file.kind != FdKind::Socket && file.kind != FdKind::GuiSocket)
        throw ProcessCrash(proc.pid(), "ENOTSOCK connect");
    file.path = dest;
    file.connected = true;
    if (dest == "gui")
        file.kind = FdKind::GuiSocket;
}

void
Kernel::sysSend(Process &proc, Fd fd, Addr src, size_t len)
{
    enforce(proc, Syscall::Send);
    OpenFile &file = requireFd(proc, fd);
    if (!file.connected)
        throw ProcessCrash(proc.pid(), "ENOTCONN send");
    std::vector<uint8_t> buf(len);
    proc.space().read(src, buf.data(), len);
    advance(costModel.copyCost(len));
    network_.send(proc.pid(), file.path, buf.data(), len);
}

size_t
Kernel::sysRecvfrom(Process &proc, Fd fd, Addr, size_t)
{
    enforce(proc, Syscall::Recvfrom);
    requireFd(proc, fd);
    return 0;
}

void
Kernel::sysIoctl(Process &proc, Fd fd, uint64_t request)
{
    enforce(proc, Syscall::Ioctl, fd);
    OpenFile &file = requireFd(proc, fd);
    if (request == kIoctlCaptureFrame && file.kind != FdKind::Camera)
        throw ProcessCrash(proc.pid(), "EINVAL ioctl capture");
}

void
Kernel::sysSelect(Process &proc, Fd fd)
{
    enforce(proc, Syscall::Select, fd);
    requireFd(proc, fd);
}

uint64_t
Kernel::sysGetrandom(Process &proc)
{
    enforce(proc, Syscall::Getrandom);
    randomState = randomState * 6364136223846793005ull +
                  1442695040888963407ull;
    return randomState;
}

Addr
Kernel::sysShmOpen(Process &proc, const std::string &name, Perms perms)
{
    enforce(proc, Syscall::ShmOpen);
    for (const auto &seg : shmSegs) {
        if (seg.name == name) {
            enforce(proc, Syscall::Mmap);
            return proc.space().mapShared(seg.backing, perms,
                                          "shm:" + name);
        }
    }
    throw ProcessCrash(proc.pid(), "shm_open: no segment " + name);
}

void
Kernel::sysPrctlNoNewPrivs(Process &proc)
{
    enforce(proc, Syscall::Prctl);
    proc.filter().lock();
}

Pid
Kernel::sysFork(Process &proc)
{
    enforce(proc, Syscall::Fork);
    Process &child = spawn(proc.name() + ":child");
    return child.pid();
}

void
Kernel::sysExit(Process &proc)
{
    enforce(proc, Syscall::Exit);
    proc.markExited();
}

void
Kernel::sysMisc(Process &proc, Syscall call)
{
    enforce(proc, call);
}

void
Kernel::guiShow(Process &proc, Fd gui_fd, const std::string &window,
                uint32_t w, uint32_t h, Addr pixels, size_t len)
{
    OpenFile &file = requireFd(proc, gui_fd);
    if (file.kind != FdKind::GuiSocket || !file.connected)
        throw ProcessCrash(proc.pid(), "gui socket not connected");
    enforce(proc, Syscall::Select, gui_fd);
    enforce(proc, Syscall::Sendto);
    std::vector<uint8_t> buf(len);
    proc.space().read(pixels, buf.data(), len);
    advance(costModel.copyCost(len));
    display_.show(proc.pid(), window, w, h, buf.data(), len);
}

uint32_t
Kernel::shmCreate(const std::string &name, size_t size)
{
    size_t rounded = (size + kPageSize - 1) & ~(kPageSize - 1);
    ShmSegment seg;
    seg.id = static_cast<uint32_t>(shmSegs.size());
    seg.name = name;
    seg.backing = std::make_shared<BackingBytes>(rounded);
    shmSegs.push_back(std::move(seg));
    return shmSegs.back().id;
}

Addr
Kernel::trustedShmMap(Pid pid, uint32_t seg_id, Perms perms)
{
    if (seg_id >= shmSegs.size())
        util::panic("trustedShmMap: bad segment id %u", seg_id);
    Process &proc = process(pid);
    advance(costModel.syscallCost(Syscall::Mmap));
    return proc.space().mapShared(shmSegs[seg_id].backing, perms,
                                  "shm:" + shmSegs[seg_id].name);
}

Backing
Kernel::shmBacking(uint32_t seg_id) const
{
    if (seg_id >= shmSegs.size())
        util::panic("shmBacking: bad segment id %u", seg_id);
    return shmSegs[seg_id].backing;
}

void
Kernel::beginTask(Pid pid, SimTime start_at)
{
    if (taskActive_)
        util::panic("kernel: nested task bracket (pid %u)", pid);
    taskActive_ = true;
    taskPid_ = pid;
    taskClock_ = std::max(start_at, clock);
}

SimTime
Kernel::endTask()
{
    if (!taskActive_)
        util::panic("kernel: endTask with no open bracket");
    taskActive_ = false;
    if (hasProcess(taskPid_)) {
        Process &proc = process(taskPid_);
        proc.readyAt = std::max(proc.readyAt, taskClock_);
    }
    return taskClock_;
}

SimTime
Kernel::timelineOf(Pid pid) const
{
    return hasProcess(pid) ? process(pid).readyAt : 0;
}

SimTime
Kernel::maxTimeline() const
{
    SimTime t = clock;
    for (const auto &[pid, proc] : procs)
        t = std::max(t, proc->readyAt);
    return t;
}

SimTime
Kernel::maxTimelineOf(const std::vector<Pid> &pids) const
{
    SimTime t = clock;
    for (Pid pid : pids)
        t = std::max(t, timelineOf(pid));
    return t;
}

void
Kernel::syncToTimelines()
{
    clock = maxTimeline();
}

} // namespace freepart::osim
