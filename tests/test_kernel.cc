/**
 * @file
 * Unit tests for the simulated kernel: process lifecycle, the VFS
 * syscall surface, devices, shared memory, syscall filtering with
 * SIGSYS crashes, restarts, and the cost-model clock.
 */

#include <gtest/gtest.h>

#include "osim/kernel.hh"
#include "util/checksum.hh"
#include "util/logging.hh"

namespace freepart::osim {
namespace {

TEST(Kernel, SpawnAssignsUniquePids)
{
    Kernel kernel;
    Process &a = kernel.spawn("a");
    Process &b = kernel.spawn("b");
    EXPECT_NE(a.pid(), b.pid());
    EXPECT_TRUE(a.alive());
    EXPECT_EQ(kernel.livePids().size(), 2u);
}

TEST(Kernel, SpawnAdvancesClock)
{
    Kernel kernel;
    SimTime t0 = kernel.now();
    kernel.spawn("p");
    EXPECT_GT(kernel.now(), t0);
}

TEST(Kernel, FileWriteThenReadRoundTrips)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    // Write a file.
    Fd wfd = kernel.sysOpen(proc, "/f.bin", true);
    Addr src = proc.space().alloc(16);
    uint64_t magic = 0x1122334455667788ull;
    proc.space().writeValue(src, magic);
    kernel.sysWrite(proc, wfd, src, 8);
    kernel.sysClose(proc, wfd);
    // Read it back.
    Fd rfd = kernel.sysOpen(proc, "/f.bin", false);
    EXPECT_EQ(kernel.sysFstat(proc, rfd), 8u);
    Addr dst = proc.space().alloc(16);
    EXPECT_EQ(kernel.sysRead(proc, rfd, dst, 8), 8u);
    kernel.sysClose(proc, rfd);
    EXPECT_EQ(proc.space().readValue<uint64_t>(dst), magic);
}

TEST(Kernel, OpenMissingFileCrashesWithEnoent)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    EXPECT_THROW(kernel.sysOpen(proc, "/nope", false), ProcessCrash);
}

TEST(Kernel, ReadPastEofReturnsZero)
{
    Kernel kernel;
    kernel.vfs().putFile("/small", {1, 2, 3});
    Process &proc = kernel.spawn("p");
    Fd fd = kernel.sysOpen(proc, "/small", false);
    Addr dst = proc.space().alloc(16);
    EXPECT_EQ(kernel.sysRead(proc, fd, dst, 16), 3u);
    EXPECT_EQ(kernel.sysRead(proc, fd, dst, 16), 0u);
}

TEST(Kernel, LseekMovesCursor)
{
    Kernel kernel;
    kernel.vfs().putFile("/f", {10, 20, 30, 40});
    Process &proc = kernel.spawn("p");
    Fd fd = kernel.sysOpen(proc, "/f", false);
    kernel.sysLseek(proc, fd, 2);
    Addr dst = proc.space().alloc(4);
    EXPECT_EQ(kernel.sysRead(proc, fd, dst, 4), 2u);
    EXPECT_EQ(proc.space().readValue<uint8_t>(dst), 30);
}

TEST(Kernel, CameraReadProducesDeterministicFrames)
{
    Kernel k1, k2;
    Process &p1 = k1.spawn("a");
    Process &p2 = k2.spawn("b");
    Fd f1 = k1.sysOpen(p1, "/dev/camera0", false);
    Fd f2 = k2.sysOpen(p2, "/dev/camera0", false);
    size_t len = k1.camera().frameBytes();
    Addr d1 = p1.space().alloc(len);
    Addr d2 = p2.space().alloc(len);
    EXPECT_EQ(k1.sysRead(p1, f1, d1, len), len);
    EXPECT_EQ(k2.sysRead(p2, f2, d2, len), len);
    std::vector<uint8_t> b1(len), b2(len);
    p1.space().read(d1, b1.data(), len);
    p2.space().read(d2, b2.data(), len);
    EXPECT_EQ(b1, b2);
    EXPECT_EQ(k1.camera().framesCaptured(), 1u);
}

TEST(Kernel, GuiShowRecordsEventAndChecksum)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    Fd sock = kernel.sysSocket(proc);
    kernel.sysConnect(proc, sock, "gui");
    Addr pixels = proc.space().alloc(64);
    kernel.guiShow(proc, sock, "win", 8, 8, pixels, 64);
    ASSERT_EQ(kernel.display().events().size(), 1u);
    EXPECT_EQ(kernel.display().events()[0].window, "win");
}

TEST(Kernel, NetworkSendRecordsPayload)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    Fd sock = kernel.sysSocket(proc);
    kernel.sysConnect(proc, sock, "evil.example");
    Addr src = proc.space().alloc(32);
    proc.space().writeValue<uint32_t>(src, 0x5ec2e7);
    kernel.sysSend(proc, sock, src, 32);
    ASSERT_EQ(kernel.network().sends().size(), 1u);
    EXPECT_EQ(kernel.network().sends()[0].dest, "evil.example");
    EXPECT_EQ(kernel.network().sends()[0].length, 32u);
    EXPECT_EQ(kernel.network().bytesSent(), 32u);
}

TEST(Kernel, SendOnUnconnectedSocketCrashes)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    Fd sock = kernel.sysSocket(proc);
    Addr src = proc.space().alloc(8);
    EXPECT_THROW(kernel.sysSend(proc, sock, src, 8), ProcessCrash);
}

TEST(Kernel, FilterDenialKillsProcessAndCountsDenial)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    proc.filter().install({Syscall::Read});
    Addr a = proc.space().alloc(64);
    EXPECT_THROW(kernel.sysMprotect(proc, a, 64, PermRWX),
                 SyscallViolation);
    EXPECT_FALSE(proc.alive());
    EXPECT_EQ(proc.deniedSyscalls, 1u);
    EXPECT_NE(proc.crashReason().find("SIGSYS"), std::string::npos);
}

TEST(Kernel, FdRestrictedIoctlDenied)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    Fd cam = kernel.sysOpen(proc, "/dev/camera0", false);
    proc.filter().install({Syscall::Ioctl, Syscall::Openat});
    proc.filter().restrictFds(Syscall::Ioctl, {cam});
    EXPECT_NO_THROW(kernel.sysIoctl(proc, cam, kIoctlCaptureFrame));
    Process &proc2 = kernel.spawn("q");
    Fd cam2 = kernel.sysOpen(proc2, "/dev/camera0", false);
    Fd other = kernel.sysOpen(proc2, "/dev/camera1", false);
    proc2.filter().install({Syscall::Ioctl, Syscall::Openat});
    proc2.filter().restrictFds(Syscall::Ioctl, {cam2});
    EXPECT_THROW(kernel.sysIoctl(proc2, other, kIoctlCaptureFrame),
                 SyscallViolation);
}

TEST(Kernel, SyscallFromDeadProcessRefused)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    kernel.faultProcess(proc, "test crash");
    EXPECT_THROW(kernel.sysBrk(proc), ProcessCrash);
}

TEST(Kernel, RespawnResetsStateAndBumpsIncarnation)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    Addr a = proc.space().alloc(64);
    proc.filter().install({Syscall::Read});
    kernel.faultProcess(proc, "crash");
    Process &fresh = kernel.respawn(proc.pid());
    EXPECT_TRUE(fresh.alive());
    EXPECT_EQ(fresh.incarnation(), 1);
    EXPECT_FALSE(fresh.filter().installed());
    EXPECT_THROW(fresh.space().readValue<uint8_t>(a), MemFault);
}

TEST(Kernel, TrustedProtectBlocksProcessWrites)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    Addr a = proc.space().alloc(128);
    kernel.trustedProtect(proc.pid(), a, 128, PermRead);
    EXPECT_THROW(proc.space().writeValue<uint8_t>(a, 1), MemFault);
}

TEST(Kernel, TrustedCopyMovesBytesAcrossProcesses)
{
    Kernel kernel;
    Process &a = kernel.spawn("a");
    Process &b = kernel.spawn("b");
    Addr src = a.space().alloc(64);
    Addr dst = b.space().alloc(64);
    a.space().writeValue<uint64_t>(src, 42);
    SimTime before = kernel.now();
    kernel.trustedCopy(a.pid(), src, b.pid(), dst, 64);
    EXPECT_EQ(b.space().readValue<uint64_t>(dst), 42u);
    EXPECT_GT(kernel.now(), before);
}

TEST(Kernel, TrustedCopyRespectsDestinationPermissions)
{
    Kernel kernel;
    Process &a = kernel.spawn("a");
    Process &b = kernel.spawn("b");
    Addr src = a.space().alloc(64);
    Addr dst = b.space().alloc(64);
    kernel.trustedProtect(b.pid(), dst, 64, PermRead);
    EXPECT_THROW(kernel.trustedCopy(a.pid(), src, b.pid(), dst, 64),
                 MemFault);
}

TEST(Kernel, ShmMapSharesBytesBetweenProcesses)
{
    Kernel kernel;
    Process &a = kernel.spawn("a");
    Process &b = kernel.spawn("b");
    uint32_t seg = kernel.shmCreate("ring", 8192);
    Addr ma = kernel.trustedShmMap(a.pid(), seg, PermRW);
    Addr mb = kernel.trustedShmMap(b.pid(), seg, PermRW);
    a.space().writeValue<uint32_t>(ma + 100, 777);
    EXPECT_EQ(b.space().readValue<uint32_t>(mb + 100), 777u);
}

TEST(Kernel, ShmOpenSyscallRequiresAllowlist)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    kernel.shmCreate("seg", 4096);
    proc.filter().install({Syscall::Read});
    EXPECT_THROW(kernel.sysShmOpen(proc, "seg", PermRW),
                 SyscallViolation);
}

TEST(Kernel, PrctlLocksFilter)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    proc.filter().install({Syscall::Prctl, Syscall::Read});
    kernel.sysPrctlNoNewPrivs(proc);
    EXPECT_TRUE(proc.filter().locked());
    EXPECT_THROW(proc.filter().allow(Syscall::Send),
                 SyscallViolation);
}

TEST(Kernel, ForkSpawnsChild)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    size_t before = kernel.processCount();
    Pid child = kernel.sysFork(proc);
    EXPECT_EQ(kernel.processCount(), before + 1);
    EXPECT_TRUE(kernel.process(child).alive());
}

TEST(Kernel, SyscallCountsAccumulate)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    kernel.sysBrk(proc);
    kernel.sysBrk(proc);
    kernel.sysMisc(proc, Syscall::Getpid);
    EXPECT_EQ(
        proc.syscallCounts[static_cast<size_t>(Syscall::Brk)], 2u);
    EXPECT_EQ(
        proc.syscallCounts[static_cast<size_t>(Syscall::Getpid)], 1u);
}

TEST(Kernel, GetrandomIsDeterministicPerKernel)
{
    Kernel k1, k2;
    Process &p1 = k1.spawn("a");
    Process &p2 = k2.spawn("b");
    EXPECT_EQ(k1.sysGetrandom(p1), k2.sysGetrandom(p2));
}

TEST(Kernel, ExitMarksProcessExited)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    kernel.sysExit(proc);
    EXPECT_EQ(proc.state(), ProcState::Exited);
    EXPECT_FALSE(proc.alive());
}

TEST(CostModel, CopyAndComputeScaleLinearly)
{
    CostModel costs;
    EXPECT_EQ(costs.copyCost(0), 0u);
    EXPECT_EQ(costs.copyCost(2000),
              2 * costs.copyCost(1000));
    EXPECT_EQ(costs.computeCost(2000),
              2 * costs.computeCost(1000));
}

TEST(Devices, KeyQueueFifo)
{
    DisplayDevice display;
    EXPECT_EQ(display.popKey(), -1);
    display.pushKey('s');
    display.pushKey('q');
    EXPECT_EQ(display.popKey(), 's');
    EXPECT_EQ(display.popKey(), 'q');
    EXPECT_EQ(display.popKey(), -1);
}

TEST(Devices, Fnv1aMatchesKnownVector)
{
    // FNV-1a 64 of empty input is the offset basis.
    EXPECT_EQ(util::fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
    const uint8_t a[] = {'a'};
    EXPECT_EQ(util::fnv1a64(a, 1), 0xaf63dc4c8601ec8cull);
}

// ---- Per-process virtual timelines ----------------------------------

TEST(Timelines, TaskBracketChargesTimelineNotGlobalClock)
{
    Kernel kernel;
    Process &proc = kernel.spawn("agent");
    SimTime t0 = kernel.now();

    kernel.beginTask(proc.pid(), t0);
    EXPECT_TRUE(kernel.taskActive());
    kernel.advance(500);
    // Inside the bracket, now() reads the task clock...
    EXPECT_EQ(kernel.now(), t0 + 500);
    SimTime done = kernel.endTask();
    // ...but the global clock never moved: the work happened on the
    // process's own timeline, concurrently with the issuer.
    EXPECT_EQ(done, t0 + 500);
    EXPECT_EQ(kernel.now(), t0);
    EXPECT_EQ(kernel.timelineOf(proc.pid()), t0 + 500);
    EXPECT_EQ(kernel.maxTimeline(), t0 + 500);
}

TEST(Timelines, TasksOnOneProcessSerializeViaReadyAt)
{
    Kernel kernel;
    Process &proc = kernel.spawn("agent");
    SimTime t0 = kernel.now();
    kernel.beginTask(proc.pid(), t0);
    kernel.advance(300);
    kernel.endTask();
    // A second task asked to start earlier must queue behind the
    // first: start_at below the ready point is advisory, the bracket
    // clamps to max(start_at, global clock) and readyAt accumulates.
    SimTime ready = kernel.timelineOf(proc.pid());
    kernel.beginTask(proc.pid(), ready);
    kernel.advance(200);
    EXPECT_EQ(kernel.endTask(), ready + 200);
    EXPECT_EQ(kernel.timelineOf(proc.pid()), t0 + 500);
}

TEST(Timelines, SyncToTimelinesIsABarrier)
{
    Kernel kernel;
    Process &a = kernel.spawn("a");
    Process &b = kernel.spawn("b");
    SimTime t0 = kernel.now();
    kernel.beginTask(a.pid(), t0);
    kernel.advance(1000);
    kernel.endTask();
    kernel.beginTask(b.pid(), t0);
    kernel.advance(400);
    kernel.endTask();
    EXPECT_EQ(kernel.now(), t0);
    kernel.syncToTimelines();
    EXPECT_EQ(kernel.now(), t0 + 1000);
    EXPECT_EQ(kernel.now(), kernel.maxTimeline());
}

TEST(Timelines, NestedTaskBracketPanics)
{
    Kernel kernel;
    Process &proc = kernel.spawn("p");
    kernel.beginTask(proc.pid(), kernel.now());
    EXPECT_THROW(kernel.beginTask(proc.pid(), kernel.now()),
                 util::PanicError);
    kernel.endTask();
    EXPECT_THROW(kernel.endTask(), util::PanicError);
}

} // namespace
} // namespace freepart::osim
