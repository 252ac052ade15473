/**
 * @file
 * Unit tests for osim::AddressSpace: allocation, permission-checked
 * access, mprotect semantics, shared and copy-on-write mappings, and
 * fault behaviour — the enforcement point behind FreePart's temporal
 * protection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "fw/object_store.hh"
#include "osim/address_space.hh"
#include "osim/kernel.hh"

namespace freepart::osim {
namespace {

TEST(AddressSpace, AllocReturnsPageAlignedDistinctRegions)
{
    AddressSpace space(1);
    Addr a = space.alloc(100);
    Addr b = space.alloc(100);
    EXPECT_EQ(a % kPageSize, 0u);
    EXPECT_EQ(b % kPageSize, 0u);
    EXPECT_NE(a, b);
    EXPECT_GE(b, a + kPageSize);
}

TEST(AddressSpace, ReadBackWrittenBytes)
{
    AddressSpace space(1);
    Addr a = space.alloc(64);
    uint32_t v = 0xdeadbeef;
    space.writeValue(a + 8, v);
    EXPECT_EQ(space.readValue<uint32_t>(a + 8), 0xdeadbeefu);
}

TEST(AddressSpace, FreshAllocationIsZeroed)
{
    AddressSpace space(1);
    Addr a = space.alloc(256);
    for (int i = 0; i < 256; i += 7)
        EXPECT_EQ(space.readValue<uint8_t>(a + i), 0);
}

TEST(AddressSpace, ReusedStorageIsZeroedAgain)
{
    // Mapping bytes are never written on creation (calloc zeroes
    // them), so storage freed dirty and handed out again, from the
    // heap or as fresh pages, must still read as zero.
    AddressSpace space(1);
    for (size_t len : {size_t{256}, size_t{1} << 20, size_t{16} << 20})
        for (int round = 0; round < 2; ++round) {
            Addr a = space.alloc(len);
            uint8_t *bytes = space.checkedSpan(a, len, true);
            EXPECT_EQ(std::count(bytes, bytes + len, 0),
                      static_cast<std::ptrdiff_t>(len))
                << len << " bytes, round " << round;
            std::memset(bytes, 0xab, len);
            space.unmap(a);
        }
    // A shared backing that is not page-sized grows with zeros.
    auto backing = std::make_shared<BackingBytes>(100, 0xab);
    Addr a = space.mapShared(backing, PermRW, "shm");
    EXPECT_EQ(space.readValue<uint8_t>(a + 99), 0xab);
    EXPECT_EQ(space.readValue<uint8_t>(a + 100), 0);
    EXPECT_EQ(space.readValue<uint8_t>(a + kPageSize - 1), 0);
}

TEST(AddressSpace, ReusedMappingBytesReadZero)
{
    // A freed block below the direct-map size is kept and handed to
    // the next allocation of its size; it must come back zeroed, or an
    // agent would read what another one freed.
    constexpr size_t kLen = 3 * kPageSize;
    AddressSpace space(1);
    Addr a = space.alloc(kLen);
    uint8_t *block = space.checkedSpan(a, kLen, true);
    std::memset(block, 0xab, kLen);
    space.unmap(a); // nothing else holds the backing
    Addr b = space.alloc(kLen);
    const uint8_t *again = space.checkedSpan(b, kLen);
    ASSERT_EQ(again, block) << "the freed block was not reused";
    EXPECT_EQ(std::count(again, again + kLen, 0),
              static_cast<std::ptrdiff_t>(kLen));

    // The tail past len in copyToBacking reads zero as well.
    std::memset(space.checkedSpan(b, kLen, true), 0xab, kLen);
    space.unmap(b);
    const std::vector<uint8_t> bytes(kLen - 10, 0x5c);
    Backing copy = copyToBacking(bytes.data(), bytes.size());
    ASSERT_EQ(copy->data(), block);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), copy->data()));
    EXPECT_EQ(std::count(copy->begin() + bytes.size(), copy->end(), 0),
              10);

    // A fill value still reaches every byte of a reused block.
    copy.reset();
    auto filled = std::make_shared<BackingBytes>(kLen, 0xab);
    ASSERT_EQ(filled->data(), block);
    EXPECT_EQ(std::count(filled->begin(), filled->end(), 0xab),
              static_cast<std::ptrdiff_t>(kLen));
}

TEST(AddressSpace, FullReuseCacheStillTakesANewSize)
{
    // Fill the cache with blocks of one size, then free a block of
    // another: it must still be kept, at the cost of a held block.
    constexpr size_t kFill = kReusedBytesCap / 32;
    std::vector<void *> fill;
    for (int i = 0; i < 32; ++i)
        fill.push_back(allocZeroedBytes(kFill));
    for (void *p : fill)
        freeZeroedBytes(p, kFill);

    // Larger than a fill block, so the room a full cache has left
    // (less than one fill block) cannot take it; still below the
    // 4 MiB direct-map size.
    constexpr size_t kLen = kFill + kFill / 2;
    void *p = allocZeroedBytes(kLen);
    freeZeroedBytes(p, kLen);
    // Had p gone back to malloc, this allocation could take it.
    void *rival = std::malloc(kLen);
    void *again = allocZeroedBytes(kLen);
    EXPECT_EQ(again, p) << "the freed block was not kept";
    std::free(rival);
    freeZeroedBytes(again, kLen);
}

TEST(AddressSpace, UnmappedAccessFaults)
{
    AddressSpace space(1);
    EXPECT_THROW(space.readValue<uint8_t>(0xdead0000), MemFault);
    uint8_t b = 1;
    EXPECT_THROW(space.write(0xdead0000, &b, 1), MemFault);
}

TEST(AddressSpace, WriteToReadOnlyPageFaults)
{
    AddressSpace space(1);
    Addr a = space.alloc(kPageSize * 2);
    space.writeValue<uint32_t>(a, 7);
    space.protect(a, kPageSize * 2, PermRead);
    uint32_t v = 9;
    EXPECT_THROW(space.write(a, &v, sizeof(v)), MemFault);
    // Reads still succeed.
    EXPECT_EQ(space.readValue<uint32_t>(a), 7u);
}

TEST(AddressSpace, ProtectIsPageGranular)
{
    AddressSpace space(1);
    Addr a = space.alloc(kPageSize * 3);
    space.protect(a + kPageSize, kPageSize, PermRead);
    // First and third pages stay writable.
    space.writeValue<uint8_t>(a, 1);
    space.writeValue<uint8_t>(a + 2 * kPageSize, 1);
    EXPECT_THROW(space.writeValue<uint8_t>(a + kPageSize, 1),
                 MemFault);
    EXPECT_EQ(space.permsAt(a), PermRW);
    EXPECT_EQ(space.permsAt(a + kPageSize), PermRead);
}

TEST(AddressSpace, ReProtectRestoresWrite)
{
    AddressSpace space(1);
    Addr a = space.alloc(64);
    space.protect(a, 64, PermRead);
    space.protect(a, 64, PermRW);
    EXPECT_NO_THROW(space.writeValue<uint8_t>(a, 5));
}

TEST(AddressSpace, PermNoneBlocksReads)
{
    AddressSpace space(1);
    Addr a = space.alloc(64);
    space.protect(a, 64, PermNone);
    EXPECT_THROW(space.readValue<uint8_t>(a), MemFault);
}

TEST(AddressSpace, CrossMappingAccessFaults)
{
    AddressSpace space(1);
    Addr a = space.alloc(16);
    // Guard page between mappings: overrun faults.
    std::vector<uint8_t> big(2 * kPageSize, 0);
    EXPECT_THROW(space.write(a, big.data(), big.size()), MemFault);
}

TEST(AddressSpace, UnmapRemovesMapping)
{
    AddressSpace space(1);
    Addr a = space.alloc(64);
    space.unmap(a);
    EXPECT_THROW(space.readValue<uint8_t>(a), MemFault);
    EXPECT_EQ(space.permsAt(a), PermNone);
}

/** The address a MemFault reports for fn(), or kNullAddr if none. */
template <typename Fn>
Addr
faultAddr(Fn &&fn)
{
    try {
        fn();
    } catch (const MemFault &fault) {
        return fault.addr;
    }
    return kNullAddr;
}

TEST(AddressSpace, ProtectPastMappingEndFaultsAtGuardPage)
{
    AddressSpace space(1);
    Addr a = space.alloc(kPageSize * 2);
    Addr b = space.alloc(kPageSize);
    // The range starts mid-page and ends inside the next mapping:
    // the first page outside `a` is its guard page.
    EXPECT_EQ(faultAddr([&] {
                  space.protect(a + 100, 3 * kPageSize, PermRead);
              }),
              a + 2 * kPageSize);
    // Pages before the guard page were already changed; the next
    // mapping was not reached.
    EXPECT_EQ(space.permsAt(a), PermRead);
    EXPECT_EQ(space.permsAt(a + kPageSize), PermRead);
    EXPECT_EQ(space.permsAt(b), PermRW);
}

TEST(AddressSpace, ProtectOfUnmappedAddressFaultsAtPageBase)
{
    AddressSpace space(1);
    Addr a = space.alloc(64);
    EXPECT_EQ(faultAddr([&] {
                  space.protect(0xdead0123, 10, PermRead);
              }),
              Addr{0xdead0000});
    // The guard page after a mapping is unmapped too.
    EXPECT_EQ(faultAddr([&] {
                  space.protect(a + kPageSize + 7, 1, PermRead);
              }),
              a + kPageSize);
    space.unmap(a);
    EXPECT_EQ(faultAddr([&] { space.protect(a + 5, 1, PermRW); }), a);
}

TEST(AddressSpace, AccessFaultsAtFirstDeniedPage)
{
    AddressSpace space(1);
    Addr a = space.alloc(kPageSize * 3);
    space.protect(a + kPageSize + 9, 1, PermRead);
    std::vector<uint8_t> buf(3 * kPageSize - 20, 0x5a);
    EXPECT_EQ(faultAddr([&] {
                  space.write(a + 10, buf.data(), buf.size());
              }),
              a + kPageSize);
    EXPECT_EQ(faultAddr([&] {
                  space.checkedSpan(a + 10, buf.size(), true);
              }),
              a + kPageSize);
    // A faulting write stores nothing, not even on the first page.
    EXPECT_EQ(space.readValue<uint8_t>(a + 10), 0);
    // Reads of the same range are allowed.
    EXPECT_NE(space.checkedSpan(a + 10, buf.size()), nullptr);
}

TEST(AddressSpace, PermsAtIsNoneOnGuardPageAndAfterUnmap)
{
    AddressSpace space(1);
    Addr a = space.alloc(kPageSize * 2, PermRead);
    EXPECT_EQ(space.permsAt(a + kPageSize + 1), PermRead);
    EXPECT_EQ(space.permsAt(a + 2 * kPageSize), PermNone);
    EXPECT_EQ(space.permsAt(a - 1), PermNone);
    space.unmap(a);
    EXPECT_EQ(space.permsAt(a), PermNone);
    EXPECT_EQ(space.permsAt(a + kPageSize), PermNone);
}

TEST(AddressSpace, ProtectingSharedViewLeavesPeerPermissions)
{
    AddressSpace p1(1), p2(2);
    auto backing = std::make_shared<BackingBytes>(2 * kPageSize);
    Addr a1 = p1.mapShared(backing, PermRW, "shm");
    Addr a2 = p2.mapShared(backing, PermRW, "shm");
    p1.protect(a1, 2 * kPageSize, PermRead);
    EXPECT_EQ(p1.permsAt(a1 + kPageSize), PermRead);
    EXPECT_EQ(p2.permsAt(a2 + kPageSize), PermRW);
    p2.writeValue<uint32_t>(a2 + kPageSize, 77);
    EXPECT_EQ(p1.readValue<uint32_t>(a1 + kPageSize), 77u);
    EXPECT_THROW(p1.writeValue<uint32_t>(a1, 1), MemFault);
}

TEST(AddressSpace, SharedMappingSeesPeerWrites)
{
    AddressSpace p1(1), p2(2);
    auto backing = std::make_shared<BackingBytes>(kPageSize);
    Addr a1 = p1.mapShared(backing, PermRW, "shm");
    Addr a2 = p2.mapShared(backing, PermRW, "shm");
    p1.writeValue<uint64_t>(a1 + 16, 0x1234567890abcdefull);
    EXPECT_EQ(p2.readValue<uint64_t>(a2 + 16), 0x1234567890abcdefull);
}

TEST(AddressSpace, MappedBytesTracksAllocations)
{
    AddressSpace space(1);
    size_t before = space.mappedBytes();
    space.alloc(1); // rounds to one page
    EXPECT_EQ(space.mappedBytes(), before + kPageSize);
}

TEST(AddressSpace, CheckedSpanHonoursPermissions)
{
    AddressSpace space(1);
    Addr a = space.alloc(128);
    EXPECT_NE(space.checkedSpan(a, 128, true), nullptr);
    space.protect(a, 128, PermRead);
    EXPECT_THROW(space.checkedSpan(a, 128, true), MemFault);
    EXPECT_NE(space.checkedSpan(a, 128), nullptr);
}

TEST(AddressSpace, FaultCarriesAddressAndDirection)
{
    AddressSpace space(5);
    Addr a = space.alloc(32);
    space.protect(a, 32, PermRead);
    try {
        space.writeValue<uint8_t>(a, 1);
        FAIL() << "expected fault";
    } catch (const MemFault &fault) {
        EXPECT_TRUE(fault.isWrite);
        EXPECT_EQ(fault.pid, 5u);
        EXPECT_EQ(pageBase(fault.addr), pageBase(a));
    }
}

// ---- Copy-on-write sharing ------------------------------------------

/** The backing a mapping reads right now. */
const BackingBytes *
backingOf(const AddressSpace &space, Addr addr)
{
    return space.findMapping(addr)->backing.get();
}

TEST(CopyOnWrite, StoresOnEitherSideLeaveTheOtherUnchanged)
{
    AddressSpace src(1), dst(2);
    Addr a = src.alloc(2 * kPageSize);
    src.writeValue<uint32_t>(a + kPageSize, 7);
    Backing snap = src.wholeMapping(a, 2 * kPageSize)->backing;
    Addr b = dst.mapCopyOnWrite(snap, PermRW, "copy");
    EXPECT_EQ(backingOf(dst, b), snap.get()); // shared, not copied

    // A store to the source clones it; the snapshot and the copy
    // mapped from it keep the old bytes.
    src.writeValue<uint32_t>(a + kPageSize, 8);
    EXPECT_NE(backingOf(src, a), snap.get());
    EXPECT_EQ(src.readValue<uint32_t>(a + kPageSize), 8u);
    EXPECT_EQ(dst.readValue<uint32_t>(b + kPageSize), 7u);
    uint32_t in_snap = 0;
    std::memcpy(&in_snap, snap->data() + kPageSize, sizeof(in_snap));
    EXPECT_EQ(in_snap, 7u);

    // And the reverse: a store to the copy leaves the snapshot alone.
    dst.writeValue<uint32_t>(b, 9);
    EXPECT_NE(backingOf(dst, b), snap.get());
    EXPECT_EQ(snap->at(0), 0);
    EXPECT_EQ(dst.readValue<uint32_t>(b + kPageSize), 7u);
}

TEST(CopyOnWrite, OnlyWholePrivateMappingsCanBeShared)
{
    AddressSpace space(1);
    Addr a = space.alloc(3 * kPageSize);
    EXPECT_NE(space.wholeMapping(a, 3 * kPageSize - 5), nullptr);
    EXPECT_EQ(space.wholeMapping(a, kPageSize), nullptr);
    EXPECT_EQ(space.wholeMapping(a + kPageSize, kPageSize), nullptr);
    EXPECT_EQ(space.wholeMapping(a - kPageSize, kPageSize), nullptr);
    Addr shm = space.mapShared(std::make_shared<BackingBytes>(kPageSize),
                               PermRW, "shm");
    EXPECT_EQ(space.wholeMapping(shm, kPageSize), nullptr);
    Addr empty = space.alloc(0);
    EXPECT_NE(space.wholeMapping(empty, 0), nullptr);
}

TEST(CopyOnWrite, WritableSpansCloneAndReadOnlySpansDoNot)
{
    AddressSpace space(1);
    Addr a = space.alloc(kPageSize);
    Backing snap = space.wholeMapping(a, kPageSize)->backing;
    space.checkedSpan(a, 16, false);
    space.checkedSpan(a, 0, true); // stores nothing
    EXPECT_EQ(backingOf(space, a), snap.get());
    uint8_t *bytes = space.checkedSpan(a, 16, true);
    EXPECT_NE(backingOf(space, a), snap.get());
    bytes[0] = 0xab;
    EXPECT_EQ(snap->at(0), 0);
    // Once nobody else holds the bytes, stores go straight to them.
    const BackingBytes *own = backingOf(space, a);
    space.writeValue<uint8_t>(a, 1);
    EXPECT_EQ(backingOf(space, a), own);
}

TEST(CopyOnWrite, KernelCopyIntoASharedMappingClonesIt)
{
    Kernel kernel;
    Process &src = kernel.spawn("src");
    Process &dst = kernel.spawn("dst");
    Addr from = src.space().alloc(64);
    src.space().writeValue<uint64_t>(from, 0x5eed);
    Addr to = dst.space().alloc(64);
    Backing snap = dst.space().wholeMapping(to, 64)->backing;
    Addr peer = src.space().mapCopyOnWrite(snap, PermRW, "peer");

    kernel.trustedCopy(src.pid(), from, dst.pid(), to, 64);
    EXPECT_EQ(dst.space().readValue<uint64_t>(to), 0x5eedu);
    EXPECT_NE(backingOf(dst.space(), to), snap.get());
    EXPECT_EQ(src.space().readValue<uint64_t>(peer), 0u);
    // The source side of the copy was only read: still shared.
    Backing src_snap = src.space().wholeMapping(from, 64)->backing;
    kernel.trustedCopy(src.pid(), from, dst.pid(), to, 64);
    EXPECT_EQ(backingOf(src.space(), from), src_snap.get());
}

TEST(CopyOnWrite, FaultingStoreToASharedPageClonesNothing)
{
    AddressSpace space(1);
    Addr a = space.alloc(kPageSize, PermRead);
    Backing snap = space.wholeMapping(a, kPageSize)->backing;
    EXPECT_THROW(space.writeValue<uint8_t>(a, 1), MemFault);
    EXPECT_THROW(space.checkedSpan(a, 1, true), MemFault);
    EXPECT_EQ(backingOf(space, a), snap.get());
    EXPECT_EQ(snap.use_count(), 2);
}

TEST(CopyOnWrite, ShmStoresStayVisibleToThePeer)
{
    // A ring segment is shared by design: it is mapped by both peers
    // and held by the kernel, and a store must never clone it away.
    AddressSpace p1(1), p2(2);
    auto backing = std::make_shared<BackingBytes>(kPageSize);
    Addr a1 = p1.mapShared(backing, PermRW, "shm");
    Addr a2 = p2.mapShared(backing, PermRW, "shm");
    ASSERT_GT(backing.use_count(), 1);
    p1.writeValue<uint32_t>(a1, 41);
    p2.checkedSpan(a2 + 4, 4, true)[0] = 42;
    EXPECT_EQ(backingOf(p1, a1), backing.get());
    EXPECT_EQ(backingOf(p2, a2), backing.get());
    EXPECT_EQ(p2.readValue<uint32_t>(a2), 41u);
    EXPECT_EQ(p1.readValue<uint8_t>(a1 + 4), 42u);
}

TEST(CopyOnWrite, ASnapshotOutlivesRespawnAndRestoresByteForByte)
{
    Kernel kernel;
    Pid pid = kernel.spawn("agent").pid();
    AddressSpace &old_space = kernel.process(pid).space();
    uint64_t counter = 0;
    fw::ObjectStore store(kernel, pid, &counter);
    std::vector<uint8_t> bytes(3 * kPageSize + 17);
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<uint8_t>(i * 31 + 7);
    Addr addr = old_space.alloc(bytes.size(), PermRW, "blob");
    old_space.write(addr, bytes.data(), bytes.size());
    uint64_t id = store.putBytes(addr, bytes.size(), "blob");
    fw::ObjectSnapshot snap = store.snapshot(id);

    // The old incarnation's space, and every mapping in it, is gone.
    kernel.respawn(pid);
    store.clear();
    store.restore(id, snap);
    EXPECT_EQ(store.serialize(id), bytes);
    // The restored copy is writable and still leaves the snapshot be.
    kernel.process(pid).space().writeValue<uint8_t>(
        store.get(id).addr, 0);
    EXPECT_EQ(snap.data()[0], bytes[0]);
}

} // namespace
} // namespace freepart::osim
