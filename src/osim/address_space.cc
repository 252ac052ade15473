#include "osim/address_space.hh"

#include <sys/mman.h>

#include <cstdlib>

#include "util/logging.hh"

namespace freepart::osim {

namespace {

/**
 * Blocks this large bypass malloc. Once one is freed, malloc's dynamic
 * mmap threshold would serve the next from the heap, where calloc has
 * to write every byte (and the heap may have to fault them in), so
 * the cost of creating a ring segment would swing with heap layout.
 */
constexpr size_t kDirectMapBytes = size_t{4} << 20;

} // namespace

void *
allocZeroedBytes(size_t len)
{
    if (len >= kDirectMapBytes) {
        void *p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return p;
    }
    if (void *p = std::calloc(len, 1))
        return p;
    throw std::bad_alloc();
}

void
freeZeroedBytes(void *p, size_t len) noexcept
{
    if (len >= kDirectMapBytes)
        munmap(p, len);
    else
        std::free(p);
}

AddressSpace::AddressSpace(Pid owner, Addr base)
    : ownerPid(owner), nextAddr(pageBase(base + kPageSize - 1))
{
}

Addr
AddressSpace::alloc(size_t size, Perms perms, const std::string &label)
{
    if (size == 0)
        size = 1;
    size_t rounded = (size + kPageSize - 1) & ~(kPageSize - 1);
    Mapping m;
    m.base = nextAddr;
    m.length = rounded;
    m.backing = std::make_shared<BackingBytes>(rounded);
    m.backingOff = 0;
    m.shared = false;
    m.label = label;
    for (uint64_t p = pageIndex(m.base);
         p < pageIndex(m.base) + rounded / kPageSize; ++p)
        pagePerms[p] = perms;
    nextAddr += rounded + kPageSize;  // guard page between mappings
    totalMapped += rounded;
    Addr base = m.base;
    mappings.emplace(base, std::move(m));
    return base;
}

Addr
AddressSpace::mapShared(Backing backing, Perms perms,
                        const std::string &label)
{
    if (!backing)
        util::panic("mapShared: null backing");
    size_t rounded =
        (backing->size() + kPageSize - 1) & ~(kPageSize - 1);
    if (backing->size() < rounded)
        backing->resize(rounded, 0);
    Mapping m;
    m.base = nextAddr;
    m.length = rounded;
    m.backing = std::move(backing);
    m.backingOff = 0;
    m.shared = true;
    m.label = label;
    for (uint64_t p = pageIndex(m.base);
         p < pageIndex(m.base) + rounded / kPageSize; ++p)
        pagePerms[p] = perms;
    nextAddr += rounded + kPageSize;
    totalMapped += rounded;
    Addr base = m.base;
    mappings.emplace(base, std::move(m));
    return base;
}

void
AddressSpace::unmap(Addr base)
{
    auto it = mappings.find(base);
    if (it == mappings.end())
        util::panic("unmap: no mapping at base 0x%llx",
                    static_cast<unsigned long long>(base));
    for (uint64_t p = pageIndex(base);
         p < pageIndex(base) + it->second.length / kPageSize; ++p)
        pagePerms.erase(p);
    totalMapped -= it->second.length;
    mappings.erase(it);
}

void
AddressSpace::protect(Addr addr, size_t len, Perms perms)
{
    if (len == 0)
        return;
    uint64_t first = pageIndex(addr);
    uint64_t last = pageIndex(addr + len - 1);
    for (uint64_t p = first; p <= last; ++p) {
        auto it = pagePerms.find(p);
        if (it == pagePerms.end())
            throw MemFault(ownerPid, p * kPageSize, false,
                           "mprotect of unmapped page");
        it->second = perms;
    }
}

Perms
AddressSpace::permsAt(Addr addr) const
{
    auto it = pagePerms.find(pageIndex(addr));
    if (it == pagePerms.end())
        return PermNone;
    return static_cast<Perms>(it->second);
}

const Mapping *
AddressSpace::findMapping(Addr addr) const
{
    auto it = mappings.upper_bound(addr);
    if (it == mappings.begin())
        return nullptr;
    --it;
    const Mapping &m = it->second;
    if (addr >= m.base && addr < m.base + m.length)
        return &m;
    return nullptr;
}

Mapping *
AddressSpace::findMappingMutable(Addr addr)
{
    return const_cast<Mapping *>(findMapping(addr));
}

bool
AddressSpace::isMapped(Addr addr, size_t len) const
{
    const Mapping *m = findMapping(addr);
    return m && addr + len <= m->base + m->length;
}

void
AddressSpace::checkPages(Addr addr, size_t len, Perms need,
                         bool is_write) const
{
    if (len == 0)
        return;
    uint64_t first = pageIndex(addr);
    uint64_t last = pageIndex(addr + len - 1);
    for (uint64_t p = first; p <= last; ++p) {
        auto it = pagePerms.find(p);
        if (it == pagePerms.end())
            throw MemFault(ownerPid, p * kPageSize, is_write,
                           "unmapped page");
        if ((it->second & need) != need)
            throw MemFault(ownerPid, p * kPageSize, is_write,
                           is_write ? "page not writable"
                                    : "page not readable");
    }
}

void
AddressSpace::read(Addr addr, void *dst, size_t len) const
{
    const Mapping *m = findMapping(addr);
    if (!m || addr + len > m->base + m->length)
        throw MemFault(ownerPid, addr, false, "read outside mapping");
    checkPages(addr, len, PermRead, false);
    if (len == 0)
        return;
    std::memcpy(dst, m->backing->data() + m->backingOff +
                         (addr - m->base),
                len);
}

void
AddressSpace::write(Addr addr, const void *src, size_t len)
{
    Mapping *m = findMappingMutable(addr);
    if (!m || addr + len > m->base + m->length)
        throw MemFault(ownerPid, addr, true, "write outside mapping");
    checkPages(addr, len, PermWrite, true);
    if (len == 0)
        return;
    std::memcpy(m->backing->data() + m->backingOff + (addr - m->base),
                src, len);
    notifyWrite(addr, len);
}

uint8_t *
AddressSpace::checkedSpan(Addr addr, size_t len, bool for_write)
{
    Mapping *m = findMappingMutable(addr);
    if (!m || addr + len > m->base + m->length)
        throw MemFault(ownerPid, addr, for_write,
                       "span outside mapping");
    checkPages(addr, len, for_write ? PermWrite : PermRead, for_write);
    // A writable span hands out raw bytes, so the actual stores are
    // invisible; conservatively treat the whole span as dirtied (the
    // same over-approximation a page-granular soft-dirty bit makes).
    if (for_write)
        notifyWrite(addr, len);
    return m->backing->data() + m->backingOff + (addr - m->base);
}

const uint8_t *
AddressSpace::checkedSpan(Addr addr, size_t len) const
{
    const Mapping *m = findMapping(addr);
    if (!m || addr + len > m->base + m->length)
        throw MemFault(ownerPid, addr, false, "span outside mapping");
    checkPages(addr, len, PermRead, false);
    return m->backing->data() + m->backingOff + (addr - m->base);
}

} // namespace freepart::osim
