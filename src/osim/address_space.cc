#include "osim/address_space.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <unordered_map>

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

/**
 * Freed blocks below kDirectMapBytes, kept by exact size for the next
 * allocation of that size. Handed back to malloc, such a block's pages
 * may return to the kernel (heap trim, munmap of a malloc-mapped
 * chunk) and be faulted in again; a kept block's pages stay resident.
 * The cache is process-wide state in library code, which any caller
 * may use from more than one thread, hence the lock.
 */
class FreedBlocks
{
  public:
    void *
    take(size_t len)
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = bySize.find(len);
        if (it == bySize.end() || it->second.empty())
            return nullptr;
        void *p = it->second.back();
        it->second.pop_back();
        held -= len;
        return p;
    }

    /**
     * Keep p for reuse. A full cache frees blocks of other sizes to
     * make room, so sizes that stopped recurring do not hold it;
     * false if only blocks of p's size fill it.
     */
    bool
    keep(void *p, size_t len) noexcept
    {
        std::lock_guard<std::mutex> lock(mu);
        for (auto it = bySize.begin();
             len > kReusedBytesCap - held && it != bySize.end();) {
            if (it->first == len) {
                ++it;
                continue;
            }
            while (!it->second.empty() && len > kReusedBytesCap - held) {
                std::free(it->second.back());
                it->second.pop_back();
                held -= it->first;
            }
            it = it->second.empty() ? bySize.erase(it) : std::next(it);
        }
        if (len > kReusedBytesCap - held)
            return false;
        try {
            bySize[len].push_back(p);
        } catch (const std::bad_alloc &) {
            return false;
        }
        held += len;
        return true;
    }

  private:
    std::mutex mu;
    std::unordered_map<size_t, std::vector<void *>> bySize;
    size_t held = 0;
};

/** Never destroyed, so a block freed during static destruction (or
 *  one still kept at exit) never meets a dead cache. */
FreedBlocks &
freedBlocks()
{
    static FreedBlocks *blocks = new FreedBlocks;
    return *blocks;
}

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
    // A reused block held another mapping's bytes: no agent may see
    // what another one freed.
    if (void *p = freedBlocks().take(len))
        return std::memset(p, 0, len);
    if (void *p = std::calloc(len, 1))
        return p;
    throw std::bad_alloc();
}

void
freeZeroedBytes(void *p, size_t len) noexcept
{
    if (len >= kDirectMapBytes)
        munmap(p, len);
    else if (len == 0 || !freedBlocks().keep(p, len))
        std::free(p);
}

Backing
copyToBacking(const uint8_t *bytes, size_t len)
{
    auto backing = std::make_shared<BackingBytes>(pageRoundUp(len));
    if (len > 0)
        std::memcpy(backing->data(), bytes, len);
    return backing;
}

AddressSpace::AddressSpace(Pid owner, Addr base)
    : ownerPid(owner), nextAddr(pageBase(base + kPageSize - 1))
{
}

Addr
AddressSpace::alloc(size_t size, Perms perms, const std::string &label)
{
    Mapping m;
    m.length = pageRoundUp(size);
    m.backing = std::make_shared<BackingBytes>(m.length);
    m.label = label;
    return insert(std::move(m), perms);
}

Addr
AddressSpace::mapShared(Backing backing, Perms perms,
                        const std::string &label)
{
    if (!backing)
        util::panic("mapShared: null backing");
    size_t rounded = pageRoundUp(backing->size());
    if (backing->size() < rounded)
        backing->resize(rounded, 0);
    Mapping m;
    m.length = rounded;
    m.backing = std::move(backing);
    m.shared = true;
    m.label = label;
    return insert(std::move(m), perms);
}

Addr
AddressSpace::mapCopyOnWrite(Backing backing, Perms perms,
                             const std::string &label)
{
    if (!backing || backing->empty() || backing->size() % kPageSize)
        util::panic("mapCopyOnWrite: backing is not whole pages");
    Mapping m;
    m.length = backing->size();
    m.backing = std::move(backing);
    m.label = label;
    return insert(std::move(m), perms);
}

const Mapping *
AddressSpace::wholeMapping(Addr addr, size_t len) const
{
    const Mapping *m = findMapping(addr);
    if (!m || m->shared || m->base != addr ||
        m->length != pageRoundUp(len))
        return nullptr;
    return m;
}

Addr
AddressSpace::insert(Mapping m, Perms perms)
{
    m.base = nextAddr;
    m.perms.assign(m.length / kPageSize, perms);
    nextAddr += m.length + kPageSize;  // guard page between mappings
    totalMapped += m.length;
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
    totalMapped -= it->second.length;
    mappings.erase(it);
}

void
AddressSpace::protect(Addr addr, size_t len, Perms perms)
{
    if (len == 0)
        return;
    Mapping *m = findMappingMutable(addr);
    if (!m)
        throw MemFault(ownerPid, pageBase(addr), false,
                       "mprotect of unmapped page");
    bool past_end = len > m->base + m->length - addr;
    size_t end = past_end ? m->perms.size()
                          : pageIndex(addr + len - 1 - m->base) + 1;
    std::fill(m->perms.begin() + pageIndex(addr - m->base),
              m->perms.begin() + end, perms);
    if (past_end)  // the guard page after the mapping
        throw MemFault(ownerPid, m->base + m->length, false,
                       "mprotect of unmapped page");
}

Perms
AddressSpace::permsAt(Addr addr) const
{
    const Mapping *m = findMapping(addr);
    if (!m)
        return PermNone;
    return static_cast<Perms>(m->perms[pageIndex(addr - m->base)]);
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
    return m && len <= m->base + m->length - addr;
}

const Mapping &
AddressSpace::checkedMapping(Addr addr, size_t len, bool is_write,
                             const char *outside) const
{
    const Mapping *m = findMapping(addr);
    // Compared with the room left in the mapping, so addr + len
    // cannot wrap.
    if (!m || len > m->base + m->length - addr)
        throw MemFault(ownerPid, addr, is_write, outside);
    if (len > 0) {
        Perms need = is_write ? PermWrite : PermRead;
        size_t last = pageIndex(addr + len - 1 - m->base);
        for (size_t p = pageIndex(addr - m->base); p <= last; ++p)
            if ((m->perms[p] & need) != need)
                throw MemFault(ownerPid, m->base + p * kPageSize,
                               is_write,
                               is_write ? "page not writable"
                                        : "page not readable");
    }
    return *m;
}

uint8_t *
AddressSpace::storeBytes(Addr addr, size_t len, const char *outside)
{
    auto &m = const_cast<Mapping &>(
        checkedMapping(addr, len, true, outside));
    // Copy-on-write: whoever else holds these bytes keeps them.
    if (len > 0 && !m.shared && m.backing.use_count() > 1)
        m.backing = copyToBacking(m.backing->data(), m.length);
    return m.backing->data() + (addr - m.base);
}

void
AddressSpace::read(Addr addr, void *dst, size_t len) const
{
    const Mapping &m = checkedMapping(addr, len, false,
                                      "read outside mapping");
    if (len > 0)
        std::memcpy(dst, m.backing->data() + (addr - m.base), len);
}

void
AddressSpace::write(Addr addr, const void *src, size_t len)
{
    uint8_t *dst = storeBytes(addr, len, "write outside mapping");
    if (len == 0)
        return;
    std::memcpy(dst, src, len);
}

uint8_t *
AddressSpace::checkedSpan(Addr addr, size_t len, bool for_write)
{
    if (!for_write)
        return const_cast<uint8_t *>(std::as_const(*this).checkedSpan(
            addr, len));
    return storeBytes(addr, len, "span outside mapping");
}

const uint8_t *
AddressSpace::checkedSpan(Addr addr, size_t len) const
{
    const Mapping &m = checkedMapping(addr, len, false,
                                      "span outside mapping");
    return m.backing->data() + (addr - m.base);
}

} // namespace freepart::osim
