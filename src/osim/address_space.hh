/**
 * @file
 * Per-process virtual address space with page-granular permissions.
 *
 * Each allocation becomes a contiguous mapping backed by private bytes
 * or by a shared-memory segment. All reads and writes are permission
 * checked, which is exactly how FreePart's temporal mprotect-based
 * protection (Fig. 3) stops data-corruption payloads: once a data
 * object's pages are flipped to read-only, any write raises MemFault.
 *
 * A private mapping's bytes can be shared copy-on-write (object
 * snapshots, and the copies mapped back from them): while anyone else
 * holds the backing, the first store through the mapping clones it.
 */

#ifndef FREEPART_OSIM_ADDRESS_SPACE_HH
#define FREEPART_OSIM_ADDRESS_SPACE_HH

#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "osim/types.hh"

namespace freepart::osim {

/** Most freed mapping bytes kept for reuse; beyond it blocks are
 *  handed back to malloc. */
inline constexpr size_t kReusedBytesCap = size_t{64} << 20;

/**
 * Zeroed storage for mapping bytes, and its release. Blocks of at
 * least 4 MiB (an agent's ring segment) are fresh anonymous mappings,
 * so their pages cost nothing until first touched. A smaller block is
 * kept when freed (up to kReusedBytesCap in all) and handed, zeroed
 * again, to the next allocation of the same size; failing that it
 * comes from calloc.
 */
void *allocZeroedBytes(size_t len);
void freeZeroedBytes(void *p, size_t len) noexcept;

/**
 * Allocator for mapping bytes. Its storage is already zero, so
 * value-initialising an element writes nothing and creating a mapping
 * does not touch its pages. The catch: a value-initialised element is
 * zero only on storage fresh from allocate(), so after shrinking a
 * vector grow it with an explicit value (resize(n, 0)).
 */
template <typename T>
struct ZeroedAllocator {
    using value_type = T;

    ZeroedAllocator() = default;
    template <typename U>
    ZeroedAllocator(const ZeroedAllocator<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(allocZeroedBytes(n * sizeof(T)));
    }

    void
    deallocate(T *p, size_t n) noexcept
    {
        freeZeroedBytes(p, n * sizeof(T));
    }

    /** Value-initialisation: the bytes are already zero. */
    template <typename U>
    void
    construct(U *) noexcept
    {
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    bool operator==(const ZeroedAllocator &) const { return true; }
};

/** The bytes behind a mapping; zero when created. */
using BackingBytes = std::vector<uint8_t, ZeroedAllocator<uint8_t>>;

/**
 * Backing store for a mapping: a shm segment, or private bytes that
 * may be shared copy-on-write with snapshots and other mappings.
 */
using Backing = std::shared_ptr<BackingBytes>;

/** len rounded up to whole pages; a zero-length region takes one. */
constexpr size_t
pageRoundUp(size_t len)
{
    return len == 0 ? kPageSize : (len + kPageSize - 1) & ~(kPageSize - 1);
}

/** Fresh private bytes, whole pages, starting with a copy of `len`
 *  bytes; the rest is zero. */
Backing copyToBacking(const uint8_t *bytes, size_t len);

/** One contiguous mapping inside an AddressSpace. */
struct Mapping {
    Addr base = kNullAddr;        //!< first mapped address
    size_t length = 0;            //!< mapped length in bytes
    Backing backing;              //!< backing bytes, base at offset 0
    bool shared = false;          //!< shm segment: never cloned
    std::string label;            //!< debug label ("Mat#3", "shm:ch0")
    std::vector<uint8_t> perms;   //!< Perms of each page, in order
};

/**
 * A sparse simulated virtual address space.
 *
 * Allocations are page aligned and never reuse addresses (a bump
 * allocator), so a dangling reference to freed memory faults instead
 * of silently aliasing — useful when simulating exploit payloads.
 */
class AddressSpace
{
  public:
    /** Create an address space whose first mapping starts at base. */
    explicit AddressSpace(Pid owner, Addr base = 0x10000);

    /**
     * Allocate a zero-initialized private mapping.
     *
     * @param size   Length in bytes (rounded up to page size).
     * @param perms  Initial page permissions.
     * @param label  Debug label recorded on the mapping.
     * @return Base address of the new mapping.
     */
    Addr alloc(size_t size, Perms perms = PermRW,
               const std::string &label = "");

    /**
     * Map a shared backing (shm segment) into this space.
     *
     * @param backing  Shared bytes; must outlive the mapping.
     * @param perms    Initial page permissions.
     * @param label    Debug label recorded on the mapping.
     * @return Base address of the new mapping.
     */
    Addr mapShared(Backing backing, Perms perms,
                   const std::string &label = "");

    /**
     * Map private bytes copy-on-write: the mapping reads `backing`
     * until its first store, which clones it while anyone else still
     * holds it.
     *
     * @param backing  Whole pages, e.g. another mapping's backing.
     * @param perms    Initial page permissions.
     * @param label    Debug label recorded on the mapping.
     * @return Base address of the new mapping.
     */
    Addr mapCopyOnWrite(Backing backing, Perms perms,
                        const std::string &label = "");

    /** The private mapping that [addr, addr+len) fills, len rounded
     *  up to whole pages; nullptr when there is none. Its backing can
     *  be shared copy-on-write. */
    const Mapping *wholeMapping(Addr addr, size_t len) const;

    /** Unmap the mapping that starts exactly at base. */
    void unmap(Addr base);

    /**
     * Change page permissions for [addr, addr+len). Rounds outward to
     * page boundaries. All touched pages must be mapped: the pages
     * before the first unmapped one change, then MemFault is thrown
     * at that page's base (for a range that runs past its mapping,
     * the guard page after it).
     */
    void protect(Addr addr, size_t len, Perms perms);

    /** Permissions of the page containing addr (PermNone if unmapped). */
    Perms permsAt(Addr addr) const;

    /** True if [addr, addr+len) lies fully inside one mapping. */
    bool isMapped(Addr addr, size_t len) const;

    /** Permission-checked read of len bytes at addr. @throws MemFault */
    void read(Addr addr, void *dst, size_t len) const;

    /** Permission-checked write of len bytes at addr. @throws MemFault */
    void write(Addr addr, const void *src, size_t len);

    /** Read a trivially-copyable value. */
    template <typename T>
    T
    readValue(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    /** Write a trivially-copyable value. */
    template <typename T>
    void
    writeValue(Addr addr, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &v, sizeof(T));
    }

    /**
     * Raw pointer into the backing bytes for [addr, addr+len), with
     * permission checks applied once up front. Used by compute kernels
     * that stream over large buffers; the permission semantics are the
     * same as issuing a single big read/write. A writable span of a
     * shared private mapping clones it first, as write() does, so take
     * it before any read span of the same mapping.
     *
     * @param for_write  Check write (true) or read (false) permission.
     */
    uint8_t *checkedSpan(Addr addr, size_t len, bool for_write);
    const uint8_t *checkedSpan(Addr addr, size_t len) const;

    /** Total bytes currently mapped. */
    size_t mappedBytes() const { return totalMapped; }

    /** Number of live mappings. */
    size_t mappingCount() const { return mappings.size(); }

    /** Owning process id (for fault attribution). */
    Pid owner() const { return ownerPid; }

    /** The mapping containing addr, or nullptr. */
    const Mapping *findMapping(Addr addr) const;

  private:
    Mapping *findMappingMutable(Addr addr);
    /** Place m at the next free address, every page set to perms. */
    Addr insert(Mapping m, Perms perms);
    /**
     * The mapping holding [addr, addr+len) once the range is found
     * inside one (else MemFault with message `outside`) and every page
     * in it grants read, or write if is_write.
     */
    const Mapping &checkedMapping(Addr addr, size_t len, bool is_write,
                                  const char *outside) const;

    /** Bytes of [addr, addr+len) to store into, after the write check;
     *  a private backing someone else still holds is cloned first. */
    uint8_t *storeBytes(Addr addr, size_t len, const char *outside);

    Pid ownerPid;
    Addr nextAddr;
    std::map<Addr, Mapping> mappings;  //!< keyed by base address
    size_t totalMapped = 0;
};

} // namespace freepart::osim

#endif // FREEPART_OSIM_ADDRESS_SPACE_HH
