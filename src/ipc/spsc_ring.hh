/**
 * @file
 * Single-producer/single-consumer byte ring buffer. This is the IPC
 * primitive the paper describes in §4.3 footnote 8: "We implement IPC
 * between processes using shared memory. It uses ring buffers and
 * futex for synchronization."
 *
 * The ring operates over an externally provided byte region, so the
 * same implementation runs both over simulated shared-memory segments
 * (inside osim) and over real process memory (the real-time
 * google-benchmark harness exercises it with actual std::threads).
 *
 * The producer API is tryReserve / reservationWrite / commit: an
 * encoder streams bytes straight into ring storage (no staging
 * buffer), and the record is published only at commit. The consumer
 * never observes a partially written record because the tail index
 * moves last.
 *
 * A drained ring restarts at its first byte: when the producer finds
 * the ring empty and the record fits before its read position, it
 * writes a wrap marker there and starts the record at the data area's
 * first byte, so an exchange-at-a-time channel keeps reusing the same
 * few pages instead of sweeping the whole ring.
 *
 * The consumer API is tryFront / release: the oldest record can be
 * read where it lies (when it does not wrap the data area's end) and
 * its bytes are handed back only at release. tryPop copies it out.
 */

#ifndef FREEPART_IPC_SPSC_RING_HH
#define FREEPART_IPC_SPSC_RING_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

namespace freepart::ipc {

/**
 * Ring control block at the start of the region. head and tail live
 * on separate cache lines so the producer's tail stores never
 * invalidate the consumer's head line (and vice versa) — under the
 * two-thread stress load the indices are the only contended words.
 */
struct alignas(64) SpscRingHeader {
    alignas(64) std::atomic<uint64_t> head; //!< consumer-owned
    alignas(64) std::atomic<uint64_t> tail; //!< producer-owned
    alignas(64) uint64_t capacity;          //!< data-area length
};
static_assert(sizeof(SpscRingHeader) == 192,
              "head/tail/capacity must occupy one cache line each");

/**
 * Lock-free SPSC ring over a caller-owned byte region.
 *
 * Region layout: [SpscRingHeader][data bytes...]. head/tail are
 * free-running counters; the producer writes only tail (and bytes the
 * consumer has released), the consumer writes only head. Records are
 * length-prefixed (u32) so variable sized messages pop out whole; a
 * prefix of kWrapMarker sends the consumer on to the next lap's first
 * byte, where the record written after the marker starts.
 */
class SpscRing
{
  public:
    /** Header bytes reserved at the start of the region. */
    static constexpr size_t kHeaderBytes = sizeof(SpscRingHeader);

    /** Length prefix stored before each record's payload. */
    static constexpr size_t kRecordPrefix = sizeof(uint32_t);

    /** Prefix value meaning "the next record starts at the next lap". */
    static constexpr uint32_t kWrapMarker = UINT32_MAX;

    /**
     * An in-flight zero-copy record (see tryReserve). The producer
     * streams payload bytes into it with reservationWrite and
     * publishes with commit; until then the consumer cannot see it.
     */
    struct Reservation {
        uint64_t start = 0;  //!< absolute tail position of the prefix
        size_t length = 0;   //!< reserved payload length
        size_t written = 0;  //!< payload bytes streamed so far
    };

    /**
     * The oldest record, seen by the consumer but not yet released
     * (see tryFront). Its bytes stay untouched until release().
     */
    struct Front {
        const uint8_t *bytes = nullptr; //!< payload, or null if it wraps
        size_t length = 0;              //!< payload length
        uint64_t start = 0;             //!< absolute payload position
    };

    /** Attach to (and zero-initialize) a region as a fresh ring. */
    static SpscRing create(uint8_t *region, size_t region_len);

    /** Attach to an already initialized region. */
    static SpscRing attach(uint8_t *region, size_t region_len);

    /** Usable data capacity in bytes. */
    size_t capacity() const { return cap; }

    /**
     * Ring bytes held by unconsumed records: prefixes and payloads,
     * plus the skipped end of the lap before a record that restarted
     * at the first byte.
     */
    size_t size() const;

    /** True if no records are enqueued. */
    bool empty() const { return size() == 0; }

    /**
     * Look at the oldest record without consuming it. front.bytes
     * points into ring storage when the payload is contiguous.
     * @return false if the ring is empty.
     */
    bool tryFront(Front &front) const;

    /** Copy a front record's payload into out (replacing it). */
    void copyFront(const Front &front, std::vector<uint8_t> &out) const;

    /** Consume a record seen by tryFront, handing its bytes back. */
    void release(const Front &front);

    /**
     * Dequeue one record into out (replacing its contents).
     * @return false if the ring is empty.
     */
    bool tryPop(std::vector<uint8_t> &out);

    /**
     * Reserve space for one record of exactly len payload bytes.
     * The record stays invisible to the consumer until commit(). On
     * an empty ring whose read position leaves room for the record
     * before it, the record restarts at the data area's first byte.
     * @return false if there is not enough free space.
     */
    bool tryReserve(size_t len, Reservation &out);

    /** Stream the next n payload bytes into a reservation. */
    void reservationWrite(Reservation &res, const void *src, size_t n);

    /** Publish a fully written reservation; panics if under-filled. */
    void commit(const Reservation &res);

  private:
    SpscRing(uint8_t *region, size_t region_len, bool init);

    SpscRingHeader &header() const
    {
        return *reinterpret_cast<SpscRingHeader *>(base);
    }

    std::atomic<uint64_t> &headRef() const { return header().head; }
    std::atomic<uint64_t> &tailRef() const { return header().tail; }
    void copyIn(uint64_t pos, const uint8_t *src, size_t len);
    void copyOut(uint64_t pos, uint8_t *dst, size_t len) const;

    uint8_t *base;   //!< region start (header lives here)
    uint8_t *data;   //!< data area start
    size_t cap;      //!< data area length
};

} // namespace freepart::ipc

#endif // FREEPART_IPC_SPSC_RING_HH
