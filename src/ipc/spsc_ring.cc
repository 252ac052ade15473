#include "ipc/spsc_ring.hh"

#include "util/logging.hh"

namespace freepart::ipc {

SpscRing::SpscRing(uint8_t *region, size_t region_len, bool init)
    : base(region), data(region + kHeaderBytes),
      cap(region_len > kHeaderBytes ? region_len - kHeaderBytes : 0)
{
    if (region_len <= kHeaderBytes + kRecordPrefix)
        util::fatal("SpscRing: region too small (%zu bytes)",
                    region_len);
    if (init) {
        headRef().store(0, std::memory_order_relaxed);
        tailRef().store(0, std::memory_order_relaxed);
        header().capacity = cap;
    }
}

SpscRing
SpscRing::create(uint8_t *region, size_t region_len)
{
    return SpscRing(region, region_len, true);
}

SpscRing
SpscRing::attach(uint8_t *region, size_t region_len)
{
    return SpscRing(region, region_len, false);
}

size_t
SpscRing::size() const
{
    uint64_t tail = tailRef().load(std::memory_order_acquire);
    uint64_t head = headRef().load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
}

void
SpscRing::copyIn(uint64_t pos, const uint8_t *src, size_t len)
{
    // An empty record's payload may be a null data() pointer, which
    // memcpy must not see even for a zero length.
    if (len == 0)
        return;
    size_t off = static_cast<size_t>(pos % cap);
    size_t first = std::min(len, cap - off);
    std::memcpy(data + off, src, first);
    if (first < len)
        std::memcpy(data, src + first, len - first);
}

void
SpscRing::copyOut(uint64_t pos, uint8_t *dst, size_t len) const
{
    if (len == 0)
        return;
    size_t off = static_cast<size_t>(pos % cap);
    size_t first = std::min(len, cap - off);
    std::memcpy(dst, data + off, first);
    if (first < len)
        std::memcpy(dst + first, data, len - first);
}

bool
SpscRing::tryFront(Front &front) const
{
    uint64_t tail = tailRef().load(std::memory_order_acquire);
    uint64_t head = headRef().load(std::memory_order_relaxed);
    if (tail == head)
        return false;
    uint32_t len32 = 0;
    copyOut(head, reinterpret_cast<uint8_t *>(&len32), sizeof(len32));
    if (len32 == kWrapMarker) {
        head += cap - head % cap;
        copyOut(head, reinterpret_cast<uint8_t *>(&len32),
                sizeof(len32));
    }
    front.start = head + kRecordPrefix;
    front.length = len32;
    // Bytes the producer did not publish are never handed out, even
    // if the ring's contents were overwritten.
    if (front.start > tail || len32 > tail - front.start)
        util::fatal("SpscRing: %u-byte record overruns the published "
                    "bytes",
                    len32);
    size_t off = static_cast<size_t>(front.start % cap);
    front.bytes = len32 <= cap - off ? data + off : nullptr;
    return true;
}

void
SpscRing::copyFront(const Front &front, std::vector<uint8_t> &out) const
{
    out.resize(front.length);
    copyOut(front.start, out.data(), front.length);
}

void
SpscRing::release(const Front &front)
{
    headRef().store(front.start + front.length, std::memory_order_release);
}

bool
SpscRing::tryPop(std::vector<uint8_t> &out)
{
    Front front;
    if (!tryFront(front))
        return false;
    copyFront(front, out);
    release(front);
    return true;
}

bool
SpscRing::tryReserve(size_t len, Reservation &out)
{
    uint64_t head = headRef().load(std::memory_order_acquire);
    uint64_t tail = tailRef().load(std::memory_order_relaxed);
    size_t used = static_cast<size_t>(tail - head);
    size_t need = kRecordPrefix + len;
    if (len >= kWrapMarker || need > cap - used)
        return false;
    uint64_t start = tail;
    size_t off = static_cast<size_t>(tail % cap);
    // Rewind a drained ring to its first byte. The record then ends
    // at or before the marker, so tail - head stays within cap, and
    // both lie in bytes the consumer has released.
    if (used == 0 && off >= need && cap - off >= kRecordPrefix) {
        copyIn(tail, reinterpret_cast<const uint8_t *>(&kWrapMarker),
               sizeof(kWrapMarker));
        start = tail + (cap - off);
    }
    uint32_t len32 = static_cast<uint32_t>(len);
    copyIn(start, reinterpret_cast<const uint8_t *>(&len32),
           sizeof(len32));
    out.start = start;
    out.length = len;
    out.written = 0;
    return true;
}

void
SpscRing::reservationWrite(Reservation &res, const void *src, size_t n)
{
    if (res.written + n > res.length)
        util::fatal("SpscRing: reservation overflow (%zu + %zu > %zu)",
                    res.written, n, res.length);
    copyIn(res.start + kRecordPrefix + res.written,
           static_cast<const uint8_t *>(src), n);
    res.written += n;
}

void
SpscRing::commit(const Reservation &res)
{
    if (res.written != res.length)
        util::fatal("SpscRing: committing under-filled reservation "
                    "(%zu of %zu bytes)",
                    res.written, res.length);
    tailRef().store(res.start + kRecordPrefix + res.length,
                    std::memory_order_release);
}

} // namespace freepart::ipc
