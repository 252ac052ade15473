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
SpscRing::tryPush(const uint8_t *payload, size_t len)
{
    uint64_t head = headRef().load(std::memory_order_acquire);
    uint64_t tail = tailRef().load(std::memory_order_relaxed);
    size_t used = static_cast<size_t>(tail - head);
    size_t need = kRecordPrefix + len;
    if (need > cap - used)
        return false;
    uint32_t len32 = static_cast<uint32_t>(len);
    copyIn(tail, reinterpret_cast<const uint8_t *>(&len32),
           sizeof(len32));
    copyIn(tail + sizeof(len32), payload, len);
    tailRef().store(tail + need, std::memory_order_release);
    return true;
}

bool
SpscRing::tryPushBatch(const std::vector<std::vector<uint8_t>> &batch)
{
    uint64_t head = headRef().load(std::memory_order_acquire);
    uint64_t tail = tailRef().load(std::memory_order_relaxed);
    size_t used = static_cast<size_t>(tail - head);
    size_t need = 0;
    for (const std::vector<uint8_t> &record : batch)
        need += kRecordPrefix + record.size();
    if (need > cap - used)
        return false;
    uint64_t pos = tail;
    for (const std::vector<uint8_t> &record : batch) {
        uint32_t len32 = static_cast<uint32_t>(record.size());
        copyIn(pos, reinterpret_cast<const uint8_t *>(&len32),
               sizeof(len32));
        copyIn(pos + sizeof(len32), record.data(), record.size());
        pos += kRecordPrefix + record.size();
    }
    // One release store publishes the whole burst: the consumer sees
    // either none of the batch or all of it.
    tailRef().store(pos, std::memory_order_release);
    return true;
}

uint64_t
SpscRing::popAt(uint64_t head, std::vector<uint8_t> &out) const
{
    uint32_t len32 = 0;
    copyOut(head, reinterpret_cast<uint8_t *>(&len32), sizeof(len32));
    out.resize(len32);
    copyOut(head + sizeof(len32), out.data(), len32);
    return head + sizeof(len32) + len32;
}

bool
SpscRing::tryPop(std::vector<uint8_t> &out)
{
    uint64_t tail = tailRef().load(std::memory_order_acquire);
    uint64_t head = headRef().load(std::memory_order_relaxed);
    if (tail == head)
        return false;
    headRef().store(popAt(head, out), std::memory_order_release);
    return true;
}

size_t
SpscRing::tryPopBatch(std::vector<std::vector<uint8_t>> &out,
                      size_t max_records)
{
    uint64_t tail = tailRef().load(std::memory_order_acquire);
    uint64_t head = headRef().load(std::memory_order_relaxed);
    size_t popped = 0;
    while (head != tail && popped < max_records) {
        std::vector<uint8_t> record;
        head = popAt(head, record);
        out.push_back(std::move(record));
        ++popped;
    }
    if (popped)
        headRef().store(head, std::memory_order_release);
    return popped;
}

size_t
SpscRing::peekLength() const
{
    uint64_t tail = tailRef().load(std::memory_order_acquire);
    uint64_t head = headRef().load(std::memory_order_relaxed);
    if (tail == head)
        return 0;
    uint32_t len32 = 0;
    copyOut(head, reinterpret_cast<uint8_t *>(&len32), sizeof(len32));
    return len32;
}

bool
SpscRing::tryReserve(size_t len, Reservation &out)
{
    uint64_t head = headRef().load(std::memory_order_acquire);
    uint64_t tail = tailRef().load(std::memory_order_relaxed);
    size_t used = static_cast<size_t>(tail - head);
    if (kRecordPrefix + len > cap - used)
        return false;
    uint32_t len32 = static_cast<uint32_t>(len);
    copyIn(tail, reinterpret_cast<const uint8_t *>(&len32),
           sizeof(len32));
    out.start = tail;
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
