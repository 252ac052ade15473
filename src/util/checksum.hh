/**
 * @file
 * Deterministic, dependency-free 64-bit digests of byte buffers.
 *
 *  - fnv1a64: byte-serial FNV-1a. Used where the value itself is
 *    pinned — HashRing placement keys, app final digests, the
 *    partition linter's blob matching — so it must never change.
 *  - WideChecksum: the integrity checksum on IPC wire trailers and
 *    checkpoint entries. It consumes 32-byte stripes as four
 *    independent 64-bit lanes (the XXH64 round and finalization,
 *    seed 0), so it runs at memory speed instead of one multiply per
 *    byte. Feeding the bytes in any split gives the same digest as
 *    one call over the concatenation.
 */

#ifndef FREEPART_UTIL_CHECKSUM_HH
#define FREEPART_UTIL_CHECKSUM_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace freepart::util {

/** FNV-1a 64-bit offset basis (initial accumulator state). */
constexpr uint64_t kFnv1a64Init = 0xcbf29ce484222325ull;

/** FNV-1a 64-bit hash of a byte range. */
inline uint64_t
fnv1a64(const uint8_t *data, size_t len)
{
    uint64_t state = kFnv1a64Init;
    for (size_t i = 0; i < len; ++i) {
        state ^= data[i];
        state *= 0x100000001b3ull;
    }
    return state;
}

/** FNV-1a 64-bit hash of a byte vector. */
inline uint64_t
fnv1a64(const std::vector<uint8_t> &bytes)
{
    return fnv1a64(bytes.data(), bytes.size());
}

/** Streaming word-wide integrity checksum (see the file comment). */
class WideChecksum
{
  public:
    /** Fold a byte range into the running state. */
    void
    update(const void *data, size_t len)
    {
        if (len == 0)
            return;
        const auto *p = static_cast<const uint8_t *>(data);
        total_ += len;
        if (pendingLen_ + len < kStripe) {
            std::memcpy(pending_ + pendingLen_, p, len);
            pendingLen_ += len;
            return;
        }
        if (pendingLen_ > 0) {
            size_t fill = kStripe - pendingLen_;
            std::memcpy(pending_ + pendingLen_, p, fill);
            stripe(pending_);
            p += fill;
            len -= fill;
            pendingLen_ = 0;
        }
        for (; len >= kStripe; p += kStripe, len -= kStripe)
            stripe(p);
        if (len > 0)
            std::memcpy(pending_, p, len);
        pendingLen_ = len;
    }

    /** Digest of every byte folded so far (the state is unchanged). */
    uint64_t
    digest() const
    {
        uint64_t h;
        if (total_ >= kStripe) {
            h = rotl(lanes_[0], 1) + rotl(lanes_[1], 7) +
                rotl(lanes_[2], 12) + rotl(lanes_[3], 18);
            for (uint64_t lane : lanes_)
                h = (h ^ round(0, lane)) * kP1 + kP4;
        } else {
            h = kP5;
        }
        h += total_;
        const uint8_t *p = pending_;
        size_t n = pendingLen_;
        for (; n >= 8; p += 8, n -= 8)
            h = rotl(h ^ round(0, load64(p)), 27) * kP1 + kP4;
        if (n >= 4) {
            uint32_t k;
            std::memcpy(&k, p, sizeof(k));
            h = rotl(h ^ (k * kP1), 23) * kP2 + kP3;
            p += 4;
            n -= 4;
        }
        for (; n > 0; ++p, --n)
            h = rotl(h ^ (*p * kP5), 11) * kP1;
        h ^= h >> 33;
        h *= kP2;
        h ^= h >> 29;
        h *= kP3;
        h ^= h >> 32;
        return h;
    }

  private:
    static constexpr size_t kStripe = 32;
    static constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
    static constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
    static constexpr uint64_t kP3 = 0x165667b19e3779f9ull;
    static constexpr uint64_t kP4 = 0x85ebca77c2b2ae63ull;
    static constexpr uint64_t kP5 = 0x27d4eb2f165667c5ull;

    static uint64_t
    rotl(uint64_t v, int r)
    {
        return (v << r) | (v >> (64 - r));
    }

    static uint64_t
    round(uint64_t acc, uint64_t input)
    {
        return rotl(acc + input * kP2, 31) * kP1;
    }

    static uint64_t
    load64(const uint8_t *p)
    {
        uint64_t v;
        std::memcpy(&v, p, sizeof(v));
        return v;
    }

    void
    stripe(const uint8_t *p)
    {
        for (size_t i = 0; i < 4; ++i)
            lanes_[i] = round(lanes_[i], load64(p + 8 * i));
    }

    uint64_t lanes_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    uint8_t pending_[kStripe] = {};
    size_t pendingLen_ = 0;
    uint64_t total_ = 0;
};

/** WideChecksum of a byte range in one call. */
inline uint64_t
wideChecksum(const uint8_t *data, size_t len)
{
    WideChecksum sum;
    sum.update(data, len);
    return sum.digest();
}

/** WideChecksum of a byte vector. */
inline uint64_t
wideChecksum(const std::vector<uint8_t> &bytes)
{
    return wideChecksum(bytes.data(), bytes.size());
}

} // namespace freepart::util

#endif // FREEPART_UTIL_CHECKSUM_HH
