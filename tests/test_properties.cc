/**
 * @file
 * Property-based parameterized sweeps:
 *  - every unary MiniCV kernel preserves shape, stays in u8 range,
 *    is deterministic, and never reads out of bounds, across a grid
 *    of image geometries (including 1-pixel and single-row edges);
 *  - the SPSC ring delivers FIFO content intact across a grid of
 *    capacities and message sizes;
 *  - the payload codec round-trips across payload kinds.
 */

#include <gtest/gtest.h>

#include <deque>
#include <tuple>

#include "fw/image_format.hh"
#include "fw/minicv_ops.hh"
#include "fw/vuln.hh"
#include "ipc/spsc_ring.hh"

namespace freepart {
namespace {

// ---- Unary kernel properties over image geometries -------------------

using Geometry = std::tuple<uint32_t, uint32_t, uint32_t>;

struct NamedKernel {
    const char *name;
    void (*fn)(const uint8_t *, uint8_t *, uint32_t, uint32_t,
               uint32_t);
};

void
blurAdapter(const uint8_t *s, uint8_t *d, uint32_t r, uint32_t c,
            uint32_t ch)
{
    fw::ops::boxBlur(s, d, r, c, ch, 3);
}

void
flipAdapter(const uint8_t *s, uint8_t *d, uint32_t r, uint32_t c,
            uint32_t ch)
{
    fw::ops::flipHorizontal(s, d, r, c, ch);
}

void
invertAdapter(const uint8_t *s, uint8_t *d, uint32_t r, uint32_t c,
              uint32_t ch)
{
    fw::ops::invert(s, d, static_cast<size_t>(r) * c * ch);
}

void
normalizeAdapter(const uint8_t *s, uint8_t *d, uint32_t r,
                 uint32_t c, uint32_t ch)
{
    fw::ops::normalizeMinMax(s, d, static_cast<size_t>(r) * c * ch);
}

const NamedKernel kKernels[] = {
    {"gaussian", &fw::ops::gaussianBlur3x3},
    {"box", &blurAdapter},
    {"erode", &fw::ops::erode3x3},
    {"dilate", &fw::ops::dilate3x3},
    {"morphOpen", &fw::ops::morphOpen},
    {"morphClose", &fw::ops::morphClose},
    {"flip", &flipAdapter},
    {"invert", &invertAdapter},
    {"normalize", &normalizeAdapter},
};

class KernelGeometry
    : public ::testing::TestWithParam<std::tuple<int, Geometry>>
{
  protected:
    /** Deterministic input with guard bands before and after. */
    std::vector<uint8_t>
    makeInput(uint32_t rows, uint32_t cols, uint32_t ch) const
    {
        std::vector<uint8_t> buf(static_cast<size_t>(rows) * cols *
                                 ch);
        for (size_t i = 0; i < buf.size(); ++i)
            buf[i] = static_cast<uint8_t>((i * 31 + 7) & 0xff);
        return buf;
    }
};

TEST_P(KernelGeometry, DeterministicAndShapePreserving)
{
    const NamedKernel &kernel = kKernels[std::get<0>(GetParam())];
    auto [rows, cols, ch] = std::get<1>(GetParam());
    std::vector<uint8_t> src = makeInput(rows, cols, ch);

    // Guarded destination: sentinel bytes around the image detect
    // out-of-bounds writes.
    constexpr size_t kGuard = 64;
    size_t len = src.size();
    std::vector<uint8_t> guarded(len + 2 * kGuard, 0xee);
    kernel.fn(src.data(), guarded.data() + kGuard, rows, cols, ch);
    for (size_t i = 0; i < kGuard; ++i) {
        ASSERT_EQ(guarded[i], 0xee) << kernel.name << " wrote "
                                    << "before the image";
        ASSERT_EQ(guarded[kGuard + len + i], 0xee)
            << kernel.name << " wrote past the image";
    }

    // Deterministic: a second run produces identical bytes.
    std::vector<uint8_t> again(len);
    kernel.fn(src.data(), again.data(), rows, cols, ch);
    EXPECT_TRUE(std::equal(again.begin(), again.end(),
                           guarded.begin() + kGuard))
        << kernel.name;

    // Pure: the input was not modified.
    EXPECT_EQ(src, makeInput(rows, cols, ch)) << kernel.name;
}

std::vector<std::tuple<int, Geometry>>
kernelGeometryGrid()
{
    const Geometry geometries[] = {
        {1, 1, 1},  {1, 16, 1}, {16, 1, 1},  {5, 7, 1},
        {8, 8, 3},  {17, 13, 2}, {32, 32, 3},
    };
    std::vector<std::tuple<int, Geometry>> out;
    for (int k = 0; k < static_cast<int>(std::size(kKernels)); ++k)
        for (const Geometry &g : geometries)
            out.emplace_back(k, g);
    return out;
}

std::string
kernelGeometryName(
    const ::testing::TestParamInfo<std::tuple<int, Geometry>> &info)
{
    auto [rows, cols, ch] = std::get<1>(info.param);
    return std::string(kKernels[std::get<0>(info.param)].name) +
           "_" + std::to_string(rows) + "x" + std::to_string(cols) +
           "x" + std::to_string(ch);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelGeometry,
                         ::testing::ValuesIn(kernelGeometryGrid()),
                         kernelGeometryName);

// ---- Monotone-kernel range property -----------------------------------

class RangePreserving
    : public ::testing::TestWithParam<std::tuple<int, Geometry>>
{
};

TEST_P(RangePreserving, OutputWithinInputRange)
{
    // Smoothing/morphology kernels never invent values outside the
    // input's [min, max] interval.
    const NamedKernel &kernel = kKernels[std::get<0>(GetParam())];
    auto [rows, cols, ch] = std::get<1>(GetParam());
    std::vector<uint8_t> src(static_cast<size_t>(rows) * cols * ch);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<uint8_t>(40 + (i * 13) % 120);
    std::vector<uint8_t> dst(src.size());
    kernel.fn(src.data(), dst.data(), rows, cols, ch);
    for (uint8_t v : dst) {
        EXPECT_GE(v, 40) << kernel.name;
        EXPECT_LT(v, 160) << kernel.name;
    }
}

std::vector<std::tuple<int, Geometry>>
rangeGrid()
{
    // Kernels 0..5 are the smoothing/morphology family.
    std::vector<std::tuple<int, Geometry>> out;
    for (int k = 0; k <= 5; ++k) {
        out.emplace_back(k, Geometry{9, 9, 1});
        out.emplace_back(k, Geometry{12, 5, 3});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(Smoothers, RangePreserving,
                         ::testing::ValuesIn(rangeGrid()),
                         kernelGeometryName);

// ---- SPSC ring FIFO property over capacities and sizes ------------------

class RingSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(RingSweep, FifoContentIntegrity)
{
    auto [capacity, msg_len] = GetParam();
    std::vector<uint8_t> region(ipc::SpscRing::kHeaderBytes +
                                capacity);
    ipc::SpscRing ring =
        ipc::SpscRing::create(region.data(), region.size());

    // Interleaved push/pop with varying backlog; every popped
    // message must match its pushed content in order.
    uint32_t pushed = 0, popped = 0;
    std::vector<uint8_t> out;
    auto make_msg = [&](uint32_t n) {
        std::vector<uint8_t> msg(msg_len);
        for (size_t i = 0; i < msg.size(); ++i)
            msg[i] = static_cast<uint8_t>(n * 7 + i);
        return msg;
    };
    for (int step = 0; step < 500; ++step) {
        if (step % 3 != 2) {
            std::vector<uint8_t> msg = make_msg(pushed);
            ipc::SpscRing::Reservation res;
            if (ring.tryReserve(msg.size(), res)) {
                ring.reservationWrite(res, msg.data(), msg.size());
                ring.commit(res);
                ++pushed;
            }
        } else if (ring.tryPop(out)) {
            ASSERT_EQ(out, make_msg(popped));
            ++popped;
        }
    }
    while (ring.tryPop(out)) {
        ASSERT_EQ(out, make_msg(popped));
        ++popped;
    }
    EXPECT_EQ(pushed, popped);
    EXPECT_GT(pushed, 0u);
    EXPECT_TRUE(ring.empty());
}

TEST_P(RingSweep, VariableSizesRewindWithoutLosingRecords)
{
    // Random record sizes up to about a third of the capacity (the
    // message-length parameter seeds the draw), random interleaving.
    // Whenever the ring is drained every record that fits the
    // capacity must be accepted, rewound or not, and size() must read
    // zero exactly when nothing is queued.
    auto [capacity, seed] = GetParam();
    std::vector<uint8_t> region(ipc::SpscRing::kHeaderBytes +
                                capacity);
    ipc::SpscRing ring =
        ipc::SpscRing::create(region.data(), region.size());
    uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
    auto next = [&](uint64_t bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % bound;
    };
    auto make_msg = [](uint32_t n, size_t len) {
        std::vector<uint8_t> msg(len);
        for (size_t i = 0; i < len; ++i)
            msg[i] = static_cast<uint8_t>(n * 13 + i);
        return msg;
    };
    std::deque<std::vector<uint8_t>> queued;
    uint32_t pushed = 0;
    std::vector<uint8_t> out;
    for (int step = 0; step < 2000; ++step) {
        if (next(3) != 0) {
            // Now and then a record that fills the whole data area.
            size_t len = next(8) == 0
                             ? capacity - ipc::SpscRing::kRecordPrefix
                             : next(capacity / 3 + 1);
            std::vector<uint8_t> msg = make_msg(pushed, len);
            bool drained = queued.empty();
            ipc::SpscRing::Reservation res;
            bool accepted = ring.tryReserve(msg.size(), res);
            if (drained) {
                ASSERT_TRUE(accepted) << len << " bytes, step " << step;
            }
            if (accepted) {
                ring.reservationWrite(res, msg.data(), msg.size());
                ring.commit(res);
                queued.push_back(std::move(msg));
                ++pushed;
            }
        } else if (ring.tryPop(out)) {
            ASSERT_FALSE(queued.empty());
            ASSERT_EQ(out, queued.front());
            queued.pop_front();
        }
        ASSERT_EQ(ring.empty(), queued.empty());
        ASSERT_LE(ring.size(), capacity);
    }
    while (ring.tryPop(out)) {
        ASSERT_EQ(out, queued.front());
        queued.pop_front();
    }
    EXPECT_TRUE(queued.empty());
    EXPECT_EQ(ring.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CapacityBySize, RingSweep,
    ::testing::Combine(::testing::Values(size_t{64}, size_t{256},
                                         size_t{4096}),
                       ::testing::Values(size_t{1}, size_t{13},
                                         size_t{32})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>
           &info) {
        return "cap" + std::to_string(std::get<0>(info.param)) +
               "_msg" + std::to_string(std::get<1>(info.param));
    });

// ---- Payload codec round trip over kinds -------------------------------

class PayloadKinds
    : public ::testing::TestWithParam<fw::PayloadKind>
{
};

TEST_P(PayloadKinds, RoundTripsThroughImageTrailer)
{
    fw::ExploitPayload payload;
    payload.kind = GetParam();
    payload.cve = "CVE-TEST-0001";
    payload.targetAddr = 0x123456;
    payload.writeData = {9, 8, 7};
    payload.leakAddr = 0x654321;
    payload.leakLen = 99;
    payload.dest = "c2.example";
    payload.forkCount = 5;

    std::vector<uint8_t> file = fw::encodeImageFile(
        4, 4, 1, fw::synthPixels(4, 4, 1, 0), payload);
    fw::DecodedImage img = fw::decodeImageFile(file);
    auto back = fw::decodePayload(img.trailer);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->kind, payload.kind);
    EXPECT_EQ(back->cve, payload.cve);
    EXPECT_EQ(back->targetAddr, payload.targetAddr);
    EXPECT_EQ(back->writeData, payload.writeData);
    EXPECT_EQ(back->leakAddr, payload.leakAddr);
    EXPECT_EQ(back->leakLen, payload.leakLen);
    EXPECT_EQ(back->dest, payload.dest);
    EXPECT_EQ(back->forkCount, payload.forkCount);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PayloadKinds,
    ::testing::Values(fw::PayloadKind::OobWrite,
                      fw::PayloadKind::Exfiltrate,
                      fw::PayloadKind::Dos,
                      fw::PayloadKind::CodeRewrite,
                      fw::PayloadKind::ForkBomb),
    [](const ::testing::TestParamInfo<fw::PayloadKind> &info) {
        std::string name = fw::payloadKindName(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
} // namespace freepart
