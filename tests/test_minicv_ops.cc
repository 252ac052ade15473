/**
 * @file
 * Correctness tests for the MiniCV image kernels: algebraic
 * properties (idempotence, involution, monotonicity, range
 * preservation), hand-checked small cases, and byte identity of the
 * separable morphology kernels with a direct 3x3 window.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fw/minicv_ops.hh"
#include "util/rng.hh"

namespace freepart::fw::ops {
namespace {

std::vector<uint8_t>
gradient(uint32_t rows, uint32_t cols, uint32_t ch = 1)
{
    std::vector<uint8_t> out(static_cast<size_t>(rows) * cols * ch);
    size_t i = 0;
    for (uint32_t r = 0; r < rows; ++r)
        for (uint32_t c = 0; c < cols; ++c)
            for (uint32_t k = 0; k < ch; ++k)
                out[i++] =
                    static_cast<uint8_t>((r * 7 + c * 13 + k) & 0xff);
    return out;
}

TEST(GaussianBlur, PreservesConstantImage)
{
    std::vector<uint8_t> src(32 * 32, 200), dst(32 * 32);
    gaussianBlur3x3(src.data(), dst.data(), 32, 32, 1);
    for (uint8_t v : dst)
        EXPECT_EQ(v, 200);
}

TEST(GaussianBlur, SmoothsAnImpulse)
{
    std::vector<uint8_t> src(9 * 9, 0), dst(9 * 9);
    src[4 * 9 + 4] = 255;
    gaussianBlur3x3(src.data(), dst.data(), 9, 9, 1);
    // Center keeps the largest mass; energy spreads to neighbours.
    EXPECT_GT(dst[4 * 9 + 4], dst[3 * 9 + 4]);
    EXPECT_GT(dst[3 * 9 + 4], 0);
    EXPECT_LT(dst[4 * 9 + 4], 255);
    EXPECT_EQ(dst[0], 0);
}

TEST(BoxBlur, MeanOfUniformRegionsUnchanged)
{
    std::vector<uint8_t> src(16 * 16, 77), dst(16 * 16);
    boxBlur(src.data(), dst.data(), 16, 16, 1, 5);
    for (uint8_t v : dst)
        EXPECT_EQ(v, 77);
}

TEST(ErodeDilate, OrderingHolds)
{
    // For any image: erode <= original <= dilate, pointwise.
    auto src = gradient(20, 20);
    std::vector<uint8_t> eroded(src.size()), dilated(src.size());
    erode3x3(src.data(), eroded.data(), 20, 20, 1);
    dilate3x3(src.data(), dilated.data(), 20, 20, 1);
    for (size_t i = 0; i < src.size(); ++i) {
        EXPECT_LE(eroded[i], src[i]);
        EXPECT_GE(dilated[i], src[i]);
    }
}

TEST(ErodeDilate, ErodeShrinksBrightSquare)
{
    std::vector<uint8_t> src(10 * 10, 0), dst(10 * 10);
    for (uint32_t r = 3; r <= 6; ++r)
        for (uint32_t c = 3; c <= 6; ++c)
            src[r * 10 + c] = 255;
    erode3x3(src.data(), dst.data(), 10, 10, 1);
    // Only the 2x2 interior survives a 3x3 erosion of a 4x4 square.
    int bright = 0;
    for (uint8_t v : dst)
        if (v == 255)
            ++bright;
    EXPECT_EQ(bright, 4);
}

/** Direct 3x3 min/max window with clamped borders: the reference
 *  the separable morphology kernels must match byte for byte. */
std::vector<uint8_t>
naiveMinMax3x3(const std::vector<uint8_t> &src, uint32_t rows,
               uint32_t cols, uint32_t ch, bool take_max)
{
    std::vector<uint8_t> out(src.size());
    for (uint32_t r = 0; r < rows; ++r)
        for (uint32_t c = 0; c < cols; ++c)
            for (uint32_t k = 0; k < ch; ++k) {
                uint8_t best = take_max ? 0 : 255;
                for (int dr = -1; dr <= 1; ++dr)
                    for (int dc = -1; dc <= 1; ++dc) {
                        int rr = std::clamp(static_cast<int>(r) + dr, 0,
                                            static_cast<int>(rows) - 1);
                        int cc = std::clamp(static_cast<int>(c) + dc, 0,
                                            static_cast<int>(cols) - 1);
                        uint8_t v =
                            src[(static_cast<size_t>(rr) * cols + cc) *
                                    ch +
                                k];
                        best = take_max ? std::max(best, v)
                                        : std::min(best, v);
                    }
                out[(static_cast<size_t>(r) * cols + c) * ch + k] = best;
            }
    return out;
}

/** Run all four morphology ops on one random frame and compare each
 *  with its composition of naive windows. */
void
expectMorphologyMatchesNaive(uint32_t rows, uint32_t cols, uint32_t ch,
                             util::Rng &rng)
{
    std::vector<uint8_t> src(static_cast<size_t>(rows) * cols * ch);
    for (uint8_t &v : src)
        v = static_cast<uint8_t>(rng.next());
    auto naive = [&](const std::vector<uint8_t> &in, bool take_max) {
        return naiveMinMax3x3(in, rows, cols, ch, take_max);
    };
    std::vector<uint8_t> out(src.size());
    SCOPED_TRACE(testing::Message()
                 << rows << "x" << cols << "x" << ch);
    erode3x3(src.data(), out.data(), rows, cols, ch);
    EXPECT_EQ(out, naive(src, false)) << "erode";
    dilate3x3(src.data(), out.data(), rows, cols, ch);
    EXPECT_EQ(out, naive(src, true)) << "dilate";
    morphOpen(src.data(), out.data(), rows, cols, ch);
    EXPECT_EQ(out, naive(naive(src, false), true)) << "open";
    morphClose(src.data(), out.data(), rows, cols, ch);
    EXPECT_EQ(out, naive(naive(src, true), false)) << "close";
}

TEST(Morphology, SeparableKernelsMatchNaiveWindowOnEveryShape)
{
    util::Rng rng(0x3b3);
    for (uint32_t rows = 1; rows <= 9; ++rows)
        for (uint32_t cols = 1; cols <= 9; ++cols)
            for (uint32_t ch = 1; ch <= 4; ++ch)
                expectMorphologyMatchesNaive(rows, cols, ch, rng);
    expectMorphologyMatchesNaive(257, 255, 3, rng);
}

TEST(Morphology, OpenThenCloseIdempotentOnBinaryBlob)
{
    std::vector<uint8_t> src(24 * 24, 0);
    for (uint32_t r = 8; r < 16; ++r)
        for (uint32_t c = 8; c < 16; ++c)
            src[r * 24 + c] = 255;
    std::vector<uint8_t> once(src.size()), twice(src.size());
    morphOpen(src.data(), once.data(), 24, 24, 1);
    morphOpen(once.data(), twice.data(), 24, 24, 1);
    EXPECT_EQ(once, twice);
}

TEST(ToGray, AveragesChannels)
{
    std::vector<uint8_t> src = {10, 20, 30, 90, 90, 90};
    std::vector<uint8_t> dst(2);
    toGray(src.data(), dst.data(), 1, 2, 3);
    EXPECT_EQ(dst[0], 20);
    EXPECT_EQ(dst[1], 90);
}

TEST(Sobel, FlatImageHasZeroGradient)
{
    std::vector<uint8_t> src(16 * 16, 123), dst(16 * 16, 99);
    sobelMagnitude(src.data(), dst.data(), 16, 16);
    for (uint8_t v : dst)
        EXPECT_EQ(v, 0);
}

TEST(Sobel, VerticalEdgeDetected)
{
    std::vector<uint8_t> src(16 * 16, 0), dst(16 * 16);
    for (uint32_t r = 0; r < 16; ++r)
        for (uint32_t c = 8; c < 16; ++c)
            src[r * 16 + c] = 255;
    sobelMagnitude(src.data(), dst.data(), 16, 16);
    // Strong response along column 7/8, none far away.
    EXPECT_GT(dst[5 * 16 + 8], 200);
    EXPECT_EQ(dst[5 * 16 + 2], 0);
}

TEST(Canny, EdgesAreBinary)
{
    auto src = gradient(32, 32);
    std::vector<uint8_t> dst(src.size());
    cannyEdges(src.data(), dst.data(), 32, 32, 40, 120);
    for (uint8_t v : dst)
        EXPECT_TRUE(v == 0 || v == 255);
}

TEST(Resize, NearestPreservesCorners)
{
    std::vector<uint8_t> src = {10, 20, 30, 40};
    std::vector<uint8_t> dst(4 * 4);
    resizeNearest(src.data(), 2, 2, 1, dst.data(), 4, 4);
    EXPECT_EQ(dst[0], 10);
    EXPECT_EQ(dst[3], 20);
    EXPECT_EQ(dst[12], 30);
    EXPECT_EQ(dst[15], 40);
}

TEST(Resize, BilinearIdentityWhenSameSize)
{
    auto src = gradient(8, 8);
    std::vector<uint8_t> dst(src.size());
    resizeBilinear(src.data(), 8, 8, 1, dst.data(), 8, 8);
    EXPECT_EQ(src, dst);
}

TEST(Resize, BilinearStaysInRange)
{
    auto src = gradient(13, 17);
    std::vector<uint8_t> dst(29 * 31);
    resizeBilinear(src.data(), 13, 17, 1, dst.data(), 29, 31);
    uint8_t lo = 255, hi = 0;
    for (uint8_t v : src) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    for (uint8_t v : dst) {
        EXPECT_GE(v, lo);
        EXPECT_LE(v, hi);
    }
}

TEST(EqualizeHist, OutputSpansFullRange)
{
    // A narrow-range input should stretch towards 0..255.
    std::vector<uint8_t> src(64 * 64);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<uint8_t>(100 + (i % 20));
    std::vector<uint8_t> dst(src.size());
    equalizeHist(src.data(), dst.data(), 64, 64);
    uint8_t lo = 255, hi = 0;
    for (uint8_t v : dst) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_EQ(lo, 0);
    EXPECT_GT(hi, 240);
}

TEST(Threshold, Binarizes)
{
    std::vector<uint8_t> src = {0, 100, 128, 129, 255};
    std::vector<uint8_t> dst(5);
    threshold(src.data(), dst.data(), 5, 128, 255);
    EXPECT_EQ(dst[0], 0);
    EXPECT_EQ(dst[1], 0);
    EXPECT_EQ(dst[2], 0);
    EXPECT_EQ(dst[3], 255);
    EXPECT_EQ(dst[4], 255);
}

TEST(Warp, IdentityHomographyIsNoop)
{
    auto src = gradient(12, 12, 3);
    std::vector<uint8_t> dst(src.size());
    const double h[9] = {1, 0, 0, 0, 1, 0, 0, 0, 1};
    warpPerspective(src.data(), dst.data(), 12, 12, 3, h);
    EXPECT_EQ(src, dst);
}

TEST(Warp, TranslationShiftsContent)
{
    std::vector<uint8_t> src(8 * 8, 0), dst(8 * 8);
    src[2 * 8 + 2] = 200;
    // x' = x + 3 (columns shift right by 3).
    const double h[9] = {1, 0, 3, 0, 1, 0, 0, 0, 1};
    warpPerspective(src.data(), dst.data(), 8, 8, 1, h);
    EXPECT_EQ(dst[2 * 8 + 5], 200);
    EXPECT_EQ(dst[2 * 8 + 2], 0);
}

TEST(Warp, SingularMatrixYieldsBlack)
{
    auto src = gradient(8, 8);
    std::vector<uint8_t> dst(src.size(), 7);
    const double h[9] = {1, 2, 3, 2, 4, 6, 1, 1, 1}; // rank-deficient
    warpPerspective(src.data(), dst.data(), 8, 8, 1, h);
    for (uint8_t v : dst)
        EXPECT_EQ(v, 0);
}

TEST(DrawRect, OutlineOnlyTouched)
{
    std::vector<uint8_t> buf(10 * 10, 0);
    drawRect(buf.data(), 10, 10, 1, {2, 2, 4, 4}, 255);
    EXPECT_EQ(buf[2 * 10 + 2], 255); // corner
    EXPECT_EQ(buf[2 * 10 + 4], 255); // top edge
    EXPECT_EQ(buf[6 * 10 + 6], 255); // bottom-right corner
    EXPECT_EQ(buf[4 * 10 + 4], 0);   // interior untouched
    EXPECT_EQ(buf[0], 0);            // exterior untouched
}

TEST(DrawText, RendersKnownGlyphPixels)
{
    std::vector<uint8_t> buf(16 * 16, 0);
    drawText(buf.data(), 16, 16, 1, 2, 2, "1", 255);
    // The '1' glyph has its full-height column at glyph column 2.
    int lit = 0;
    for (uint8_t v : buf)
        if (v == 255)
            ++lit;
    EXPECT_GT(lit, 4);
    EXPECT_LT(lit, 36);
}

TEST(DrawText, ClipsAtImageBorder)
{
    std::vector<uint8_t> buf(8 * 8, 0);
    EXPECT_NO_THROW(
        drawText(buf.data(), 8, 8, 1, 6, 6, "ABC", 255));
}

TEST(ConnectedComponents, CountsAndBoxes)
{
    std::vector<uint8_t> img(12 * 12, 0);
    // Two disjoint blobs.
    img[1 * 12 + 1] = 255;
    img[1 * 12 + 2] = 255;
    for (uint32_t r = 6; r < 9; ++r)
        for (uint32_t c = 6; c < 10; ++c)
            img[r * 12 + c] = 255;
    std::vector<Box> boxes;
    EXPECT_EQ(connectedComponents(img.data(), 12, 12, &boxes), 2u);
    ASSERT_EQ(boxes.size(), 2u);
    EXPECT_EQ(boxes[0], (Box{1, 1, 0, 1}));
    EXPECT_EQ(boxes[1], (Box{6, 6, 2, 3}));
}

TEST(ConnectedComponents, DiagonalBlobsAreSeparate)
{
    // 4-connectivity: diagonal neighbours are distinct components.
    std::vector<uint8_t> img(4 * 4, 0);
    img[0] = 255;
    img[1 * 4 + 1] = 255;
    EXPECT_EQ(connectedComponents(img.data(), 4, 4), 2u);
}

TEST(TemplateMatch, FindsEmbeddedPatch)
{
    auto img = gradient(24, 24);
    // Cut the patch at (5, 9) as a template.
    std::vector<uint8_t> tmpl(6 * 6);
    for (uint32_t r = 0; r < 6; ++r)
        for (uint32_t c = 0; c < 6; ++c)
            tmpl[r * 6 + c] = img[(r + 5) * 24 + (c + 9)];
    uint32_t br = 0, bc = 0;
    uint64_t score =
        templateMatchBest(img.data(), 24, 24, tmpl.data(), 6, 6, br,
                          bc);
    EXPECT_EQ(score, 0u);
    EXPECT_EQ(br, 5u);
    EXPECT_EQ(bc, 9u);
}

TEST(TemplateMatch, OversizedTemplateRejected)
{
    std::vector<uint8_t> img(4 * 4), tmpl(8 * 8);
    uint32_t br, bc;
    EXPECT_EQ(templateMatchBest(img.data(), 4, 4, tmpl.data(), 8, 8,
                                br, bc),
              UINT64_MAX);
}

TEST(Flip, InvolutionRestoresOriginal)
{
    auto src = gradient(9, 7, 3);
    std::vector<uint8_t> once(src.size()), twice(src.size());
    flipHorizontal(src.data(), once.data(), 9, 7, 3);
    flipHorizontal(once.data(), twice.data(), 9, 7, 3);
    EXPECT_EQ(src, twice);
    EXPECT_NE(src, once);
}

TEST(AddWeighted, BlendsAndClamps)
{
    std::vector<uint8_t> a = {100, 200}, b = {100, 200}, dst(2);
    addWeighted(a.data(), b.data(), dst.data(), 2, 0.5, 0.5);
    EXPECT_EQ(dst[0], 100);
    EXPECT_EQ(dst[1], 200);
    addWeighted(a.data(), b.data(), dst.data(), 2, 2.0, 2.0);
    EXPECT_EQ(dst[1], 255); // clamped
}

TEST(Normalize, FullRangeAfterNormalization)
{
    std::vector<uint8_t> src = {50, 60, 70}, dst(3);
    normalizeMinMax(src.data(), dst.data(), 3);
    EXPECT_EQ(dst[0], 0);
    EXPECT_EQ(dst[2], 255);
}

TEST(Normalize, ConstantInputBecomesZero)
{
    std::vector<uint8_t> src(5, 99), dst(5, 1);
    normalizeMinMax(src.data(), dst.data(), 5);
    for (uint8_t v : dst)
        EXPECT_EQ(v, 0);
}

TEST(Histogram, CountsSumToPixelCount)
{
    auto src = gradient(16, 16);
    uint32_t hist[256];
    histogram256(src.data(), src.size(), hist);
    uint64_t total = 0;
    for (uint32_t h : hist)
        total += h;
    EXPECT_EQ(total, src.size());
}

TEST(AbsdiffInvert, BasicIdentities)
{
    std::vector<uint8_t> a = {10, 250}, b = {30, 100}, dst(2);
    absdiff(a.data(), b.data(), dst.data(), 2);
    EXPECT_EQ(dst[0], 20);
    EXPECT_EQ(dst[1], 150);
    invert(a.data(), dst.data(), 2);
    EXPECT_EQ(dst[0], 245);
    EXPECT_EQ(dst[1], 5);
}

TEST(ConvFilter, IdentityKernel)
{
    auto src = gradient(10, 10, 3);
    std::vector<uint8_t> dst(src.size());
    const float k[9] = {0, 0, 0, 0, 1, 0, 0, 0, 0};
    convFilter3x3(src.data(), dst.data(), 10, 10, 3, k);
    EXPECT_EQ(src, dst);
}

} // namespace
} // namespace freepart::fw::ops
