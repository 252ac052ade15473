/**
 * @file
 * Correctness tests for the MiniCV image kernels: algebraic
 * properties (idempotence, involution, monotonicity, range
 * preservation), hand-checked small cases, and byte identity of the
 * row-wise kernels with the direct per-pixel loops they replaced,
 * which live on here as references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

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

TEST(BoxBlur, LargeWindowsOfBrightPixelsKeepTheirMean)
{
    // 15x15 windows of 255 are the most 16-bit sums hold; wider ones
    // need 32 bits.
    std::vector<uint8_t> src(40 * 40, 255), dst(src.size());
    for (uint32_t k : {15u, 16u, 17u, 31u}) {
        boxBlur(src.data(), dst.data(), 40, 40, 1, k);
        EXPECT_EQ(dst, src) << "k=" << k;
    }
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

/*
 * Reference kernels: the direct per-pixel loops (clamped or excluded
 * window taps, one idx() per tap) that the row-wise kernels must
 * match byte for byte.
 */
namespace ref {

size_t
at(uint32_t r, uint32_t c, uint32_t k, uint32_t cols, uint32_t ch)
{
    return (static_cast<size_t>(r) * cols + c) * ch + k;
}

uint8_t
clampU8(double v)
{
    return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
}

uint32_t
clampI(int v, int lo, int hi)
{
    return static_cast<uint32_t>(std::clamp(v, lo, hi));
}

std::vector<uint8_t>
gaussianBlur3x3(const std::vector<uint8_t> &src, uint32_t rows,
                uint32_t cols, uint32_t ch)
{
    std::vector<uint8_t> dst(src.size());
    std::vector<uint16_t> tmp(src.size());
    for (uint32_t r = 0; r < rows; ++r)
        for (uint32_t c = 0; c < cols; ++c) {
            uint32_t cl = c == 0 ? 0 : c - 1;
            uint32_t cr = c + 1 >= cols ? cols - 1 : c + 1;
            for (uint32_t k = 0; k < ch; ++k)
                tmp[at(r, c, k, cols, ch)] = static_cast<uint16_t>(
                    src[at(r, cl, k, cols, ch)] +
                    2 * src[at(r, c, k, cols, ch)] +
                    src[at(r, cr, k, cols, ch)]);
        }
    for (uint32_t r = 0; r < rows; ++r) {
        uint32_t ru = r == 0 ? 0 : r - 1;
        uint32_t rd = r + 1 >= rows ? rows - 1 : r + 1;
        for (uint32_t c = 0; c < cols; ++c)
            for (uint32_t k = 0; k < ch; ++k) {
                uint32_t sum = tmp[at(ru, c, k, cols, ch)] +
                               2 * tmp[at(r, c, k, cols, ch)] +
                               tmp[at(rd, c, k, cols, ch)];
                dst[at(r, c, k, cols, ch)] =
                    static_cast<uint8_t>((sum + 8) / 16);
            }
    }
    return dst;
}

std::vector<uint8_t>
boxBlur(const std::vector<uint8_t> &src, uint32_t rows, uint32_t cols,
        uint32_t ch, uint32_t k)
{
    std::vector<uint8_t> dst(src.size());
    int half = static_cast<int>(k / 2);
    for (uint32_t r = 0; r < rows; ++r)
        for (uint32_t c = 0; c < cols; ++c)
            for (uint32_t kk = 0; kk < ch; ++kk) {
                uint32_t sum = 0;
                uint32_t count = 0;
                for (int dr = -half; dr <= half; ++dr)
                    for (int dc = -half; dc <= half; ++dc) {
                        int rr = static_cast<int>(r) + dr;
                        int cc = static_cast<int>(c) + dc;
                        if (rr < 0 || cc < 0 ||
                            rr >= static_cast<int>(rows) ||
                            cc >= static_cast<int>(cols))
                            continue;
                        sum += src[at(static_cast<uint32_t>(rr),
                                      static_cast<uint32_t>(cc), kk,
                                      cols, ch)];
                        ++count;
                    }
                dst[at(r, c, kk, cols, ch)] =
                    static_cast<uint8_t>(sum / count);
            }
    return dst;
}

std::vector<uint8_t>
toGray(const std::vector<uint8_t> &src, uint32_t rows, uint32_t cols,
       uint32_t ch_in)
{
    size_t n = static_cast<size_t>(rows) * cols;
    std::vector<uint8_t> dst(n);
    for (size_t i = 0; i < n; ++i) {
        uint32_t sum = 0;
        for (uint32_t k = 0; k < ch_in; ++k)
            sum += src[i * ch_in + k];
        dst[i] = static_cast<uint8_t>(sum / ch_in);
    }
    return dst;
}

std::vector<uint8_t>
sobelMagnitude(const std::vector<uint8_t> &gray, uint32_t rows,
               uint32_t cols)
{
    std::vector<uint8_t> dst(gray.size());
    for (uint32_t r = 0; r < rows; ++r)
        for (uint32_t c = 0; c < cols; ++c) {
            if (r == 0 || c == 0 || r + 1 == rows || c + 1 == cols) {
                dst[at(r, c, 0, cols, 1)] = 0;
                continue;
            }
            auto px = [&](int dr, int dc) {
                return static_cast<int>(
                    gray[at(r + static_cast<uint32_t>(dr),
                            c + static_cast<uint32_t>(dc), 0, cols, 1)]);
            };
            int gx = -px(-1, -1) - 2 * px(0, -1) - px(1, -1) +
                     px(-1, 1) + 2 * px(0, 1) + px(1, 1);
            int gy = -px(-1, -1) - 2 * px(-1, 0) - px(-1, 1) +
                     px(1, -1) + 2 * px(1, 0) + px(1, 1);
            double mag = std::sqrt(static_cast<double>(gx) * gx +
                                   static_cast<double>(gy) * gy);
            dst[at(r, c, 0, cols, 1)] = clampU8(mag);
        }
    return dst;
}

std::vector<uint8_t>
equalizeHist(const std::vector<uint8_t> &src)
{
    size_t n = src.size();
    std::vector<uint8_t> dst(n);
    uint32_t cdf[256] = {};
    for (uint8_t v : src)
        ++cdf[v];
    for (int i = 1; i < 256; ++i)
        cdf[i] += cdf[i - 1];
    uint32_t cdf_min = 0;
    for (int i = 0; i < 256; ++i)
        if (cdf[i]) {
            cdf_min = cdf[i];
            break;
        }
    double denom = static_cast<double>(n - cdf_min);
    for (size_t i = 0; i < n; ++i) {
        if (denom <= 0) {
            dst[i] = src[i];
            continue;
        }
        dst[i] = clampU8(255.0 * (cdf[src[i]] - cdf_min) / denom);
    }
    return dst;
}

std::vector<uint8_t>
flipHorizontal(const std::vector<uint8_t> &src, uint32_t rows,
               uint32_t cols, uint32_t ch)
{
    std::vector<uint8_t> dst(src.size());
    for (uint32_t r = 0; r < rows; ++r)
        for (uint32_t c = 0; c < cols; ++c)
            for (uint32_t k = 0; k < ch; ++k)
                dst[at(r, c, k, cols, ch)] =
                    src[at(r, cols - 1 - c, k, cols, ch)];
    return dst;
}

std::vector<uint8_t>
normalizeMinMax(const std::vector<uint8_t> &src)
{
    size_t n = src.size();
    std::vector<uint8_t> dst(n);
    if (!n)
        return dst;
    uint8_t lo = 255, hi = 0;
    for (uint8_t v : src) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    if (hi == lo)
        return dst;
    double scale = 255.0 / (hi - lo);
    for (size_t i = 0; i < n; ++i)
        dst[i] = clampU8((src[i] - lo) * scale);
    return dst;
}

std::vector<uint8_t>
convFilter3x3(const std::vector<uint8_t> &src, uint32_t rows,
              uint32_t cols, uint32_t ch, const float k[9])
{
    std::vector<uint8_t> dst(src.size());
    for (uint32_t r = 0; r < rows; ++r)
        for (uint32_t c = 0; c < cols; ++c)
            for (uint32_t kk = 0; kk < ch; ++kk) {
                double sum = 0;
                for (int dr = -1; dr <= 1; ++dr)
                    for (int dc = -1; dc <= 1; ++dc) {
                        uint32_t rr =
                            clampI(static_cast<int>(r) + dr, 0,
                                   static_cast<int>(rows) - 1);
                        uint32_t cc =
                            clampI(static_cast<int>(c) + dc, 0,
                                   static_cast<int>(cols) - 1);
                        sum += k[(dr + 1) * 3 + (dc + 1)] *
                               src[at(rr, cc, kk, cols, ch)];
                    }
                dst[at(r, c, kk, cols, ch)] = clampU8(sum);
            }
    return dst;
}

/** Raster-scan flood fill: components and boxes in seed order. */
uint32_t
connectedComponents(const std::vector<uint8_t> &bin, uint32_t rows,
                    uint32_t cols, std::vector<Box> *bboxes)
{
    size_t n = static_cast<size_t>(rows) * cols;
    std::vector<int32_t> label(n, -1);
    uint32_t next = 0;
    std::vector<size_t> stack;
    if (bboxes)
        bboxes->clear();
    for (uint32_t r = 0; r < rows; ++r)
        for (uint32_t c = 0; c < cols; ++c) {
            size_t i = static_cast<size_t>(r) * cols + c;
            if (!bin[i] || label[i] >= 0)
                continue;
            uint32_t id = next++;
            uint32_t rmin = r, rmax = r, cmin = c, cmax = c;
            stack.assign(1, i);
            label[i] = static_cast<int32_t>(id);
            while (!stack.empty()) {
                size_t cur = stack.back();
                stack.pop_back();
                uint32_t cr = static_cast<uint32_t>(cur / cols);
                uint32_t cc = static_cast<uint32_t>(cur % cols);
                rmin = std::min(rmin, cr);
                rmax = std::max(rmax, cr);
                cmin = std::min(cmin, cc);
                cmax = std::max(cmax, cc);
                const int dr[4] = {-1, 1, 0, 0};
                const int dc[4] = {0, 0, -1, 1};
                for (int d = 0; d < 4; ++d) {
                    int nr = static_cast<int>(cr) + dr[d];
                    int nc = static_cast<int>(cc) + dc[d];
                    if (nr < 0 || nc < 0 ||
                        nr >= static_cast<int>(rows) ||
                        nc >= static_cast<int>(cols))
                        continue;
                    size_t ni = static_cast<size_t>(nr) * cols +
                                static_cast<size_t>(nc);
                    if (bin[ni] && label[ni] < 0) {
                        label[ni] = static_cast<int32_t>(id);
                        stack.push_back(ni);
                    }
                }
            }
            if (bboxes)
                bboxes->push_back({rmin, cmin, rmax - rmin, cmax - cmin});
        }
    return next;
}

/** Bilinear resize, four weights formed per channel. */
std::vector<uint8_t>
resizeBilinear(const std::vector<uint8_t> &src, uint32_t rows,
               uint32_t cols, uint32_t ch, uint32_t drows, uint32_t dcols)
{
    std::vector<uint8_t> dst(static_cast<size_t>(drows) * dcols * ch);
    double rscale = drows > 1
                        ? static_cast<double>(rows - 1) / (drows - 1)
                        : 0.0;
    double cscale = dcols > 1
                        ? static_cast<double>(cols - 1) / (dcols - 1)
                        : 0.0;
    for (uint32_t r = 0; r < drows; ++r) {
        double fr = r * rscale;
        uint32_t r0 = static_cast<uint32_t>(fr);
        uint32_t r1 = std::min(r0 + 1, rows - 1);
        double wr = fr - r0;
        for (uint32_t c = 0; c < dcols; ++c) {
            double fc = c * cscale;
            uint32_t c0 = static_cast<uint32_t>(fc);
            uint32_t c1 = std::min(c0 + 1, cols - 1);
            double wc = fc - c0;
            for (uint32_t k = 0; k < ch; ++k) {
                double v = (1 - wr) * (1 - wc) * src[at(r0, c0, k, cols, ch)] +
                           (1 - wr) * wc * src[at(r0, c1, k, cols, ch)] +
                           wr * (1 - wc) * src[at(r1, c0, k, cols, ch)] +
                           wr * wc * src[at(r1, c1, k, cols, ch)];
                dst[at(r, c, k, dcols, ch)] = clampU8(v);
            }
        }
    }
    return dst;
}

/** std::lround(v) when it is a pixel index below n, else false: a
 *  non-finite or out-of-int-range coordinate is outside the frame. */
bool
sourceIndex(double v, uint32_t n, uint32_t &out)
{
    if (!std::isfinite(v) || std::abs(v) >= 2147483648.0)
        return false;
    const long q = std::lround(v);
    if (q < 0 || q >= static_cast<long>(n))
        return false;
    out = static_cast<uint32_t>(q);
    return true;
}

/** Inverse-mapped nearest-sample warp, one homography per pixel. */
std::vector<uint8_t>
warpPerspective(const std::vector<uint8_t> &src, uint32_t rows,
                uint32_t cols, uint32_t ch, const double h[9])
{
    std::vector<uint8_t> dst(src.size(), 0);
    double det = h[0] * (h[4] * h[8] - h[5] * h[7]) -
                 h[1] * (h[3] * h[8] - h[5] * h[6]) +
                 h[2] * (h[3] * h[7] - h[4] * h[6]);
    if (std::abs(det) < 1e-12)
        return dst;
    double inv[9] = {
        (h[4] * h[8] - h[5] * h[7]) / det,
        (h[2] * h[7] - h[1] * h[8]) / det,
        (h[1] * h[5] - h[2] * h[4]) / det,
        (h[5] * h[6] - h[3] * h[8]) / det,
        (h[0] * h[8] - h[2] * h[6]) / det,
        (h[2] * h[3] - h[0] * h[5]) / det,
        (h[3] * h[7] - h[4] * h[6]) / det,
        (h[1] * h[6] - h[0] * h[7]) / det,
        (h[0] * h[4] - h[1] * h[3]) / det,
    };
    for (uint32_t r = 0; r < rows; ++r)
        for (uint32_t c = 0; c < cols; ++c) {
            double x = static_cast<double>(c);
            double y = static_cast<double>(r);
            double w = inv[6] * x + inv[7] * y + inv[8];
            double sx = (inv[0] * x + inv[1] * y + inv[2]) / w;
            double sy = (inv[3] * x + inv[4] * y + inv[5]) / w;
            uint32_t sc, sr;
            if (!sourceIndex(sx, cols, sc) || !sourceIndex(sy, rows, sr))
                continue;
            for (uint32_t k = 0; k < ch; ++k)
                dst[at(r, c, k, cols, ch)] = src[at(sr, sc, k, cols, ch)];
        }
    return dst;
}

std::vector<uint8_t>
addWeighted(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b,
            double alpha, double beta)
{
    std::vector<uint8_t> dst(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        dst[i] = clampU8(alpha * a[i] + beta * b[i]);
    return dst;
}

/** Sobel, double threshold, then one 8-neighbour promotion pass. */
std::vector<uint8_t>
cannyEdges(const std::vector<uint8_t> &gray, uint32_t rows, uint32_t cols,
           uint8_t lo, uint8_t hi)
{
    std::vector<uint8_t> mag = sobelMagnitude(gray, rows, cols);
    std::vector<uint8_t> dst(mag.size());
    for (size_t i = 0; i < mag.size(); ++i)
        dst[i] = mag[i] >= hi ? 255 : (mag[i] >= lo ? 128 : 0);
    for (uint32_t r = 1; r + 1 < rows; ++r)
        for (uint32_t c = 1; c + 1 < cols; ++c) {
            size_t i = at(r, c, 0, cols, 1);
            if (dst[i] != 128)
                continue;
            bool promoted = false;
            for (int dr = -1; dr <= 1; ++dr)
                for (int dc = -1; dc <= 1; ++dc)
                    promoted = promoted ||
                               dst[at(r + static_cast<uint32_t>(dr),
                                      c + static_cast<uint32_t>(dc), 0,
                                      cols, 1)] == 255;
            dst[i] = promoted ? 255 : 0;
        }
    for (uint8_t &v : dst)
        if (v == 128)
            v = 0;
    return dst;
}

/** Full SSD at every placement; the first strict minimum wins. */
uint64_t
templateMatchBest(const std::vector<uint8_t> &img, uint32_t rows,
                  uint32_t cols, const std::vector<uint8_t> &tmpl,
                  uint32_t trows, uint32_t tcols, uint32_t &best_r,
                  uint32_t &best_c)
{
    best_r = 0;
    best_c = 0;
    if (trows > rows || tcols > cols)
        return UINT64_MAX;
    uint64_t best = UINT64_MAX;
    for (uint32_t r = 0; r + trows <= rows; ++r)
        for (uint32_t c = 0; c + tcols <= cols; ++c) {
            uint64_t ssd = 0;
            for (uint32_t tr = 0; tr < trows; ++tr)
                for (uint32_t tc = 0; tc < tcols; ++tc) {
                    int d = img[at(r + tr, c + tc, 0, cols, 1)] -
                            tmpl[at(tr, tc, 0, tcols, 1)];
                    ssd += static_cast<uint64_t>(d * d);
                }
            if (ssd < best) {
                best = ssd;
                best_r = r;
                best_c = c;
            }
        }
    return best;
}

} // namespace ref

enum class Pattern { Random, LowContrast, Binary };

struct Shape {
    uint32_t rows, cols, ch;
};

/** Every shape the identity tests cover; gray kernels take ch 1. */
std::vector<Shape>
identityShapes(bool gray)
{
    std::vector<Shape> out;
    const uint32_t max_ch = gray ? 1 : 4;
    for (uint32_t rows = 1; rows <= 9; ++rows)
        for (uint32_t cols = 1; cols <= 9; ++cols)
            for (uint32_t ch = 1; ch <= max_ch; ++ch)
                out.push_back({rows, cols, ch});
    out.push_back({257, 255, gray ? 1u : 3u});
    out.push_back({256, 256, 1});
    out.push_back({1, 300, 1});
    out.push_back({300, 1, 1});
    if (!gray) {
        out.push_back({1, 300, 3});
        out.push_back({300, 1, 3});
    }
    return out;
}

std::vector<uint8_t>
makeFrame(size_t n, Pattern pattern, util::Rng &rng)
{
    std::vector<uint8_t> out(n);
    const uint8_t base = static_cast<uint8_t>(rng.below(248));
    for (uint8_t &v : out) {
        switch (pattern) {
        case Pattern::Random:
            v = static_cast<uint8_t>(rng.next());
            break;
        case Pattern::LowContrast:
            v = static_cast<uint8_t>(base + rng.below(8));
            break;
        case Pattern::Binary:
            v = rng.below(2) ? 255 : 0;
            break;
        }
    }
    return out;
}

/** Calls check(shape, frame) for every shape and pattern, with the
 *  case named in any failure. */
template <typename Check>
void
forEachFrame(bool gray, uint64_t seed, Check check)
{
    util::Rng rng(seed);
    for (const Shape &s : identityShapes(gray))
        for (Pattern p :
             {Pattern::Random, Pattern::LowContrast, Pattern::Binary}) {
            SCOPED_TRACE(testing::Message()
                         << s.rows << "x" << s.cols << "x" << s.ch
                         << " pattern " << static_cast<int>(p));
            check(s, makeFrame(static_cast<size_t>(s.rows) * s.cols *
                                   s.ch,
                               p, rng));
        }
}

TEST(KernelIdentity, GaussianBlurMatchesReference)
{
    forEachFrame(false, 0x9a55, [](const Shape &s, const auto &src) {
        std::vector<uint8_t> out(src.size());
        gaussianBlur3x3(src.data(), out.data(), s.rows, s.cols, s.ch);
        EXPECT_EQ(out, ref::gaussianBlur3x3(src, s.rows, s.cols, s.ch));
    });
}

TEST(KernelIdentity, BoxBlurMatchesReferenceForEveryWindow)
{
    forEachFrame(false, 0xb0c5, [](const Shape &s, const auto &src) {
        for (uint32_t k : {0u, 1u, 3u, 4u, 5u, 7u, 9u, 15u}) {
            std::vector<uint8_t> out(src.size());
            boxBlur(src.data(), out.data(), s.rows, s.cols, s.ch, k);
            EXPECT_EQ(out, ref::boxBlur(src, s.rows, s.cols, s.ch, k))
                << "k=" << k;
        }
    });
}

TEST(KernelIdentity, FlipMatchesReference)
{
    forEachFrame(false, 0xf11b, [](const Shape &s, const auto &src) {
        std::vector<uint8_t> out(src.size());
        flipHorizontal(src.data(), out.data(), s.rows, s.cols, s.ch);
        EXPECT_EQ(out, ref::flipHorizontal(src, s.rows, s.cols, s.ch));
    });
}

TEST(KernelIdentity, NormalizeMatchesReference)
{
    forEachFrame(false, 0x4043, [](const Shape &, const auto &src) {
        std::vector<uint8_t> out(src.size());
        normalizeMinMax(src.data(), out.data(), src.size());
        EXPECT_EQ(out, ref::normalizeMinMax(src));
    });
}

TEST(KernelIdentity, ToGrayMatchesReference)
{
    forEachFrame(false, 0x6a41, [](const Shape &s, const auto &src) {
        std::vector<uint8_t> out(static_cast<size_t>(s.rows) * s.cols);
        toGray(src.data(), out.data(), s.rows, s.cols, s.ch);
        EXPECT_EQ(out, ref::toGray(src, s.rows, s.cols, s.ch));
    });
}

TEST(KernelIdentity, ConvFilterMatchesReference)
{
    const float sharpen[9] = {0, -1, 0, -1, 5, -1, 0, -1, 0};
    const float identity[9] = {0, 0, 0, 0, 1, 0, 0, 0, 0};
    const float laplacian[9] = {1, 1, 1, 1, -8, 1, 1, 1, 1};
    const float sobel[9] = {-1, 0, 1, -2, 0, 2, -1, -0.f, 1};
    // Integer taps whose magnitudes sum to 128, the most an int16
    // sum holds, and to 129, which overflows it on bright pixels.
    const float heavy[9] = {0, 0, 0, 0, 126, 0, 0, 0, 2};
    const float heavier[9] = {0, 0, 0, 0, 127, 0, 0, 0, 2};
    const float huge[9] = {0, 0, 0, 0, 70000, 0, 0, 0, -69999};
    // Non-integer taps, so each float product rounds.
    const float uneven[9] = {0.11f, -0.13f, 0.07f, 0.21f, 0.35f,
                             0.17f, 0.09f,  0.1f,  -0.03f};
    forEachFrame(false, 0xc0f1, [&](const Shape &s, const auto &src) {
        for (const float *k : {sharpen, identity, laplacian, sobel, heavy,
                               heavier, huge, uneven}) {
            std::vector<uint8_t> out(src.size());
            convFilter3x3(src.data(), out.data(), s.rows, s.cols, s.ch,
                          k);
            EXPECT_EQ(out,
                      ref::convFilter3x3(src, s.rows, s.cols, s.ch, k))
                << "kernel centre " << k[4];
        }
    });
}

TEST(KernelIdentity, SobelMatchesReference)
{
    forEachFrame(true, 0x50be, [](const Shape &s, const auto &src) {
        std::vector<uint8_t> out(src.size(), 7);
        sobelMagnitude(src.data(), out.data(), s.rows, s.cols);
        EXPECT_EQ(out, ref::sobelMagnitude(src, s.rows, s.cols));
    });
}

TEST(KernelIdentity, EqualizeHistMatchesReference)
{
    forEachFrame(true, 0xe9a1, [](const Shape &s, const auto &src) {
        std::vector<uint8_t> out(src.size());
        equalizeHist(src.data(), out.data(), s.rows, s.cols);
        EXPECT_EQ(out, ref::equalizeHist(src));
    });
}

TEST(KernelIdentity, ConnectedComponentsMatchFloodFill)
{
    forEachFrame(true, 0xcc44, [](const Shape &s, const auto &src) {
        for (uint8_t t : {0, 100, 128, 200}) {
            std::vector<uint8_t> bin(src.size());
            threshold(src.data(), bin.data(), src.size(), t, 255);
            std::vector<Box> boxes = {{9, 9, 9, 9}}, want;
            uint32_t count = ref::connectedComponents(bin, s.rows,
                                                      s.cols, &want);
            EXPECT_EQ(connectedComponents(bin.data(), s.rows, s.cols,
                                          &boxes),
                      count)
                << "threshold " << int(t);
            EXPECT_EQ(boxes, want) << "threshold " << int(t);
            EXPECT_EQ(connectedComponents(bin.data(), s.rows, s.cols),
                      count)
                << "threshold " << int(t);
        }
    });
}

TEST(KernelIdentity, ResizeBilinearMatchesReference)
{
    forEachFrame(false, 0x7e51, [](const Shape &s, const auto &src) {
        const uint32_t hr = std::max(1u, s.rows / 2);
        const uint32_t hc = std::max(1u, s.cols / 2);
        const std::pair<uint32_t, uint32_t> targets[] = {
            {1, 1},
            {hr, hc},
            {s.rows, s.cols},
            {s.rows * 2, s.cols * 2},
            {s.rows * 3, s.cols * 3},
            {1, s.cols * 2},
            {s.rows * 2, 1}};
        for (auto [dr, dc] : targets) {
            std::vector<uint8_t> out(static_cast<size_t>(dr) * dc * s.ch);
            resizeBilinear(src.data(), s.rows, s.cols, s.ch, out.data(),
                           dr, dc);
            EXPECT_EQ(out, ref::resizeBilinear(src, s.rows, s.cols, s.ch,
                                               dr, dc))
                << "to " << dr << "x" << dc;
        }
    });
}

TEST(KernelIdentity, WarpPerspectiveMatchesReference)
{
    const double homographies[][9] = {
        {1, 0, 0, 0, 1, 0, 0, 0, 1},                   // identity
        {0.8, -0.3, 2.5, 0.25, 0.9, -1.5, 0, 0, 1},    // affine
        {10, -10, -2, 0, 10, 4, 0, 0, 1},              // tenths: near ties
        {1.1, 0.2, -1, -0.1, 0.95, 2, 0.01, -0.02, 1}, // projective
        {2, 0, 1, 0, 2, -1, 0, 0, 1},                  // half-pixel ties
        {1, 0, 0, 0, 1, 0, 0.5, 0, -0.5},              // w = 0 on column 2
        {1, 0, -4294967296.0, 0, 1, 3e9, 0, 0, 1},     // beyond int
        {1, 2, 3, 2, 4, 6, 1, 1, 1},                   // singular
    };
    forEachFrame(false, 0x3a7b, [&](const Shape &s, const auto &src) {
        for (const auto &h : homographies) {
            std::vector<uint8_t> out(src.size(), 7);
            warpPerspective(src.data(), out.data(), s.rows, s.cols, s.ch,
                            h);
            EXPECT_EQ(out,
                      ref::warpPerspective(src, s.rows, s.cols, s.ch, h))
                << "H = {" << h[0] << ", " << h[1] << ", " << h[2]
                << ", ...}";
        }
    });
}

TEST(KernelIdentity, AddWeightedMatchesReference)
{
    const std::pair<double, double> weights[] = {
        {0.5, 0.5}, {0.3, 0.7}, {0.1, 0.2}, {1.7, -0.6},
        {-1, 2},    {0, 1},     {1 / 3.0, 2 / 3.0}};
    forEachFrame(false, 0xadd5, [&](const Shape &, const auto &a) {
        std::vector<uint8_t> b(a.rbegin(), a.rend());
        for (auto [alpha, beta] : weights) {
            std::vector<uint8_t> out(a.size());
            addWeighted(a.data(), b.data(), out.data(), a.size(), alpha,
                        beta);
            EXPECT_EQ(out, ref::addWeighted(a, b, alpha, beta))
                << "alpha " << alpha << " beta " << beta;
        }
    });
}

TEST(KernelIdentity, CannyMatchesReference)
{
    const std::pair<uint8_t, uint8_t> thresholds[] = {
        {50, 150}, {0, 255}, {128, 128}, {10, 40}};
    forEachFrame(true, 0xca11, [&](const Shape &s, const auto &src) {
        for (auto [lo, hi] : thresholds) {
            std::vector<uint8_t> out(src.size(), 7);
            cannyEdges(src.data(), out.data(), s.rows, s.cols, lo, hi);
            EXPECT_EQ(out, ref::cannyEdges(src, s.rows, s.cols, lo, hi))
                << "thresholds " << int(lo) << "/" << int(hi);
        }
    });
}

TEST(KernelIdentity, TemplateMatchMatchesReference)
{
    util::Rng rng(0x7e3a);
    forEachFrame(true, 0x7e3b, [&](const Shape &s, const auto &img) {
        const std::pair<uint32_t, uint32_t> sizes[] = {
            {1, 1}, {2, 3}, {3, 2}, {4, 4}, {s.rows, s.cols}};
        for (auto [tr, tc] : sizes) {
            if (tr == 0 || tr > s.rows || tc > s.cols)
                continue;
            // A patch cut from the image (an exact hit) and a noisy one.
            std::vector<uint8_t> cut(static_cast<size_t>(tr) * tc);
            const uint32_t r0 = s.rows - tr, c0 = (s.cols - tc) / 2;
            for (uint32_t r = 0; r < tr; ++r)
                for (uint32_t c = 0; c < tc; ++c)
                    cut[r * tc + c] = img[(r0 + r) * s.cols + c0 + c];
            for (const auto &tmpl :
                 {cut, makeFrame(cut.size(), Pattern::Random, rng)}) {
                uint32_t br = 9, bc = 9, wr = 9, wc = 9;
                EXPECT_EQ(templateMatchBest(img.data(), s.rows, s.cols,
                                            tmpl.data(), tr, tc, br, bc),
                          ref::templateMatchBest(img, s.rows, s.cols,
                                                 tmpl, tr, tc, wr, wc))
                    << "template " << tr << "x" << tc;
                EXPECT_EQ(br, wr);
                EXPECT_EQ(bc, wc);
            }
        }
    });
}

TEST(KernelIdentity, SqrtClampMatchesDoubleRootForEverySobelSum)
{
    // Every gx^2 + gy^2 a Sobel pixel can produce, |g| <= 4 * 255.
    uint32_t root = 0;
    for (uint32_t s = 0; s <= 2 * 1020 * 1020; ++s) {
        while ((root + 1) * (root + 1) <= s)
            ++root;
        const uint8_t want = ref::clampU8(std::sqrt(static_cast<double>(s)));
        if (sqrtClampU8(s) != want || want != std::min(root, 255u))
            FAIL() << "s = " << s << ": isqrt " << root << ", double "
                   << int(want) << ", kernel " << int(sqrtClampU8(s));
    }
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

TEST(WarpPerspective, DegenerateCoordinatesAreOutside)
{
    // w = x - 2 under this H, so column 2 maps to a source coordinate
    // of inf or NaN: outside, not pixel (0, 0).
    std::vector<uint8_t> src(8 * 8, 0), dst(8 * 8, 7);
    src[0] = 200;
    const double pole[9] = {1, 0, 0, 0, 1, 0, 0.5, 0, -0.5};
    warpPerspective(src.data(), dst.data(), 8, 8, 1, pole);
    for (uint32_t r = 0; r < 8; ++r)
        EXPECT_EQ(dst[r * 8 + 2], 0) << "row " << r;
    // A shift by -2^32 columns leaves every source coordinate beyond
    // int range: the frame goes black rather than wrapping home.
    auto frame = gradient(8, 8);
    const double far[9] = {1, 0, -4294967296.0, 0, 1, 0, 0, 0, 1};
    warpPerspective(frame.data(), dst.data(), 8, 8, 1, far);
    EXPECT_EQ(dst, std::vector<uint8_t>(8 * 8, 0));
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
