#include "fw/minicv_ops.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <type_traits>

namespace freepart::fw::ops {

namespace {

inline size_t
idx(uint32_t r, uint32_t c, uint32_t ch, uint32_t cols, uint32_t nch)
{
    return (static_cast<size_t>(r) * cols + c) * nch + ch;
}

inline uint8_t
clampU8(double v)
{
    return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
}

template <bool TakeMax>
inline uint8_t
pick(uint8_t a, uint8_t b)
{
    return TakeMax ? std::max(a, b) : std::min(a, b);
}

/**
 * Calls f(std::integral_constant<uint32_t, V>{}) when v is one of Vs,
 * else f(v): the hot values get a loop specialised at compile time
 * (constant trip counts and divisors) without a second copy of it.
 */
template <uint32_t... Vs, typename F>
inline void
withConstant(uint32_t v, F f)
{
    if (!((v == Vs ? (f(std::integral_constant<uint32_t, Vs>{}), true)
                   : false) ||
          ...))
        f(v);
}

/**
 * Calls f(r, up, mid, down) for each row r of a frame of `row` bytes
 * per row; up and down point at the neighbouring rows, clamped to the
 * frame.
 */
template <typename F>
inline void
forEachRowClamped(const uint8_t *src, uint32_t rows, size_t row, F f)
{
    for (uint32_t r = 0; r < rows; ++r)
        f(r, src + (r == 0 ? r : r - 1) * row, src + r * row,
          src + (r + 1 == rows ? r : r + 1) * row);
}

/**
 * Calls f(i, left, right) for each element i of a row of `row` bytes
 * holding `ch` interleaved channels; left and right index the same
 * channel of the neighbouring pixels, clamped to the row. The edge
 * pixels are peeled so the interior loop is branch-free.
 */
template <typename F>
inline void
forEachColumnClamped(size_t row, size_t ch, F f)
{
    if (row == ch) {
        for (size_t i = 0; i < row; ++i)
            f(i, i, i);
        return;
    }
    for (size_t i = 0; i < ch; ++i)
        f(i, i, i + ch);
    for (size_t i = ch; i + ch < row; ++i)
        f(i, i - ch, i + ch);
    for (size_t i = row - ch; i < row; ++i)
        f(i, i - ch, i);
}

/**
 * Separable 3x3 filter with clamped borders: a vertical pass
 * vert(up, mid, down) over three source rows into a one-row buffer of
 * T, then a horizontal pass horiz(left, centre, right) over that
 * buffer into dst. Byte-identical to the direct 3x3 window whenever
 * the filter factors exactly: min/max (associative, and a clamped
 * neighbour only repeats a pixel already in the window) and integer
 * weighted sums (no rounding before the final horiz).
 */
template <typename T, typename Vert, typename Horiz>
void
separable3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
             uint32_t cols, uint32_t ch, Vert vert, Horiz horiz)
{
    const size_t row = static_cast<size_t>(cols) * ch;
    if (rows == 0 || row == 0)
        return;
    std::vector<T> line(row);
    T *v = line.data();
    forEachRowClamped(src, rows, row,
                      [&](uint32_t r, const uint8_t *up,
                          const uint8_t *mid, const uint8_t *down) {
                          for (size_t i = 0; i < row; ++i)
                              v[i] = vert(up[i], mid[i], down[i]);
                          uint8_t *d = dst + r * row;
                          forEachColumnClamped(
                              row, ch, [&](size_t i, size_t l, size_t rt) {
                                  d[i] = horiz(v[l], v[i], v[rt]);
                              });
                      });
}

/** 3x3 min/max filter with clamped borders. */
template <bool TakeMax>
void
minmax3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
          uint32_t cols, uint32_t ch)
{
    auto pick3 = [](uint8_t a, uint8_t b, uint8_t c) {
        return pick<TakeMax>(pick<TakeMax>(a, b), c);
    };
    separable3x3<uint8_t>(src, dst, rows, cols, ch, pick3, pick3);
}

/**
 * dst[i] = sum[i] / count. The counts of a k = 3 box window's
 * interior (9, and 6 on the top and bottom rows) are compile-time
 * constants here, so that division compiles to a multiply.
 */
template <typename Sum>
void
divideRow(const Sum *sum, uint8_t *dst, size_t n, uint32_t count)
{
    withConstant<9, 6>(count, [&](auto div) {
        for (size_t i = 0; i < n; ++i)
            dst[i] = static_cast<uint8_t>(sum[i] / div);
    });
}

/**
 * True when std::lround(v) lies in [0, n). A NaN, an infinity or any
 * finite v beyond that range is outside.
 */
inline bool
inFrame(double v, uint32_t n)
{
    return v > -0.5 && v < n - 0.5;
}

/**
 * std::lround(v) for a v that inFrame() accepted: v - t is exact, and
 * a half rounds away from zero. Inline, unlike the libcall.
 */
inline uint32_t
roundInFrame(double v)
{
    const uint32_t t = static_cast<uint32_t>(v);
    return t + (v - t >= 0.5);
}

} // namespace

void
gaussianBlur3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
                uint32_t cols, uint32_t ch)
{
    // [1 2 1] down the rows, then across: the integer sum is the same
    // as the 2-D window's, rounded once at the end.
    separable3x3<uint16_t>(
        src, dst, rows, cols, ch,
        [](uint8_t up, uint8_t mid, uint8_t down) {
            return static_cast<uint16_t>(up + 2 * mid + down);
        },
        [](uint32_t left, uint32_t mid, uint32_t right) {
            return static_cast<uint8_t>((left + 2 * mid + right + 8) / 16);
        });
}

namespace {

/**
 * boxBlur with window sums held in Sum, which must hold
 * (2*(k/2)+1)^2 * 255.
 */
template <typename Sum>
void
boxBlurSums(const uint8_t *src, uint8_t *dst, uint32_t rows,
            uint32_t cols, uint32_t ch, uint32_t k)
{
    const size_t row = static_cast<size_t>(cols) * ch;
    if (rows == 0 || row == 0)
        return;
    const uint64_t half = k / 2;
    auto lastIn = [&](uint64_t i, uint32_t n) {
        return static_cast<uint32_t>(std::min<uint64_t>(i + half, n - 1));
    };
    auto firstIn = [&](uint32_t i) {
        return static_cast<uint32_t>(i > half ? i - half : 0);
    };
    // colSum holds, per column and channel, the sum over the window's
    // rows; it slides down one row per output row.
    std::vector<Sum> colSum(row, 0), winSum(row);
    for (uint32_t r = 0; r <= lastIn(0, rows); ++r)
        for (size_t i = 0; i < row; ++i)
            colSum[i] += src[r * row + i];
    // Columns [inBegin, inEnd) have the whole window inside the image.
    const uint32_t inBegin = static_cast<uint32_t>(
        std::min<uint64_t>(half, cols));
    const uint32_t inEnd =
        cols > 2 * half ? static_cast<uint32_t>(cols - half) : inBegin;
    const size_t h = static_cast<size_t>(half) * ch;
    for (uint32_t r = 0; r < rows; ++r) {
        const uint32_t nr = lastIn(r, rows) - firstIn(r) + 1;
        uint8_t *d = dst + r * row;
        // Interior: a sum of 2*half+1 shifted copies of colSum.
        const size_t b = inBegin * ch, e = inEnd * ch;
        for (size_t i = b; i < e; ++i)
            winSum[i] = colSum[i - h];
        for (size_t off = ch; off <= 2 * h; off += ch)
            for (size_t i = b; i < e; ++i)
                winSum[i] += colSum[i - h + off];
        divideRow(winSum.data() + b, d + b, e - b,
                  nr * static_cast<uint32_t>(2 * half + 1));
        // Edge columns: the window is cut by the image border, and
        // out-of-image taps are left out of the sum and the count.
        auto edge = [&](uint32_t c) {
            const uint32_t lo = firstIn(c), hi = lastIn(c, cols);
            const uint32_t count = nr * (hi - lo + 1);
            for (size_t kk = 0; kk < ch; ++kk) {
                uint32_t sum = 0;
                for (uint32_t cc = lo; cc <= hi; ++cc)
                    sum += colSum[cc * ch + kk];
                d[c * ch + kk] = static_cast<uint8_t>(sum / count);
            }
        };
        for (uint32_t c = 0; c < inBegin; ++c)
            edge(c);
        for (uint32_t c = inEnd; c < cols; ++c)
            edge(c);
        // Slide the window down: take in row r+half+1, drop row r-half.
        if (r + half + 1 < rows)
            for (size_t i = 0; i < row; ++i)
                colSum[i] += src[(r + half + 1) * row + i];
        if (r >= half)
            for (size_t i = 0; i < row; ++i)
                colSum[i] -= src[(r - half) * row + i];
    }
}

} // namespace

void
boxBlur(const uint8_t *src, uint8_t *dst, uint32_t rows,
        uint32_t cols, uint32_t ch, uint32_t k)
{
    // Up to a 15x15 window the sums fit 16 bits, twice the lanes.
    if (k / 2 <= 7)
        boxBlurSums<uint16_t>(src, dst, rows, cols, ch, k);
    else
        boxBlurSums<uint32_t>(src, dst, rows, cols, ch, k);
}

void
erode3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
         uint32_t cols, uint32_t ch)
{
    minmax3x3<false>(src, dst, rows, cols, ch);
}

void
dilate3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
          uint32_t cols, uint32_t ch)
{
    minmax3x3<true>(src, dst, rows, cols, ch);
}

void
morphOpen(const uint8_t *src, uint8_t *dst, uint32_t rows,
          uint32_t cols, uint32_t ch)
{
    std::vector<uint8_t> tmp(static_cast<size_t>(rows) * cols * ch);
    erode3x3(src, tmp.data(), rows, cols, ch);
    dilate3x3(tmp.data(), dst, rows, cols, ch);
}

void
morphClose(const uint8_t *src, uint8_t *dst, uint32_t rows,
           uint32_t cols, uint32_t ch)
{
    std::vector<uint8_t> tmp(static_cast<size_t>(rows) * cols * ch);
    dilate3x3(src, tmp.data(), rows, cols, ch);
    erode3x3(tmp.data(), dst, rows, cols, ch);
}

void
toGray(const uint8_t *src, uint8_t *dst, uint32_t rows,
       uint32_t cols, uint32_t ch_in)
{
    const size_t n = static_cast<size_t>(rows) * cols;
    withConstant<3>(ch_in, [&](auto nch) {
        for (size_t i = 0; i < n; ++i) {
            uint32_t sum = 0;
            for (uint32_t k = 0; k < nch; ++k)
                sum += src[i * nch + k];
            dst[i] = static_cast<uint8_t>(sum / nch);
        }
    });
}

void
sobelMagnitude(const uint8_t *gray, uint8_t *dst, uint32_t rows,
               uint32_t cols)
{
    // The one-pixel border stays 0; only the interior is computed.
    // gx^2 + gy^2 is an exact integer, so the double root of the
    // per-pixel loop is sqrtClampU8 of it. The squares are summed in
    // one (vectorizable) pass over the row and rooted in a second.
    std::fill_n(dst, static_cast<size_t>(rows) * cols, 0);
    std::vector<uint32_t> sq(cols);
    for (uint32_t r = 1; r + 1 < rows; ++r) {
        const uint8_t *up = gray + static_cast<size_t>(r - 1) * cols;
        const uint8_t *mid = up + cols;
        const uint8_t *down = mid + cols;
        uint8_t *d = dst + static_cast<size_t>(r) * cols;
        for (uint32_t c = 1; c + 1 < cols; ++c) {
            int gx = -up[c - 1] - 2 * mid[c - 1] - down[c - 1] +
                     up[c + 1] + 2 * mid[c + 1] + down[c + 1];
            int gy = -up[c - 1] - 2 * up[c] - up[c + 1] + down[c - 1] +
                     2 * down[c] + down[c + 1];
            sq[c] = static_cast<uint32_t>(gx * gx + gy * gy);
        }
        for (uint32_t c = 1; c + 1 < cols; ++c)
            d[c] = sqrtClampU8(sq[c]);
    }
}

void
cannyEdges(const uint8_t *gray, uint8_t *dst, uint32_t rows,
           uint32_t cols, uint8_t lo, uint8_t hi)
{
    size_t n = static_cast<size_t>(rows) * cols;
    std::vector<uint8_t> mag(n);
    sobelMagnitude(gray, mag.data(), rows, cols);
    // Strong = 255, weak = 128, rest = 0.
    for (size_t i = 0; i < n; ++i)
        dst[i] = mag[i] >= hi ? 255 : (mag[i] >= lo ? 128 : 0);
    // Promote weak edges adjacent to strong edges (single pass).
    for (uint32_t r = 1; r + 1 < rows; ++r) {
        for (uint32_t c = 1; c + 1 < cols; ++c) {
            size_t i = idx(r, c, 0, cols, 1);
            if (dst[i] != 128)
                continue;
            bool promoted = false;
            for (int dr = -1; dr <= 1 && !promoted; ++dr)
                for (int dc = -1; dc <= 1 && !promoted; ++dc)
                    if (dst[idx(r + static_cast<uint32_t>(dr),
                                c + static_cast<uint32_t>(dc), 0,
                                cols, 1)] == 255)
                        promoted = true;
            dst[i] = promoted ? 255 : 0;
        }
    }
    // Remaining weak edges on the border are suppressed.
    for (size_t i = 0; i < n; ++i)
        if (dst[i] == 128)
            dst[i] = 0;
}

void
resizeNearest(const uint8_t *src, uint32_t rows, uint32_t cols,
              uint32_t ch, uint8_t *dst, uint32_t drows,
              uint32_t dcols)
{
    for (uint32_t r = 0; r < drows; ++r) {
        uint32_t sr = static_cast<uint32_t>(
            static_cast<uint64_t>(r) * rows / drows);
        for (uint32_t c = 0; c < dcols; ++c) {
            uint32_t sc = static_cast<uint32_t>(
                static_cast<uint64_t>(c) * cols / dcols);
            for (uint32_t k = 0; k < ch; ++k)
                dst[idx(r, c, k, dcols, ch)] =
                    src[idx(sr, sc, k, cols, ch)];
        }
    }
}

void
resizeBilinear(const uint8_t *src, uint32_t rows, uint32_t cols,
               uint32_t ch, uint8_t *dst, uint32_t drows,
               uint32_t dcols)
{
    double rscale = drows > 1
                        ? static_cast<double>(rows - 1) / (drows - 1)
                        : 0.0;
    double cscale = dcols > 1
                        ? static_cast<double>(cols - 1) / (dcols - 1)
                        : 0.0;
    // Per output column: the two source columns' byte offsets and the
    // weight wc; per output row the same for rows. The four pixel
    // weights are formed once per pixel, with the products the
    // per-channel expression had, and shared by its channels.
    struct Tap {
        size_t c0, c1;
        double wc;
    };
    std::vector<Tap> taps(dcols);
    for (uint32_t c = 0; c < dcols; ++c) {
        double fc = c * cscale;
        uint32_t c0 = static_cast<uint32_t>(fc);
        uint32_t c1 = std::min(c0 + 1, cols - 1);
        taps[c] = {static_cast<size_t>(c0) * ch,
                   static_cast<size_t>(c1) * ch, fc - c0};
    }
    const size_t srow = static_cast<size_t>(cols) * ch;
    withConstant<1, 3>(ch, [&](auto nch) {
        uint8_t *d = dst;
        for (uint32_t r = 0; r < drows; ++r) {
            double fr = r * rscale;
            uint32_t r0 = static_cast<uint32_t>(fr);
            uint32_t r1 = std::min(r0 + 1, rows - 1);
            double wr = fr - r0;
            const uint8_t *s0 = src + r0 * srow;
            const uint8_t *s1 = src + r1 * srow;
            for (const Tap &t : taps) {
                const double w00 = (1 - wr) * (1 - t.wc);
                const double w01 = (1 - wr) * t.wc;
                const double w10 = wr * (1 - t.wc);
                const double w11 = wr * t.wc;
                for (uint32_t k = 0; k < nch; ++k)
                    d[k] = clampU8(w00 * s0[t.c0 + k] + w01 * s0[t.c1 + k] +
                                   w10 * s1[t.c0 + k] + w11 * s1[t.c1 + k]);
                d += nch;
            }
        }
    });
}

void
equalizeHist(const uint8_t *src, uint8_t *dst, uint32_t rows,
             uint32_t cols)
{
    size_t n = static_cast<size_t>(rows) * cols;
    uint32_t hist[256] = {};
    histogram256(src, n, hist);
    uint32_t cdf[256];
    uint32_t running = 0;
    for (int i = 0; i < 256; ++i) {
        running += hist[i];
        cdf[i] = running;
    }
    uint32_t cdf_min = 0;
    for (int i = 0; i < 256; ++i) {
        if (cdf[i]) {
            cdf_min = cdf[i];
            break;
        }
    }
    double denom = static_cast<double>(n - cdf_min);
    if (denom <= 0) {
        std::copy_n(src, n, dst);
        return;
    }
    uint8_t lut[256];
    for (int v = 0; v < 256; ++v)
        lut[v] = clampU8(255.0 * (cdf[v] - cdf_min) / denom);
    for (size_t i = 0; i < n; ++i)
        dst[i] = lut[src[i]];
}

void
threshold(const uint8_t *src, uint8_t *dst, size_t n, uint8_t thresh,
          uint8_t maxval)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = src[i] > thresh ? maxval : 0;
}

void
warpPerspective(const uint8_t *src, uint8_t *dst, uint32_t rows,
                uint32_t cols, uint32_t ch, const double h[9])
{
    // Invert H (3x3) for inverse mapping.
    double det =
        h[0] * (h[4] * h[8] - h[5] * h[7]) -
        h[1] * (h[3] * h[8] - h[5] * h[6]) +
        h[2] * (h[3] * h[7] - h[4] * h[6]);
    if (std::abs(det) < 1e-12) {
        std::memset(dst, 0, static_cast<size_t>(rows) * cols * ch);
        return;
    }
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
    // The x products come from per-column tables and the y products
    // are per row; the sums and divisions keep the per-pixel
    // expression's order.
    std::vector<double> ax(cols), bx(cols), cx(cols), sx(cols), sy(cols);
    for (uint32_t c = 0; c < cols; ++c) {
        const double x = static_cast<double>(c);
        ax[c] = inv[0] * x;
        bx[c] = inv[3] * x;
        cx[c] = inv[6] * x;
    }
    const size_t row = static_cast<size_t>(cols) * ch;
    withConstant<1, 3>(ch, [&](auto nch) {
        for (uint32_t r = 0; r < rows; ++r) {
            const double y = static_cast<double>(r);
            const double ay = inv[1] * y, by = inv[4] * y,
                         cy = inv[7] * y;
            for (uint32_t c = 0; c < cols; ++c) {
                const double w = cx[c] + cy + inv[8];
                sx[c] = (ax[c] + ay + inv[2]) / w;
                sy[c] = (bx[c] + by + inv[5]) / w;
            }
            uint8_t *d = dst + r * row;
            for (uint32_t c = 0; c < cols; ++c, d += nch) {
                const uint8_t *from = nullptr;
                if (inFrame(sx[c], cols) && inFrame(sy[c], rows))
                    from = src + (static_cast<size_t>(roundInFrame(sy[c])) *
                                      cols +
                                  roundInFrame(sx[c])) *
                                     nch;
                for (uint32_t k = 0; k < nch; ++k)
                    d[k] = from ? from[k] : 0;
            }
        }
    });
}

void
drawRect(uint8_t *buf, uint32_t rows, uint32_t cols, uint32_t ch,
         const Box &box, uint8_t color)
{
    uint32_t r0 = std::min(box[0], rows ? rows - 1 : 0);
    uint32_t c0 = std::min(box[1], cols ? cols - 1 : 0);
    uint32_t r1 = std::min(box[0] + box[2], rows ? rows - 1 : 0);
    uint32_t c1 = std::min(box[1] + box[3], cols ? cols - 1 : 0);
    for (uint32_t c = c0; c <= c1; ++c) {
        for (uint32_t k = 0; k < ch; ++k) {
            buf[idx(r0, c, k, cols, ch)] = color;
            buf[idx(r1, c, k, cols, ch)] = color;
        }
    }
    for (uint32_t r = r0; r <= r1; ++r) {
        for (uint32_t k = 0; k < ch; ++k) {
            buf[idx(r, c0, k, cols, ch)] = color;
            buf[idx(r, c1, k, cols, ch)] = color;
        }
    }
}

namespace {

/**
 * Minimal 5x7 font: each glyph is 5 column bytes, 7 bits used. Only
 * the characters the examples draw are defined; everything else
 * renders as a filled box.
 */
struct Glyph {
    char ch;
    uint8_t cols[5];
};

const Glyph kFont[] = {
    {'0', {0x3e, 0x51, 0x49, 0x45, 0x3e}},
    {'1', {0x00, 0x42, 0x7f, 0x40, 0x00}},
    {'2', {0x42, 0x61, 0x51, 0x49, 0x46}},
    {'3', {0x21, 0x41, 0x45, 0x4b, 0x31}},
    {'4', {0x18, 0x14, 0x12, 0x7f, 0x10}},
    {'5', {0x27, 0x45, 0x45, 0x45, 0x39}},
    {'6', {0x3c, 0x4a, 0x49, 0x49, 0x30}},
    {'7', {0x01, 0x71, 0x09, 0x05, 0x03}},
    {'8', {0x36, 0x49, 0x49, 0x49, 0x36}},
    {'9', {0x06, 0x49, 0x49, 0x29, 0x1e}},
    {'A', {0x7e, 0x11, 0x11, 0x11, 0x7e}},
    {'B', {0x7f, 0x49, 0x49, 0x49, 0x36}},
    {'C', {0x3e, 0x41, 0x41, 0x41, 0x22}},
    {'D', {0x7f, 0x41, 0x41, 0x22, 0x1c}},
    {'E', {0x7f, 0x49, 0x49, 0x49, 0x41}},
    {'F', {0x7f, 0x09, 0x09, 0x09, 0x01}},
    {'O', {0x3e, 0x41, 0x41, 0x41, 0x3e}},
    {'K', {0x7f, 0x08, 0x14, 0x22, 0x41}},
    {'S', {0x46, 0x49, 0x49, 0x49, 0x31}},
    {'%', {0x23, 0x13, 0x08, 0x64, 0x62}},
    {'.', {0x00, 0x60, 0x60, 0x00, 0x00}},
    {':', {0x00, 0x36, 0x36, 0x00, 0x00}},
    {' ', {0x00, 0x00, 0x00, 0x00, 0x00}},
    {'-', {0x08, 0x08, 0x08, 0x08, 0x08}},
};

const uint8_t *
glyphFor(char ch)
{
    for (const Glyph &g : kFont)
        if (g.ch == ch)
            return g.cols;
    return nullptr;
}

} // namespace

void
drawText(uint8_t *buf, uint32_t rows, uint32_t cols, uint32_t ch,
         uint32_t r, uint32_t c, const std::string &text,
         uint8_t color)
{
    uint32_t x = c;
    for (char chr : text) {
        const uint8_t *glyph = glyphFor(chr);
        for (uint32_t gc = 0; gc < 5; ++gc) {
            uint8_t bits = glyph ? glyph[gc] : 0x7f;
            for (uint32_t gr = 0; gr < 7; ++gr) {
                if (!(bits & (1u << gr)))
                    continue;
                uint32_t rr = r + gr;
                uint32_t cc = x + gc;
                if (rr >= rows || cc >= cols)
                    continue;
                for (uint32_t k = 0; k < ch; ++k)
                    buf[idx(rr, cc, k, cols, ch)] = color;
            }
        }
        x += 6;
    }
}

uint32_t
connectedComponents(const uint8_t *bin, uint32_t rows, uint32_t cols,
                    std::vector<Box> *bboxes)
{
    if (bboxes)
        bboxes->clear();
    // Label runs, not pixels: a run is a row's maximal stretch
    // [begin, end) of foreground. A run takes the label of the first
    // run it touches in the row above, minting a new one where it
    // touches none, and unions that label with every other run it
    // touches. Labels are minted in raster order and a union always
    // keeps the smaller root, so parent[l] <= l and each component's
    // root is the label minted at its first raster pixel.
    struct Run {
        uint32_t row, begin, end, label;
    };
    std::vector<Run> runs;
    std::vector<uint32_t> parent;
    auto find = [&](uint32_t l) {
        while (parent[l] != l)
            l = parent[l] = parent[parent[l]];
        return l;
    };
    size_t above = 0, aboveEnd = 0; // the previous row's runs
    for (uint32_t r = 0; r < rows; ++r) {
        const uint8_t *line = bin + static_cast<size_t>(r) * cols;
        const size_t rowStart = runs.size();
        for (uint32_t c = 0; c < cols;) {
            while (c < cols && !line[c])
                ++c;
            if (c == cols)
                break;
            const uint32_t begin = c;
            while (c < cols && line[c])
                ++c;
            // Runs above that end before this one begins touch no
            // later run of this row either.
            while (above < aboveEnd && runs[above].end <= begin)
                ++above;
            uint32_t label = UINT32_MAX;
            for (size_t k = above; k < aboveEnd && runs[k].begin < c;
                 ++k) {
                if (label == UINT32_MAX) {
                    label = runs[k].label;
                    continue;
                }
                uint32_t a = find(label), b = find(runs[k].label);
                if (a != b)
                    parent[std::max(a, b)] = std::min(a, b);
            }
            if (label == UINT32_MAX) {
                label = static_cast<uint32_t>(parent.size());
                parent.push_back(label);
            }
            runs.push_back({r, begin, c, label});
        }
        above = rowStart;
        aboveEnd = runs.size();
    }
    // Number the roots in increasing order (the order of their first
    // raster pixels, as a raster-scan flood fill would) and map every
    // label to its root's number in place; parent[l] <= l means
    // parent[parent[l]] is already a number when l is reached.
    uint32_t count = 0;
    for (uint32_t l = 0; l < parent.size(); ++l) {
        const uint32_t p = parent[l];
        parent[l] = p == l ? count++ : parent[p];
    }
    if (!bboxes)
        return count;
    // Grow each component's {rmin, cmin, rmax, cmax} over its runs,
    // then turn the far corner into a height and width.
    bboxes->assign(count, {UINT32_MAX, UINT32_MAX, 0, 0});
    for (const Run &run : runs) {
        Box &b = (*bboxes)[parent[run.label]];
        b = {std::min(b[0], run.row), std::min(b[1], run.begin),
             std::max(b[2], run.row), std::max(b[3], run.end - 1)};
    }
    for (Box &b : *bboxes)
        b = {b[0], b[1], b[2] - b[0], b[3] - b[1]};
    return count;
}

uint64_t
templateMatchBest(const uint8_t *img, uint32_t rows, uint32_t cols,
                  const uint8_t *tmpl, uint32_t trows, uint32_t tcols,
                  uint32_t &best_r, uint32_t &best_c)
{
    best_r = 0;
    best_c = 0;
    if (trows > rows || tcols > cols)
        return UINT64_MAX;
    // One template row's SSD, summed in 32 bits over runs short
    // enough (65536 * 255^2 < 2^32) to be exact, so the loop vectorizes.
    auto rowSsd = [](const uint8_t *a, const uint8_t *b, uint32_t n) {
        uint64_t total = 0;
        for (uint32_t i = 0; i < n;) {
            const uint32_t end = n - i > 65536 ? i + 65536 : n;
            uint32_t part = 0;
            for (; i < end; ++i) {
                const int d = a[i] - b[i];
                part += static_cast<uint32_t>(d * d);
            }
            total += part;
        }
        return total;
    };
    uint64_t best = UINT64_MAX;
    for (uint32_t r = 0; r + trows <= rows; ++r) {
        for (uint32_t c = 0; c + tcols <= cols; ++c) {
            uint64_t ssd = 0;
            for (uint32_t tr = 0; tr < trows && ssd < best; ++tr)
                ssd += rowSsd(img + idx(r + tr, c, 0, cols, 1),
                              tmpl + idx(tr, 0, 0, tcols, 1), tcols);
            if (ssd < best) {
                best = ssd;
                best_r = r;
                best_c = c;
            }
        }
    }
    return best;
}

void
flipHorizontal(const uint8_t *src, uint8_t *dst, uint32_t rows,
               uint32_t cols, uint32_t ch)
{
    const size_t row = static_cast<size_t>(cols) * ch;
    withConstant<1, 3>(ch, [&](auto nch) {
        for (uint32_t r = 0; r < rows; ++r) {
            const uint8_t *s = src + r * row + row;
            uint8_t *d = dst + r * row;
            for (uint32_t c = 0; c < cols; ++c) {
                s -= nch;
                for (uint32_t k = 0; k < nch; ++k)
                    d[k] = s[k];
                d += nch;
            }
        }
    });
}

void
addWeighted(const uint8_t *a, const uint8_t *b, uint8_t *dst,
            size_t n, double alpha, double beta)
{
    // alpha * a[i] and beta * b[i] take 256 values each.
    double ta[256], tb[256];
    for (int v = 0; v < 256; ++v) {
        ta[v] = alpha * v;
        tb[v] = beta * v;
    }
    for (size_t i = 0; i < n; ++i)
        dst[i] = clampU8(ta[a[i]] + tb[b[i]]);
}

void
normalizeMinMax(const uint8_t *src, uint8_t *dst, size_t n)
{
    if (!n)
        return;
    uint8_t lo = 255, hi = 0;
    for (size_t i = 0; i < n; ++i) {
        lo = std::min(lo, src[i]);
        hi = std::max(hi, src[i]);
    }
    if (hi == lo) {
        std::memset(dst, 0, n);
        return;
    }
    double scale = 255.0 / (hi - lo);
    uint8_t lut[256];
    for (int v = 0; v < 256; ++v)
        lut[v] = clampU8((v - lo) * scale);
    for (size_t i = 0; i < n; ++i)
        dst[i] = lut[src[i]];
}

void
histogram256(const uint8_t *src, size_t n, uint32_t out[256])
{
    std::memset(out, 0, 256 * sizeof(uint32_t));
    for (size_t i = 0; i < n; ++i)
        ++out[src[i]];
}

void
absdiff(const uint8_t *a, const uint8_t *b, uint8_t *dst, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = static_cast<uint8_t>(
            a[i] > b[i] ? a[i] - b[i] : b[i] - a[i]);
}

void
invert(const uint8_t *src, uint8_t *dst, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = static_cast<uint8_t>(255 - src[i]);
}

void
convFilter3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
              uint32_t cols, uint32_t ch, const float k[9])
{
    const size_t row = static_cast<size_t>(cols) * ch;
    if (rows == 0 || row == 0)
        return;
    // Integer taps whose magnitudes sum to at most 128 make every
    // float product k * v, and every partial double sum, an integer
    // below 2^15 in magnitude: exact, and the same number in int16.
    bool integral = true;
    float weight = 0;
    for (int t = 0; t < 9; ++t) {
        integral = integral && std::trunc(k[t]) == k[t];
        weight += std::abs(k[t]);
    }
    if (integral && weight <= 128.f) {
        std::array<int16_t, 9> ki;
        for (int t = 0; t < 9; ++t)
            ki[t] = static_cast<int16_t>(k[t]);
        forEachRowClamped(
            src, rows, row,
            [&, ki](uint32_t r, const uint8_t *up, const uint8_t *mid,
                    const uint8_t *down) {
                uint8_t *d = dst + r * row;
                forEachColumnClamped(row, ch, [&](size_t i, size_t l,
                                                  size_t rt) {
                    const auto sum = static_cast<int16_t>(
                        ki[0] * up[l] + ki[1] * up[i] + ki[2] * up[rt] +
                        ki[3] * mid[l] + ki[4] * mid[i] + ki[5] * mid[rt] +
                        ki[6] * down[l] + ki[7] * down[i] +
                        ki[8] * down[rt]);
                    d[i] = static_cast<uint8_t>(
                        std::clamp<int16_t>(sum, 0, 255));
                });
            });
        return;
    }
    // Otherwise each tap is a float product added to a double in
    // dr-major order, exactly as the direct window computes it.
    forEachRowClamped(
        src, rows, row,
        [&](uint32_t r, const uint8_t *up, const uint8_t *mid,
            const uint8_t *down) {
            uint8_t *d = dst + r * row;
            forEachColumnClamped(row, ch, [&](size_t i, size_t l,
                                              size_t rt) {
                double sum = 0;
                sum += k[0] * up[l];
                sum += k[1] * up[i];
                sum += k[2] * up[rt];
                sum += k[3] * mid[l];
                sum += k[4] * mid[i];
                sum += k[5] * mid[rt];
                sum += k[6] * down[l];
                sum += k[7] * down[i];
                sum += k[8] * down[rt];
                d[i] = clampU8(sum);
            });
        });
}

} // namespace freepart::fw::ops
