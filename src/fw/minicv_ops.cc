#include "fw/minicv_ops.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

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

inline uint32_t
clampI(int v, int lo, int hi)
{
    return static_cast<uint32_t>(std::clamp(v, lo, hi));
}

template <bool TakeMax>
inline uint8_t
pick(uint8_t a, uint8_t b)
{
    return TakeMax ? std::max(a, b) : std::min(a, b);
}

/**
 * 3x3 min/max filter with clamped borders, as a vertical 3x1 pass
 * into dst followed by a horizontal 1x3 pass over each dst row. Min/max
 * is associative and a clamped border neighbour only repeats a pixel
 * already in the window, so the result is byte-identical to the 3x3
 * window; border columns are peeled so the inner loops are
 * branch-free, and the only temporary is one row.
 */
template <bool TakeMax>
void
minmax3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
          uint32_t cols, uint32_t ch)
{
    const size_t row = static_cast<size_t>(cols) * ch;
    if (rows == 0 || row == 0)
        return;
    std::vector<uint8_t> line(row);
    for (uint32_t r = 0; r < rows; ++r) {
        const uint8_t *up = src + (r == 0 ? r : r - 1) * row;
        const uint8_t *mid = src + r * row;
        const uint8_t *down = src + (r + 1 == rows ? r : r + 1) * row;
        uint8_t *v = line.data();
        for (size_t i = 0; i < row; ++i)
            v[i] = pick<TakeMax>(pick<TakeMax>(up[i], mid[i]), down[i]);
        uint8_t *d = dst + r * row;
        if (cols == 1) {
            std::memcpy(d, v, row);
            continue;
        }
        for (size_t i = 0; i < ch; ++i)
            d[i] = pick<TakeMax>(v[i], v[i + ch]);
        for (size_t i = ch; i + ch < row; ++i)
            d[i] = pick<TakeMax>(pick<TakeMax>(v[i - ch], v[i]),
                                 v[i + ch]);
        for (size_t i = row - ch; i < row; ++i)
            d[i] = pick<TakeMax>(v[i - ch], v[i]);
    }
}

} // namespace

void
gaussianBlur3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
                uint32_t cols, uint32_t ch)
{
    // Horizontal pass into a temp, vertical pass into dst.
    std::vector<uint16_t> tmp(static_cast<size_t>(rows) * cols * ch);
    for (uint32_t r = 0; r < rows; ++r) {
        for (uint32_t c = 0; c < cols; ++c) {
            uint32_t cl = c == 0 ? 0 : c - 1;
            uint32_t cr = c + 1 >= cols ? cols - 1 : c + 1;
            for (uint32_t k = 0; k < ch; ++k) {
                tmp[idx(r, c, k, cols, ch)] = static_cast<uint16_t>(
                    src[idx(r, cl, k, cols, ch)] +
                    2 * src[idx(r, c, k, cols, ch)] +
                    src[idx(r, cr, k, cols, ch)]);
            }
        }
    }
    for (uint32_t r = 0; r < rows; ++r) {
        uint32_t ru = r == 0 ? 0 : r - 1;
        uint32_t rd = r + 1 >= rows ? rows - 1 : r + 1;
        for (uint32_t c = 0; c < cols; ++c) {
            for (uint32_t k = 0; k < ch; ++k) {
                uint32_t sum = tmp[idx(ru, c, k, cols, ch)] +
                               2 * tmp[idx(r, c, k, cols, ch)] +
                               tmp[idx(rd, c, k, cols, ch)];
                dst[idx(r, c, k, cols, ch)] =
                    static_cast<uint8_t>((sum + 8) / 16);
            }
        }
    }
}

void
boxBlur(const uint8_t *src, uint8_t *dst, uint32_t rows,
        uint32_t cols, uint32_t ch, uint32_t k)
{
    int half = static_cast<int>(k / 2);
    for (uint32_t r = 0; r < rows; ++r) {
        for (uint32_t c = 0; c < cols; ++c) {
            for (uint32_t kk = 0; kk < ch; ++kk) {
                uint32_t sum = 0;
                uint32_t count = 0;
                for (int dr = -half; dr <= half; ++dr) {
                    for (int dc = -half; dc <= half; ++dc) {
                        int rr = static_cast<int>(r) + dr;
                        int cc = static_cast<int>(c) + dc;
                        if (rr < 0 || cc < 0 ||
                            rr >= static_cast<int>(rows) ||
                            cc >= static_cast<int>(cols))
                            continue;
                        sum += src[idx(static_cast<uint32_t>(rr),
                                       static_cast<uint32_t>(cc), kk,
                                       cols, ch)];
                        ++count;
                    }
                }
                dst[idx(r, c, kk, cols, ch)] =
                    static_cast<uint8_t>(sum / count);
            }
        }
    }
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
    size_t n = static_cast<size_t>(rows) * cols;
    for (size_t i = 0; i < n; ++i) {
        uint32_t sum = 0;
        for (uint32_t k = 0; k < ch_in; ++k)
            sum += src[i * ch_in + k];
        dst[i] = static_cast<uint8_t>(sum / ch_in);
    }
}

void
sobelMagnitude(const uint8_t *gray, uint8_t *dst, uint32_t rows,
               uint32_t cols)
{
    for (uint32_t r = 0; r < rows; ++r) {
        for (uint32_t c = 0; c < cols; ++c) {
            if (r == 0 || c == 0 || r + 1 == rows || c + 1 == cols) {
                dst[idx(r, c, 0, cols, 1)] = 0;
                continue;
            }
            auto px = [&](int dr, int dc) {
                return static_cast<int>(
                    gray[idx(r + static_cast<uint32_t>(dr),
                             c + static_cast<uint32_t>(dc), 0, cols,
                             1)]);
            };
            int gx = -px(-1, -1) - 2 * px(0, -1) - px(1, -1) +
                     px(-1, 1) + 2 * px(0, 1) + px(1, 1);
            int gy = -px(-1, -1) - 2 * px(-1, 0) - px(-1, 1) +
                     px(1, -1) + 2 * px(1, 0) + px(1, 1);
            double mag = std::sqrt(static_cast<double>(gx) * gx +
                                   static_cast<double>(gy) * gy);
            dst[idx(r, c, 0, cols, 1)] = clampU8(mag);
        }
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
                double v =
                    (1 - wr) * (1 - wc) *
                        src[idx(r0, c0, k, cols, ch)] +
                    (1 - wr) * wc * src[idx(r0, c1, k, cols, ch)] +
                    wr * (1 - wc) * src[idx(r1, c0, k, cols, ch)] +
                    wr * wc * src[idx(r1, c1, k, cols, ch)];
                dst[idx(r, c, k, dcols, ch)] = clampU8(v);
            }
        }
    }
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
    for (size_t i = 0; i < n; ++i) {
        if (denom <= 0) {
            dst[i] = src[i];
            continue;
        }
        dst[i] = clampU8(255.0 * (cdf[src[i]] - cdf_min) / denom);
    }
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
    for (uint32_t r = 0; r < rows; ++r) {
        for (uint32_t c = 0; c < cols; ++c) {
            double x = static_cast<double>(c);
            double y = static_cast<double>(r);
            double w = inv[6] * x + inv[7] * y + inv[8];
            double sx = (inv[0] * x + inv[1] * y + inv[2]) / w;
            double sy = (inv[3] * x + inv[4] * y + inv[5]) / w;
            int sc = static_cast<int>(std::lround(sx));
            int sr = static_cast<int>(std::lround(sy));
            for (uint32_t k = 0; k < ch; ++k) {
                uint8_t v = 0;
                if (sr >= 0 && sc >= 0 &&
                    sr < static_cast<int>(rows) &&
                    sc < static_cast<int>(cols))
                    v = src[idx(static_cast<uint32_t>(sr),
                                static_cast<uint32_t>(sc), k, cols,
                                ch)];
                dst[idx(r, c, k, cols, ch)] = v;
            }
        }
    }
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
    size_t n = static_cast<size_t>(rows) * cols;
    std::vector<int32_t> label(n, -1);
    uint32_t next = 0;
    std::vector<size_t> stack;
    if (bboxes)
        bboxes->clear();
    for (uint32_t r = 0; r < rows; ++r) {
        for (uint32_t c = 0; c < cols; ++c) {
            size_t i = static_cast<size_t>(r) * cols + c;
            if (!bin[i] || label[i] >= 0)
                continue;
            uint32_t id = next++;
            uint32_t rmin = r, rmax = r, cmin = c, cmax = c;
            stack.clear();
            stack.push_back(i);
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
                bboxes->push_back(
                    {rmin, cmin, rmax - rmin, cmax - cmin});
        }
    }
    return next;
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
    uint64_t best = UINT64_MAX;
    for (uint32_t r = 0; r + trows <= rows; ++r) {
        for (uint32_t c = 0; c + tcols <= cols; ++c) {
            uint64_t ssd = 0;
            for (uint32_t tr = 0; tr < trows && ssd < best; ++tr) {
                for (uint32_t tc = 0; tc < tcols; ++tc) {
                    int d = static_cast<int>(
                                img[idx(r + tr, c + tc, 0, cols, 1)]) -
                            static_cast<int>(
                                tmpl[idx(tr, tc, 0, tcols, 1)]);
                    ssd += static_cast<uint64_t>(d * d);
                }
            }
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
    for (uint32_t r = 0; r < rows; ++r)
        for (uint32_t c = 0; c < cols; ++c)
            for (uint32_t k = 0; k < ch; ++k)
                dst[idx(r, c, k, cols, ch)] =
                    src[idx(r, cols - 1 - c, k, cols, ch)];
}

void
addWeighted(const uint8_t *a, const uint8_t *b, uint8_t *dst,
            size_t n, double alpha, double beta)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = clampU8(alpha * a[i] + beta * b[i]);
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
    for (size_t i = 0; i < n; ++i)
        dst[i] = clampU8((src[i] - lo) * scale);
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
    for (uint32_t r = 0; r < rows; ++r) {
        for (uint32_t c = 0; c < cols; ++c) {
            for (uint32_t kk = 0; kk < ch; ++kk) {
                double sum = 0;
                for (int dr = -1; dr <= 1; ++dr) {
                    for (int dc = -1; dc <= 1; ++dc) {
                        uint32_t rr = clampI(static_cast<int>(r) + dr,
                                             0,
                                             static_cast<int>(rows) -
                                                 1);
                        uint32_t cc = clampI(static_cast<int>(c) + dc,
                                             0,
                                             static_cast<int>(cols) -
                                                 1);
                        sum += k[(dr + 1) * 3 + (dc + 1)] *
                               src[idx(rr, cc, kk, cols, ch)];
                    }
                }
                dst[idx(r, c, kk, cols, ch)] = clampU8(sum);
            }
        }
    }
}

} // namespace freepart::fw::ops
