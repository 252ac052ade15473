/**
 * @file
 * Pure image-processing kernels backing the MiniCV API bodies. These
 * operate over raw u8 buffers (already permission-checked by the
 * caller through MatView/checkedSpan) and contain the real per-pixel
 * algorithms — blur, morphology, edges, warps, drawing — so MiniCV
 * workloads exercise genuine data-processing compute.
 */

#ifndef FREEPART_FW_MINICV_OPS_HH
#define FREEPART_FW_MINICV_OPS_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace freepart::fw::ops {

/** Axis-aligned box: {top row, left col, height, width}. */
using Box = std::array<uint32_t, 4>;

/** 3x3 separable Gaussian blur (kernel [1 2 1]/4 per axis). */
void gaussianBlur3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
                     uint32_t cols, uint32_t ch);

/**
 * Box blur (mean filter) over a (2*(k/2)+1)-square window, so an even
 * k acts as k+1 and k of 0 or 1 copies src. Taps outside the image are
 * left out: a border pixel is the integer mean of the in-image part
 * of its window.
 */
void boxBlur(const uint8_t *src, uint8_t *dst, uint32_t rows,
             uint32_t cols, uint32_t ch, uint32_t k);

/** 3x3 grayscale erosion (min filter), per channel. */
void erode3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
              uint32_t cols, uint32_t ch);

/** 3x3 grayscale dilation (max filter), per channel. */
void dilate3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
               uint32_t cols, uint32_t ch);

/** Morphological opening (erode then dilate). */
void morphOpen(const uint8_t *src, uint8_t *dst, uint32_t rows,
               uint32_t cols, uint32_t ch);

/** Morphological closing (dilate then erode). */
void morphClose(const uint8_t *src, uint8_t *dst, uint32_t rows,
                uint32_t cols, uint32_t ch);

/** Channel-mean grayscale conversion (any channel count -> 1). */
void toGray(const uint8_t *src, uint8_t *dst, uint32_t rows,
            uint32_t cols, uint32_t ch_in);

/**
 * min(255, floor(sqrt(s))). For every s up to 2 * 1020^2, the largest
 * Sobel gx^2 + gy^2, this equals clamping std::sqrt(double(s)) to u8:
 * below 255^2 the float root of s is never rounded across an integer.
 */
inline uint8_t
sqrtClampU8(uint32_t s)
{
    return s >= 255u * 255u
               ? 255
               : static_cast<uint8_t>(std::sqrt(static_cast<float>(s)));
}

/** Sobel gradient magnitude of a grayscale image (clamped to u8). */
void sobelMagnitude(const uint8_t *gray, uint8_t *dst, uint32_t rows,
                    uint32_t cols);

/**
 * Simplified Canny: Sobel magnitude + double threshold with weak-edge
 * promotion by 8-neighbourhood.
 */
void cannyEdges(const uint8_t *gray, uint8_t *dst, uint32_t rows,
                uint32_t cols, uint8_t lo, uint8_t hi);

/** Nearest-neighbour resize. */
void resizeNearest(const uint8_t *src, uint32_t rows, uint32_t cols,
                   uint32_t ch, uint8_t *dst, uint32_t drows,
                   uint32_t dcols);

/** Bilinear resize. */
void resizeBilinear(const uint8_t *src, uint32_t rows, uint32_t cols,
                    uint32_t ch, uint8_t *dst, uint32_t drows,
                    uint32_t dcols);

/** Histogram equalization of a grayscale image. */
void equalizeHist(const uint8_t *src, uint8_t *dst, uint32_t rows,
                  uint32_t cols);

/** Binary threshold: dst = src > thresh ? maxval : 0. */
void threshold(const uint8_t *src, uint8_t *dst, size_t n,
               uint8_t thresh, uint8_t maxval);

/**
 * Perspective warp by 3x3 homography H (row-major), inverse-mapping
 * with nearest sampling (std::lround). A pixel whose source coordinate
 * is not finite or rounds outside the frame becomes 0, as does the
 * whole frame when H is singular.
 */
void warpPerspective(const uint8_t *src, uint8_t *dst, uint32_t rows,
                     uint32_t cols, uint32_t ch, const double h[9]);

/** Draw an axis-aligned rectangle outline. */
void drawRect(uint8_t *buf, uint32_t rows, uint32_t cols, uint32_t ch,
              const Box &box, uint8_t color);

/** Render text with a builtin 5x7 bitmap font (ASCII 32..127). */
void drawText(uint8_t *buf, uint32_t rows, uint32_t cols, uint32_t ch,
              uint32_t r, uint32_t c, const std::string &text,
              uint8_t color);

/**
 * 4-connected component labeling of a binary image (any non-zero
 * byte is foreground).
 * @param bboxes  Optional out-param, cleared and then given one box
 *                per component, ordered by each component's first
 *                pixel in raster (row-major) order.
 * @return Number of foreground components.
 */
uint32_t connectedComponents(const uint8_t *bin, uint32_t rows,
                             uint32_t cols,
                             std::vector<Box> *bboxes = nullptr);

/**
 * Exhaustive SSD template match of a grayscale template against a
 * grayscale image. Returns the best score and writes the position.
 */
uint64_t templateMatchBest(const uint8_t *img, uint32_t rows,
                           uint32_t cols, const uint8_t *tmpl,
                           uint32_t trows, uint32_t tcols,
                           uint32_t &best_r, uint32_t &best_c);

/** Horizontal flip. */
void flipHorizontal(const uint8_t *src, uint8_t *dst, uint32_t rows,
                    uint32_t cols, uint32_t ch);

/** dst = clamp(alpha*a + beta*b). */
void addWeighted(const uint8_t *a, const uint8_t *b, uint8_t *dst,
                 size_t n, double alpha, double beta);

/** Min-max normalize to the full 0..255 range. */
void normalizeMinMax(const uint8_t *src, uint8_t *dst, size_t n);

/** 256-bin intensity histogram. */
void histogram256(const uint8_t *src, size_t n, uint32_t out[256]);

/** Per-element absolute difference. */
void absdiff(const uint8_t *a, const uint8_t *b, uint8_t *dst,
             size_t n);

/** Bitwise inversion. */
void invert(const uint8_t *src, uint8_t *dst, size_t n);

/** Generic 3x3 convolution with a float kernel (clamped). */
void convFilter3x3(const uint8_t *src, uint8_t *dst, uint32_t rows,
                   uint32_t cols, uint32_t ch, const float k[9]);

} // namespace freepart::fw::ops

#endif // FREEPART_FW_MINICV_OPS_HH
