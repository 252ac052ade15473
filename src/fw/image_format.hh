/**
 * @file
 * The on-disk image format used by MiniCV's imread/imwrite ("FPIM"):
 * a fixed header, raw interleaved pixels, and — in crafted malicious
 * files — a trailing exploit section that a *vulnerable* decoder
 * executes (see fw/vuln.hh). Benign decoders ignore trailing bytes,
 * mirroring how real image-parser CVEs live in the decode path.
 */

#ifndef FREEPART_FW_IMAGE_FORMAT_HH
#define FREEPART_FW_IMAGE_FORMAT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "fw/vuln.hh"

namespace freepart::fw {

/** Decoded FPIM file contents. */
struct DecodedImage {
    uint32_t rows = 0;
    uint32_t cols = 0;
    uint32_t channels = 0;
    std::vector<uint8_t> pixels;
    /** Raw trailing bytes (candidate exploit payload), if any. */
    std::vector<uint8_t> trailer;
};

/** Encode an image (optionally with a trailing exploit payload). */
std::vector<uint8_t>
encodeImageFile(uint32_t rows, uint32_t cols, uint32_t channels,
                const std::vector<uint8_t> &pixels,
                const std::optional<ExploitPayload> &payload =
                    std::nullopt);

/**
 * Decode an FPIM file. Throws util::FatalError on bad magic or a
 * truncated pixel section (a *benign* decoder rejects those).
 */
DecodedImage decodeImageFile(const std::vector<uint8_t> &bytes);

/** True if bytes look like an FPIM file (magic check only). */
bool looksLikeImageFile(const std::vector<uint8_t> &bytes);

/**
 * Generate a deterministic synthetic test image: the byte at
 * (r, c, ch) is (r*5 + c*3 + ch*17 + seed*13) mod 256.
 */
std::vector<uint8_t> synthPixels(uint32_t rows, uint32_t cols,
                                 uint32_t channels, uint64_t seed);

} // namespace freepart::fw

#endif // FREEPART_FW_IMAGE_FORMAT_HH
