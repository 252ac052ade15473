#include "fw/image_format.hh"

#include <cstring>

#include "util/logging.hh"

namespace freepart::fw {

namespace {

constexpr uint32_t kImageMagic = 0x4d495046; // "FPIM"
constexpr size_t kHeaderBytes = 4 * sizeof(uint32_t);

} // namespace

std::vector<uint8_t>
encodeImageFile(uint32_t rows, uint32_t cols, uint32_t channels,
                const std::vector<uint8_t> &pixels,
                const std::optional<ExploitPayload> &payload)
{
    size_t expect = static_cast<size_t>(rows) * cols * channels;
    if (pixels.size() != expect)
        util::fatal("encodeImageFile: %zu pixels for %ux%ux%u",
                    pixels.size(), rows, cols, channels);
    std::vector<uint8_t> out;
    out.reserve(kHeaderBytes + pixels.size() + 128);
    out.resize(kHeaderBytes);
    std::memcpy(out.data(), &kImageMagic, 4);
    std::memcpy(out.data() + 4, &rows, 4);
    std::memcpy(out.data() + 8, &cols, 4);
    std::memcpy(out.data() + 12, &channels, 4);
    out.insert(out.end(), pixels.begin(), pixels.end());
    if (payload) {
        std::vector<uint8_t> blob = encodePayload(*payload);
        out.insert(out.end(), blob.begin(), blob.end());
    }
    return out;
}

DecodedImage
decodeImageFile(const std::vector<uint8_t> &bytes)
{
    if (bytes.size() < kHeaderBytes)
        util::fatal("decodeImageFile: truncated header");
    uint32_t magic = 0;
    std::memcpy(&magic, bytes.data(), 4);
    if (magic != kImageMagic)
        util::fatal("decodeImageFile: bad magic 0x%08x", magic);
    DecodedImage img;
    std::memcpy(&img.rows, bytes.data() + 4, 4);
    std::memcpy(&img.cols, bytes.data() + 8, 4);
    std::memcpy(&img.channels, bytes.data() + 12, 4);
    size_t pixel_len =
        static_cast<size_t>(img.rows) * img.cols * img.channels;
    if (bytes.size() < kHeaderBytes + pixel_len)
        util::fatal("decodeImageFile: truncated pixels (%zu < %zu)",
                    bytes.size() - kHeaderBytes, pixel_len);
    img.pixels.assign(bytes.begin() +
                          static_cast<ptrdiff_t>(kHeaderBytes),
                      bytes.begin() + static_cast<ptrdiff_t>(
                                          kHeaderBytes + pixel_len));
    img.trailer.assign(
        bytes.begin() + static_cast<ptrdiff_t>(kHeaderBytes +
                                               pixel_len),
        bytes.end());
    return img;
}

bool
looksLikeImageFile(const std::vector<uint8_t> &bytes)
{
    if (bytes.size() < 4)
        return false;
    uint32_t magic = 0;
    std::memcpy(&magic, bytes.data(), 4);
    return magic == kImageMagic;
}

std::vector<uint8_t>
synthPixels(uint32_t rows, uint32_t cols, uint32_t channels,
            uint64_t seed)
{
    // Pixel (r, c, ch) is the low byte of r*5 + c*3 + ch*17 + seed*13,
    // and a low byte only depends on the low bytes of the terms: row 0
    // is the column pattern plus seed*13, and row r adds r*5 to it.
    const size_t row = static_cast<size_t>(cols) * channels;
    std::vector<uint8_t> out(rows * row);
    if (out.empty())
        return out;
    const uint8_t base = static_cast<uint8_t>(seed * 13);
    size_t i = 0;
    for (uint32_t c = 0; c < cols; ++c)
        for (uint32_t ch = 0; ch < channels; ++ch)
            out[i++] = static_cast<uint8_t>(c * 3 + ch * 17 + base);
    for (uint32_t r = 1; r < rows; ++r) {
        const uint8_t add = static_cast<uint8_t>(r * 5);
        const uint8_t *first = out.data();
        uint8_t *o = out.data() + r * row;
        for (size_t j = 0; j < row; ++j)
            o[j] = static_cast<uint8_t>(first[j] + add);
    }
    return out;
}

} // namespace freepart::fw
