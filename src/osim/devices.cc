#include "osim/devices.hh"

#include "util/checksum.hh"

namespace freepart::osim {

std::vector<uint8_t>
CameraDevice::captureFrame()
{
    std::vector<uint8_t> frame(frameBytes());
    uint64_t f = frameCounter++;
    size_t i = 0;
    for (uint32_t y = 0; y < height_; ++y) {
        for (uint32_t x = 0; x < width_; ++x) {
            for (uint32_t c = 0; c < channels_; ++c) {
                frame[i++] = static_cast<uint8_t>(
                    (x * 3 + y * 7 + f * 11 + c * 31) & 0xff);
            }
        }
    }
    return frame;
}

void
DisplayDevice::show(Pid pid, const std::string &window, uint32_t w,
                    uint32_t h, const uint8_t *pixels, size_t len)
{
    shows.push_back({pid, window, w, h, util::wideChecksum(pixels, len)});
    for (const auto &n : names)
        if (n == window)
            return;
    names.push_back(window);
}

void
NetworkDevice::send(Pid pid, const std::string &dest,
                    const uint8_t *data, size_t len)
{
    NetSendEvent ev;
    ev.pid = pid;
    ev.dest = dest;
    ev.length = len;
    ev.checksum = util::fnv1a64(data, len);
    size_t head = len < 64 ? len : 64;
    ev.head.assign(data, data + head);
    sent.push_back(std::move(ev));
}

size_t
NetworkDevice::bytesSent() const
{
    size_t total = 0;
    for (const auto &ev : sent)
        total += ev.length;
    return total;
}

} // namespace freepart::osim
