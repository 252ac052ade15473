/**
 * @file
 * Simulated devices: a camera (data-loading source, R(DEV)), a display
 * / GUI subsystem (visualizing sink, W(GUI)), and a network endpoint
 * (the exfiltration channel the §5.3 data-exfiltration attacks use).
 */

#ifndef FREEPART_OSIM_DEVICES_HH
#define FREEPART_OSIM_DEVICES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "osim/types.hh"

namespace freepart::osim {

/**
 * Deterministic synthetic camera. Frames are generated from the frame
 * counter so "video" workloads are reproducible.
 */
class CameraDevice
{
  public:
    CameraDevice(uint32_t width = 320, uint32_t height = 240,
                 uint32_t channels = 3)
        : width_(width), height_(height), channels_(channels)
    {
    }

    /** Generate the next frame's pixel bytes (row-major, interleaved). */
    std::vector<uint8_t> captureFrame();

    uint32_t width() const { return width_; }
    uint32_t height() const { return height_; }
    uint32_t channels() const { return channels_; }
    uint64_t framesCaptured() const { return frameCounter; }

    /** Frame size in bytes. */
    size_t frameBytes() const { return size_t(width_) * height_ * channels_; }

  private:
    uint32_t width_;
    uint32_t height_;
    uint32_t channels_;
    uint64_t frameCounter = 0;
};

/** One imshow()-style display event, recorded by the GUI subsystem. */
struct ShowEvent {
    Pid pid;                 //!< process that displayed
    std::string window;      //!< window name
    uint32_t width;
    uint32_t height;
    uint64_t checksum;       //!< util::wideChecksum of the pixels
};

/** Simulated display / GUI subsystem. */
class DisplayDevice
{
  public:
    /** Record a displayed image. */
    void show(Pid pid, const std::string &window, uint32_t w,
              uint32_t h, const uint8_t *pixels, size_t len);

    const std::vector<ShowEvent> &events() const { return shows; }
    void clear() { shows.clear(); }

    /** Recently-used window names (GUI state, cf. MComix3 case). */
    const std::vector<std::string> &windowNames() const { return names; }

    /** Queue a key press for pollKey()-style APIs to consume. */
    void pushKey(int key) { keys.push_back(key); }

    /** Pop the next queued key press; -1 when none pending. */
    int
    popKey()
    {
        if (keys.empty())
            return -1;
        int k = keys.front();
        keys.erase(keys.begin());
        return k;
    }

  private:
    std::vector<ShowEvent> shows;
    std::vector<std::string> names;
    std::vector<int> keys;
};

/** One send() to a remote destination, recorded by the network. */
struct NetSendEvent {
    Pid pid;                     //!< sending process
    std::string dest;            //!< connected destination
    size_t length;               //!< payload length
    uint64_t checksum;           //!< util::fnv1a64 of the payload
    std::vector<uint8_t> head;   //!< first bytes (attack forensics)
};

/** Simulated network endpoint. Records all outbound traffic. */
class NetworkDevice
{
  public:
    /** Record an outbound payload. */
    void send(Pid pid, const std::string &dest, const uint8_t *data,
              size_t len);

    const std::vector<NetSendEvent> &sends() const { return sent; }
    void clear() { sent.clear(); }

    /** Total bytes that left the machine. */
    size_t bytesSent() const;

  private:
    std::vector<NetSendEvent> sent;
};

} // namespace freepart::osim

#endif // FREEPART_OSIM_DEVICES_HH
