/**
 * @file
 * Mat: the image-matrix data structure of MiniCV (the analogue of
 * OpenCV's cv::Mat the paper hooks in §4.3). Pixel data lives in a
 * simulated process's address space, so page permissions apply to
 * every element access — this is what makes the temporal read-only
 * protection (Fig. 3) bite.
 */

#ifndef FREEPART_FW_MAT_HH
#define FREEPART_FW_MAT_HH

#include <cstdint>
#include <vector>

#include "osim/address_space.hh"
#include "osim/types.hh"

namespace freepart::fw {

/** Descriptor of a materialized matrix inside one address space. */
struct MatDesc {
    uint32_t rows = 0;
    uint32_t cols = 0;
    uint32_t channels = 1;
    osim::Addr addr = osim::kNullAddr; //!< pixel buffer base

    /** Pixel buffer length in bytes (u8 elements). */
    size_t
    byteLen() const
    {
        return static_cast<size_t>(rows) * cols * channels;
    }

    /** Number of pixel elements. */
    size_t
    elements() const
    {
        return byteLen();
    }

    bool valid() const { return addr != osim::kNullAddr && rows > 0; }
};

/**
 * Borrowing accessor for a Mat's pixels through its address space.
 * Obtaining a view performs one up-front permission check over the
 * whole buffer (read or read/write), equivalent to a bulk access.
 */
class MatView
{
  public:
    /** Read-only view. @throws osim::MemFault on protected pages. */
    MatView(const osim::AddressSpace &space, const MatDesc &desc);

    /** Mutable view. @throws osim::MemFault on protected pages. */
    MatView(osim::AddressSpace &space, const MatDesc &desc,
            bool writable);

    uint32_t rows() const { return desc.rows; }
    uint32_t cols() const { return desc.cols; }
    uint32_t channels() const { return desc.channels; }
    size_t byteLen() const { return desc.byteLen(); }

    const uint8_t *data() const { return ro; }
    uint8_t *dataMutable();

    /** Pixel accessor (channel-interleaved, row-major). */
    uint8_t
    at(uint32_t r, uint32_t c, uint32_t ch = 0) const
    {
        return ro[(static_cast<size_t>(r) * desc.cols + c) *
                      desc.channels +
                  ch];
    }

    /** Mutable pixel accessor. */
    void
    set(uint32_t r, uint32_t c, uint32_t ch, uint8_t v)
    {
        dataMutable()[(static_cast<size_t>(r) * desc.cols + c) *
                          desc.channels +
                      ch] = v;
    }

  private:
    MatDesc desc;
    const uint8_t *ro = nullptr;
    uint8_t *rw = nullptr;
};

/** Serialize header + pixels (for eager RPC blob transfers). */
std::vector<uint8_t> matToBytes(const osim::AddressSpace &space,
                                const MatDesc &desc);

/** Shape (addr unset) of serialized Mat bytes, after checking the
 *  header and every pixel are inside `bytes`; else util::FatalError
 *  naming `what`. */
MatDesc parseMatHeader(const std::vector<uint8_t> &bytes,
                       const char *what);

/** Header-only length check: bytes needed for rows x cols x ch. */
constexpr size_t kMatHeaderBytes = 3 * sizeof(uint32_t);

} // namespace freepart::fw

#endif // FREEPART_FW_MAT_HH
