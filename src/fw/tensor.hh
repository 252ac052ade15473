/**
 * @file
 * Tensor: the MiniDNN float-matrix data structure (analogue of the
 * Caffe/PyTorch/TensorFlow tensors the paper's ML frameworks use).
 * Element data lives in a simulated process's address space, like Mat.
 */

#ifndef FREEPART_FW_TENSOR_HH
#define FREEPART_FW_TENSOR_HH

#include <cstdint>
#include <numeric>
#include <vector>

#include "osim/address_space.hh"
#include "osim/types.hh"

namespace freepart::fw {

/** Descriptor of a materialized float tensor in one address space. */
struct TensorDesc {
    std::vector<uint32_t> shape; //!< e.g. {N, C, H, W}
    osim::Addr addr = osim::kNullAddr;

    /** Number of float elements. */
    size_t
    elements() const
    {
        size_t n = 1;
        for (uint32_t d : shape)
            n *= d;
        return shape.empty() ? 0 : n;
    }

    /** Buffer length in bytes. */
    size_t byteLen() const { return elements() * sizeof(float); }

    bool valid() const { return addr != osim::kNullAddr; }
};

/** Serialize header (rank + dims) + elements for RPC blob transfer. */
std::vector<uint8_t> tensorToBytes(const osim::AddressSpace &space,
                                   const TensorDesc &desc);

/** Shape (addr unset) of serialized tensor bytes, after checking the
 *  rank is at most 8, the byte count does not overflow and every dim
 *  and element is inside `bytes`; else util::FatalError naming `what`. */
TensorDesc parseTensorHeader(const std::vector<uint8_t> &bytes,
                             const char *what);

/** Materialize serialized bytes as a new tensor allocation. */
TensorDesc tensorFromBytes(osim::AddressSpace &space,
                           const std::vector<uint8_t> &bytes,
                           const std::string &label = "tensor");

/** Read all elements into a host vector (permission-checked). */
std::vector<float> tensorRead(const osim::AddressSpace &space,
                              const TensorDesc &desc);

/** Write elements from a host vector (permission-checked). */
void tensorWrite(osim::AddressSpace &space, const TensorDesc &desc,
                 const std::vector<float> &values);

} // namespace freepart::fw

#endif // FREEPART_FW_TENSOR_HH
