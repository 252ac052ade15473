#include "fw/tensor.hh"

#include <cstring>

#include "util/logging.hh"

namespace freepart::fw {

std::vector<uint8_t>
tensorToBytes(const osim::AddressSpace &space, const TensorDesc &desc)
{
    uint32_t rank = static_cast<uint32_t>(desc.shape.size());
    std::vector<uint8_t> out(sizeof(uint32_t) * (1 + rank) +
                             desc.byteLen());
    std::memcpy(out.data(), &rank, sizeof(uint32_t));
    std::memcpy(out.data() + sizeof(uint32_t), desc.shape.data(),
                rank * sizeof(uint32_t));
    space.read(desc.addr, out.data() + sizeof(uint32_t) * (1 + rank),
               desc.byteLen());
    return out;
}

TensorDesc
parseTensorHeader(const std::vector<uint8_t> &bytes, const char *what)
{
    if (bytes.size() < sizeof(uint32_t))
        util::fatal("%s: truncated header", what);
    uint32_t rank = 0;
    std::memcpy(&rank, bytes.data(), sizeof(uint32_t));
    if (rank > 8)
        util::fatal("%s: implausible rank %u", what, rank);
    size_t header = sizeof(uint32_t) * (1 + rank);
    if (bytes.size() < header)
        util::fatal("%s: truncated shape", what);
    TensorDesc desc;
    desc.shape.resize(rank);
    size_t len = sizeof(float);
    for (uint32_t i = 0; i < rank; ++i) {
        std::memcpy(&desc.shape[i],
                    bytes.data() + sizeof(uint32_t) * (1 + i),
                    sizeof(uint32_t));
        if (__builtin_mul_overflow(len, desc.shape[i], &len))
            util::fatal("%s: element count overflows", what);
    }
    if (bytes.size() - header < desc.byteLen())
        util::fatal("%s: truncated data (%zu < %zu)", what,
                    bytes.size(), header + desc.byteLen());
    return desc;
}

TensorDesc
tensorFromBytes(osim::AddressSpace &space,
                const std::vector<uint8_t> &bytes,
                const std::string &label)
{
    TensorDesc desc = parseTensorHeader(bytes, "tensorFromBytes");
    desc.addr = space.alloc(desc.byteLen() ? desc.byteLen() : 1,
                            osim::PermRW, label);
    space.write(desc.addr,
                bytes.data() + sizeof(uint32_t) * (1 + desc.shape.size()),
                desc.byteLen());
    return desc;
}

std::vector<float>
tensorRead(const osim::AddressSpace &space, const TensorDesc &desc)
{
    std::vector<float> out(desc.elements());
    space.read(desc.addr, out.data(), desc.byteLen());
    return out;
}

void
tensorWrite(osim::AddressSpace &space, const TensorDesc &desc,
            const std::vector<float> &values)
{
    if (values.size() != desc.elements())
        util::panic("tensorWrite: %zu values for %zu elements",
                    values.size(), desc.elements());
    space.write(desc.addr, values.data(), desc.byteLen());
}

} // namespace freepart::fw
