#include "fw/mat.hh"

#include <cstring>

#include "util/logging.hh"

namespace freepart::fw {

MatView::MatView(const osim::AddressSpace &space, const MatDesc &d)
    : desc(d)
{
    ro = space.checkedSpan(desc.addr, desc.byteLen());
}

MatView::MatView(osim::AddressSpace &space, const MatDesc &d,
                 bool writable)
    : desc(d)
{
    if (writable) {
        rw = space.checkedSpan(desc.addr, desc.byteLen(), true);
        ro = rw;
    } else {
        ro = space.checkedSpan(desc.addr, desc.byteLen());
    }
}

uint8_t *
MatView::dataMutable()
{
    if (!rw)
        util::panic("MatView: mutable access through read-only view");
    return rw;
}

std::vector<uint8_t>
matToBytes(const osim::AddressSpace &space, const MatDesc &desc)
{
    std::vector<uint8_t> out(kMatHeaderBytes + desc.byteLen());
    std::memcpy(out.data(), &desc.rows, sizeof(uint32_t));
    std::memcpy(out.data() + 4, &desc.cols, sizeof(uint32_t));
    std::memcpy(out.data() + 8, &desc.channels, sizeof(uint32_t));
    space.read(desc.addr, out.data() + kMatHeaderBytes,
               desc.byteLen());
    return out;
}

MatDesc
parseMatHeader(const std::vector<uint8_t> &bytes, const char *what)
{
    if (bytes.size() < kMatHeaderBytes)
        util::fatal("%s: truncated header (%zu bytes)", what,
                    bytes.size());
    MatDesc desc;
    std::memcpy(&desc.rows, bytes.data(), sizeof(uint32_t));
    std::memcpy(&desc.cols, bytes.data() + 4, sizeof(uint32_t));
    std::memcpy(&desc.channels, bytes.data() + 8, sizeof(uint32_t));
    if (bytes.size() < kMatHeaderBytes + desc.byteLen())
        util::fatal("%s: truncated pixels (%zu < %zu)", what,
                    bytes.size() - kMatHeaderBytes, desc.byteLen());
    return desc;
}

} // namespace freepart::fw
