#include "osim/vfs.hh"

#include "util/logging.hh"

namespace freepart::osim {

bool
Vfs::exists(const std::string &path) const
{
    return files.count(path) > 0;
}

void
Vfs::putFile(const std::string &path, std::vector<uint8_t> data)
{
    files[path] = std::move(data);
}

const std::vector<uint8_t> &
Vfs::getFile(const std::string &path) const
{
    auto it = files.find(path);
    if (it == files.end())
        util::fatal("vfs: no such file '%s'", path.c_str());
    return it->second;
}

std::vector<uint8_t> &
Vfs::openForWrite(const std::string &path)
{
    return files[path];
}

size_t
Vfs::sizeOf(const std::string &path) const
{
    auto it = files.find(path);
    return it == files.end() ? 0 : it->second.size();
}

} // namespace freepart::osim
