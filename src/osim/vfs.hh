/**
 * @file
 * In-memory virtual file system for the simulated kernel. Backs the
 * data-loading and storing syscalls (openat/read/write/...) that the
 * paper's loading/storing API types are defined by.
 */

#ifndef FREEPART_OSIM_VFS_HH
#define FREEPART_OSIM_VFS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace freepart::osim {

/** A simple path-keyed in-memory file store. */
class Vfs
{
  public:
    /** True if a file exists at path. */
    bool exists(const std::string &path) const;

    /** Create or replace a file with the given contents. */
    void putFile(const std::string &path, std::vector<uint8_t> data);

    /** Full contents of a file; throws util::FatalError if missing. */
    const std::vector<uint8_t> &getFile(const std::string &path) const;

    /** Mutable contents (created empty if missing). */
    std::vector<uint8_t> &openForWrite(const std::string &path);

    /** File size in bytes; 0 if missing. */
    size_t sizeOf(const std::string &path) const;

  private:
    std::map<std::string, std::vector<uint8_t>> files;
};

} // namespace freepart::osim

#endif // FREEPART_OSIM_VFS_HH
