#ifndef TDMATCH_UTIL_MMAP_FILE_H_
#define TDMATCH_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <string>

#include "util/result.h"
#include "util/status.h"

namespace tdmatch {
namespace util {

/// \brief RAII read-only memory mapping of a whole file (POSIX mmap).
///
/// Opening is O(1) in the file size: the kernel maps the pages and faults
/// them in on first touch, so a multi-gigabyte snapshot "loads" instantly
/// and only the bytes actually read cost I/O. The mapping is MAP_PRIVATE
/// read-only; writes through data() are impossible by construction.
///
/// Move-only. The mapping lives until destruction — callers that hand out
/// pointers into it (serve::SnapshotView) must keep the MmapFile alive for
/// as long as the pointers circulate, which is why SnapshotView is shared
/// via shared_ptr.
class MmapFile {
 public:
  /// Maps `path` read-only. Empty files map successfully with size() == 0
  /// and a null data() (mmap of zero bytes is undefined, so none is made).
  static Result<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const char* data() const { return static_cast<const char*>(data_); }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Drops the resident pages of bytes [offset, offset + length) from
  /// this process (madvise MADV_DONTNEED), rounded inward to whole pages,
  /// so the pages at either end that hold bytes outside the range stay.
  /// The bytes themselves do not change: the mapping is MAP_PRIVATE and
  /// read-only, so it holds no private copies, and a later read faults
  /// the page back in from the page cache (or the file). That holds only
  /// while the file's bytes do not change in place, which SnapshotIo
  /// guarantees by replacing files with rename. Const because it changes
  /// residency, never contents; safe alongside concurrent readers.
  void ReleasePages(size_t offset, size_t length) const;

 private:
  void Reset();

  void* data_ = nullptr;
  size_t size_ = 0;
  std::string path_;
};

}  // namespace util
}  // namespace tdmatch

#endif  // TDMATCH_UTIL_MMAP_FILE_H_
