#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/string_util.h"

namespace tdmatch {
namespace util {

Result<MmapFile> MmapFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(StrFormat("cannot stat %s: %s", path.c_str(),
                                     std::strerror(err)));
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::InvalidArgument(path + ": not a regular file");
  }

  MmapFile file;
  file.path_ = path;
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ > 0) {
    void* mapped =
        ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapped == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      return Status::IOError(StrFormat("mmap of %s (%zu bytes) failed: %s",
                                       path.c_str(), file.size_,
                                       std::strerror(err)));
    }
    file.data_ = mapped;
  }
  // The mapping keeps its own reference to the file; the descriptor is not
  // needed afterwards.
  ::close(fd);
  return file;
}

void MmapFile::ReleasePages(size_t offset, size_t length) const {
  if (data_ == nullptr || offset >= size_) return;
  length = std::min(length, size_ - offset);
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  // The mapping starts on a page boundary, so offsets round like addresses.
  const size_t begin = (offset + page - 1) / page * page;
  const size_t end = (offset + length) / page * page;
  if (begin >= end) return;
  // Advice only: a failure leaves the pages resident, never wrong.
  ::madvise(static_cast<char*>(data_) + begin, end - begin, MADV_DONTNEED);
}

MmapFile::~MmapFile() { Reset(); }

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(other.data_), size_(other.size_), path_(std::move(other.path_)) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = other.data_;
    size_ = other.size_;
    path_ = std::move(other.path_);
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MmapFile::Reset() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
  }
  size_ = 0;
}

}  // namespace util
}  // namespace tdmatch
