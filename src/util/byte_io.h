#ifndef TDMATCH_UTIL_BYTE_IO_H_
#define TDMATCH_UTIL_BYTE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace tdmatch {
namespace util {

/// \brief Little helpers for the length-prefixed binary wire format shared
/// by the snapshot writer (serve/snapshot.cc) and the serialized index
/// sections (serve/ivf_index.cc): fixed-width integers appended raw in
/// host byte order (the snapshot header's endianness marker detects
/// foreign files), strings as u32 length + bytes.
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
/// Fails when `s` exceeds the u32 length prefix.
Status AppendLengthPrefixed(std::string* out, std::string_view s);

/// \brief Bounds-checked sequential reader over an in-memory byte slice.
/// Every primitive read fails loudly instead of running past the end, so
/// truncated or hostile buffers surface as descriptive errors, never as
/// garbage values or out-of-bounds reads. All multi-byte reads go through
/// memcpy, so the underlying buffer may have any alignment (mmap'd
/// sections included).
class ByteCursor {
 public:
  ByteCursor(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteCursor(std::string_view bytes)
      : ByteCursor(bytes.data(), bytes.size()) {}

  Status ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }

  /// Reads `count` raw IEEE-754 f32 values.
  Status ReadFloats(float* out, size_t count) {
    return ReadRaw(out, count * sizeof(float));
  }

  /// Reads `bytes` raw bytes into `out`.
  Status ReadBytes(void* out, size_t bytes) { return ReadRaw(out, bytes); }

  /// Consumes `bytes` raw bytes without copying them; `*at` points at
  /// them inside the underlying buffer (any alignment).
  Status Skip(size_t bytes, const char** at);

  size_t Remaining() const { return size_ - pos_; }

 private:
  Status ReadRaw(void* out, size_t bytes);

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace util
}  // namespace tdmatch

#endif  // TDMATCH_UTIL_BYTE_IO_H_
