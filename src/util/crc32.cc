#include "util/crc32.h"

#include <array>

namespace tdmatch {
namespace util {

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// The slicing-by-8 lookup tables for the reflected polynomial, computed
/// once at first use. t[0] is the byte-at-a-time (Sarwate) table; t[k][b]
/// is the CRC of byte b followed by k zero bytes, so one step can fold
/// eight input bytes with eight independent lookups.
const Crc32Tables& Crc32TablesInstance() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = t[k - 1][i];
        t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return t;
  }();
  return tables;
}

/// Little-endian 32-bit load from bytes: one mov on x86-64, and correct on
/// any host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const Crc32Tables& t = Crc32TablesInstance();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace util
}  // namespace tdmatch
