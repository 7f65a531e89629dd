#include "testing/mutate.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace tdmatch {
namespace testutil {

std::string Mutate(const std::string& input, const MutationLayout& layout,
                   util::Rng* rng) {
  std::string out = input;
  const size_t frozen = std::min(layout.frozen, out.size());
  const size_t tail = out.size() - frozen;
  const std::vector<size_t>& fields = layout.length_fields;
  uint64_t kind = rng->UniformInt(fields.empty() ? 3 : 4);
  if (fields.empty() && kind == 2) kind = 3;
  switch (kind) {
    case 0:  // bit flips
      if (out.empty()) break;
      for (uint64_t f = 1 + rng->UniformInt(3); f > 0; --f) {
        const size_t bit = rng->UniformInt(8 * out.size());
        out[bit / 8] = static_cast<char>(out[bit / 8] ^ (1 << (bit % 8)));
      }
      break;
    case 1:  // truncation
      if (tail > 0) out.resize(frozen + rng->UniformInt(tail));
      break;
    case 2: {  // an inflated length field
      const size_t at = fields[rng->UniformInt(fields.size())];
      uint32_t v = 0;
      std::memcpy(&v, &out[at], sizeof(v));
      const uint32_t inflated[] = {
          v + 1, v + static_cast<uint32_t>(1 + rng->UniformInt(64)),
          static_cast<uint32_t>(out.size() - at), 0x7fffffffu, 0xffffffffu,
          static_cast<uint32_t>(rng->Next())};
      v = inflated[rng->UniformInt(6)];
      std::memcpy(&out[at], &v, sizeof(v));
      break;
    }
    default: {  // splice a chunk over or into another place
      if (tail < 2) break;
      const size_t len =
          std::min<size_t>(1 + rng->UniformInt(48), tail - 1);
      const size_t from = frozen + rng->UniformInt(tail - len);
      const std::string chunk = out.substr(from, len);
      const size_t to = frozen + rng->UniformInt(tail - len);
      if (rng->Bernoulli(0.5)) {
        out.replace(to, len, chunk);
      } else {
        out.insert(to, chunk);
      }
      break;
    }
  }
  return out;
}

}  // namespace testutil
}  // namespace tdmatch
