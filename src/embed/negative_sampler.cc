#include "embed/negative_sampler.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace tdmatch {
namespace embed {

void NegativeSampler::Build(const std::vector<uint64_t>& counts,
                            size_t table_size) {
  TDM_CHECK(!counts.empty());
  TDM_CHECK_GT(table_size, 0u);
  table_size_ = table_size;
  const size_t vocab_size = counts.size();
  bounds_.assign(vocab_size, static_cast<uint32_t>(table_size));

  double norm = 0.0;
  for (uint64_t c : counts) norm += std::pow(static_cast<double>(c), 0.75);

  // Mirror of the classic loop
  //   for t: table[t] = i; if (t/T > cum && i+1 < V) { ++i; cum += ...; }
  // recording only the first slot of each word. The double arithmetic is
  // kept identical so the step boundaries land on the same slots.
  size_t i = 0;
  bounds_[0] = 0;
  double cum = std::pow(static_cast<double>(counts[0]), 0.75) / norm;
  for (size_t t = 0; t < table_size; ++t) {
    if (static_cast<double>(t) / static_cast<double>(table_size) > cum &&
        i + 1 < vocab_size) {
      ++i;
      bounds_[i] = static_cast<uint32_t>(t + 1);
      cum += std::pow(static_cast<double>(counts[i]), 0.75) / norm;
    }
  }

  // Bucket width: the largest power of two that still leaves at least
  // the target bucket count (smallest power of two >= 4 x vocab); at
  // width 1 there is one bucket per slot, the cap.
  size_t target = 1;
  while (target < 4 * vocab_size) target <<= 1;
  shift_ = 0;
  while ((target << (shift_ + 1)) <= table_size) ++shift_;
  const size_t num_buckets = ((table_size - 1) >> shift_) + 1;
  first_.resize(num_buckets + 1);
  // One forward walk: the owner of a slot is the last word whose bound
  // is <= the slot (unreached words carry the sentinel and never own).
  size_t owner = 0;
  for (size_t b = 0; b <= num_buckets; ++b) {
    const size_t slot = std::min(b << shift_, table_size - 1);
    while (owner + 1 < vocab_size && bounds_[owner + 1] <= slot) ++owner;
    first_[b] = static_cast<uint32_t>(owner);
  }
}

}  // namespace embed
}  // namespace tdmatch
