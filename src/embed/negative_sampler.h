#ifndef TDMATCH_EMBED_NEGATIVE_SAMPLER_H_
#define TDMATCH_EMBED_NEGATIVE_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tdmatch {
namespace embed {

/// \brief Unigram^0.75 negative sampler in boundary form.
///
/// The classic word2vec sampler materializes a table of `table_size`
/// word ids and indexes it with a uniform draw. That table is megabytes
/// (1<<20 entries here), so every negative sample is a random read into
/// cold memory — measured at roughly half of all Word2Vec training time
/// in this codebase. The table is a nondecreasing step function of the
/// slot index, so it is fully described by one boundary offset per word:
/// `bounds_[i]` is the first slot the classic construction would assign
/// to word i.
///
/// Sampling looks the slot up in two steps, both over small arrays:
///  * bucket index — the slot range is cut into power-of-two-wide
///    buckets (the bucket count is the smallest power of two >= 4 x
///    vocab, capped at `table_size`), and `first_[b]` is the word that
///    owns the first slot of bucket b, so `first_[b] .. first_[b + 1]`
///    brackets every word that can own a slot of the bucket;
///  * in-bucket search — the same branchless binary search over
///    `bounds_`, but only inside that bracket. With 4 buckets per word
///    most brackets hold one word and the search takes zero steps; it
///    only runs where several boundaries crowd one bucket.
/// The step function is unchanged, so every slot returns the id the
/// classic table holds there (goldens in embed tests compare every slot).
/// Memory is `vocab` bounds plus the bucket index, which never holds
/// more than `table_size + 1` entries (all u32): 4 to 8 entries per word,
/// and never more than the classic table's size plus one slot.
class NegativeSampler {
 public:
  NegativeSampler() = default;

  /// Builds the boundary table with the classic 3/4-power smoothing,
  /// replicating the incremental table construction of word2vec.c (and of
  /// the previous in-repo implementation) exactly, then the bucket index
  /// over it.
  void Build(const std::vector<uint64_t>& counts, size_t table_size);

  /// Word id for table slot `slot` (must be < table_size). Equivalent to
  /// `table[slot]` of the materialized table.
  int32_t Sample(uint64_t slot) const {
    // Last i in the bucket's bracket with bounds_[i] <= slot, branchless
    // binary search; bounds_[first_[bucket]] <= slot always holds.
    const uint32_t s = static_cast<uint32_t>(slot);
    const uint32_t bucket = s >> shift_;
    const uint32_t* b = bounds_.data();
    size_t lo = first_[bucket];
    size_t len = first_[bucket + 1] - lo + 1;
    while (len > 1) {
      const size_t half = len / 2;
      lo += (b[lo + half] <= s) ? half : 0;
      len -= half;
    }
    return static_cast<int32_t>(lo);
  }

  size_t table_size() const { return table_size_; }
  bool built() const { return !bounds_.empty(); }

 private:
  /// bounds_[i] = first slot of word i; words the classic construction
  /// never reaches keep the sentinel table_size_ (never sampled).
  std::vector<uint32_t> bounds_;
  /// first_[b] = word owning slot b << shift_; one entry past the last
  /// bucket holds the owner of the table's last slot.
  std::vector<uint32_t> first_;
  /// log2 of the bucket width in slots.
  uint32_t shift_ = 0;
  size_t table_size_ = 0;
};

}  // namespace embed
}  // namespace tdmatch

#endif  // TDMATCH_EMBED_NEGATIVE_SAMPLER_H_
