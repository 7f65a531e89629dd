#ifndef TDMATCH_EMBED_BLOCK_SHARDER_H_
#define TDMATCH_EMBED_BLOCK_SHARDER_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "embed/negative_sampler.h"
#include "util/rng.h"
#include "util/simd/kernels.h"
#include "util/thread_pool.h"

namespace tdmatch {
namespace embed {

/// \file
/// The one deterministic block-parallel SGD core behind the Word2Vec and
/// Doc2Vec trainers.
///
/// The schedule: sentences/docs are partitioned into fixed-size *blocks*
/// (kItemsPerBlock items), blocks into fixed-size *groups*
/// (kBlocksPerGroup blocks). Within a group, workers claim blocks with a
/// lock-free ticket counter and train each block against the shared
/// weights *frozen at group start*, accumulating all updates in a
/// per-block sparse delta buffer (SparseDelta) per shared matrix. When
/// every block of the group has finished, the deltas are merged into the
/// shared weights in canonical block order. Each block draws subsampling
/// / window / negative samples exclusively from its own seed-derived RNG
/// stream (BlockSeed).
///
/// BlockScheduler owns all of that machinery: the per-(block, matrix)
/// deltas, the worker slot maps, the touch counts, capture, the weighted
/// merge and its timing. A trainer hands it the shared matrices once and
/// supplies only the per-block compute, which reads and writes rows
/// through BlockRows and runs its positive-plus-negatives updates through
/// NegativeSampling::Update (one loop for CBOW, skip-gram and Doc2Vec).
///
/// The merge damps the sum: each row's delta is scaled by
/// 1/sqrt(blocks of the group that touched the row). A plain sum
/// multiplies the effective learning rate on hot rows by the group size
/// — every block pushes the same frozen weights in the same direction
/// with none of sequential SGD's saturation feedback — which
/// demonstrably diverges to NaN on walk corpora (small vocab, every row
/// hot). A full average (1/count) is stable but under-trains hot rows
/// by the group size, measurably hurting end-to-end match quality. The
/// square root is the classic variance-style compromise: rows touched
/// by a single block keep their full update, hot rows keep most of
/// their per-group progress while staying inside the stable step-size
/// regime (both end-to-end MRR and divergence were verified
/// empirically).
///
/// Because the block geometry, the per-block streams, and the merge order
/// are all independent of the thread count, the trained weights are
/// bit-identical for `threads = 1..N`, across runs, and across machines
/// with the same toolchain. Unlike the classic chunked SYNC_SGD design
/// (a mutex around every chunk's weight update), no lock is ever taken on
/// the weights: the group barrier separates the read phase from the
/// ordered merge phase.

/// Items (sentences / docs) per block. Small enough that within-group
/// staleness (blocks of one group never see each other's updates) stays
/// negligible, large enough that copy-on-touch row copies amortize.
constexpr size_t kItemsPerBlock = 4;

/// Blocks per merge group — the unit of parallelism. Fixed (never derived
/// from the thread count) so the schedule is thread-count invariant. Kept
/// small (one group = 32 items) because SGD quality degrades with group
/// staleness: on corpora that fit in a single group every block of an
/// epoch would otherwise train against the same frozen weights.
constexpr size_t kBlocksPerGroup = 8;

/// Derives the RNG seed of one block's private stream. `stream_salt`
/// separates trainers (Word2Vec vs Doc2Vec) so they never share streams
/// even under the same user seed.
inline uint64_t BlockSeed(uint64_t seed, uint64_t stream_salt, uint64_t epoch,
                          uint64_t block) {
  uint64_t x = seed ^ stream_salt;
  x += 0x9e3779b97f4a7c15ULL * (epoch + 1);
  x += 0xbf58476d1ce4e5b9ULL * (block + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Linearly decayed learning rate after `words_done` of `total_steps`
/// training words, clamped at 1e-4 of the initial rate (the classic
/// word2vec floor). Monotone non-increasing in `words_done`; the trainers
/// evaluate it once per sentence from an exact prefix count (the previous
/// implementation only refreshed the count when it crossed an exact
/// 1024-token multiple, which stalled the decay on fixed-length walk
/// corpora).
inline float DecayedLr(float initial_lr, uint64_t words_done,
                       uint64_t total_steps) {
  float lr = initial_lr * (1.0f - static_cast<float>(words_done) /
                                      static_cast<float>(total_steps + 1));
  const float min_lr = initial_lr * 1e-4f;
  return lr < min_lr ? min_lr : lr;
}

/// Sigmoid lookup-table grid: kSigmoidTableSize centers spanning
/// [-kMaxExp, kMaxExp] *inclusive*. The count is odd so the middle center
/// sits exactly at 0 and FastSigmoid(0) == 0.5. Build and lookup share
/// this one grid (the seed implementation built centers on an
/// endpoint-exclusive grid but indexed on an inclusive one, shifting
/// every lookup by up to one cell).
constexpr int kSigmoidTableSize = 1025;
constexpr float kMaxExp = 6.0f;

/// The precomputed table; entry i is sigmoid of the i-th grid center.
const float* SigmoidTable();

/// Table sigmoid: nearest-center lookup on the SigmoidTable grid. The
/// negated-comparison clamp also routes NaN to 0 instead of indexing the
/// table out of bounds.
inline float FastSigmoid(float x) {
  if (x >= kMaxExp) return 1.0f;
  if (!(x > -kMaxExp)) return 0.0f;
  const int idx = static_cast<int>(
      (x / kMaxExp + 1.0f) * (0.5f * (kSigmoidTableSize - 1)) + 0.5f);
  return SigmoidTable()[idx];
}

/// \brief Per-block sparse overlay of one shared weight matrix.
///
/// During block training every row access goes through Row(), which
/// copies the shared row into block-local storage on first touch — the
/// block then trains on its private copies, so within-block SGD stays
/// fully sequential while the shared weights are only ever *read*.
/// Capture() turns the local copies into deltas (local − shared) and
/// MergeWeighted() adds them back; row storage is chunked so returned
/// pointers stay valid across later touches.
class SparseDelta {
 public:
  /// Rows per storage chunk; chunks are retained across Reset() so steady
  /// state allocates nothing.
  static constexpr size_t kRowsPerChunk = 256;

  /// Binds the buffer to a shared matrix for one block. `slot_map` state
  /// is owned by the caller (see Row).
  void Reset(float* shared, int dim) {
    if (dim != dim_) chunks_.clear();
    shared_ = shared;
    dim_ = dim;
    touched_.clear();
  }

  /// Block-local working copy of `row`. `slot_map` is the caller's
  /// row→slot scratch (one per worker, sized to the matrix rows,
  /// initialized to -1); Capture() resets the entries this block used.
  float* Row(int32_t row, int32_t* slot_map) {
    const int32_t s = slot_map[row];
    if (s >= 0) return SlotPtr(static_cast<size_t>(s));
    const size_t slot = touched_.size();
    slot_map[row] = static_cast<int32_t>(slot);
    touched_.push_back(row);
    if (slot >= chunks_.size() * kRowsPerChunk) {
      chunks_.emplace_back(
          new float[kRowsPerChunk * static_cast<size_t>(dim_)]);
    }
    float* p = SlotPtr(slot);
    std::memcpy(p, shared_ + static_cast<size_t>(row) * dim_,
                static_cast<size_t>(dim_) * sizeof(float));
    return p;
  }

  /// Converts every touched local row into a delta against the shared
  /// weights (still frozen at group start) and clears the caller's slot
  /// map for the next block. The subtraction runs as the dispatched
  /// `axpy(-1, base, local)`, which is exact: `-1 * x` is exact and IEEE
  /// defines `y - x` as `y + (-x)`, so every ISA writes the bits of the
  /// plain `local - base` loop.
  void Capture(int32_t* slot_map, const simd::Kernels& k) {
    const size_t dn = static_cast<size_t>(dim_);
    for (size_t i = 0; i < touched_.size(); ++i) {
      const float* base = shared_ + static_cast<size_t>(touched_[i]) * dn;
      k.axpy(-1.0f, base, SlotPtr(i), dn);
      slot_map[touched_[i]] = -1;
    }
  }

  /// Adds the captured deltas into the shared matrix, each row scaled by
  /// 1/sqrt(counts[row]) where counts[row] is the number of blocks in the
  /// merge group that touched the row — see the file comment on why the
  /// sum must be damped. Called in canonical block order by the merge
  /// phase. Each row is the dispatched `axpy(inv, delta, base)`: every
  /// ISA rounds the product and then the sum, never fused (kernels.h), so
  /// the result is the bits of `base + delta * inv` on either path.
  void MergeWeighted(const uint32_t* counts, const simd::Kernels& k) const {
    const size_t dn = static_cast<size_t>(dim_);
    for (size_t i = 0; i < touched_.size(); ++i) {
      const int32_t row = touched_[i];
      const float inv =
          1.0f / std::sqrt(static_cast<float>(counts[row]));
      k.axpy(inv, SlotPtr(i), shared_ + static_cast<size_t>(row) * dn, dn);
    }
  }

  /// Rows this block copied (and possibly updated), in first-touch order.
  const std::vector<int32_t>& touched() const { return touched_; }

  size_t touched_rows() const { return touched_.size(); }

 private:
  float* SlotPtr(size_t slot) {
    return chunks_[slot / kRowsPerChunk].get() +
           (slot % kRowsPerChunk) * static_cast<size_t>(dim_);
  }
  const float* SlotPtr(size_t slot) const {
    return chunks_[slot / kRowsPerChunk].get() +
           (slot % kRowsPerChunk) * static_cast<size_t>(dim_);
  }

  float* shared_ = nullptr;
  int dim_ = 0;
  std::vector<int32_t> touched_;
  std::vector<std::unique_ptr<float[]>> chunks_;
};

/// A shared weight matrix the schedule trains: `rows` x `dim` floats.
struct SharedMatrix {
  float* data = nullptr;
  size_t rows = 0;
  int dim = 0;
};

/// The block-local view one compute call trains through: Row(m, r) is the
/// block's working copy of row `r` of shared matrix `m` (copied on first
/// touch, see SparseDelta::Row).
class BlockRows {
 public:
  BlockRows(SparseDelta* deltas, std::vector<int32_t>* slot_maps)
      : deltas_(deltas), slot_maps_(slot_maps) {}

  float* Row(size_t m, int32_t r) {
    return deltas_[m].Row(r, slot_maps_[m].data());
  }

 private:
  SparseDelta* deltas_;              // the block's delta per matrix
  std::vector<int32_t>* slot_maps_;  // the worker's slot map per matrix
};

/// \brief One positive-plus-negatives SGD update, the inner loop of CBOW,
/// skip-gram and Doc2Vec training.
///
/// Update() trains input vector `in` toward output row `positive` of
/// matrix `out_matrix` and away from `negative` rows drawn from `sampler`
/// at table slot `rng.Next() & slot_mask` (a draw equal to `positive` is
/// skipped). Each output row is updated in place; the input gradient is
/// written to `grad` (overwritten, not added to) for the caller to apply.
/// `Sigmoid` is the trainer's activation, a template argument so it
/// inlines.
template <float (*Sigmoid)(float)>
struct NegativeSampling {
  const NegativeSampler& sampler;
  uint64_t slot_mask;
  int negative;
  size_t out_matrix;
  const simd::Kernels& k;
  size_t dim;

  void Update(BlockRows& rows, util::Rng& rng, int32_t positive,
              const float* in, float lr, float* grad) const {
    for (int n = 0; n <= negative; ++n) {
      int32_t target = positive;
      float label = 1.0f;
      if (n > 0) {
        target = sampler.Sample(rng.Next() & slot_mask);
        if (target == positive) continue;
        label = 0.0f;
      }
      // `in` is an input-matrix row or caller scratch, never an output
      // row, so the two never alias.
      float* const out = rows.Row(out_matrix, target);
      const float g = (label - Sigmoid(k.dot(in, out, dim))) * lr;
      // n == 0 always runs, so assigning there replaces a zero-fill.
      if (n == 0) {
        k.scale_into(g, out, grad, dim);
      } else {
        k.axpy(g, out, grad, dim);
      }
      k.axpy(g, in, out, dim);
    }
  }
};

/// \brief Runs the deterministic block schedule over a corpus.
///
/// Takes the shared matrices once and owns everything between them and
/// the trainer's per-block compute: the worker pool (created only when
/// both threads > 1 and there is more than one block), a SparseDelta per
/// (block of a group, matrix), one slot map per (worker, matrix), and the
/// per-row touch counts. For every block it resets the block's deltas,
/// calls compute(block, worker, rows) — concurrently, blocks claimed by a
/// lock-free ticket counter, `worker` indexing the trainer's own scratch
/// — and captures the deltas. After each group's barrier it merges the
/// group's deltas in canonical block order, damped by each row's touch
/// count (see the file comment), and times that merge.
class BlockScheduler {
 public:
  using Compute =
      std::function<void(size_t block, size_t worker, BlockRows rows)>;

  BlockScheduler(size_t num_items, size_t threads,
                 std::vector<SharedMatrix> matrices);

  /// Number of distinct worker indices compute() may see.
  size_t num_workers() const { return pool_ ? threads_ : 1; }
  /// Item range [begin, end) of one block.
  size_t block_begin(size_t block) const { return block * kItemsPerBlock; }
  size_t block_end(size_t block) const;

  /// One full pass over all blocks (group-by-group compute + merge).
  /// Returns the wall seconds spent in the group merges.
  double RunEpoch(const Compute& compute);

 private:
  void ComputeBlock(const Compute& compute, size_t block, size_t worker);
  void MergeGroup(size_t group_begin, size_t group_end);
  SparseDelta* BlockDeltas(size_t block) {
    return &deltas_[(block % kBlocksPerGroup) * matrices_.size()];
  }

  size_t num_items_;
  size_t num_blocks_;
  size_t threads_;
  std::vector<SharedMatrix> matrices_;
  const simd::Kernels& k_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<SparseDelta> deltas_;              // [block % group][matrix]
  std::vector<std::vector<int32_t>> slot_maps_;  // [worker][matrix]
  std::vector<std::vector<uint32_t>> touch_;     // [matrix][row]
};

}  // namespace embed
}  // namespace tdmatch

#endif  // TDMATCH_EMBED_BLOCK_SHARDER_H_
