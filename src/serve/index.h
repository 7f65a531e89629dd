#ifndef TDMATCH_SERVE_INDEX_H_
#define TDMATCH_SERVE_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "match/top_k.h"

namespace tdmatch {
namespace serve {

/// L2-normalizes a raw `dim`-sized slice in place (zero vectors stay
/// zero) — the pointer-level counterpart of EmbeddingTable::Normalize,
/// shared by the serving matrix and the IVF centroid update.
void NormalizeSlice(float* row, int dim);

/// \brief Immutable row-major matrix of L2-normalized candidate vectors —
/// the one vector store behind every serving index.
///
/// Normalizing once at build time turns cosine similarity into a plain dot
/// product on the query path, and one flat allocation keeps the scan loops
/// on contiguous memory. Rows are stored in candidate-id order or, behind
/// an IvfIndex, in inverted-list order: ids() names the candidate at each
/// storage position, scans walk positions (row_at) and report ids, and
/// row(id) reads by id. The caller owns the id → label mapping (see
/// QueryEngine).
class VectorMatrix {
 public:
  VectorMatrix() = default;

  /// Copies and L2-normalizes the rows (zero vectors stay zero): candidate
  /// i is rows[i], which must have `dim` entries. A non-empty `order` (a
  /// permutation of the ids) stores candidate order[p] at position p.
  static VectorMatrix FromRows(
      const std::vector<const std::vector<float>*>& rows, int dim,
      std::vector<int32_t> order = {});

  /// Same, from a raw row-major f32 payload: candidate i is payload row
  /// `rows[i]`, read in that order and memcpy'd (the payload may be
  /// unaligned) — the bridge from a zero-copy SnapshotView into the
  /// (necessarily copying, because normalizing) index matrix.
  static VectorMatrix FromRawRows(const char* payload,
                                  const std::vector<size_t>& rows, int dim,
                                  std::vector<int32_t> order = {});

  /// A copy with candidate order[p] at position p.
  VectorMatrix Reordered(std::vector<int32_t> order) const;

  const float* row_at(size_t pos) const {
    return data_.data() + pos * static_cast<size_t>(dim_);
  }
  const float* row(size_t id) const {
    return row_at(static_cast<size_t>(positions_[id]));
  }
  const std::vector<int32_t>& ids() const { return ids_; }
  size_t size() const { return ids_.size(); }
  int dim() const { return dim_; }

 private:
  /// An n × dim matrix in `order` (id order when empty), rows unset.
  static VectorMatrix Allocate(size_t n, int dim, std::vector<int32_t> order);
  float* mutable_row(size_t id) { return const_cast<float*>(row(id)); }

  std::vector<float> data_;
  std::vector<int32_t> ids_;        // storage position → candidate id
  std::vector<int32_t> positions_;  // candidate id → storage position
  int dim_ = 0;
};

/// Builds a candidate matrix with candidate order[p] at position p (id
/// order when `order` is empty) — how an index that fixes the storage
/// order asks its caller for the rows.
using MatrixGather = std::function<VectorMatrix(std::vector<int32_t> order)>;

/// \brief Top-k retrieval over a fixed candidate set — the serving-side
/// contract. Implementations: ExactIndex (brute force, the correctness
/// reference) and IvfIndex (approximate, the latency play).
///
/// Queries are raw `dim()`-sized float vectors; they are L2-normalized by
/// the caller-facing Search wrapper so scores are cosines. `allowed`, when
/// non-null, restricts results to candidate ids with allowed[id] != 0 —
/// the hook for blocking-aware filtered queries. All implementations are
/// immutable after construction and safe for concurrent Search calls.
class Index {
 public:
  virtual ~Index() = default;

  /// "exact" / "ivf" / "ivf_pq".
  virtual std::string name() const = 0;
  virtual size_t size() const = 0;
  virtual int dim() const = 0;

  /// Bytes of auxiliary structure the index owns on top of the shared
  /// candidate matrix (bench/serve_qps reports it; check_bench gates its
  /// growth). ExactIndex owns nothing beyond the matrix, hence 0.
  virtual size_t MemoryBytes() const { return 0; }

  /// Top-k candidates by cosine, best first, ties broken by lower id.
  /// `query` must already be L2-normalized (see SearchVec).
  virtual std::vector<match::Match> Search(
      const float* query, size_t k,
      const std::vector<char>* allowed = nullptr) const = 0;

  /// Convenience wrapper: normalizes a copy of `query` and searches.
  std::vector<match::Match> SearchVec(
      const std::vector<float>& query, size_t k,
      const std::vector<char>* allowed = nullptr) const;
};

/// \brief Brute-force scan over the full candidate matrix. O(n · dim) per
/// query: the baseline every approximate index must beat, and the exact
/// reference recall is measured against.
class ExactIndex : public Index {
 public:
  explicit ExactIndex(std::shared_ptr<const VectorMatrix> data)
      : data_(std::move(data)) {}

  std::string name() const override { return "exact"; }
  size_t size() const override { return data_->size(); }
  int dim() const override { return data_->dim(); }

  /// Scans in storage order; TopKHeap's total order makes the result the
  /// same as an id-order scan's, ties and NaN included.
  std::vector<match::Match> Search(
      const float* query, size_t k,
      const std::vector<char>* allowed = nullptr) const override;

  const std::shared_ptr<const VectorMatrix>& matrix() const { return data_; }

 private:
  std::shared_ptr<const VectorMatrix> data_;
};

/// Fraction of `exact`'s top-k ids that `approx` also returns, averaged
/// over the query set — the standard ANN recall@k measurement.
double MeasureRecallAtK(const Index& approx, const Index& exact,
                        const std::vector<std::vector<float>>& queries,
                        size_t k);

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_INDEX_H_
