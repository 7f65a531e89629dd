#ifndef TDMATCH_SERVE_QUERY_ENGINE_H_
#define TDMATCH_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/index.h"
#include "serve/ivf_index.h"
#include "serve/mmap_snapshot.h"
#include "serve/snapshot.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace tdmatch {
namespace serve {

/// Which index a query runs against.
enum class SearchMode {
  kApprox,  ///< IVF when built, otherwise falls back to exact
  kExact,   ///< always the brute-force reference
};

struct QueryEngineOptions {
  /// Threads for batch execution (and IVF k-means training).
  size_t threads = 4;
  /// k used when a query passes k = 0.
  size_t default_k = 5;
  /// Build the IVF index next to the exact one. Off ⇒ every query is an
  /// exact scan (small candidate sets where ANN overhead isn't worth it).
  bool build_ivf = true;
  /// Adopt a pre-trained index from the snapshot's "ivfpq" section
  /// instead of re-training k-means at build time, when one is present
  /// and its candidate fingerprint matches (see IvfIndex::Serialize). Any
  /// mismatch or validation failure falls back to training — a bad
  /// section can cost startup time, never correctness.
  bool use_snapshot_index = true;
  IvfOptions ivf;
};

/// One scored answer: the candidate's snapshot label, its dense id in the
/// engine's candidate set, and the cosine score.
struct ScoredMatch {
  std::string label;
  int32_t candidate = -1;
  double score = 0.0;
};

/// \brief The online query layer: a loaded snapshot + ANN/exact indexes +
/// batched, thread-sharded lookups.
///
/// Built once from a snapshot (offline artifact), then immutable: every
/// query API is const and safe to call from concurrent callers. Queries
/// address embeddings by snapshot label (e.g. the graph's metadata-doc
/// labels `__D0:i__`) or bring their own vector; candidates are the subset
/// of snapshot labels the engine was built over (for TDmatch serving, the
/// second corpus' doc nodes `__D1:*__`).
///
/// Batch execution shards the query list into contiguous chunks on a
/// persistent ThreadPool (spawned once at Build, reused by every batch —
/// no per-call thread spawn on the hot path); results are written to
/// per-query slots, so the output is identical for any thread count.
/// Multiple callers may run QueryBatch concurrently; each batch tracks
/// its own completion.
class QueryEngine {
 public:
  /// Builds over an in-memory snapshot: candidates are all table labels
  /// starting with `prefix`, in table order (the serving convention
  /// stores the candidate prefix in the snapshot metadata under
  /// "candidate_prefix"). The engine keeps the table (see table()) — the
  /// offline path, where a builder indexes a freshly trained table before
  /// any snapshot file exists and writes table() out with the section.
  static util::Result<QueryEngine> BuildForPrefix(
      Snapshot snapshot, const std::string& prefix,
      QueryEngineOptions options = {});

  /// Builds over a memory-mapped snapshot view — the serving path:
  /// candidates are the view labels starting with `prefix`, in file
  /// order; their vectors are gathered straight from the mapped f32
  /// payload into the (normalizing) index matrix, label lookups resolve
  /// against the mapping, and no EmbeddingTable copy of the payload is
  /// ever materialized. The engine shares ownership of the view; several
  /// engines can serve one mapping. Results are bit-identical to
  /// BuildForPrefix over the same file's rows.
  static util::Result<QueryEngine> BuildFromView(
      std::shared_ptr<const SnapshotView> view, const std::string& prefix,
      QueryEngineOptions options = {});

  /// Builds directly over an already-gathered (normalized) candidate
  /// matrix and its labels — the shard-engine path: ShardedQueryEngine
  /// partitions one snapshot's candidate set and hands each shard its
  /// slice. The engine owns no snapshot payload (label-addressed Query
  /// only resolves candidate labels via QueryVector at the sharded layer).
  /// `ivf`, when given, is the shard's slice of the snapshot's "ivfpq"
  /// section (IvfIndex::FromSection over `matrix`) and is adopted as is;
  /// otherwise the IVF index is trained (when options.build_ivf).
  static util::Result<QueryEngine> BuildOverMatrix(
      std::shared_ptr<const VectorMatrix> matrix,
      std::vector<std::string> candidate_labels, SnapshotMeta meta,
      QueryEngineOptions options = {},
      std::unique_ptr<IvfIndex> ivf = nullptr);

  /// Top-k for the embedding stored under `label` (k = 0 ⇒ default_k).
  /// `nprobe` > 0 overrides the IVF probe count for this query only
  /// (ignored in exact mode / without an IVF index) — the serving
  /// latency-budget auto-tuner's hook.
  util::Result<std::vector<ScoredMatch>> Query(
      const std::string& label, size_t k = 0,
      SearchMode mode = SearchMode::kApprox, size_t nprobe = 0) const;

  /// Top-k for a caller-provided vector (must be table dim).
  util::Result<std::vector<ScoredMatch>> QueryVector(
      const std::vector<float>& vec, size_t k = 0,
      SearchMode mode = SearchMode::kApprox, size_t nprobe = 0) const;

  /// Blocking-aware filtered query: only candidates whose label appears in
  /// `allowed` can be returned (labels not in the candidate set are
  /// ignored). This is the hook for an upstream blocker (match::
  /// TokenBlocker) that prunes the candidate space per query. Filtered
  /// queries always run on the exact index: an IVF probe could miss a
  /// small allowed set entirely, and a blocked scan is cheap by
  /// construction.
  util::Result<std::vector<ScoredMatch>> QueryFiltered(
      const std::string& label, const std::vector<std::string>& allowed,
      size_t k = 0) const;

  /// QueryFiltered with a caller-provided vector instead of a stored
  /// label — what a shard scatter uses (the sharded layer resolves the
  /// label once, every shard filters its own slice). Always exact.
  util::Result<std::vector<ScoredMatch>> QueryVectorFiltered(
      const std::vector<float>& vec, const std::vector<std::string>& allowed,
      size_t k = 0) const;

  /// Batch lookup: result i answers labels[i]. Per-query failures (unknown
  /// label) are per-slot errors, not a batch failure. Sharded across
  /// `options().threads` workers.
  std::vector<util::Result<std::vector<ScoredMatch>>> QueryBatch(
      const std::vector<std::string>& labels, size_t k = 0,
      SearchMode mode = SearchMode::kApprox, size_t nprobe = 0) const;

  const SnapshotMeta& meta() const { return snapshot_.meta; }
  /// The table BuildForPrefix was given. Empty (dim only) for engines
  /// built from a view, whose vectors live in the mapping, or over a
  /// matrix.
  const embed::EmbeddingTable& table() const { return snapshot_.table; }
  size_t num_candidates() const { return candidate_labels_.size(); }
  const std::vector<std::string>& candidate_labels() const {
    return candidate_labels_;
  }
  bool has_ivf() const { return ivf_ != nullptr; }
  const ExactIndex& exact_index() const { return *exact_; }
  /// Null when build_ivf was off.
  IvfIndex* ivf_index() { return ivf_.get(); }
  const IvfIndex* ivf_index() const { return ivf_.get(); }
  const QueryEngineOptions& options() const { return options_; }

  /// Snapshot section tag carrying a serialized IVF/PQ index.
  static constexpr char kIvfSectionTag[] = "ivfpq";

  /// CRC-32 fingerprint of the engine's candidate labels (NUL-joined, in
  /// candidate-id order) — ties a serialized index section to the exact
  /// candidate set it was built over.
  uint32_t candidate_labels_crc() const {
    return CandidateLabelsCrc(candidate_labels_);
  }
  /// The same fingerprint over any label list in candidate-id order.
  static uint32_t CandidateLabelsCrc(const std::vector<std::string>& labels);
  /// True when the IVF index was adopted from a snapshot "ivfpq" section
  /// rather than trained at build time.
  bool ivf_from_snapshot() const { return ivf_from_snapshot_; }

  /// Serialized "ivfpq" section payload for this engine's IVF index
  /// (stamped with candidate_labels_crc()), or an empty string when no
  /// IVF index was built. Attach it via the sections overload of
  /// SnapshotIo::Write so later engines skip k-means training.
  std::string SerializeIvfSection() const;

 private:
  QueryEngine() = default;

  const Index& IndexFor(SearchMode mode) const;
  std::vector<ScoredMatch> ToScored(
      const std::vector<match::Match>& matches) const;
  /// Builds the allowed-label mask for filtered queries; returns the
  /// number of distinct candidates allowed.
  size_t BuildMask(const std::vector<std::string>& allowed,
                   std::vector<char>* mask) const;
  /// Builds the exact index over matrix_, adopts `ivf`, or else the
  /// snapshot's "ivfpq" `section` (when non-empty and valid), or else
  /// trains the IVF index, and starts the batch pool — the tail shared by
  /// every Build flavor.
  util::Status FinishBuild(QueryEngineOptions options,
                           std::string_view section,
                           std::unique_ptr<IvfIndex> ivf = nullptr);
  /// The embedding stored under `label`: a pointer into the table or the
  /// mapped view (copy-free on both hot paths; `scratch` is only written
  /// for an unaligned mapping). Null when the label is unknown.
  const float* LookupVector(const std::string& label,
                            std::vector<float>* scratch) const;
  /// Normalizes a copy of `vec` (table dim) and searches `index`. A
  /// positive `nprobe` overrides the probe count when `index` is the IVF
  /// index (ignored otherwise).
  std::vector<ScoredMatch> SearchNormalized(
      const Index& index, const float* vec, size_t k,
      const std::vector<char>* allowed = nullptr, size_t nprobe = 0) const;

  Snapshot snapshot_;
  std::shared_ptr<const SnapshotView> view_;
  QueryEngineOptions options_;
  std::vector<std::string> candidate_labels_;
  /// label → dense candidate id, for filtered queries.
  std::unordered_map<std::string, int32_t> candidate_index_;
  std::shared_ptr<const VectorMatrix> matrix_;
  std::unique_ptr<ExactIndex> exact_;
  std::unique_ptr<IvfIndex> ivf_;
  bool ivf_from_snapshot_ = false;
  /// Batch workers; null when options_.threads <= 1 (batches run inline).
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_QUERY_ENGINE_H_
