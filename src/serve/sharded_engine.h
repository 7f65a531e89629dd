#ifndef TDMATCH_SERVE_SHARDED_ENGINE_H_
#define TDMATCH_SERVE_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/query_engine.h"
#include "serve/sharder.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace tdmatch {
namespace serve {

struct ShardedEngineOptions {
  /// Shard count N. 1 is one shard that owns every candidate; it runs the
  /// same scatter-merge path as any other N.
  size_t shards = 1;
  /// Ring construction (virtual node count, seed).
  SharderOptions sharder;
  /// Per-shard engine build options. `engine.threads` sizes the scatter
  /// pool; shard engines themselves are built single-threaded so a query
  /// fans out across shards, not across nested pools.
  QueryEngineOptions engine;
};

/// \brief Scatter-gather serving over N QueryEngine shards.
///
/// The snapshot candidate set is partitioned by consistent hashing on the
/// candidate doc label (Sharder), each shard builds its own exact (and
/// IVF) index over its slice, and a query is scattered to every shard on
/// the shared ThreadPool, then the per-shard top-k heaps are merged by
/// match::RankBefore (score desc, global candidate id asc, NaN last) —
/// the strict total order every index ranks by. Because the partition preserves global candidate
/// order inside each shard and every global top-k member is by restriction
/// inside its own shard's top-k, **exact-mode results are bit-identical to
/// the unsharded engine for every shard count** (scores included; locked
/// by tests across N ∈ {1,2,4,8}).
///
/// Approx mode: when the snapshot carries an "ivfpq" section built over
/// the whole candidate set, it is validated once against the global
/// candidates and every shard adopts its slice of it — the shared
/// centroids (and PQ codebook) plus its own members of every inverted
/// list (IvfIndex::FromSection), its rows gathered from the payload
/// straight into list order. Every shard then probes the cells the
/// unsharded index would, so IVF-flat results are bit-identical to the
/// unsharded adopted engine at any N, and IVF-PQ shards each re-rank
/// their own ADC shortlist (together a superset of the unsharded one).
/// Without a valid section each shard trains k-means over its own slice:
/// results are deterministic for a fixed (snapshot, N, options) but not
/// equal across shard counts.
///
/// Immutable after Build; all query APIs are const and safe for concurrent
/// callers (the scatter pool serializes nothing but the task queue).
class ShardedQueryEngine {
 public:
  /// Candidates are the view labels with `prefix`, in file order; shard
  /// matrices are gathered straight from the mapped payload, and label
  /// lookups resolve against the mapping. The engine shares ownership of
  /// the view. Once the shards are built, the view's payload and section
  /// pages are released (SnapshotView::ReleasePayloadPages), so an epoch
  /// keeps only the label region of its mapping resident.
  static util::Result<ShardedQueryEngine> BuildFromView(
      std::shared_ptr<const SnapshotView> view, const std::string& prefix,
      ShardedEngineOptions options = {});

  /// Per-call stage timings, filled when a caller passes a non-null
  /// out-param (tracing). Purely observational — never consulted by the
  /// merge, so results are identical with or without it.
  struct QueryTiming {
    double scatter_ms = 0.0;  // fan-out + per-shard top-k
    double merge_ms = 0.0;    // global-id mapping + re-rank + truncate
  };

  /// Top-k for the embedding stored under `label`. `nprobe` > 0 overrides
  /// each shard's IVF probe count for this query (approx mode only).
  util::Result<std::vector<ScoredMatch>> Query(
      const std::string& label, size_t k = 0,
      SearchMode mode = SearchMode::kApprox, size_t nprobe = 0,
      QueryTiming* timing = nullptr) const;

  /// Top-k for a caller-provided vector.
  util::Result<std::vector<ScoredMatch>> QueryVector(
      const std::vector<float>& vec, size_t k = 0,
      SearchMode mode = SearchMode::kApprox, size_t nprobe = 0,
      QueryTiming* timing = nullptr) const;

  /// Blocking-aware filtered query (always exact); each shard masks its
  /// own slice of the allowed set.
  util::Result<std::vector<ScoredMatch>> QueryFiltered(
      const std::string& label, const std::vector<std::string>& allowed,
      size_t k = 0, QueryTiming* timing = nullptr) const;

  /// Batch lookup: result i answers labels[i]. Parallelism is over the
  /// queries (shards run inline inside each worker) — never nested
  /// blocking submits on one pool.
  std::vector<util::Result<std::vector<ScoredMatch>>> QueryBatch(
      const std::vector<std::string>& labels, size_t k = 0,
      SearchMode mode = SearchMode::kApprox, size_t nprobe = 0) const;

  const SnapshotMeta& meta() const { return view_->meta(); }
  int dim() const { return view_->dim(); }
  size_t num_candidates() const { return num_candidates_; }
  bool has_ivf() const { return shards_[0].has_ivf(); }
  /// True when every shard adopted its slice of the snapshot's "ivfpq"
  /// section (false when the IVF index was trained, or not built).
  bool ivf_from_snapshot() const { return shards_[0].ivf_from_snapshot(); }
  /// Configured shard count N (shards with zero candidates build no
  /// engine; see active_shards()).
  size_t num_shards() const { return options_.shards; }
  /// Shards that actually own candidates.
  size_t active_shards() const { return shards_.size(); }
  /// Active shard i and its candidate count (diagnostics / tests).
  const QueryEngine& shard(size_t i) const { return shards_[i]; }
  size_t shard_size(size_t i) const { return shards_[i].num_candidates(); }
  /// Largest IVF nlist across shards — the ceiling for per-query nprobe
  /// overrides. 0 without IVF.
  size_t max_nprobe() const { return max_nprobe_; }
  const ShardedEngineOptions& options() const { return options_; }
  const Sharder& sharder() const { return sharder_; }

 private:
  explicit ShardedQueryEngine(ShardedEngineOptions options)
      : options_(options),
        sharder_(options.shards < 1 ? 1 : options.shards, options.sharder) {}

  /// Partitions the candidates (global candidate order) and builds one
  /// engine per non-empty shard over its rows of the mapped payload,
  /// adopting its slice of the section when there is one.
  util::Status BuildShards(const QueryEngine::ViewCandidates& candidates);
  /// A copy of the raw (unnormalized) embedding stored under `label` in
  /// the view; NotFound when unknown.
  util::Result<std::vector<float>> LabelVector(const std::string& label) const;
  /// Fans `vec` out to every shard (on the pool when `use_pool`), merges
  /// by (score desc, global id asc), truncates to k.
  util::Result<std::vector<ScoredMatch>> ScatterVector(
      const std::vector<float>& vec, size_t k, SearchMode mode,
      size_t nprobe, const std::vector<std::string>* allowed, bool use_pool,
      QueryTiming* timing = nullptr) const;

  ShardedEngineOptions options_;
  Sharder sharder_;
  size_t num_candidates_ = 0;
  size_t max_nprobe_ = 0;
  /// The mapping every shard matrix was gathered from; label lookups
  /// resolve against it.
  std::shared_ptr<const SnapshotView> view_;
  /// Non-empty shards, in shard-id order.
  std::vector<QueryEngine> shards_;
  /// shard_global_ids_[i][local_id] = global candidate id.
  std::vector<std::vector<int32_t>> shard_global_ids_;
  /// Scatter workers; null when options_.engine.threads <= 1.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_SHARDED_ENGINE_H_
