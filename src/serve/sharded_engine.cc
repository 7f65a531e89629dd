#include "serve/sharded_engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "match/top_k.h"
#include "serve/mmap_snapshot.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tdmatch {
namespace serve {

util::Result<ShardedQueryEngine> ShardedQueryEngine::BuildFromView(
    std::shared_ptr<const SnapshotView> view, const std::string& prefix,
    ShardedEngineOptions options) {
  if (view == nullptr) {
    return util::Status::InvalidArgument("snapshot view is null");
  }
  ShardedQueryEngine sharded(options);
  // Global candidate order = view scan order, exactly as the unsharded
  // BuildFromView resolves it — the order the bit-identity proof leans on.
  // The snapshot's index section fingerprints the whole candidate set:
  // it is validated once here, then every shard adopts its own slice.
  TDM_ASSIGN_OR_RETURN(QueryEngine::ViewCandidates candidates,
                       QueryEngine::FindCandidates(*view, prefix,
                                                   options.engine));
  sharded.view_ = std::move(view);
  TDM_RETURN_NOT_OK(sharded.BuildShards(candidates));
  // Every shard now holds its normalized rows (in list order when it has
  // an IVF index) and its lists; serving reads the mapping only for labels
  // and LabelVector rows.
  sharded.view_->ReleasePayloadPages();
  return sharded;
}

util::Status ShardedQueryEngine::BuildShards(
    const QueryEngine::ViewCandidates& candidates) {
  const std::vector<std::string>& labels = candidates.labels;
  num_candidates_ = labels.size();
  // Partition in global candidate order: each shard's local ids ascend
  // with global ids, so the shard-local TopK tie-break (lower local
  // index) agrees with the global one (lower global index).
  std::vector<std::vector<size_t>> pending(options_.shards);
  for (size_t i = 0; i < labels.size(); ++i) {
    pending[sharder_.ShardFor(labels[i])].push_back(i);
  }
  pending.erase(std::remove_if(pending.begin(), pending.end(),
                               [](const auto& m) { return m.empty(); }),
                pending.end());

  // Shard engines are built single-threaded (the shard is the unit of
  // parallelism — at build time across shards here, at query time across
  // the scatter).
  QueryEngineOptions shard_opts = options_.engine;
  shard_opts.threads = 1;
  const IvfSection* section =
      candidates.section ? &*candidates.section : nullptr;

  std::vector<std::optional<util::Result<QueryEngine>>> built(pending.size());
  const size_t build_threads = std::max<size_t>(
      1, std::min(options_.engine.threads, pending.size()));
  util::ThreadPool::ParallelFor(
      pending.size(), build_threads,
      [&](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) {
          std::vector<size_t> rows;
          std::vector<std::string> shard_labels;
          rows.reserve(pending[i].size());
          shard_labels.reserve(pending[i].size());
          std::vector<int32_t> local_ids(labels.size(), -1);
          for (const size_t g : pending[i]) {
            local_ids[g] = static_cast<int32_t>(rows.size());
            rows.push_back(candidates.rows[g]);
            shard_labels.push_back(labels[g]);
          }
          built[i] = QueryEngine::BuildOverRows(
              std::move(shard_labels), view_->meta(), shard_opts,
              [&](std::vector<int32_t> order) {
                return VectorMatrix::FromRawRows(view_->payload(), rows,
                                                 dim(), std::move(order));
              },
              section, local_ids);
        }
      });
  for (size_t i = 0; i < pending.size(); ++i) {
    if (!built[i]->ok()) return built[i]->status();
    QueryEngine engine = std::move(*built[i]).ValueOrDie();
    if (engine.has_ivf()) {
      max_nprobe_ = std::max(max_nprobe_, engine.ivf_index()->nlist());
    }
    shards_.push_back(std::move(engine));
    shard_global_ids_.emplace_back(pending[i].begin(), pending[i].end());
  }
  if (options_.engine.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.engine.threads);
  }
  return util::Status::OK();
}

util::Result<std::vector<float>> ShardedQueryEngine::LabelVector(
    const std::string& label) const {
  const int64_t row = view_->FindRow(label);
  if (row < 0) {
    return util::Status::NotFound("no embedding for label '" + label + "'");
  }
  std::vector<float> vec(static_cast<size_t>(dim()));
  view_->CopyRow(static_cast<size_t>(row), vec.data());
  return vec;
}

util::Result<std::vector<ScoredMatch>> ShardedQueryEngine::ScatterVector(
    const std::vector<float>& vec, size_t k, SearchMode mode, size_t nprobe,
    const std::vector<std::string>* allowed, bool use_pool,
    QueryTiming* timing) const {
  if (vec.size() != static_cast<size_t>(dim())) {
    return util::Status::InvalidArgument(
        util::StrFormat("query vector has dim %zu, snapshot dim is %d",
                        vec.size(), dim()));
  }
  if (k == 0) k = options_.engine.default_k;
  const size_t s = shards_.size();
  std::vector<util::Result<std::vector<ScoredMatch>>> per(
      s, util::Status::Internal("shard not queried"));
  auto run_shard = [&](size_t i) {
    per[i] = allowed != nullptr
                 ? shards_[i].QueryVectorFiltered(vec, *allowed, k)
                 : shards_[i].QueryVector(vec, k, mode, nprobe);
  };
  util::StopWatch stage_watch;
  if (use_pool && pool_ != nullptr && s > 1) {
    // Leaf tasks: shard queries never submit further work, so concurrent
    // scatters share the pool without deadlock.
    pool_->RunTasks(s, run_shard);
  } else {
    for (size_t i = 0; i < s; ++i) run_shard(i);
  }
  const double scatter_ms = stage_watch.ElapsedMillis();

  // Gather: map shard-local candidate ids to global ones and re-rank the
  // union of the per-shard top-k heaps under match::RankBefore (score
  // desc, ties to the lower global id, NaN last). Every global top-k member
  // is inside its own shard's top-k, so the union always contains the
  // exact answer.
  std::vector<ScoredMatch> merged;
  merged.reserve(s * k);
  for (size_t i = 0; i < s; ++i) {
    if (!per[i].ok()) return per[i].status();
    for (ScoredMatch& m : *per[i]) {
      merged.push_back(ScoredMatch{
          std::move(m.label),
          shard_global_ids_[i][static_cast<size_t>(m.candidate)], m.score});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const ScoredMatch& a, const ScoredMatch& b) {
              return match::RankBefore(a.score, a.candidate, b.score,
                                       b.candidate);
            });
  if (merged.size() > k) merged.resize(k);
  if (timing != nullptr) {
    timing->scatter_ms = scatter_ms;
    timing->merge_ms = stage_watch.ElapsedMillis() - scatter_ms;
  }
  return merged;
}

util::Result<std::vector<ScoredMatch>> ShardedQueryEngine::Query(
    const std::string& label, size_t k, SearchMode mode, size_t nprobe,
    QueryTiming* timing) const {
  TDM_ASSIGN_OR_RETURN(std::vector<float> q, LabelVector(label));
  return ScatterVector(q, k, mode, nprobe, nullptr, /*use_pool=*/true,
                       timing);
}

util::Result<std::vector<ScoredMatch>> ShardedQueryEngine::QueryVector(
    const std::vector<float>& vec, size_t k, SearchMode mode, size_t nprobe,
    QueryTiming* timing) const {
  return ScatterVector(vec, k, mode, nprobe, nullptr, /*use_pool=*/true,
                       timing);
}

util::Result<std::vector<ScoredMatch>> ShardedQueryEngine::QueryFiltered(
    const std::string& label, const std::vector<std::string>& allowed,
    size_t k, QueryTiming* timing) const {
  TDM_ASSIGN_OR_RETURN(std::vector<float> q, LabelVector(label));
  return ScatterVector(q, k, SearchMode::kExact, 0, &allowed,
                       /*use_pool=*/true, timing);
}

std::vector<util::Result<std::vector<ScoredMatch>>>
ShardedQueryEngine::QueryBatch(const std::vector<std::string>& labels,
                               size_t k, SearchMode mode,
                               size_t nprobe) const {
  std::vector<util::Result<std::vector<ScoredMatch>>> results(
      labels.size(), util::Status::Internal("query not executed"));
  // Parallelism is over the queries; each worker runs its queries' shard
  // fan-out inline (a pooled scatter inside a pooled batch would be a
  // blocking submit from a worker — the classic self-deadlock).
  util::ThreadPool::RunChunked(
      pool_.get(), labels.size(), options_.engine.threads,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          auto q = LabelVector(labels[i]);
          results[i] = q.ok() ? ScatterVector(*q, k, mode, nprobe, nullptr,
                                              /*use_pool=*/false)
                              : q.status();
        }
      });
  return results;
}

}  // namespace serve
}  // namespace tdmatch
