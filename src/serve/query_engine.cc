#include "serve/query_engine.h"

#include <utility>

#include "util/crc32.h"
#include "util/obs/jsonlog.h"
#include "util/string_util.h"

namespace tdmatch {
namespace serve {

constexpr char QueryEngine::kIvfSectionTag[];

uint32_t QueryEngine::CandidateLabelsCrc(
    const std::vector<std::string>& labels) {
  uint32_t crc = 0;
  for (const auto& label : labels) {
    crc = util::Crc32(label.data(), label.size(), crc);
    crc = util::Crc32("\0", 1, crc);  // unambiguous label boundaries
  }
  return crc;
}

std::string QueryEngine::SerializeIvfSection() const {
  if (ivf_ == nullptr) return {};
  return ivf_->Serialize(candidate_labels_crc());
}

util::Result<QueryEngine> QueryEngine::BuildForPrefix(
    Snapshot snapshot, const std::string& prefix,
    QueryEngineOptions options) {
  QueryEngine engine;
  std::vector<const std::vector<float>*> rows;
  for (auto& label : snapshot.table.Labels()) {
    if (!util::StartsWith(label, prefix)) continue;
    rows.push_back(snapshot.table.Get(label));
    engine.candidate_labels_.push_back(std::move(label));
  }
  if (rows.empty()) {
    return util::Status::NotFound(util::StrFormat(
        "snapshot '%s' has no labels with candidate prefix '%s'",
        snapshot.meta.scenario.c_str(), prefix.c_str()));
  }
  engine.matrix_ = std::make_shared<VectorMatrix>(
      VectorMatrix::FromRows(rows, snapshot.table.dim()));
  engine.snapshot_ = std::move(snapshot);
  const std::string* section = engine.snapshot_.Section(kIvfSectionTag);
  TDM_RETURN_NOT_OK(engine.FinishBuild(
      options, section != nullptr ? *section : std::string_view()));
  return engine;
}

util::Result<QueryEngine> QueryEngine::BuildFromView(
    std::shared_ptr<const SnapshotView> view, const std::string& prefix,
    QueryEngineOptions options) {
  if (view == nullptr) {
    return util::Status::InvalidArgument("snapshot view is null");
  }
  QueryEngine engine;
  std::vector<size_t> candidate_rows;
  for (size_t i = 0; i < view->size(); ++i) {
    const std::string_view label = view->label(i);
    if (!util::StartsWith(label, prefix)) continue;
    engine.candidate_labels_.emplace_back(label);
    candidate_rows.push_back(i);
  }
  if (candidate_rows.empty()) {
    return util::Status::NotFound(util::StrFormat(
        "snapshot '%s' has no labels with candidate prefix '%s'",
        view->meta().scenario.c_str(), prefix.c_str()));
  }
  // The candidate vectors are gathered straight from the mapped payload —
  // the only copy is the (necessary) normalized index matrix; no
  // EmbeddingTable is ever materialized.
  engine.matrix_ = std::make_shared<VectorMatrix>(VectorMatrix::FromRawRows(
      view->payload(), candidate_rows, view->dim()));
  engine.snapshot_.meta = view->meta();
  engine.snapshot_.table = embed::EmbeddingTable(view->dim());
  const std::string_view* section = view->Section(kIvfSectionTag);
  engine.view_ = std::move(view);
  TDM_RETURN_NOT_OK(engine.FinishBuild(
      options, section != nullptr ? *section : std::string_view()));
  return engine;
}

util::Result<QueryEngine> QueryEngine::BuildOverMatrix(
    std::shared_ptr<const VectorMatrix> matrix,
    std::vector<std::string> candidate_labels, SnapshotMeta meta,
    QueryEngineOptions options, std::unique_ptr<IvfIndex> ivf) {
  if (matrix == nullptr) {
    return util::Status::InvalidArgument("candidate matrix is null");
  }
  if (candidate_labels.size() != matrix->size()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "matrix has %zu rows for %zu candidate labels", matrix->size(),
        candidate_labels.size()));
  }
  QueryEngine engine;
  engine.matrix_ = std::move(matrix);
  engine.candidate_labels_ = std::move(candidate_labels);
  engine.snapshot_.meta = std::move(meta);
  engine.snapshot_.table = embed::EmbeddingTable(engine.matrix_->dim());
  TDM_RETURN_NOT_OK(engine.FinishBuild(options, {}, std::move(ivf)));
  return engine;
}

util::Status QueryEngine::FinishBuild(QueryEngineOptions options,
                                      std::string_view section,
                                      std::unique_ptr<IvfIndex> adopted) {
  if (candidate_labels_.empty()) {
    return util::Status::InvalidArgument("candidate set is empty");
  }
  candidate_index_.reserve(candidate_labels_.size());
  for (size_t i = 0; i < candidate_labels_.size(); ++i) {
    if (!candidate_index_.emplace(candidate_labels_[i], static_cast<int32_t>(i))
             .second) {
      return util::Status::InvalidArgument("duplicate candidate label: " +
                                           candidate_labels_[i]);
    }
  }
  options_ = options;
  exact_ = std::make_unique<ExactIndex>(matrix_);
  if (options.build_ivf) {
    IvfOptions ivf = options.ivf;
    ivf.threads = options.threads;
    ivf_ = std::move(adopted);
    ivf_from_snapshot_ = ivf_ != nullptr;
    // A snapshot may carry the trained index as an "ivfpq" section;
    // adopting it skips k-means at startup. The section's candidate
    // fingerprint and geometry are validated against what this engine
    // actually resolved — on any mismatch we train instead (slower, never
    // wrong).
    if (ivf_ == nullptr && options.use_snapshot_index && !section.empty()) {
      auto loaded = IvfIndex::Deserialize(section, matrix_,
                                          candidate_labels_crc(), ivf);
      if (loaded.ok()) {
        ivf_ = std::move(loaded).ValueOrDie();
        ivf_from_snapshot_ = true;
      } else {
        util::obs::JsonLogger::Global()
            .Log(util::obs::LogLevel::kWarn, "ivf_section_ignored")
            .Str("message", "ignoring snapshot index section")
            .Str("reason", loaded.status().ToString());
      }
    }
    if (ivf_ == nullptr) ivf_ = std::make_unique<IvfIndex>(matrix_, ivf);
  }
  if (options.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options.threads);
  }
  return util::Status::OK();
}

const Index& QueryEngine::IndexFor(SearchMode mode) const {
  if (mode == SearchMode::kApprox && ivf_ != nullptr) return *ivf_;
  return *exact_;
}

std::vector<ScoredMatch> QueryEngine::ToScored(
    const std::vector<match::Match>& matches) const {
  std::vector<ScoredMatch> out;
  out.reserve(matches.size());
  for (const auto& m : matches) {
    out.push_back(ScoredMatch{
        candidate_labels_[static_cast<size_t>(m.index)], m.index, m.score});
  }
  return out;
}

util::Result<std::vector<ScoredMatch>> QueryEngine::QueryVector(
    const std::vector<float>& vec, size_t k, SearchMode mode,
    size_t nprobe) const {
  if (vec.size() != static_cast<size_t>(snapshot_.table.dim())) {
    return util::Status::InvalidArgument(
        util::StrFormat("query vector has dim %zu, snapshot dim is %d",
                        vec.size(), snapshot_.table.dim()));
  }
  if (k == 0) k = options_.default_k;
  return SearchNormalized(IndexFor(mode), vec.data(), k, nullptr, nprobe);
}

const float* QueryEngine::LookupVector(const std::string& label,
                                       std::vector<float>* scratch) const {
  if (view_ != nullptr) {
    const int64_t row = view_->FindRow(label);
    if (row < 0) return nullptr;
    if (view_->aligned()) return view_->row(static_cast<size_t>(row));
    scratch->resize(static_cast<size_t>(view_->dim()));
    view_->CopyRow(static_cast<size_t>(row), scratch->data());
    return scratch->data();
  }
  const std::vector<float>* vec = snapshot_.table.Get(label);
  return vec == nullptr ? nullptr : vec->data();
}

std::vector<ScoredMatch> QueryEngine::SearchNormalized(
    const Index& index, const float* vec, size_t k,
    const std::vector<char>* allowed, size_t nprobe) const {
  // One copy total (the normalization scratch) — the same cost the
  // pre-mmap code paid through Index::SearchVec.
  std::vector<float> q(vec, vec + static_cast<size_t>(matrix_->dim()));
  NormalizeSlice(q.data(), matrix_->dim());
  if (nprobe > 0 && ivf_ != nullptr && &index == ivf_.get()) {
    return ToScored(ivf_->SearchWithNprobe(q.data(), k, nprobe, allowed));
  }
  return ToScored(index.Search(q.data(), k, allowed));
}

util::Result<std::vector<ScoredMatch>> QueryEngine::Query(
    const std::string& label, size_t k, SearchMode mode,
    size_t nprobe) const {
  std::vector<float> scratch;
  const float* vec = LookupVector(label, &scratch);
  if (vec == nullptr) {
    return util::Status::NotFound("no embedding for label '" + label + "'");
  }
  if (k == 0) k = options_.default_k;
  return SearchNormalized(IndexFor(mode), vec, k, nullptr, nprobe);
}

size_t QueryEngine::BuildMask(const std::vector<std::string>& allowed,
                              std::vector<char>* mask) const {
  mask->assign(candidate_labels_.size(), 0);
  size_t block_size = 0;
  for (const auto& a : allowed) {
    auto it = candidate_index_.find(a);
    if (it == candidate_index_.end()) continue;  // not a candidate: ignore
    if ((*mask)[static_cast<size_t>(it->second)] == 0) ++block_size;
    (*mask)[static_cast<size_t>(it->second)] = 1;
  }
  return block_size;
}

util::Result<std::vector<ScoredMatch>> QueryEngine::QueryFiltered(
    const std::string& label, const std::vector<std::string>& allowed,
    size_t k) const {
  std::vector<float> scratch;
  const float* vec = LookupVector(label, &scratch);
  if (vec == nullptr) {
    return util::Status::NotFound("no embedding for label '" + label + "'");
  }
  std::vector<char> mask;
  if (BuildMask(allowed, &mask) == 0) return std::vector<ScoredMatch>{};
  if (k == 0) k = options_.default_k;
  // Always the exact index: the IVF scan only sees the nprobe probed
  // cells, so a small allowed set (the blocker regime this API exists
  // for) could be missed entirely — and a blocked scan is O(|block|)
  // cheap anyway.
  return SearchNormalized(*exact_, vec, k, &mask);
}

util::Result<std::vector<ScoredMatch>> QueryEngine::QueryVectorFiltered(
    const std::vector<float>& vec, const std::vector<std::string>& allowed,
    size_t k) const {
  if (vec.size() != static_cast<size_t>(snapshot_.table.dim())) {
    return util::Status::InvalidArgument(
        util::StrFormat("query vector has dim %zu, snapshot dim is %d",
                        vec.size(), snapshot_.table.dim()));
  }
  std::vector<char> mask;
  if (BuildMask(allowed, &mask) == 0) return std::vector<ScoredMatch>{};
  if (k == 0) k = options_.default_k;
  return SearchNormalized(*exact_, vec.data(), k, &mask);
}

std::vector<util::Result<std::vector<ScoredMatch>>> QueryEngine::QueryBatch(
    const std::vector<std::string>& labels, size_t k, SearchMode mode,
    size_t nprobe) const {
  // Pre-size with per-slot placeholders, then let the chunks overwrite
  // their ranges: no locking on the result vector, and the output order
  // never depends on the thread count.
  std::vector<util::Result<std::vector<ScoredMatch>>> results(
      labels.size(), util::Status::Internal("query not executed"));
  util::ThreadPool::RunChunked(
      pool_.get(), labels.size(), options_.threads,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          results[i] = Query(labels[i], k, mode, nprobe);
        }
      });
  return results;
}

}  // namespace serve
}  // namespace tdmatch
