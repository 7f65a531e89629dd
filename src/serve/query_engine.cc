#include "serve/query_engine.h"

#include <optional>
#include <utility>

#include "util/crc32.h"
#include "util/logging.h"
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

namespace {

util::Status NoCandidates(const std::string& scenario,
                          const std::string& prefix) {
  return util::Status::NotFound(
      util::StrFormat("snapshot '%s' has no labels with candidate prefix '%s'",
                      scenario.c_str(), prefix.c_str()));
}

/// The "ivfpq" section `bytes` parsed over `labels`, when `options` adopt
/// one. Its fingerprint and geometry are validated against the candidates
/// the engine actually resolved; a section that fails is logged and
/// ignored, and the engine trains instead (slower, never wrong).
std::optional<IvfSection> AdoptableSection(
    std::string_view bytes, const std::vector<std::string>& labels, int dim,
    const QueryEngineOptions& options) {
  if (!options.build_ivf || !options.use_snapshot_index || bytes.empty()) {
    return std::nullopt;
  }
  auto parsed =
      IvfSection::Parse(bytes, labels.size(), static_cast<size_t>(dim),
                        QueryEngine::CandidateLabelsCrc(labels));
  if (parsed.ok()) return std::move(parsed).ValueOrDie();
  util::obs::JsonLogger::Global()
      .Log(util::obs::LogLevel::kWarn, "ivf_section_ignored")
      .Str("message", "ignoring snapshot index section")
      .Str("reason", parsed.status().ToString());
  return std::nullopt;
}

}  // namespace

util::Result<QueryEngine> QueryEngine::BuildForPrefix(
    Snapshot snapshot, const std::string& prefix,
    QueryEngineOptions options) {
  std::vector<std::string> labels;
  std::vector<const std::vector<float>*> rows;
  for (auto& label : snapshot.table.Labels()) {
    if (!util::StartsWith(label, prefix)) continue;
    rows.push_back(snapshot.table.Get(label));
    labels.push_back(std::move(label));
  }
  if (rows.empty()) return NoCandidates(snapshot.meta.scenario, prefix);
  const int dim = snapshot.table.dim();
  const std::string* bytes = snapshot.Section(kIvfSectionTag);
  const auto section = AdoptableSection(
      bytes != nullptr ? *bytes : std::string_view(), labels, dim, options);
  TDM_ASSIGN_OR_RETURN(
      QueryEngine engine,
      BuildOverRows(std::move(labels), snapshot.meta, options,
                    [&](std::vector<int32_t> order) {
                      return VectorMatrix::FromRows(rows, dim,
                                                    std::move(order));
                    },
                    section ? &*section : nullptr));
  engine.snapshot_ = std::move(snapshot);
  return engine;
}

util::Result<QueryEngine::ViewCandidates> QueryEngine::FindCandidates(
    const SnapshotView& view, const std::string& prefix,
    const QueryEngineOptions& options) {
  ViewCandidates found;
  for (size_t i = 0; i < view.size(); ++i) {
    if (!util::StartsWith(view.label(i), prefix)) continue;
    found.labels.emplace_back(view.label(i));
    found.rows.push_back(i);
  }
  if (found.rows.empty()) return NoCandidates(view.meta().scenario, prefix);
  const std::string_view* bytes = view.Section(kIvfSectionTag);
  found.section =
      AdoptableSection(bytes != nullptr ? *bytes : std::string_view(),
                       found.labels, view.dim(), options);
  return found;
}

util::Result<QueryEngine> QueryEngine::BuildFromView(
    std::shared_ptr<const SnapshotView> view, const std::string& prefix,
    QueryEngineOptions options) {
  if (view == nullptr) {
    return util::Status::InvalidArgument("snapshot view is null");
  }
  TDM_ASSIGN_OR_RETURN(ViewCandidates found,
                       FindCandidates(*view, prefix, options));
  // The rows go from the mapped payload straight into the normalized
  // matrix; no EmbeddingTable is ever materialized.
  TDM_ASSIGN_OR_RETURN(
      QueryEngine engine,
      BuildOverRows(std::move(found.labels), view->meta(), options,
                    [&](std::vector<int32_t> order) {
                      return VectorMatrix::FromRawRows(
                          view->payload(), found.rows, view->dim(),
                          std::move(order));
                    },
                    found.section ? &*found.section : nullptr));
  engine.view_ = std::move(view);
  return engine;
}

util::Result<QueryEngine> QueryEngine::BuildOverRows(
    std::vector<std::string> labels, SnapshotMeta meta,
    QueryEngineOptions options, const MatrixGather& gather,
    const IvfSection* section, const std::vector<int32_t>& local_ids) {
  if (labels.empty()) {
    return util::Status::InvalidArgument("candidate set is empty");
  }
  QueryEngine engine;
  engine.options_ = options;
  engine.candidate_labels_ = std::move(labels);
  engine.candidate_index_.reserve(engine.candidate_labels_.size());
  for (size_t i = 0; i < engine.candidate_labels_.size(); ++i) {
    const std::string& label = engine.candidate_labels_[i];
    if (!engine.candidate_index_.emplace(label, static_cast<int32_t>(i))
             .second) {
      return util::Status::InvalidArgument("duplicate candidate label: " +
                                           label);
    }
  }
  // With an IVF index the engine keeps only its list-order matrix, which
  // the exact index scans too; the id-order one a trainer reads is freed.
  std::shared_ptr<const VectorMatrix> matrix;
  if (section != nullptr && options.build_ivf) {
    engine.ivf_ = IvfIndex::FromSection(*section, local_ids, options.ivf,
                                        gather);
    engine.ivf_from_snapshot_ = true;
  } else {
    matrix = std::make_shared<const VectorMatrix>(gather({}));
    if (options.build_ivf) {
      IvfOptions ivf = options.ivf;
      ivf.threads = options.threads;
      engine.ivf_ = std::make_unique<IvfIndex>(std::move(matrix), ivf);
    }
  }
  if (engine.ivf_ != nullptr) matrix = engine.ivf_->matrix();
  TDM_CHECK_EQ(matrix->size(), engine.candidate_labels_.size())
      << "gather must produce one row per candidate label";
  engine.snapshot_.meta = std::move(meta);
  engine.snapshot_.table = embed::EmbeddingTable(matrix->dim());
  engine.exact_ = std::make_unique<ExactIndex>(std::move(matrix));
  if (options.threads > 1) {
    engine.pool_ = std::make_unique<util::ThreadPool>(options.threads);
  }
  return engine;
}

std::vector<ScoredMatch> QueryEngine::Search(
    const float* vec, size_t k, SearchMode mode, size_t nprobe,
    const std::vector<std::string>* allowed) const {
  if (k == 0) k = options_.default_k;
  std::vector<char> mask;
  if (allowed != nullptr) {
    // Labels outside the candidate set are ignored.
    mask.assign(candidate_labels_.size(), 0);
    size_t block_size = 0;
    for (const auto& a : *allowed) {
      auto it = candidate_index_.find(a);
      if (it == candidate_index_.end()) continue;
      char& in_block = mask[static_cast<size_t>(it->second)];
      block_size += in_block == 0;
      in_block = 1;
    }
    if (block_size == 0) return {};
  }
  // One copy total: the normalization scratch.
  std::vector<float> q(vec, vec + exact_->dim());
  NormalizeSlice(q.data(), exact_->dim());
  std::vector<match::Match> matches;
  if (allowed == nullptr && mode == SearchMode::kApprox && ivf_ != nullptr) {
    matches = ivf_->SearchWithNprobe(q.data(), k,
                                     nprobe > 0 ? nprobe : ivf_->nprobe());
  } else {
    // Filtered queries always run here: the IVF scan only sees the nprobe
    // probed cells, so a small allowed set (the blocker regime filtering
    // exists for) could be missed entirely — and a blocked scan is
    // O(|block|) cheap anyway.
    matches = exact_->Search(q.data(), k, allowed != nullptr ? &mask : nullptr);
  }
  std::vector<ScoredMatch> out;
  out.reserve(matches.size());
  for (const auto& m : matches) {
    out.push_back(ScoredMatch{
        candidate_labels_[static_cast<size_t>(m.index)], m.index, m.score});
  }
  return out;
}

util::Result<std::vector<ScoredMatch>> QueryEngine::SearchLabel(
    const std::string& label, size_t k, SearchMode mode, size_t nprobe,
    const std::vector<std::string>* allowed) const {
  // A pointer into the table or the mapped view: copy-free on both hot
  // paths (`scratch` is only written for an unaligned mapping).
  std::vector<float> scratch;
  const float* vec = nullptr;
  if (view_ != nullptr) {
    const int64_t row = view_->FindRow(label);
    if (row >= 0 && view_->aligned()) {
      vec = view_->row(static_cast<size_t>(row));
    } else if (row >= 0) {
      scratch.resize(static_cast<size_t>(view_->dim()));
      view_->CopyRow(static_cast<size_t>(row), scratch.data());
      vec = scratch.data();
    }
  } else if (const std::vector<float>* v = snapshot_.table.Get(label)) {
    vec = v->data();
  }
  if (vec == nullptr) {
    return util::Status::NotFound("no embedding for label '" + label + "'");
  }
  return Search(vec, k, mode, nprobe, allowed);
}

util::Status QueryEngine::CheckDim(const std::vector<float>& vec) const {
  if (vec.size() == static_cast<size_t>(exact_->dim())) {
    return util::Status::OK();
  }
  return util::Status::InvalidArgument(
      util::StrFormat("query vector has dim %zu, snapshot dim is %d",
                      vec.size(), exact_->dim()));
}

util::Result<std::vector<ScoredMatch>> QueryEngine::Query(
    const std::string& label, size_t k, SearchMode mode,
    size_t nprobe) const {
  return SearchLabel(label, k, mode, nprobe, nullptr);
}

util::Result<std::vector<ScoredMatch>> QueryEngine::QueryVector(
    const std::vector<float>& vec, size_t k, SearchMode mode,
    size_t nprobe) const {
  TDM_RETURN_NOT_OK(CheckDim(vec));
  return Search(vec.data(), k, mode, nprobe, nullptr);
}

util::Result<std::vector<ScoredMatch>> QueryEngine::QueryFiltered(
    const std::string& label, const std::vector<std::string>& allowed,
    size_t k) const {
  return SearchLabel(label, k, SearchMode::kExact, 0, &allowed);
}

util::Result<std::vector<ScoredMatch>> QueryEngine::QueryVectorFiltered(
    const std::vector<float>& vec, const std::vector<std::string>& allowed,
    size_t k) const {
  TDM_RETURN_NOT_OK(CheckDim(vec));
  return Search(vec.data(), k, SearchMode::kExact, 0, &allowed);
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
