#include "core/tdmatch.h"

#include <unordered_set>

#include "embed/embedding_table.h"
#include "match/top_k.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tdmatch {
namespace core {

TDmatchOptions TDmatchOptions::TextTaskDefaults() {
  TDmatchOptions o;
  o.w2v.cbow = true;
  o.w2v.window = 15;
  return o;
}

TDmatch::TDmatch(TDmatchOptions options, const kb::ExternalResource* resource,
                 const embed::PretrainedLexicon* lexicon)
    : options_(std::move(options)), resource_(resource), lexicon_(lexicon) {}

namespace {

/// Collects every unique term (1..n-gram) of both corpora — the candidate
/// set for synonym merging.
std::vector<std::string> CollectTerms(const corpus::Corpus& a,
                                      const corpus::Corpus& b,
                                      const text::Preprocessor& pp) {
  std::unordered_set<std::string> seen;
  auto add_corpus = [&](const corpus::Corpus& c) {
    if (c.type() == corpus::CorpusType::kTable) {
      const corpus::Table& t = *c.table();
      for (size_t r = 0; r < t.NumRows(); ++r) {
        for (size_t col = 0; col < t.NumColumns(); ++col) {
          for (auto& term : pp.Terms(t.cell(r, col))) seen.insert(term);
        }
      }
    } else {
      for (size_t i = 0; i < c.NumDocs(); ++i) {
        for (auto& term : pp.Terms(c.DocText(i))) seen.insert(term);
      }
    }
  };
  add_corpus(a);
  add_corpus(b);
  return std::vector<std::string>(seen.begin(), seen.end());
}

GraphStats StatsOf(const graph::Graph& g) {
  return GraphStats{g.NumNodes(), g.NumEdges()};
}

}  // namespace

util::Result<TDmatchResult> TDmatch::Run(const corpus::Corpus& first,
                                         const corpus::Corpus& second) const {
  TDmatchResult result;
  util::StopWatch watch;

  // --- Synonym merge map (§II-C) ------------------------------------------
  graph::BuilderOptions builder_options = options_.builder;
  graph::MergeMap merge_map;
  text::Preprocessor pp(builder_options.preprocess);
  if (options_.use_synonym_merge) {
    if (lexicon_ == nullptr) {
      return util::Status::InvalidArgument(
          "use_synonym_merge requires a PretrainedLexicon");
    }
    merge_map =
        lexicon_->BuildMergeMap(CollectTerms(first, second, pp),
                                options_.gamma);
    builder_options.merge_map = &merge_map;
  }

  // --- Graph creation (Alg. 1) --------------------------------------------
  watch.Reset();
  graph::GraphBuilder builder(builder_options);
  TDM_ASSIGN_OR_RETURN(graph::Graph g, builder.Build(first, second));
  result.build_seconds = watch.ElapsedSeconds();
  result.profile.Add("graph_build", result.build_seconds);
  result.original = StatsOf(g);

  // --- Expansion (Alg. 2) --------------------------------------------------
  if (options_.expand) {
    if (resource_ == nullptr) {
      return util::Status::InvalidArgument(
          "expand requires an ExternalResource");
    }
    watch.Reset();
    auto normalize = [&pp](const std::string& raw) {
      return graph::GraphBuilder::NormalizeLabel(pp, raw);
    };
    g = graph::ExpandGraph(g, *resource_, options_.expansion, normalize);
    result.expand_seconds = watch.ElapsedSeconds();
    result.profile.Add("expand", result.expand_seconds);
  }
  result.expanded = StatsOf(g);

  // --- Compression (Alg. 3 / baselines) ------------------------------------
  if (options_.compression != CompressionMode::kNone) {
    watch.Reset();
    util::Rng rng(options_.seed ^ 0xc0117);
    switch (options_.compression) {
      case CompressionMode::kMsp:
        g = graph::MspCompress(g, options_.compression_beta, &rng);
        break;
      case CompressionMode::kSsp:
        g = graph::SspCompress(g, options_.compression_beta, &rng);
        break;
      case CompressionMode::kSsumm:
        g = graph::SsummCompress(g, options_.compression_beta, &rng);
        break;
      case CompressionMode::kRandomNode:
        g = graph::RandomNodeSample(g, options_.compression_beta, &rng);
        break;
      case CompressionMode::kNone:
        break;
    }
    result.compress_seconds = watch.ElapsedSeconds();
    result.profile.Add("compress", result.compress_seconds);
  }
  result.compressed = StatsOf(g);

  if (g.NumNodes() == 0) {
    return util::Status::Internal("pipeline produced an empty graph");
  }

  // --- Random walks + Word2Vec (Alg. 4) -------------------------------------
  watch.Reset();
  // Expansion/compression may have produced a building-state graph; the
  // walker's hot loop wants the flat CSR adjacency (GraphBuilder already
  // finalizes, so this is a no-op on the plain pipeline).
  g.Finalize();
  embed::RandomWalkOptions walk_options = options_.walks;
  walk_options.seed ^= options_.seed;
  if (options_.threads != 0) walk_options.threads = options_.threads;
  embed::SentenceCorpus walks = embed::RandomWalker::GenerateCorpus(
      g, walk_options);
  result.walk_seconds = watch.ElapsedSeconds();
  result.profile.Add("walks", result.walk_seconds);

  watch.Reset();
  embed::Word2VecOptions w2v_options = options_.w2v;
  w2v_options.seed ^= options_.seed;
  if (options_.threads != 0) w2v_options.threads = options_.threads;
  embed::Word2Vec w2v(w2v_options);
  TDM_RETURN_NOT_OK(w2v.Train(walks, g.NumNodes()));
  result.train_seconds = watch.ElapsedSeconds();
  result.profile.Add("train", result.train_seconds);
  for (size_t e = 0; e < w2v.epoch_seconds().size(); ++e) {
    result.profile.Add("train_epoch", w2v.epoch_seconds()[e]);
    result.profile.Add("train_merge", w2v.merge_seconds()[e]);
  }

  // --- Matching (§IV-B) ------------------------------------------------------
  watch.Reset();
  auto doc_vector = [&](int corpus_idx, size_t doc) -> std::vector<float> {
    graph::NodeId id =
        g.FindNode(graph::GraphBuilder::MetaDocLabel(corpus_idx, doc));
    if (id == graph::kInvalidNode) return {};
    return w2v.VectorCopy(id);
  };
  std::vector<std::vector<float>> candidates(second.NumDocs());
  for (size_t c = 0; c < second.NumDocs(); ++c) {
    candidates[c] = doc_vector(1, c);
  }
  result.scores.resize(first.NumDocs());
  for (size_t q = 0; q < first.NumDocs(); ++q) {
    std::vector<float> qv = doc_vector(0, q);
    result.scores[q] = match::TopK::ScoreAll(qv, candidates);
  }
  result.match_seconds = watch.ElapsedSeconds();
  result.profile.Add("match", result.match_seconds);

  // --- Serving export --------------------------------------------------------
  // Doc nodes that survived compression keep their trained vector under
  // their graph label; the serving layer snapshots this table and answers
  // queries from it without re-running the pipeline.
  if (options_.export_embeddings) {
    watch.Reset();
    result.embeddings = embed::EmbeddingTable(w2v.dim());
    for (graph::NodeId id : g.MetadataDocNodes()) {
      result.embeddings.Put(g.node(id).label, w2v.VectorCopy(id));
    }
    result.profile.Add("export", watch.ElapsedSeconds());
  }
  return result;
}

util::Status TDmatchMethod::Fit(const corpus::Scenario& scenario,
                                const std::vector<int32_t>& train_queries) {
  (void)train_queries;  // unsupervised: gold labels are never consulted
  TDM_ASSIGN_OR_RETURN(result_,
                       engine_.Run(scenario.first, scenario.second));
  return util::Status::OK();
}

std::vector<double> TDmatchMethod::ScoreCandidates(size_t query_index) const {
  TDM_CHECK_LT(query_index, result_.scores.size());
  return result_.scores[query_index];
}

}  // namespace core
}  // namespace tdmatch
