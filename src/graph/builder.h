#ifndef TDMATCH_GRAPH_BUILDER_H_
#define TDMATCH_GRAPH_BUILDER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "corpus/corpus.h"
#include "graph/bucketing.h"
#include "graph/graph.h"
#include "text/preprocess.h"
#include "util/result.h"

namespace tdmatch {
namespace graph {

/// Data-node filtering strategy (§II-B and Fig. 9 ablation).
enum class FilterMode {
  /// No filtering: data nodes from both corpora ("Normal" in Fig. 9).
  kNone,
  /// Paper default ("Intersect"): nodes created from the corpus with fewer
  /// distinct tokens; the other corpus only connects to existing nodes.
  kIntersect,
  /// TF-IDF baseline: keep the top-k TF-IDF tokens per document, then build
  /// nodes from both corpora.
  kTfIdf,
};

/// A label→canonical-label mapping produced by the synonym-merge step
/// (§II-C); computed externally (embed::PretrainedLexicon) to keep this
/// module independent of the embedding code.
using MergeMap = std::unordered_map<std::string, std::string>;

/// Options for graph creation (Alg. 1 + §II-B/C/D).
struct BuilderOptions {
  text::PreprocessOptions preprocess;
  FilterMode filter = FilterMode::kIntersect;
  /// k for the TF-IDF filter baseline.
  size_t tfidf_top_k = 10;
  /// Merge numeric data nodes with Freedman–Diaconis equal-width buckets.
  bool bucket_numbers = false;
  /// If > 0, use this many equal-width buckets instead of Freedman–Diaconis.
  size_t fixed_buckets = 0;
  /// Optional synonym/variant merge map (term → canonical term).
  const MergeMap* merge_map = nullptr;
  /// Add edges between parent/child metadata nodes of structured texts.
  bool connect_structured_parents = true;
  /// Worker threads for the per-document preprocessing / term-generation
  /// phase of Build (Alg. 1's dominant cost). Node and edge insertion
  /// stays sequential in canonical document order, so the built graph —
  /// node ids, labels, neighbor order — is identical for every thread
  /// count.
  size_t threads = 4;
};

/// \brief Builds the joint graph over two corpora (Algorithm 1).
///
/// Metadata-node labels are prefixed so they can never collide with term
/// labels; use MetaDocLabel / MetaColumnLabel to address them.
class GraphBuilder {
 public:
  explicit GraphBuilder(BuilderOptions options = {});

  /// Runs Algorithm 1 over the two corpora of `scenario` (first, second).
  util::Result<Graph> Build(const corpus::Corpus& first,
                            const corpus::Corpus& second) const;

  /// Label of the metadata node of document `doc` in corpus `corpus_idx`.
  static std::string MetaDocLabel(int corpus_idx, size_t doc);

  /// Label of the metadata node of column `column` of corpus `corpus_idx`.
  static std::string MetaColumnLabel(int corpus_idx,
                                     const std::string& column);

  /// The canonical term-normalization used across the system (preprocess a
  /// raw label and join its stemmed tokens) — KB keys and expansion labels
  /// go through this too so everything lines up.
  static std::string NormalizeLabel(const text::Preprocessor& pp,
                                    const std::string& raw);

  const BuilderOptions& options() const { return options_; }
  const text::Preprocessor& preprocessor() const { return preprocessor_; }

 private:
  BuilderOptions options_;
  text::Preprocessor preprocessor_;
};

}  // namespace graph
}  // namespace tdmatch

#endif  // TDMATCH_GRAPH_BUILDER_H_
