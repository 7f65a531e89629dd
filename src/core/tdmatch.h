#ifndef TDMATCH_CORE_TDMATCH_H_
#define TDMATCH_CORE_TDMATCH_H_

#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "embed/embedding_table.h"
#include "embed/pretrained_lexicon.h"
#include "embed/random_walk.h"
#include "embed/word2vec.h"
#include "graph/builder.h"
#include "graph/compression.h"
#include "graph/expansion.h"
#include "kb/external_resource.h"
#include "match/method.h"
#include "util/obs/phase_profile.h"
#include "util/result.h"

namespace tdmatch {
namespace core {

/// Compression strategy applied after (optional) expansion.
enum class CompressionMode { kNone, kMsp, kSsp, kSsumm, kRandomNode };

/// \brief End-to-end configuration of the TDmatch pipeline.
///
/// Defaults follow the paper's text-to-data setting (Skip-gram window 3);
/// call TextTaskDefaults() for the text-oriented setting (CBOW window 15).
/// Walk counts are scaled down from the paper's 100×30 so the benchmark
/// suite runs in seconds; the Fig. 6/7 sweeps explore the parameter space.
struct TDmatchOptions {
  graph::BuilderOptions builder;

  /// Synonym/variant merging via the pre-trained lexicon (§II-C). Requires
  /// a lexicon to be passed to the TDmatch constructor.
  bool use_synonym_merge = false;
  /// Cosine threshold for merging; the paper calibrates γ = 0.57 on
  /// WordNet synonym pairs.
  double gamma = 0.57;

  /// Graph expansion (Alg. 2). Requires an external resource.
  bool expand = false;
  graph::ExpansionOptions expansion;

  CompressionMode compression = CompressionMode::kNone;
  /// β of Alg. 3 (iterations = β · |V|), or the keep-ratio for
  /// kSsumm/kRandomNode.
  double compression_beta = 0.5;

  embed::RandomWalkOptions walks{.num_walks = 12, .walk_length = 15,
                                 .seed = 42, .threads = 4};
  embed::Word2VecOptions w2v{.dim = 48, .window = 3, .cbow = false,
                             .negative = 5, .initial_lr = 0.025,
                             .epochs = 2, .subsample = 0.0, .threads = 4,
                             .seed = 42};
  uint64_t seed = 42;

  /// Master worker-thread override: when nonzero, replaces the per-stage
  /// thread counts (walks.threads, w2v.threads) for the whole pipeline.
  /// Never changes the result — both the walker and the block-parallel
  /// trainer are bit-deterministic in the thread count — only the wall
  /// time.
  size_t threads = 0;

  /// Copy the trained document embeddings (both corpora's metadata-doc
  /// nodes, keyed by their graph labels `__D<corpus>:<doc>__`) into
  /// TDmatchResult::embeddings — the artifact the serving layer snapshots
  /// (serve/snapshot). Off by default: the offline benchmarks only need
  /// the scores.
  bool export_embeddings = false;

  /// CBOW window 15, the paper's configuration for text-oriented tasks.
  static TDmatchOptions TextTaskDefaults();
};

/// Node/edge counts of a pipeline stage.
struct GraphStats {
  size_t nodes = 0;
  size_t edges = 0;
};

/// \brief Output of one pipeline run: per-query candidate scores plus
/// timings and graph sizes for Tables VII/VIII and Fig. 8.
struct TDmatchResult {
  /// scores[q][c]: cosine between query q (first corpus) and candidate c.
  std::vector<std::vector<double>> scores;
  /// Trained doc embeddings, filled when options.export_embeddings is set
  /// (labels are graph::GraphBuilder::MetaDocLabel strings).
  embed::EmbeddingTable embeddings;
  GraphStats original;
  GraphStats expanded;    ///< equals original when expansion is off
  GraphStats compressed;  ///< equals expanded when compression is off
  double build_seconds = 0;
  double expand_seconds = 0;
  double compress_seconds = 0;
  double walk_seconds = 0;
  double train_seconds = 0;
  double match_seconds = 0;
  /// The same wall-clock phases as the *_seconds fields above (plus
  /// per-epoch "train_epoch" entries, each followed by its "train_merge"
  /// share, and "export" when embeddings are exported), in pipeline
  /// order — the structured form benchmark reporters and snapshot
  /// metadata consume.
  util::obs::PhaseProfile profile;
};

/// \brief The paper's system: joint graph over two corpora → node
/// embeddings from random walks → unsupervised cosine matching (Fig. 3).
class TDmatch {
 public:
  /// \param resource external KB for expansion (may be null when
  ///   options.expand is false).
  /// \param lexicon pre-trained lexicon for synonym merging (may be null
  ///   when options.use_synonym_merge is false).
  explicit TDmatch(TDmatchOptions options,
                   const kb::ExternalResource* resource = nullptr,
                   const embed::PretrainedLexicon* lexicon = nullptr);

  /// Runs the full pipeline; queries are the documents of `first`.
  util::Result<TDmatchResult> Run(const corpus::Corpus& first,
                                  const corpus::Corpus& second) const;

  const TDmatchOptions& options() const { return options_; }

 private:
  TDmatchOptions options_;
  const kb::ExternalResource* resource_;
  const embed::PretrainedLexicon* lexicon_;
};

/// \brief match::MatchMethod adapter for TDmatch (the "W-RW" / "W-RW-EX"
/// rows of the evaluation).
class TDmatchMethod : public match::MatchMethod {
 public:
  TDmatchMethod(std::string name, TDmatchOptions options,
                const kb::ExternalResource* resource = nullptr,
                const embed::PretrainedLexicon* lexicon = nullptr)
      : name_(std::move(name)),
        engine_(std::move(options), resource, lexicon) {}

  util::Status Fit(const corpus::Scenario& scenario,
                   const std::vector<int32_t>& train_queries) override;
  std::vector<double> ScoreCandidates(size_t query_index) const override;
  std::string name() const override { return name_; }

  /// Full result of the last Fit (timings, graph sizes).
  const TDmatchResult& last_result() const { return result_; }

 private:
  std::string name_;
  TDmatch engine_;
  TDmatchResult result_;
};

}  // namespace core
}  // namespace tdmatch

#endif  // TDMATCH_CORE_TDMATCH_H_
