#ifndef TDMATCH_EMBED_WORD2VEC_H_
#define TDMATCH_EMBED_WORD2VEC_H_

#include <cstdint>
#include <vector>

#include "embed/negative_sampler.h"
#include "embed/sentence_corpus.h"
#include "util/result.h"
#include "util/status.h"

namespace tdmatch {
namespace embed {

/// Training configuration (defaults follow the paper's text-to-data setup:
/// Skip-gram, window 3; text tasks switch to CBOW window 15, §V).
struct Word2VecOptions {
  int dim = 64;
  int window = 3;
  /// false = Skip-gram, true = CBOW.
  bool cbow = false;
  /// Negative samples per positive example.
  int negative = 5;
  double initial_lr = 0.025;
  int epochs = 5;
  /// Frequency subsampling threshold (0 disables; word2vec's `-sample`).
  double subsample = 0.0;
  /// Worker threads for block-parallel training (0 → 1). Changes only the
  /// wall time, never the trained vectors (see class comment).
  size_t threads = 4;
  uint64_t seed = 42;
};

/// \brief From-scratch Word2Vec over integer token sequences, trained with
/// SGD + negative sampling.
///
/// Operating on dense int32 ids lets the same trainer embed graph nodes
/// (random-walk sentences, Alg. 4) and word tokens (the W2VEC baseline)
/// without string overhead. The preferred input is a flat
/// `SentenceCorpus` (the random-walk generator's native output); nested
/// vectors are accepted through a span adapter.
///
/// **Determinism contract:** training runs the fixed block schedule of
/// block_sharder.h — sentences are partitioned into fixed-size blocks,
/// each block consumes subsampling / window-reduction / negative draws
/// only from its own seed-derived RNG stream, workers train blocks
/// against the weights frozen at group start into sparse delta buffers,
/// and the deltas merge in canonical block order (damped by 1/sqrt of
/// each row's per-group touch count — see block_sharder.h). Because none
/// of that depends on the thread count, for a fixed seed the trained
/// vectors are
/// bit-identical across runs, across machines with the same toolchain,
/// for any `threads` setting, and for either SIMD ISA (the dispatched
/// kernels are bit-exact, util/simd/kernels.h); `threads` only changes
/// the wall time.
/// The block-ordered RNG consumption intentionally differs from the
/// pre-parallel single-stream sequence, so goldens were recaptured when
/// the schedule landed (tests/golden_embed_test.cc pins it).
class Word2Vec {
 public:
  explicit Word2Vec(Word2VecOptions options = {});

  /// Trains on a flat corpus whose tokens are ids in [0, vocab_size).
  /// Frequencies for the negative-sampling distribution are counted
  /// internally.
  util::Status Train(const SentenceCorpus& corpus, size_t vocab_size);

  /// Nested-vector adapter for the same training loop (identical output
  /// for identical sentence content).
  util::Status Train(const std::vector<std::vector<int32_t>>& sentences,
                     size_t vocab_size);

  int dim() const { return options_.dim; }
  size_t vocab_size() const { return vocab_size_; }
  bool trained() const { return trained_; }

  /// Input vector of a token id (valid after Train).
  const float* Vector(int32_t id) const;

  /// Copy of the vector.
  std::vector<float> VectorCopy(int32_t id) const;

  /// Cosine similarity of two raw vectors.
  static double Cosine(const float* a, const float* b, int dim);

  /// Cosine between two token ids.
  double CosineIds(int32_t a, int32_t b) const;

  const Word2VecOptions& options() const { return options_; }

  /// Wall seconds per completed training epoch (size == options().epochs
  /// after Train). Timing-only observability — never feeds back into the
  /// schedule, so trained vectors stay bit-identical.
  const std::vector<double>& epoch_seconds() const { return epoch_seconds_; }

  /// Wall seconds of each epoch spent in the serial group merges (one
  /// entry per epoch, a part of the matching epoch_seconds() entry; the
  /// rest is block compute and, with threads > 1, barrier waits).
  const std::vector<double>& merge_seconds() const { return merge_seconds_; }

 private:
  util::Status TrainSpans(const TokenSpan* sentences, size_t num_sentences,
                          size_t vocab_size);

  Word2VecOptions options_;
  size_t vocab_size_ = 0;
  bool trained_ = false;
  std::vector<float> syn0_;     // input vectors, vocab_size x dim
  std::vector<float> syn1neg_;  // output vectors, vocab_size x dim
  std::vector<double> epoch_seconds_;
  std::vector<double> merge_seconds_;
  /// Boundary-form unigram^0.75 sampler (replaces the 4 MB table).
  NegativeSampler sampler_;
};

}  // namespace embed
}  // namespace tdmatch

#endif  // TDMATCH_EMBED_WORD2VEC_H_
