#ifndef TDMATCH_EMBED_DOC2VEC_H_
#define TDMATCH_EMBED_DOC2VEC_H_

#include <cstdint>
#include <vector>

#include "embed/negative_sampler.h"
#include "util/status.h"

namespace tdmatch {
namespace embed {

/// Doc2Vec (PV-DBOW) training configuration — the D2VEC baseline uses DBOW,
/// matching the paper's setup (§V "Baselines").
struct Doc2VecOptions {
  int dim = 64;
  int negative = 5;
  double initial_lr = 0.025;
  int epochs = 10;
  /// Worker threads for block-parallel training (0 → 1). Changes only
  /// the wall time, never the trained vectors (see class comment).
  size_t threads = 4;
  uint64_t seed = 42;
};

/// \brief Distributed Bag-of-Words paragraph vectors (Le & Mikolov, 2014).
///
/// Each document vector is trained to predict the (unordered) words of the
/// document via negative sampling; words share an output matrix.
///
/// **Determinism contract:** training runs the fixed block schedule of
/// block_sharder.h — docs are partitioned into fixed-size blocks, each
/// block draws its negative samples only from its own seed-derived RNG
/// stream, workers train blocks against the weights frozen at group start
/// into sparse delta buffers, and deltas merge in canonical block order
/// (damped by 1/sqrt of each row's per-group touch count — see
/// block_sharder.h). Fixed-seed output is therefore bit-identical across
/// runs, for any `threads` setting, and for either SIMD ISA; `threads`
/// only changes the wall time.
class Doc2Vec {
 public:
  explicit Doc2Vec(Doc2VecOptions options = {});

  /// Trains on documents of word ids in [0, word_vocab_size).
  util::Status Train(const std::vector<std::vector<int32_t>>& docs,
                     size_t word_vocab_size);

  int dim() const { return options_.dim; }
  size_t num_docs() const { return num_docs_; }
  bool trained() const { return trained_; }

  /// Document vector (valid after Train).
  std::vector<float> DocVector(size_t doc) const;

  /// Infers a vector for an unseen document by gradient steps against the
  /// frozen word matrix (standard Doc2Vec inference).
  std::vector<float> Infer(const std::vector<int32_t>& doc,
                           int steps = 20) const;

 private:
  Doc2VecOptions options_;
  size_t num_docs_ = 0;
  size_t word_vocab_size_ = 0;
  bool trained_ = false;
  std::vector<float> doc_vecs_;
  std::vector<float> word_out_;
  NegativeSampler sampler_;
};

}  // namespace embed
}  // namespace tdmatch

#endif  // TDMATCH_EMBED_DOC2VEC_H_
