#include "embed/doc2vec.h"

#include <algorithm>
#include <cmath>

#include "embed/block_sharder.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/simd/kernels.h"

namespace tdmatch {
namespace embed {

namespace {
constexpr size_t kTableSize = 1 << 18;

/// Stream salt separating Doc2Vec block streams from Word2Vec's.
constexpr uint64_t kD2vStreamSalt = 0x64327665635f5347ULL;

/// Exact sigmoid (Doc2Vec trains few enough pairs that the table lookup
/// is not worth the grid coupling).
inline float Sigmoid(float x) {
  if (x > 6.0f) return 1.0f;
  if (x < -6.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

/// Shared-matrix indices in the block schedule.
constexpr size_t kDocs = 0;
constexpr size_t kWords = 1;

}  // namespace

Doc2Vec::Doc2Vec(Doc2VecOptions options) : options_(options) {
  TDM_CHECK_GT(options_.dim, 0);
  if (options_.threads == 0) options_.threads = 1;
}

util::Status Doc2Vec::Train(const std::vector<std::vector<int32_t>>& docs,
                            size_t word_vocab_size) {
  if (word_vocab_size == 0) {
    return util::Status::InvalidArgument("word_vocab_size must be > 0");
  }
  num_docs_ = docs.size();
  word_vocab_size_ = word_vocab_size;
  const int dim = options_.dim;

  std::vector<uint64_t> counts(word_vocab_size, 0);
  uint64_t total = 0;
  for (const auto& d : docs) {
    for (int32_t w : d) {
      if (w < 0 || static_cast<size_t>(w) >= word_vocab_size) {
        return util::Status::OutOfRange("word id out of range");
      }
      ++counts[static_cast<size_t>(w)];
      ++total;
    }
  }
  if (total == 0) return util::Status::InvalidArgument("no tokens");

  sampler_.Build(counts, kTableSize);

  util::Rng init(options_.seed);
  doc_vecs_.resize(num_docs_ * static_cast<size_t>(dim));
  word_out_.assign(word_vocab_size * static_cast<size_t>(dim), 0.0f);
  for (float& v : doc_vecs_) {
    v = static_cast<float>((init.Uniform() - 0.5) / dim);
  }

  const float lr0 = static_cast<float>(options_.initial_lr);
  const uint64_t seed = options_.seed;

  // Inner loops call the dispatched kernels, read once here; they are
  // bit-exact between ISAs (see util/simd/kernels.h).
  const simd::Kernels& k = simd::Active();
  const size_t dn = static_cast<size_t>(dim);

  // Deterministic block-parallel SGD over doc blocks (same schedule and
  // contract as Word2Vec, see block_sharder.h). A doc's vector is only
  // ever touched by its own block (merge weight 1, the full update); the
  // shared word-output rows are damped by their touch counts.
  BlockScheduler sched(num_docs_, options_.threads,
                       {{doc_vecs_.data(), num_docs_, dim},
                        {word_out_.data(), word_vocab_size, dim}});
  std::vector<std::vector<float>> grads(sched.num_workers(),
                                        std::vector<float>(dn));
  const NegativeSampling<Sigmoid> ns{sampler_, kTableSize - 1,
                                     options_.negative, kWords, k, dn};

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    const float lr = lr0 * (1.0f - static_cast<float>(epoch) /
                                       static_cast<float>(options_.epochs));
    sched.RunEpoch([&](size_t block, size_t worker, BlockRows rows) {
      float* const grad = grads[worker].data();
      util::Rng rng(BlockSeed(seed, kD2vStreamSalt,
                              static_cast<uint64_t>(epoch), block));
      for (size_t di = sched.block_begin(block); di < sched.block_end(block);
           ++di) {
        float* const v = rows.Row(kDocs, static_cast<int32_t>(di));
        for (int32_t w : docs[di]) {
          ns.Update(rows, rng, w, v, lr, grad);
          k.add(grad, v, dn);
        }
      }
    });
  }
  trained_ = true;
  return util::Status::OK();
}

std::vector<float> Doc2Vec::DocVector(size_t doc) const {
  TDM_DCHECK(trained_);
  TDM_DCHECK_LT(doc, num_docs_);
  const float* v = doc_vecs_.data() + doc * static_cast<size_t>(options_.dim);
  return std::vector<float>(v, v + options_.dim);
}

std::vector<float> Doc2Vec::Infer(const std::vector<int32_t>& doc,
                                  int steps) const {
  TDM_DCHECK(trained_);
  const int dim = options_.dim;
  util::Rng rng(options_.seed ^ 0xabcdef);
  std::vector<float> v(static_cast<size_t>(dim));
  for (float& x : v) x = static_cast<float>((rng.Uniform() - 0.5) / dim);
  const float lr = static_cast<float>(options_.initial_lr);
  const size_t dn = static_cast<size_t>(dim);
  std::vector<float> grad(dn);
  const simd::Kernels& k = simd::Active();
  for (int s = 0; s < steps; ++s) {
    for (int32_t w : doc) {
      if (w < 0 || static_cast<size_t>(w) >= word_vocab_size_) continue;
      std::fill(grad.begin(), grad.end(), 0.0f);
      for (int n = 0; n <= options_.negative; ++n) {
        int32_t target;
        float label;
        if (n == 0) {
          target = w;
          label = 1.0f;
        } else {
          target = sampler_.Sample(rng.Next() & (kTableSize - 1));
          if (target == w) continue;
          label = 0.0f;
        }
        const float* out = word_out_.data() +
                           static_cast<size_t>(target) *
                               static_cast<size_t>(dim);
        const float dot = k.dot(v.data(), out, dn);
        const float gr = (label - Sigmoid(dot)) * lr;
        k.axpy(gr, out, grad.data(), dn);
      }
      k.add(grad.data(), v.data(), dn);
    }
  }
  return v;
}

}  // namespace embed
}  // namespace tdmatch
