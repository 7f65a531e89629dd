#include "embed/word2vec.h"

#include <algorithm>
#include <cmath>

#include "embed/block_sharder.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/simd/kernels.h"
#include "util/timer.h"

namespace tdmatch {
namespace embed {

namespace {

/// Slot count of the (virtual) unigram table; the boundary sampler
/// reproduces the classic table of this size bit-for-bit.
constexpr size_t kUnigramTableSize = 1 << 20;

/// Stream salt separating Word2Vec block streams from Doc2Vec's (see
/// BlockSeed).
constexpr uint64_t kW2vStreamSalt = 0x77327665635f5347ULL;

/// Per-worker scratch reused across all blocks a worker computes.
struct WorkerScratch {
  std::vector<int32_t> slot_syn0;  // row -> block slot, -1 = untouched
  std::vector<int32_t> slot_syn1;
  std::vector<float> neu1;         // CBOW context average
  std::vector<float> neu1e;        // accumulated input gradient
  std::vector<int32_t> filtered;   // subsampling buffer
};

/// Per-block delta buffers for the two weight matrices.
struct BlockDelta {
  SparseDelta syn0;
  SparseDelta syn1;
};

}  // namespace

Word2Vec::Word2Vec(Word2VecOptions options) : options_(options) {
  TDM_CHECK_GT(options_.dim, 0);
  TDM_CHECK_GT(options_.window, 0);
  TDM_CHECK_GE(options_.negative, 1);
  if (options_.threads == 0) options_.threads = 1;
}

util::Status Word2Vec::Train(const SentenceCorpus& corpus, size_t vocab_size) {
  std::vector<TokenSpan> spans(corpus.NumSentences());
  for (size_t i = 0; i < spans.size(); ++i) spans[i] = corpus.sentence(i);
  return TrainSpans(spans.data(), spans.size(), vocab_size);
}

util::Status Word2Vec::Train(
    const std::vector<std::vector<int32_t>>& sentences, size_t vocab_size) {
  std::vector<TokenSpan> spans(sentences.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    spans[i] = TokenSpan(sentences[i].data(), sentences[i].size());
  }
  return TrainSpans(spans.data(), spans.size(), vocab_size);
}

util::Status Word2Vec::TrainSpans(const TokenSpan* sentences,
                                  size_t num_sentences, size_t vocab_size) {
  if (vocab_size == 0) {
    return util::Status::InvalidArgument("vocab_size must be > 0");
  }
  vocab_size_ = vocab_size;
  const int dim = options_.dim;

  // Frequency counts for the negative-sampling distribution and
  // subsampling, plus the exact per-sentence prefix word counts the LR
  // schedule decays on.
  std::vector<uint64_t> counts(vocab_size, 0);
  std::vector<uint64_t> word_prefix(num_sentences + 1, 0);
  for (size_t si = 0; si < num_sentences; ++si) {
    for (int32_t w : sentences[si]) {
      if (w < 0 || static_cast<size_t>(w) >= vocab_size) {
        return util::Status::OutOfRange("token id out of vocab range");
      }
      ++counts[static_cast<size_t>(w)];
    }
    word_prefix[si + 1] = word_prefix[si] + sentences[si].size();
  }
  const uint64_t total_words = word_prefix[num_sentences];
  if (total_words == 0) {
    return util::Status::InvalidArgument("no training tokens");
  }

  sampler_.Build(counts, kUnigramTableSize);

  // Weight init: syn0 uniform in [-0.5/dim, 0.5/dim], syn1neg zero.
  util::Rng init_rng(options_.seed);
  syn0_.resize(vocab_size * static_cast<size_t>(dim));
  syn1neg_.assign(vocab_size * static_cast<size_t>(dim), 0.0f);
  for (float& v : syn0_) {
    v = static_cast<float>((init_rng.Uniform() - 0.5) / dim);
  }

  // Per-word keep probability for frequency subsampling, hoisted out of
  // the token loop. Sentinel 2 means "always keep, draw nothing".
  const double subsample = options_.subsample;
  std::vector<double> keep_prob;
  if (subsample > 0.0) {
    keep_prob.assign(vocab_size, 2.0);
    for (size_t w = 0; w < vocab_size; ++w) {
      if (counts[w] == 0) continue;
      const double f = static_cast<double>(counts[w]) /
                       static_cast<double>(total_words);
      keep_prob[w] = (std::sqrt(f / subsample) + 1.0) * subsample / f;
    }
  }

  const uint64_t total_steps =
      total_words * static_cast<uint64_t>(options_.epochs);
  const float initial_lr = static_cast<float>(options_.initial_lr);
  float* const syn0 = syn0_.data();
  float* const syn1 = syn1neg_.data();
  const int negative = options_.negative;
  const int window = options_.window;
  const bool cbow = options_.cbow;
  const uint64_t seed = options_.seed;

  // Inner loops call the dispatched kernels, read once here. Dot, Axpy,
  // ScaleInto and Add are bit-exact between ISAs (util/simd/kernels.h),
  // so the trained vectors are identical on either path.
  const simd::Kernels& k = simd::Active();
  const size_t dn = static_cast<size_t>(dim);

  // Deterministic block-parallel SGD (see the contract in the header and
  // block_sharder.h): workers train fixed sentence blocks against the
  // group-start weights into sparse delta buffers; deltas merge in
  // canonical block order, so the result is independent of the thread
  // count.
  BlockScheduler sched(num_sentences, options_.threads);
  std::vector<WorkerScratch> scratch(sched.num_workers());
  for (auto& ws : scratch) {
    ws.slot_syn0.assign(vocab_size, -1);
    ws.slot_syn1.assign(vocab_size, -1);
    ws.neu1.resize(static_cast<size_t>(dim));
    ws.neu1e.resize(static_cast<size_t>(dim));
  }
  std::vector<BlockDelta> deltas(
      std::min<size_t>(sched.num_blocks(), kBlocksPerGroup));
  // Per-row touch counts for the weighted merge; zeroed between groups by
  // walking the same touched lists, so steady state is O(touched).
  std::vector<uint32_t> touch0(vocab_size, 0);
  std::vector<uint32_t> touch1(vocab_size, 0);

  epoch_seconds_.clear();
  epoch_seconds_.reserve(static_cast<size_t>(options_.epochs));
  merge_seconds_.clear();
  merge_seconds_.reserve(static_cast<size_t>(options_.epochs));
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    util::StopWatch epoch_watch;
    const uint64_t epoch_words =
        static_cast<uint64_t>(epoch) * total_words;

    auto compute = [&](size_t block, size_t worker) {
      WorkerScratch& ws = scratch[worker];
      BlockDelta& bd = deltas[block % kBlocksPerGroup];
      bd.syn0.Reset(syn0, dim);
      bd.syn1.Reset(syn1, dim);
      int32_t* const slot0 = ws.slot_syn0.data();
      int32_t* const slot1 = ws.slot_syn1.data();
      float* const neu1e = ws.neu1e.data();
      // The block's private stream: subsampling, window reduction, and
      // negative draws are consumed from it and nothing else.
      util::Rng rng(BlockSeed(seed, kW2vStreamSalt,
                              static_cast<uint64_t>(epoch), block));

      const size_t s_begin = sched.block_begin(block);
      const size_t s_end = sched.block_end(block);
      for (size_t si = s_begin; si < s_end; ++si) {
        const TokenSpan& sentence = sentences[si];
        // Subsample frequent tokens into the reusable buffer; without
        // subsampling the sentence span is trained on in place.
        const int32_t* sent = sentence.data();
        int slen = static_cast<int>(sentence.size());
        if (subsample > 0.0) {
          ws.filtered.clear();
          for (int32_t w : sentence) {
            const double keep = keep_prob[static_cast<size_t>(w)];
            if (keep < 1.0 && rng.Uniform() > keep) continue;
            ws.filtered.push_back(w);
          }
          sent = ws.filtered.data();
          slen = static_cast<int>(ws.filtered.size());
        }
        // Exact per-sentence decay (the old code only refreshed its word
        // counter on exact 1024-token multiples, stalling the schedule on
        // fixed-length walk corpora).
        const float lr =
            DecayedLr(initial_lr, epoch_words + word_prefix[si], total_steps);

        for (int pos = 0; pos < slen; ++pos) {
          const int32_t center = sent[pos];
          const int reduced =
              1 + static_cast<int>(rng.UniformInt(
                      static_cast<uint64_t>(window)));
          const int lo = pos - reduced < 0 ? 0 : pos - reduced;
          const int hi = pos + reduced > slen - 1 ? slen - 1 : pos + reduced;

          if (cbow) {
            // Average context -> predict center.
            int cw = 0;
            std::fill(ws.neu1.begin(), ws.neu1.end(), 0.0f);
            for (int p = lo; p <= hi; ++p) {
              if (p == pos) continue;
              k.add(bd.syn0.Row(sent[p], slot0), ws.neu1.data(), dn);
              ++cw;
            }
            if (cw == 0) continue;
            for (int d = 0; d < dim; ++d) {
              ws.neu1[static_cast<size_t>(d)] /= static_cast<float>(cw);
            }
            const float* const ctx = ws.neu1.data();
            for (int n = 0; n <= negative; ++n) {
              int32_t target;
              float label;
              if (n == 0) {
                target = center;
                label = 1.0f;
              } else {
                target =
                    sampler_.Sample(rng.Next() & (kUnigramTableSize - 1));
                if (target == center) continue;
                label = 0.0f;
              }
              float* const out = bd.syn1.Row(target, slot1);
              const float dot = k.dot(ctx, out, dn);
              const float grad = (label - FastSigmoid(dot)) * lr;
              // n == 0 always runs (no continue path), so assigning there
              // replaces the upfront zero-fill of the scratch gradient.
              if (n == 0) {
                k.scale_into(grad, out, neu1e, dn);
              } else {
                k.axpy(grad, out, neu1e, dn);
              }
              k.axpy(grad, ctx, out, dn);
            }
            for (int p = lo; p <= hi; ++p) {
              if (p == pos) continue;
              k.add(neu1e, bd.syn0.Row(sent[p], slot0), dn);
            }
          } else {
            // Skip-gram: center predicts each context word.
            float* const vin = bd.syn0.Row(center, slot0);
            for (int p = lo; p <= hi; ++p) {
              if (p == pos) continue;
              const int32_t context = sent[p];
              for (int n = 0; n <= negative; ++n) {
                int32_t target;
                float label;
                if (n == 0) {
                  target = context;
                  label = 1.0f;
                } else {
                  target =
                      sampler_.Sample(rng.Next() & (kUnigramTableSize - 1));
                  if (target == context) continue;
                  label = 0.0f;
                }
                float* const out = bd.syn1.Row(target, slot1);
                const float dot = k.dot(vin, out, dn);
                const float grad = (label - FastSigmoid(dot)) * lr;
                if (n == 0) {
                  k.scale_into(grad, out, neu1e, dn);
                } else {
                  k.axpy(grad, out, neu1e, dn);
                }
                // syn1 and syn0 deltas live in distinct buffers, so `out`
                // never aliases `vin`.
                k.axpy(grad, vin, out, dn);
              }
              k.add(neu1e, vin, dn);
            }
          }
        }
      }
      bd.syn0.Capture(slot0, k);
      bd.syn1.Capture(slot1, k);
    };

    // Weighted group merge: each row's delta is averaged over the blocks
    // of the group that touched it (see block_sharder.h on why a plain
    // sum diverges on walk corpora). One clock pair per group times it.
    double merge_s = 0.0;
    auto merge = [&](size_t group_begin, size_t group_end) {
      const util::StopWatch merge_watch;
      for (size_t b = group_begin; b < group_end; ++b) {
        const BlockDelta& bd = deltas[b % kBlocksPerGroup];
        for (int32_t row : bd.syn0.touched()) ++touch0[row];
        for (int32_t row : bd.syn1.touched()) ++touch1[row];
      }
      for (size_t b = group_begin; b < group_end; ++b) {
        const BlockDelta& bd = deltas[b % kBlocksPerGroup];
        bd.syn0.MergeWeighted(touch0.data(), k);
        bd.syn1.MergeWeighted(touch1.data(), k);
      }
      for (size_t b = group_begin; b < group_end; ++b) {
        const BlockDelta& bd = deltas[b % kBlocksPerGroup];
        for (int32_t row : bd.syn0.touched()) touch0[row] = 0;
        for (int32_t row : bd.syn1.touched()) touch1[row] = 0;
      }
      merge_s += merge_watch.ElapsedSeconds();
    };

    sched.RunEpoch(compute, merge);
    epoch_seconds_.push_back(epoch_watch.ElapsedSeconds());
    merge_seconds_.push_back(merge_s);
  }

  trained_ = true;
  return util::Status::OK();
}

const float* Word2Vec::Vector(int32_t id) const {
  TDM_DCHECK(trained_);
  TDM_DCHECK(id >= 0 && static_cast<size_t>(id) < vocab_size_);
  return syn0_.data() + static_cast<size_t>(id) * static_cast<size_t>(dim());
}

std::vector<float> Word2Vec::VectorCopy(int32_t id) const {
  const float* v = Vector(id);
  return std::vector<float>(v, v + dim());
}

double Word2Vec::Cosine(const float* a, const float* b, int dim) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int d = 0; d < dim; ++d) {
    dot += static_cast<double>(a[d]) * b[d];
    na += static_cast<double>(a[d]) * a[d];
    nb += static_cast<double>(b[d]) * b[d];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double Word2Vec::CosineIds(int32_t a, int32_t b) const {
  return Cosine(Vector(a), Vector(b), dim());
}

}  // namespace embed
}  // namespace tdmatch
