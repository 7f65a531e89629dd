// Golden regression tests for the embedding hot path (random walks,
// Word2Vec and Doc2Vec).
//
// The walk goldens were captured from the pre-CSR seed implementation;
// the Word2Vec and Doc2Vec goldens pin the deterministic
// *block-parallel* schedule (block_sharder.h): fixed sentence blocks,
// per-block seed-derived RNG streams, sparse deltas merged in canonical
// block order. They lock down, bit for bit, that
//
//  * RandomWalker produces identical walks over the flat CSR layout,
//    for any thread count, via both the corpus and the nested API;
//  * Word2Vec training (Skip-gram and CBOW, with subsampling active so
//    the keep-probability table is exercised) reproduces the captured
//    vectors — bit-exact on the capture toolchain, within a libm-drift
//    tolerance elsewhere (see ExpectGolden) — byte-identical for
//    threads ∈ {1, 2, 8}, including corpora spanning multiple merge
//    groups;
//  * Doc2Vec training and inference reproduce captured vectors on a
//    three-group corpus, for threads ∈ {1, 2, 8};
//  * Word2Vec and Doc2Vec train byte-identical vectors under the scalar
//    and the AVX2 kernel tables (the trainers dispatch, and the kernels
//    they call are bit-exact between ISAs);
//  * SparseDelta's kernel-backed capture and merge write the bytes of
//    the plain loops on either ISA;
//  * the bucketed boundary-form negative sampler emits the same id as
//    the classic materialized table it replaced, slot for slot, on small,
//    large and adversarial vocabularies.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "embed/block_sharder.h"
#include "embed/doc2vec.h"
#include "embed/negative_sampler.h"
#include "embed/random_walk.h"
#include "embed/sentence_corpus.h"
#include "embed/word2vec.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "util/simd/kernels.h"

namespace tdmatch {
namespace embed {
namespace {

graph::Graph TriangleWithTail() {
  graph::Graph g;
  g.AddNode("a");
  g.AddNode("b");
  g.AddNode("c");
  g.AddNode("tail");
  g.AddNode("isolated");
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(2, 3);
  return g;
}

// Captured from the seed implementation: Generate(TriangleWithTail,
// {num_walks=3, walk_length=7, seed=99, threads=1}).
const std::vector<std::vector<int32_t>> kGoldenWalks = {
    {0, 1, 2, 3, 2, 3, 2}, {0, 2, 3, 2, 0, 1, 2}, {0, 1, 2, 0, 1, 0, 1},
    {1, 2, 1, 0, 2, 3, 2}, {1, 0, 1, 0, 2, 0, 2}, {1, 0, 1, 2, 0, 1, 2},
    {2, 3, 2, 1, 0, 1, 0}, {2, 1, 0, 2, 3, 2, 0}, {2, 0, 2, 3, 2, 0, 2},
    {3, 2, 1, 2, 1, 0, 1}, {3, 2, 1, 0, 2, 3, 2}, {3, 2, 1, 0, 1, 0, 1},
    {4},                   {4},                   {4}};

RandomWalkOptions GoldenWalkOptions(size_t threads) {
  return RandomWalkOptions{.num_walks = 3, .walk_length = 7, .seed = 99,
                           .threads = threads};
}

TEST(GoldenWalkTest, NestedApiMatchesSeedImplementationAcrossThreadCounts) {
  graph::Graph g = TriangleWithTail();
  for (size_t threads : {1u, 4u, 8u}) {
    EXPECT_EQ(RandomWalker::Generate(g, GoldenWalkOptions(threads)),
              kGoldenWalks)
        << "threads=" << threads;
  }
}

TEST(GoldenWalkTest, CorpusApiFlattensTheSameWalks) {
  graph::Graph g = TriangleWithTail();
  for (size_t threads : {1u, 4u, 8u}) {
    SentenceCorpus c = RandomWalker::GenerateCorpus(g,
                                                    GoldenWalkOptions(threads));
    EXPECT_EQ(c.ToNested(), kGoldenWalks) << "threads=" << threads;
  }
}

TEST(GoldenWalkTest, FinalizedAndBuildingGraphsWalkIdentically) {
  graph::Graph building = TriangleWithTail();
  graph::Graph finalized = TriangleWithTail();
  finalized.Finalize();
  ASSERT_FALSE(building.finalized());
  ASSERT_TRUE(finalized.finalized());
  EXPECT_EQ(RandomWalker::GenerateCorpus(building, GoldenWalkOptions(1)),
            RandomWalker::GenerateCorpus(finalized, GoldenWalkOptions(1)));
  EXPECT_EQ(RandomWalker::Generate(finalized, GoldenWalkOptions(1)),
            kGoldenWalks);
}

TEST(GoldenWalkTest, EdgelessAndEmptyGraphs) {
  graph::Graph empty;
  empty.Finalize();
  EXPECT_TRUE(
      RandomWalker::GenerateCorpus(empty, GoldenWalkOptions(4)).empty());

  graph::Graph isolated;
  isolated.AddNode("x");
  isolated.AddNode("y");
  isolated.Finalize();
  SentenceCorpus c = RandomWalker::GenerateCorpus(isolated,
                                                  GoldenWalkOptions(4));
  ASSERT_EQ(c.NumSentences(), 6u);  // 2 nodes x 3 walks
  for (size_t i = 0; i < c.NumSentences(); ++i) {
    ASSERT_EQ(c.sentence(i).size(), 1u);
    EXPECT_EQ(c.sentence(i)[0], static_cast<int32_t>(i / 3));
  }
}

// ---------------------------------------------------------------------------
// Word2Vec goldens
// ---------------------------------------------------------------------------

/// Two disjoint token clusters, as in embed_test.cc.
std::vector<std::vector<int32_t>> ClusteredSentences(size_t n) {
  std::vector<std::vector<int32_t>> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back({0, 1, 2, 3, 4});
    out.push_back({5, 6, 7, 8, 9});
  }
  return out;
}

Word2VecOptions GoldenW2vOptions(size_t threads) {
  Word2VecOptions o;
  o.dim = 16;
  o.epochs = 2;
  o.threads = threads;
  o.seed = 42;
  o.subsample = 1e-3;  // exercises the keep-probability table
  return o;
}

// Captured from the block-schedule implementation at threads=1 (hex bit
// patterns of the trained input vectors). Regenerated when the
// deterministic parallel schedule landed — the block-ordered RNG
// consumption intentionally differs from the old single-stream sequence.
const uint32_t kGoldenSkipgramVec0[16] = {
    0xbcd513ceu, 0xbbf7ddbbu, 0x3c3860abu, 0x3cd97554u, 0x3cfbd253u,
    0x3c8a1dd0u, 0x3c60896cu, 0x3cb33795u, 0x3c85d54fu, 0x3baab629u,
    0x3c3ad857u, 0xbc565c7cu, 0x3c9a22acu, 0xbc36e335u, 0x3c583ba4u,
    0x3cc16e3eu};
const uint32_t kGoldenSkipgramVec5[16] = {
    0xbbd1ba41u, 0xbb33f1a5u, 0x3c060e74u, 0x3a852d03u, 0xbc22d65du,
    0x3b9290d5u, 0x3b2669a6u, 0x3c986540u, 0xbccd7f51u, 0x3b6ae52fu,
    0xbc91e638u, 0x3c65199cu, 0xbb841322u, 0xbc8e1c60u, 0x3cf4c32cu,
    0x3c9840bdu};
// Row 2 rather than row 0: under the golden config's aggressive
// subsampling, row 0 happens to receive near-identical updates in both
// CBOW and skip-gram mode, so it would not distinguish the two paths.
const uint32_t kGoldenCbowVec2[16] = {
    0x3cb9ea54u, 0x3ce3b426u, 0x3ca0e277u, 0x3c7cfc22u, 0x3c91bfacu,
    0xbce91105u, 0xbaff77f6u, 0x3cf1bfd3u, 0x3b16c47eu, 0x3c4d75cau,
    0x3c9b7347u, 0x3ca2e8fau, 0x3ccbf127u, 0xbcbfb6ddu, 0x3b852e1au,
    0x3b5e1545u};

/// The trained vectors pass through std::exp (sigmoid table), whose
/// last-ulp results differ across libm implementations, so the goldens
/// are compared with a tolerance far above libm drift (~1e-7 relative)
/// and far below any algorithmic change (which scrambles the RNG stream
/// and flips signs wholesale). On the toolchain the goldens were
/// captured with, the match is in fact bit-exact — and the in-process
/// tests below assert true bit-identity across thread counts and input
/// representations, which is libm-independent.
void ExpectGolden(const float* v, const uint32_t (&expected)[16],
                  const std::string& what) {
  for (int d = 0; d < 16; ++d) {
    float e;
    std::memcpy(&e, &expected[d], sizeof(e));
    EXPECT_NEAR(v[d], e, 1e-5) << what << " dim " << d;
  }
}

TEST(GoldenWord2VecTest, SkipgramMatchesGoldenAcrossThreadCounts) {
  auto sents = ClusteredSentences(20);
  for (size_t threads : {1u, 2u, 8u}) {
    Word2Vec w2v(GoldenW2vOptions(threads));
    ASSERT_TRUE(w2v.Train(sents, 10).ok());
    ExpectGolden(w2v.Vector(0), kGoldenSkipgramVec0,
               "skipgram vec0 threads=" + std::to_string(threads));
    ExpectGolden(w2v.Vector(5), kGoldenSkipgramVec5,
               "skipgram vec5 threads=" + std::to_string(threads));
  }
}

TEST(GoldenWord2VecTest, CbowMatchesGoldenAcrossThreadCounts) {
  auto sents = ClusteredSentences(20);
  for (size_t threads : {1u, 2u, 8u}) {
    Word2VecOptions o = GoldenW2vOptions(threads);
    o.cbow = true;
    o.window = 4;
    Word2Vec w2v(o);
    ASSERT_TRUE(w2v.Train(sents, 10).ok());
    ExpectGolden(w2v.Vector(2), kGoldenCbowVec2,
               "cbow vec2 threads=" + std::to_string(threads));
  }
}

/// Byte-identical trained vectors for threads ∈ {1, 2, 8} — the
/// thread-invariance half of the determinism contract, on a corpus large
/// enough to span multiple merge groups (kItemsPerBlock × kBlocksPerGroup
/// sentences per group), so cross-group merge ordering is exercised too.
TEST(GoldenWord2VecTest, MultiGroupCorpusIsThreadInvariant) {
  std::vector<std::vector<int32_t>> sents;
  for (size_t i = 0; i < 2500; ++i) {
    sents.push_back({static_cast<int32_t>(i % 7),
                     static_cast<int32_t>((i * 3) % 11),
                     static_cast<int32_t>((i * 5) % 13),
                     static_cast<int32_t>(i % 17),
                     static_cast<int32_t>((i + 1) % 19)});
  }
  auto train_once = [&](size_t threads) {
    Word2VecOptions o;
    o.dim = 8;
    o.epochs = 1;
    o.threads = threads;
    o.seed = 7;
    Word2Vec w2v(o);
    EXPECT_TRUE(w2v.Train(sents, 19).ok());
    std::vector<float> all;
    for (int32_t id = 0; id < 19; ++id) {
      auto v = w2v.VectorCopy(id);
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  };
  const auto base = train_once(1);
  EXPECT_EQ(base, train_once(2));
  EXPECT_EQ(base, train_once(8));
}

TEST(GoldenWord2VecTest, FlatCorpusTrainsIdenticallyToNestedVectors) {
  auto sents = ClusteredSentences(20);
  SentenceCorpus corpus = SentenceCorpus::FromNested(sents);
  Word2Vec nested(GoldenW2vOptions(1));
  Word2Vec flat(GoldenW2vOptions(8));
  ASSERT_TRUE(nested.Train(sents, 10).ok());
  ASSERT_TRUE(flat.Train(corpus, 10).ok());
  for (int32_t id = 0; id < 10; ++id) {
    EXPECT_EQ(nested.VectorCopy(id), flat.VectorCopy(id)) << "id " << id;
  }
  ExpectGolden(flat.Vector(0), kGoldenSkipgramVec0, "flat corpus vec0");
}

TEST(GoldenWord2VecTest, EndToEndWalkCorpusTrainingIsDeterministic) {
  graph::Graph g = TriangleWithTail();
  g.Finalize();
  RandomWalkOptions wo{.num_walks = 8, .walk_length = 10, .seed = 7,
                       .threads = 4};
  Word2VecOptions to;
  to.dim = 8;
  to.epochs = 2;
  to.seed = 7;
  auto train_once = [&](size_t threads) {
    SentenceCorpus walks = RandomWalker::GenerateCorpus(g, wo);
    Word2VecOptions o = to;
    o.threads = threads;
    Word2Vec w2v(o);
    EXPECT_TRUE(w2v.Train(walks, g.NumNodes()).ok());
    std::vector<float> all;
    for (size_t id = 0; id < g.NumNodes(); ++id) {
      auto v = w2v.VectorCopy(static_cast<int32_t>(id));
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  };
  const auto base = train_once(1);
  EXPECT_EQ(base, train_once(2));
  EXPECT_EQ(base, train_once(4));
  EXPECT_EQ(base, train_once(8));
}

// ---------------------------------------------------------------------------
// Doc2Vec goldens
// ---------------------------------------------------------------------------

/// 80 docs (three merge groups of kItemsPerBlock × kBlocksPerGroup docs)
/// over a 12-word vocabulary: even docs draw on words 0–5, odd docs on
/// 6–11, each with one extra cross-cluster word.
std::vector<std::vector<int32_t>> GoldenDocs() {
  std::vector<std::vector<int32_t>> out;
  for (int32_t i = 0; i < 80; ++i) {
    const int32_t base = (i % 2) * 6;
    out.push_back({base, base + 1 + i % 3, base + 2, base + 3 + i % 2,
                   base + 5, i % 12});
  }
  return out;
}

Doc2VecOptions GoldenD2vOptions(size_t threads) {
  Doc2VecOptions o;
  o.dim = 16;
  o.epochs = 10;
  o.initial_lr = 0.05;  // every pinned dim moves > 4e-3 from its init
  o.threads = threads;
  o.seed = 42;
  return o;
}

// Captured at threads=1 from the block-schedule trainer (hex bit
// patterns): doc 0 (first group), doc 77 (last group) and
// Infer({0, 1, 2, 3, 4, 5}).
const uint32_t kGoldenDoc0[16] = {
    0xbcf8a291u, 0x395b295cu, 0x3d0427c1u, 0x3c1971bcu, 0xbcd75d9au,
    0xbc4f412bu, 0xbca4792au, 0x3c5be1d3u, 0xbc31282fu, 0x3c317e33u,
    0xbc6abda1u, 0x3d01de9eu, 0xbd86bfc5u, 0x3b757faau, 0x3a40754cu,
    0x3dffc6d7u};
const uint32_t kGoldenDoc77[16] = {
    0xbca6c9a0u, 0xbc8f7e37u, 0x3c3e3e96u, 0xbc2ca83fu, 0xbdbf4c99u,
    0xbc6de79cu, 0xbd9abfb6u, 0xbcbd227bu, 0xbd092238u, 0x3b38e92eu,
    0xbcbadca5u, 0x3da5fd54u, 0xbdf4a17au, 0x3d4dabbcu, 0xbbbbe5ddu,
    0x3e0b1ad4u};
const uint32_t kGoldenInfer[16] = {
    0xbbf0c9e7u, 0x3dacf2f0u, 0x3e99dfedu, 0xbe5f66cfu, 0xbf5b676bu,
    0xbedb48e2u, 0xbef9d4f7u, 0xbe2abd3cu, 0xbecd37deu, 0x3db0a0eeu,
    0xbeaa0fb6u, 0x3f2b6adfu, 0xbfa33240u, 0x3e6923edu, 0xbe2a3ddcu,
    0x3fb96353u};

TEST(GoldenDoc2VecTest, TrainAndInferMatchGoldenAcrossThreadCounts) {
  const auto docs = GoldenDocs();
  for (size_t threads : {1u, 2u, 8u}) {
    Doc2Vec d2v(GoldenD2vOptions(threads));
    ASSERT_TRUE(d2v.Train(docs, 12).ok());
    const std::string tag = " threads=" + std::to_string(threads);
    ExpectGolden(d2v.DocVector(0).data(), kGoldenDoc0, "doc0" + tag);
    ExpectGolden(d2v.DocVector(77).data(), kGoldenDoc77, "doc77" + tag);
    ExpectGolden(d2v.Infer({0, 1, 2, 3, 4, 5}).data(), kGoldenInfer,
                 "infer" + tag);
  }
}

// ---------------------------------------------------------------------------
// Cross-ISA: the trainers dispatch, and their output must not depend on it
// ---------------------------------------------------------------------------

/// Installs an ISA for one scope and restores the previous one after.
class ScopedIsa {
 public:
  explicit ScopedIsa(simd::Isa isa) : previous_(simd::ActiveIsa()) {
    EXPECT_EQ(simd::SetActiveIsa(isa), isa);
  }
  ~ScopedIsa() { simd::SetActiveIsa(previous_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  simd::Isa previous_;
};

/// Runs `train` once under the scalar table and once under AVX2 and
/// expects the two float vectors to be byte-identical.
template <typename Train>
void ExpectSameBytesOnBothIsas(Train train, const std::string& what) {
  std::vector<float> scalar, avx2;
  {
    ScopedIsa isa(simd::Isa::kScalar);
    scalar = train();
  }
  {
    ScopedIsa isa(simd::Isa::kAvx2);
    avx2 = train();
  }
  ASSERT_EQ(scalar.size(), avx2.size()) << what;
  ASSERT_FALSE(scalar.empty()) << what;
  EXPECT_EQ(0, std::memcmp(scalar.data(), avx2.data(),
                           scalar.size() * sizeof(float)))
      << what;
}

bool Avx2Available() { return simd::BuildHasAvx2() && simd::CpuHasAvx2Fma(); }

/// 600 sentences of 8 tokens over a 40-word vocabulary with skewed
/// frequencies, so subsampling keeps and drops different tokens.
std::vector<std::vector<int32_t>> CrossIsaSentences() {
  util::Rng rng(31);
  std::vector<std::vector<int32_t>> out(600);
  for (auto& sentence : out) {
    for (int t = 0; t < 8; ++t) {
      const uint64_t r = rng.UniformInt(40);
      sentence.push_back(static_cast<int32_t>(r * r / 40));
    }
  }
  return out;
}

TEST(CrossIsaTest, Word2VecIsByteIdenticalOnScalarAndAvx2) {
  if (!Avx2Available()) GTEST_SKIP() << "needs an AVX2+FMA build and CPU";
  const auto sents = CrossIsaSentences();
  for (bool cbow : {false, true}) {
    for (int dim : {13, 64}) {
      for (size_t threads : {1u, 4u}) {
        Word2VecOptions o;
        o.dim = dim;
        o.epochs = 2;
        o.threads = threads;
        o.seed = 5;
        o.subsample = 1e-2;
        o.cbow = cbow;
        auto train = [&] {
          Word2Vec w2v(o);
          EXPECT_TRUE(w2v.Train(sents, 40).ok());
          std::vector<float> all;
          for (int32_t id = 0; id < 40; ++id) {
            auto v = w2v.VectorCopy(id);
            all.insert(all.end(), v.begin(), v.end());
          }
          return all;
        };
        ExpectSameBytesOnBothIsas(
            train, std::string(cbow ? "cbow" : "skipgram") +
                       " dim=" + std::to_string(dim) +
                       " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(CrossIsaTest, Doc2VecTrainAndInferAreByteIdenticalOnScalarAndAvx2) {
  if (!Avx2Available()) GTEST_SKIP() << "needs an AVX2+FMA build and CPU";
  const auto docs = CrossIsaSentences();
  const std::vector<int32_t> unseen = {3, 1, 4, 1, 5, 9, 2, 6};
  for (int dim : {13, 64}) {
    for (size_t threads : {1u, 4u}) {
      Doc2VecOptions o;
      o.dim = dim;
      o.epochs = 3;
      o.threads = threads;
      o.seed = 9;
      auto train = [&] {
        Doc2Vec d2v(o);
        EXPECT_TRUE(d2v.Train(docs, 40).ok());
        std::vector<float> all;
        for (size_t d = 0; d < d2v.num_docs(); ++d) {
          auto v = d2v.DocVector(d);
          all.insert(all.end(), v.begin(), v.end());
        }
        auto inferred = d2v.Infer(unseen);
        all.insert(all.end(), inferred.begin(), inferred.end());
        return all;
      };
      ExpectSameBytesOnBothIsas(train, "doc2vec dim=" + std::to_string(dim) +
                                           " threads=" +
                                           std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// SparseDelta: kernel-backed capture and merge keep the hand loop's bytes
// ---------------------------------------------------------------------------

/// Two blocks over a shared 12-row matrix touch overlapping rows (rows 3
/// and 7 by both, so their merge weight is 1/sqrt(2)), train their local
/// copies, capture and merge in block order. The result must equal, byte
/// for byte, the hand loop `base + (local - base) * (1/sqrt(c))` applied
/// block after block, on every ISA the machine runs.
TEST(SparseDeltaTest, CaptureAndMergeMatchHandLoopBytesOnEveryIsa) {
  constexpr int kRows = 12;
  const std::vector<std::vector<int32_t>> kBlockRows = {{3, 0, 7, 5},
                                                        {7, 11, 3, 2, 9}};
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (Avx2Available()) isas.push_back(simd::Isa::kAvx2);
  for (simd::Isa which : isas) {
    ScopedIsa isa(which);
    const simd::Kernels& k = simd::Active();
    for (int dim : {1, 7, 13, 48, 64}) {
      const size_t dn = static_cast<size_t>(dim);
      util::Rng rng(static_cast<uint64_t>(dim));
      std::vector<float> shared(kRows * dn);
      for (float& v : shared) v = static_cast<float>(rng.Uniform() - 0.5);
      std::vector<float> expect = shared;

      // Local updates of every touched row, block by block.
      std::vector<std::vector<std::vector<float>>> local(kBlockRows.size());
      std::vector<uint32_t> counts(kRows, 0);
      for (size_t blk = 0; blk < kBlockRows.size(); ++blk) {
        for (int32_t row : kBlockRows[blk]) {
          std::vector<float> v(shared.begin() + row * dim,
                               shared.begin() + (row + 1) * dim);
          for (float& x : v) x += static_cast<float>(rng.Uniform() - 0.5);
          local[blk].push_back(v);
          ++counts[static_cast<size_t>(row)];
        }
      }

      std::vector<int32_t> slot_map(kRows, -1);
      std::vector<SparseDelta> deltas(kBlockRows.size());
      for (size_t blk = 0; blk < kBlockRows.size(); ++blk) {
        deltas[blk].Reset(shared.data(), dim);
        for (size_t r = 0; r < kBlockRows[blk].size(); ++r) {
          float* p = deltas[blk].Row(kBlockRows[blk][r], slot_map.data());
          std::memcpy(p, local[blk][r].data(), dn * sizeof(float));
        }
        deltas[blk].Capture(slot_map.data(), k);
        for (int32_t slot : slot_map) ASSERT_EQ(slot, -1);
      }
      for (const SparseDelta& delta : deltas) {
        delta.MergeWeighted(counts.data(), k);
      }

      // Hand loop: deltas against the frozen matrix, merged in block order.
      const std::vector<float> frozen = expect;
      for (size_t blk = 0; blk < kBlockRows.size(); ++blk) {
        for (size_t r = 0; r < kBlockRows[blk].size(); ++r) {
          const size_t row = static_cast<size_t>(kBlockRows[blk][r]);
          const float inv = 1.0f / std::sqrt(static_cast<float>(counts[row]));
          for (size_t d = 0; d < dn; ++d) {
            const float delta = local[blk][r][d] - frozen[row * dn + d];
            expect[row * dn + d] = expect[row * dn + d] + delta * inv;
          }
        }
      }
      EXPECT_EQ(0, std::memcmp(shared.data(), expect.data(),
                               shared.size() * sizeof(float)))
          << simd::IsaName(which) << " dim=" << dim;
    }
  }
}

// ---------------------------------------------------------------------------
// Negative sampler vs the classic materialized table
// ---------------------------------------------------------------------------

/// Reference: the exact table construction the seed implementation used.
std::vector<int32_t> ClassicUnigramTable(const std::vector<uint64_t>& counts,
                                         size_t table_size) {
  std::vector<int32_t> table(table_size, 0);
  double norm = 0.0;
  for (uint64_t c : counts) norm += std::pow(static_cast<double>(c), 0.75);
  size_t i = 0;
  double cum = std::pow(static_cast<double>(counts[0]), 0.75) / norm;
  for (size_t t = 0; t < table_size; ++t) {
    table[t] = static_cast<int32_t>(i);
    if (static_cast<double>(t) / static_cast<double>(table_size) > cum &&
        i + 1 < counts.size()) {
      ++i;
      cum += std::pow(static_cast<double>(counts[i]), 0.75) / norm;
    }
  }
  return table;
}

TEST(NegativeSamplerTest, MatchesClassicTableSlotForSlot) {
  constexpr size_t kTable = 1 << 16;  // small enough to compare exhaustively
  // Skewed counts incl. zero-count words (never sampled) and a hub.
  std::vector<uint64_t> counts = {1000, 0, 3, 500, 1, 0, 42, 7, 7, 2000};
  auto table = ClassicUnigramTable(counts, kTable);
  NegativeSampler sampler;
  sampler.Build(counts, kTable);
  for (size_t t = 0; t < kTable; ++t) {
    ASSERT_EQ(sampler.Sample(t), table[t]) << "slot " << t;
  }
}

TEST(NegativeSamplerTest, UniformCountsCoverVocabulary) {
  constexpr size_t kTable = 1 << 14;
  std::vector<uint64_t> counts(37, 5);
  auto table = ClassicUnigramTable(counts, kTable);
  NegativeSampler sampler;
  sampler.Build(counts, kTable);
  for (size_t t = 0; t < kTable; ++t) {
    ASSERT_EQ(sampler.Sample(t), table[t]) << "slot " << t;
  }
  EXPECT_EQ(sampler.Sample(kTable - 1), 36);
}

TEST(NegativeSamplerTest, SingleWordVocab) {
  NegativeSampler sampler;
  sampler.Build({9}, 1 << 10);
  for (size_t t = 0; t < (1u << 10); t += 97) {
    EXPECT_EQ(sampler.Sample(t), 0);
  }
}

/// Builds the sampler and compares every slot against the classic table.
void ExpectEverySlotMatchesClassicTable(const std::vector<uint64_t>& counts,
                                        size_t table_size) {
  const auto table = ClassicUnigramTable(counts, table_size);
  NegativeSampler sampler;
  sampler.Build(counts, table_size);
  for (size_t t = 0; t < table_size; ++t) {
    ASSERT_EQ(sampler.Sample(t), table[t]) << "slot " << t;
  }
}

std::vector<uint64_t> Zipf(size_t vocab) {
  std::vector<uint64_t> counts(vocab);
  for (size_t i = 0; i < vocab; ++i) {
    counts[i] = static_cast<uint64_t>(1e6 / static_cast<double>(i + 1)) + 1;
  }
  return counts;
}

TEST(NegativeSamplerTest, ZipfVocabularyMatchesClassicTable) {
  ExpectEverySlotMatchesClassicTable(Zipf(50000), 1 << 20);
}

TEST(NegativeSamplerTest, HubsAmongSingletonsMatchClassicTable) {
  // Three hubs take most of the mass and the singletons get one slot
  // each, so runs of consecutive boundaries crowd single buckets and the
  // in-bucket search takes steps: up to 64 words a bucket with 3k
  // singletons (16384 buckets of 64 slots), two with 300k (one slot per
  // bucket, the cap).
  for (size_t singletons : {3000u, 300000u}) {
    std::vector<uint64_t> counts(singletons + 3, 1);
    counts[0] = 50000000;
    counts[singletons / 2 + 1] = 20000000;
    counts[singletons + 2] = 10000000;
    ExpectEverySlotMatchesClassicTable(counts, 1 << 20);
  }
}

TEST(NegativeSamplerTest, VocabLargerThanTableMatchesClassicTable) {
  // 2M words over 1M slots: the tail of the vocabulary is never reached.
  util::Rng rng(17);
  std::vector<uint64_t> counts(2000000);
  for (uint64_t& c : counts) c = 1 + rng.UniformInt(5);
  ExpectEverySlotMatchesClassicTable(counts, 1 << 20);
}

TEST(NegativeSamplerTest, NonPowerOfTwoTableMatchesClassicTable) {
  util::Rng rng(23);
  std::vector<uint64_t> counts(1850);
  for (uint64_t& c : counts) c = rng.UniformInt(1000);
  ExpectEverySlotMatchesClassicTable(counts, 1000003);
  ExpectEverySlotMatchesClassicTable(Zipf(50000), 1000003);
}

}  // namespace
}  // namespace embed
}  // namespace tdmatch
