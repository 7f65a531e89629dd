// Component micro-benchmarks (google-benchmark): the hot paths of the
// pipeline — tokenization, stemming, n-grams, BFS, walk generation,
// negative sampling, Word2Vec epochs, top-k selection and serving index
// search.
//
// End-to-end and per-layer performance claims come from tdbench; these
// rows isolate one component each. The README keeps the last numbers of
// the retired `…Ref` replicas (pre-CSR walks, the materialized unigram
// table, partial_sort selection) beside the shipped code's:
//
//   ./micro_components --benchmark_filter='WalkGen|NegSample|TopK|Word2Vec|Ivf|Exact'

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "embed/negative_sampler.h"
#include "embed/random_walk.h"
#include "embed/sentence_corpus.h"
#include "embed/word2vec.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "match/top_k.h"
#include "serve/index.h"
#include "serve/ivf_index.h"
#include "text/ngram.h"
#include "text/preprocess.h"
#include "text/stemmer.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace {

using namespace tdmatch;  // NOLINT

const char kSampleText[] =
    "Shyamalan directed this brilliant thriller about a quiet kid and a "
    "gentle doctor; Bruce Willis delivers a stunning performance in 1999.";

void BM_Tokenize(benchmark::State& state) {
  text::Tokenizer t;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Tokenize(kSampleText));
  }
}
BENCHMARK(BM_Tokenize);

void BM_Stem(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::PorterStemmer::Stem("relational"));
  }
}
BENCHMARK(BM_Stem);

void BM_Preprocess(benchmark::State& state) {
  text::Preprocessor pp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pp.Terms(kSampleText));
  }
}
BENCHMARK(BM_Preprocess);

void BM_NGrams(benchmark::State& state) {
  text::NGramGenerator g(static_cast<size_t>(state.range(0)));
  std::vector<std::string> tokens(20, "tok");
  for (size_t i = 0; i < tokens.size(); ++i) tokens[i] += std::to_string(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.GenerateUnique(tokens));
  }
}
BENCHMARK(BM_NGrams)->Arg(1)->Arg(2)->Arg(3);

graph::Graph RandomGraph(size_t n, size_t avg_degree, uint64_t seed) {
  graph::Graph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode("n" + std::to_string(i));
  }
  util::Rng rng(seed);
  for (size_t e = 0; e < n * avg_degree / 2; ++e) {
    g.AddEdge(static_cast<graph::NodeId>(rng.UniformInt(n)),
              static_cast<graph::NodeId>(rng.UniformInt(n)));
  }
  return g;
}

void BM_BfsDistances(benchmark::State& state) {
  auto g = RandomGraph(static_cast<size_t>(state.range(0)), 6, 1);
  g.Finalize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::Bfs::Distances(g, 0));
  }
}
BENCHMARK(BM_BfsDistances)->Arg(1000)->Arg(10000);

void BM_ShortestPathDag(benchmark::State& state) {
  auto g = RandomGraph(5000, 6, 2);
  g.Finalize();
  util::Rng rng(3);
  for (auto _ : state) {
    auto a = static_cast<graph::NodeId>(rng.UniformInt(5000ULL));
    auto b = static_cast<graph::NodeId>(rng.UniformInt(5000ULL));
    benchmark::DoNotOptimize(graph::Bfs::ShortestPathDagEdges(g, a, b));
  }
}
BENCHMARK(BM_ShortestPathDag);

// ---------------------------------------------------------------------------
// Walk generation: flat corpus over the CSR layout.
// ---------------------------------------------------------------------------

constexpr size_t kWalkGraphNodes = 2000;
const embed::RandomWalkOptions kWalkOpts{.num_walks = 5, .walk_length = 15,
                                         .seed = 5, .threads = 1};

void BM_WalkGenCsr(benchmark::State& state) {
  auto g = RandomGraph(kWalkGraphNodes, 6, 4);
  g.Finalize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::RandomWalker::GenerateCorpus(g,
                                                                 kWalkOpts));
  }
}
BENCHMARK(BM_WalkGenCsr);

// Kept name from the seed suite: the shipped nested-API wrapper.
void BM_RandomWalks(benchmark::State& state) {
  auto g = RandomGraph(kWalkGraphNodes, 6, 4);
  g.Finalize();
  embed::RandomWalkOptions opts = kWalkOpts;
  opts.threads = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::RandomWalker::Generate(g, opts));
  }
}
BENCHMARK(BM_RandomWalks);

// ---------------------------------------------------------------------------
// Negative sampling: bucketed boundary search over vocab-sized arrays.
// ---------------------------------------------------------------------------

constexpr size_t kNegVocab = 20000;
constexpr size_t kNegTableSize = 1 << 20;

std::vector<uint64_t> ZipfCounts(size_t vocab) {
  std::vector<uint64_t> counts(vocab);
  for (size_t i = 0; i < vocab; ++i) {
    counts[i] = static_cast<uint64_t>(1e6 / static_cast<double>(i + 1)) + 1;
  }
  return counts;
}

constexpr int kNegDim = 48;

/// The trainer's access pattern: every sampled id is immediately used to
/// touch that word's output row (syn1neg), so the row matrix is part of
/// the working set — a bare lookup would let out-of-order execution hide
/// the sampler's latency behind the RNG chain.
std::vector<float> NegRowMatrix() {
  std::vector<float> rows(kNegVocab * kNegDim);
  util::Rng rng(12);
  for (auto& v : rows) v = static_cast<float>(rng.Uniform());
  return rows;
}

void BM_NegSampleBounds(benchmark::State& state) {
  embed::NegativeSampler sampler;
  sampler.Build(ZipfCounts(kNegVocab), kNegTableSize);
  auto rows = NegRowMatrix();
  util::Rng rng(11);
  for (auto _ : state) {
    const int32_t target =
        sampler.Sample(rng.Next() & (kNegTableSize - 1));
    float sum = 0.0f;
    const float* row = rows.data() + static_cast<size_t>(target) * kNegDim;
    for (int d = 0; d < kNegDim; ++d) sum += row[d];
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_NegSampleBounds);

// ---------------------------------------------------------------------------
// Word2Vec epoch over the shipped trainer (nested input vs flat corpus),
// on one thread: the shape tdbench times. With the default pool of 4 the
// rows would time the per-group barrier waits, not the trainer.
// ---------------------------------------------------------------------------

std::vector<std::vector<int32_t>> SyntheticSentences() {
  // 500 sentences of 20 tokens over a 1k vocab.
  util::Rng rng(6);
  std::vector<std::vector<int32_t>> sentences(500);
  for (auto& s : sentences) {
    for (int i = 0; i < 20; ++i) {
      s.push_back(static_cast<int32_t>(rng.UniformInt(1000ULL)));
    }
  }
  return sentences;
}

embed::Word2VecOptions EpochOptions() {
  embed::Word2VecOptions o;
  o.dim = 48;
  o.epochs = 1;
  o.subsample = 1e-3;
  o.threads = 1;
  return o;
}

void BM_Word2VecEpoch(benchmark::State& state) {
  auto sentences = SyntheticSentences();
  for (auto _ : state) {
    embed::Word2Vec w2v(EpochOptions());
    benchmark::DoNotOptimize(w2v.Train(sentences, 1000));
  }
}
BENCHMARK(BM_Word2VecEpoch);

void BM_Word2VecEpochFlat(benchmark::State& state) {
  auto corpus = embed::SentenceCorpus::FromNested(SyntheticSentences());
  for (auto _ : state) {
    embed::Word2Vec w2v(EpochOptions());
    benchmark::DoNotOptimize(w2v.Train(corpus, 1000));
  }
}
BENCHMARK(BM_Word2VecEpochFlat);

// ---------------------------------------------------------------------------
// Top-k selection: bounded heap for small k.
// ---------------------------------------------------------------------------

std::vector<double> RandomScores(size_t n) {
  util::Rng rng(7);
  std::vector<double> scores(n);
  for (auto& s : scores) s = rng.Uniform();
  return scores;
}

void BM_TopKSelect(benchmark::State& state) {
  auto scores = RandomScores(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::TopK::Select(scores, 20));
  }
}
BENCHMARK(BM_TopKSelect)->Arg(1000)->Arg(100000);

// ---------------------------------------------------------------------------
// Serving index search at one serve_scan shard's shape: 25k clustered
// members at dim 64, nlist 317, nprobe 8, k 5; queries are perturbed
// copies of members (serve_scan's generator, a quarter of its candidates).
// ---------------------------------------------------------------------------

struct ShardIndexes {
  std::shared_ptr<const serve::VectorMatrix> matrix;
  std::unique_ptr<serve::ExactIndex> exact;
  std::unique_ptr<serve::IvfIndex> ivf;
  std::vector<std::vector<float>> queries;
};

const ShardIndexes& ShardShape() {
  static const ShardIndexes* shape = [] {
    constexpr int kDim = 64;
    constexpr size_t kMembers = 25000;
    constexpr size_t kCenters = 1000;
    util::Rng rng(11);
    std::vector<std::vector<float>> anchors(kCenters,
                                            std::vector<float>(kDim));
    for (auto& a : anchors) {
      for (float& x : a) x = static_cast<float>(rng.Gaussian());
    }
    std::vector<std::vector<float>> rows(kMembers, std::vector<float>(kDim));
    for (auto& r : rows) {
      const auto& a = anchors[rng.UniformInt(kCenters)];
      for (int d = 0; d < kDim; ++d) {
        r[d] = a[d] + 0.35f * static_cast<float>(rng.Gaussian());
      }
    }
    auto* s = new ShardIndexes;
    std::vector<const std::vector<float>*> ptrs;
    for (const auto& r : rows) ptrs.push_back(&r);
    s->matrix = std::make_shared<const serve::VectorMatrix>(
        serve::VectorMatrix::FromRows(ptrs, kDim));
    s->exact = std::make_unique<serve::ExactIndex>(s->matrix);
    serve::IvfOptions opts;
    opts.nlist = 317;
    opts.nprobe = 8;
    s->ivf = std::make_unique<serve::IvfIndex>(s->matrix, opts);
    for (int q = 0; q < 256; ++q) {
      std::vector<float> v = rows[rng.UniformInt(kMembers)];
      for (float& x : v) x += 0.1f * static_cast<float>(rng.Gaussian());
      serve::NormalizeSlice(v.data(), kDim);
      s->queries.push_back(std::move(v));
    }
    return s;
  }();
  return *shape;
}

void SearchLoop(benchmark::State& state, const serve::Index& index) {
  const auto& queries = ShardShape().queries;
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(queries[q].data(), 5));
    q = (q + 1) % queries.size();
  }
}

void BM_IvfFlatSearch(benchmark::State& state) {
  SearchLoop(state, *ShardShape().ivf);
}
BENCHMARK(BM_IvfFlatSearch);

void BM_ExactSearch(benchmark::State& state) {
  SearchLoop(state, *ShardShape().exact);
}
BENCHMARK(BM_ExactSearch);

}  // namespace
