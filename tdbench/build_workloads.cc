// build_data and build_text_xc: the path `tdmatch_serve build-snapshot`
// takes, from corpus files on disk to a snapshot with its "ivfpq" section.
//
// The untraced run times corpus::Loader -> core::TDmatch::Run ->
// serve::QueryEngine::BuildForPrefix -> serve::SnapshotIo::Write. The
// traced run alternates that build with a composition of the same
// pipeline out of each module's public functions, timing every call as a
// span, and checks the composition's scores equal TDmatch::Run's bit for
// bit.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "bench_cli.h"
#include "bench_common.h"
#include "core/tdmatch.h"
#include "corpus/loader.h"
#include "embed/random_walk.h"
#include "embed/word2vec.h"
#include "eval/metrics.h"
#include "graph/builder.h"
#include "graph/compression.h"
#include "graph/expansion.h"
#include "match/top_k.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "stats.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads.h"

namespace tdbench {

using namespace tdmatch;  // NOLINT

namespace {

constexpr char kQueryPrefix[] = "__D0:";
constexpr char kCandidatePrefix[] = "__D1:";

/// Scenarios one run builds in turn, each generated from its own seed. A
/// scenario's size, and so its build time, varies with the seed; the
/// median over several varies less from run to run (one scenario per run
/// gave build_text_xc an interquartile spread of 18% of the median over
/// ten seeds).
constexpr size_t kScenariosPerRun = 4;

/// Seed of scenario j of a run; scenario 0 is the run's own seed, so
/// serve_lookup serves the same data as build_data's first scenario.
uint64_t ScenarioSeed(uint64_t seed, size_t j) { return seed + j * 100003; }

/// One workload's generated scenario plus the pipeline options it runs.
struct BuildSpec {
  datagen::GeneratedScenario data;
  core::TDmatchOptions options;
};

BuildSpec MakeBuildSpec(const std::string& workload, uint64_t seed) {
  bench::BenchOptions bopts;
  bopts.scale = bench::Scale::kSmoke;
  bopts.seed = seed;
  BuildSpec spec;
  if (workload == "build_data") {
    datagen::ImdbOptions imdb;  // 32 reviews against 64 movie tuples
    imdb.num_reviewed_movies = 16;
    imdb.num_distractor_movies = 48;
    imdb.seed = seed;
    spec.data = datagen::ImdbGenerator::Generate(imdb);
    spec.options = bench::DataTaskOptions(bopts);  // Skip-gram, window 3
  } else {
    datagen::ClaimsOptions claims = datagen::ClaimsGenerator::SnopesPreset();
    claims.num_facts = 320;
    claims.num_queries = 160;
    claims.num_topics = 16;
    claims.seed = seed;
    spec.data = datagen::ClaimsGenerator::Generate(claims);
    spec.options = bench::TextTaskOptions(bopts);  // CBOW, window 15
    spec.options.expand = true;
    spec.options.compression = core::CompressionMode::kMsp;
    spec.options.compression_beta = 0.5;
  }
  spec.options.threads = kBuildThreads;
  spec.options.export_embeddings = true;
  return spec;
}

struct CorpusFile {
  std::string path;
  std::string name;
  bool table = false;
};

struct InputFiles {
  CorpusFile first;
  CorpusFile second;
};

util::Status WriteTextsJsonl(const corpus::Corpus& c,
                             const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) return util::Status::IOError("cannot write " + path);
  for (const corpus::TextDoc& d : *c.texts()) {
    util::JsonWriter w;
    w.BeginObject().Key("id").Value(d.id).Key("text").Value(d.text)
        .EndObject();
    std::fprintf(f.get(), "%s\n", w.str().c_str());
  }
  return util::Status::OK();
}

util::Result<CorpusFile> WriteCorpus(const corpus::Corpus& c,
                                     const std::string& stem) {
  CorpusFile out;
  if (c.type() == corpus::CorpusType::kTable) {
    out = {stem + ".csv", c.table()->name(), true};
    TDM_RETURN_NOT_OK(corpus::Loader::TableToCsv(*c.table(), out.path));
  } else if (c.type() == corpus::CorpusType::kText) {
    out = {stem + ".jsonl", c.name(), false};
    TDM_RETURN_NOT_OK(WriteTextsJsonl(c, out.path));
  } else {
    return util::Status::InvalidArgument("unsupported corpus type");
  }
  return out;
}

util::Result<InputFiles> WriteInputs(const corpus::Scenario& s,
                                     const std::string& stem) {
  InputFiles files;
  TDM_ASSIGN_OR_RETURN(files.first, WriteCorpus(s.first, stem + "-first"));
  TDM_ASSIGN_OR_RETURN(files.second, WriteCorpus(s.second, stem + "-second"));
  return files;
}

util::Result<corpus::Corpus> LoadCorpus(const CorpusFile& f) {
  if (f.table) {
    TDM_ASSIGN_OR_RETURN(corpus::Table t,
                         corpus::Loader::TableFromCsv(f.path, f.name));
    return corpus::Corpus::FromTable(std::move(t));
  }
  return corpus::Loader::TextsFromJsonl(f.path, f.name);
}

struct Corpora {
  corpus::Corpus first;
  corpus::Corpus second;
};

util::Result<Corpora> LoadInputs(const InputFiles& files, SpanLog* spans,
                                 uint64_t parent, uint64_t request) {
  ScopedSpan span(spans, "corpus.load", parent, request);
  Corpora c;
  TDM_ASSIGN_OR_RETURN(c.first, LoadCorpus(files.first));
  TDM_ASSIGN_OR_RETURN(c.second, LoadCorpus(files.second));
  return c;
}

/// Index build + snapshot write, as `tdmatch_serve build-snapshot` does
/// it: the IVF index is trained once here and embedded as the "ivfpq"
/// section that shards=1 serving adopts.
util::Result<serve::QueryEngine> WriteSnapshot(
    const std::string& scenario, embed::EmbeddingTable embeddings,
    const std::string& path, SpanLog* spans, uint64_t parent,
    uint64_t request) {
  serve::SnapshotMeta meta;
  meta.scenario = scenario;
  meta.Set("dim", util::StrFormat("%d", embeddings.dim()));
  meta.Set("query_prefix", kQueryPrefix);
  meta.Set("candidate_prefix", kCandidatePrefix);
  serve::QueryEngineOptions eopts;
  eopts.threads = kBuildThreads;
  eopts.use_snapshot_index = false;
  serve::Snapshot snap;
  snap.meta = meta;
  snap.table = std::move(embeddings);

  ScopedSpan index_span(spans, "serve.index_build", parent, request);
  TDM_ASSIGN_OR_RETURN(serve::QueryEngine engine,
                       serve::QueryEngine::BuildForPrefix(
                           std::move(snap), kCandidatePrefix, eopts));
  index_span.Close();

  ScopedSpan write_span(spans, "serve.snapshot_write", parent, request);
  TDM_RETURN_NOT_OK(serve::SnapshotIo::Write(
      engine.table(), meta,
      {{serve::QueryEngine::kIvfSectionTag, engine.SerializeIvfSection()}},
      path));
  return engine;
}

/// Layer figures of one traced build that are counts, not spans.
struct LayerCounts {
  core::GraphStats original;
  core::GraphStats expanded;
  core::GraphStats compressed;
  size_t walk_tokens = 0;
  bool compressed_ran = false;
  std::vector<double> epoch_seconds;
  double train_s = 0.0;
  double train_cpu_s = 0.0;
  int epochs = 1;
  /// The walks and trainer options, for re-training at nproc threads.
  embed::SentenceCorpus walks;
  size_t vocab_size = 0;
  embed::Word2VecOptions w2v;
  std::vector<float> vectors;  // every trained vector, concatenated
};

struct PipelineOutput {
  std::vector<std::vector<double>> scores;
  embed::EmbeddingTable embeddings;
};

/// TDmatch::Run (core/tdmatch.cc) recomposed from the modules' public
/// functions, one span per call. Supports the options the build workloads
/// use (no synonym merging).
util::Result<PipelineOutput> ComposedRun(const core::TDmatchOptions& o,
                                         const kb::ExternalResource* resource,
                                         const Corpora& in, SpanLog* spans,
                                         uint64_t parent, uint64_t request,
                                         LayerCounts* counts) {
  if (o.use_synonym_merge) {
    return util::Status::Unimplemented("composed run: synonym merge");
  }
  auto stats = [](const graph::Graph& g) {
    return core::GraphStats{g.NumNodes(), g.NumEdges()};
  };
  text::Preprocessor pp(o.builder.preprocess);

  ScopedSpan build_span(spans, "graph.build", parent, request);
  graph::GraphBuilder builder(o.builder);
  TDM_ASSIGN_OR_RETURN(graph::Graph g, builder.Build(in.first, in.second));
  build_span.Close();
  counts->original = stats(g);

  if (o.expand) {
    ScopedSpan span(spans, "graph.expand", parent, request);
    auto normalize = [&pp](const std::string& raw) {
      return graph::GraphBuilder::NormalizeLabel(pp, raw);
    };
    g = graph::ExpandGraph(g, *resource, o.expansion, normalize);
  }
  counts->expanded = stats(g);

  if (o.compression == core::CompressionMode::kMsp) {
    ScopedSpan span(spans, "graph.compress", parent, request);
    util::Rng rng(o.seed ^ 0xc0117);
    g = graph::MspCompress(g, o.compression_beta, &rng);
    counts->compressed_ran = true;
  } else if (o.compression != core::CompressionMode::kNone) {
    return util::Status::Unimplemented("composed run: compression mode");
  }
  counts->compressed = stats(g);

  ScopedSpan walk_span(spans, "embed.walks", parent, request);
  g.Finalize();
  embed::RandomWalkOptions walk_options = o.walks;
  walk_options.seed ^= o.seed;
  if (o.threads != 0) walk_options.threads = o.threads;
  counts->walks = embed::RandomWalker::GenerateCorpus(g, walk_options);
  walk_span.Close();
  const embed::SentenceCorpus& walks = counts->walks;
  counts->walk_tokens = walks.NumTokens();

  embed::Word2VecOptions w2v_options = o.w2v;
  w2v_options.seed ^= o.seed;
  if (o.threads != 0) w2v_options.threads = o.threads;
  embed::Word2Vec w2v(w2v_options);
  ScopedSpan train_span(spans, "embed.train", parent, request);
  const double t0 = NowMs();
  const double cpu0 = ProcessCpuSeconds();
  TDM_RETURN_NOT_OK(w2v.Train(walks, g.NumNodes()));
  counts->train_cpu_s = ProcessCpuSeconds() - cpu0;
  counts->train_s = (NowMs() - t0) / 1000.0;
  train_span.Close();
  counts->epoch_seconds = w2v.epoch_seconds();
  counts->epochs = w2v_options.epochs;
  counts->vocab_size = g.NumNodes();
  counts->w2v = w2v_options;
  for (size_t id = 0; id < g.NumNodes(); ++id) {
    const float* v = w2v.Vector(static_cast<int32_t>(id));
    counts->vectors.insert(counts->vectors.end(), v, v + w2v.dim());
  }

  PipelineOutput out;
  ScopedSpan score_span(spans, "match.score", parent, request);
  auto doc_vector = [&](int corpus_idx, size_t doc) -> std::vector<float> {
    graph::NodeId id =
        g.FindNode(graph::GraphBuilder::MetaDocLabel(corpus_idx, doc));
    if (id == graph::kInvalidNode) return {};
    return w2v.VectorCopy(id);
  };
  std::vector<std::vector<float>> candidates(in.second.NumDocs());
  for (size_t c = 0; c < in.second.NumDocs(); ++c) {
    candidates[c] = doc_vector(1, c);
  }
  out.scores.resize(in.first.NumDocs());
  for (size_t q = 0; q < in.first.NumDocs(); ++q) {
    out.scores[q] = match::TopK::ScoreAll(doc_vector(0, q), candidates);
  }
  score_span.Close();

  ScopedSpan export_span(spans, "embed.export", parent, request);
  out.embeddings = embed::EmbeddingTable(w2v.dim());
  for (graph::NodeId id : g.MetadataDocNodes()) {
    out.embeddings.Put(g.node(id).label, w2v.VectorCopy(id));
  }
  return out;
}

/// One corpus-to-snapshot build, as timed.
struct Build {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<std::vector<double>> scores;
  std::unique_ptr<serve::QueryEngine> engine;
  LayerCounts counts;
  uint64_t request = 0;
};

util::Result<Build> RunBuild(const BuildSpec& spec, const InputFiles& files,
                             const std::string& snapshot_path, SpanLog* spans,
                             uint64_t request) {
  Build b;
  const double t0 = NowMs();
  const double cpu0 = ProcessCpuSeconds();
  ScopedSpan root(spans, "build", 0, request);
  b.request = request;
  TDM_ASSIGN_OR_RETURN(Corpora in,
                       LoadInputs(files, spans, root.id(), request));
  embed::EmbeddingTable embeddings;
  if (spans != nullptr && spans->enabled()) {
    TDM_ASSIGN_OR_RETURN(
        PipelineOutput p,
        ComposedRun(spec.options, spec.data.kb.get(), in, spans, root.id(),
                    request, &b.counts));
    b.scores = std::move(p.scores);
    embeddings = std::move(p.embeddings);
  } else {
    core::TDmatch td(spec.options, spec.data.kb.get());
    TDM_ASSIGN_OR_RETURN(core::TDmatchResult r, td.Run(in.first, in.second));
    b.scores = std::move(r.scores);
    embeddings = std::move(r.embeddings);
  }
  TDM_ASSIGN_OR_RETURN(
      serve::QueryEngine engine,
      WriteSnapshot(spec.data.scenario.name, std::move(embeddings),
                    snapshot_path, spans, root.id(), request));
  root.Close();
  b.wall_s = (NowMs() - t0) / 1000.0;
  b.cpu_s = ProcessCpuSeconds() - cpu0;
  b.engine = std::make_unique<serve::QueryEngine>(std::move(engine));
  return b;
}

bool SameBits(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (!a[i].empty() &&
        std::memcmp(a[i].data(), b[i].data(),
                    a[i].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

double Mrr(const std::vector<std::vector<double>>& scores,
           const corpus::Scenario& s) {
  std::vector<eval::Ranking> rankings;
  rankings.reserve(scores.size());
  for (const auto& row : scores) {
    rankings.push_back(match::TopK::FullRanking(row));
  }
  return eval::RankingMetrics::MRR(rankings, s.gold);
}

/// Mean share of the exact top-5 the approx (IVF) answer recovers, over
/// every query label of the snapshot.
double RecallAt5(const serve::QueryEngine& engine, size_t num_queries) {
  double sum = 0.0;
  size_t n = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    const std::string label = util::StrFormat("%s%zu__", kQueryPrefix, q);
    auto approx = engine.Query(label, 5, serve::SearchMode::kApprox);
    auto exact = engine.Query(label, 5, serve::SearchMode::kExact);
    if (!approx.ok() || !exact.ok() || exact->empty()) continue;
    size_t hit = 0;
    for (const auto& e : *exact) {
      for (const auto& a : *approx) hit += (a.candidate == e.candidate);
    }
    sum += static_cast<double>(hit) / static_cast<double>(exact->size());
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<double> Seconds(const std::vector<Build>& builds,
                            double Build::*field) {
  std::vector<double> out;
  for (const Build& b : builds) out.push_back(b.*field);
  return out;
}

/// Per-layer metrics of the traced builds: the median over builds of
/// each layer's time, plus the counts of the last build.
void SetLayerMetrics(const std::vector<Build>& traced,
                     const std::vector<Span>& spans, WorkloadResult* res) {
  std::map<std::string, std::vector<double>> layer_s;
  std::vector<double> explained;
  for (const Build& b : traced) {
    std::vector<Span> mine;
    for (const Span& s : spans) {
      if (s.request == b.request) mine.push_back(s);
    }
    double root_ms = 0.0;
    double layers_self_ms = 0.0;
    for (const auto& [name, t] : TotalsByName(mine)) {
      layer_s[name].push_back(t.total_ms / 1000.0);
      if (name == "build") {
        root_ms = t.total_ms;
      } else {
        layers_self_ms += t.self_ms;
      }
    }
    explained.push_back(root_ms > 0 ? layers_self_ms / root_ms : 0.0);
  }
  auto med = [&](const char* name) {
    auto it = layer_s.find(name);
    return it == layer_s.end() ? 0.0 : Median(it->second);
  };
  res->Set("corpus.load_s", med("corpus.load"));
  res->Set("graph.build_s", med("graph.build"));
  res->Set("graph.expand_s", med("graph.expand"));
  res->Set("graph.compress_s", med("graph.compress"));
  res->Set("embed.walks_s", med("embed.walks"));
  res->Set("embed.train_s", med("embed.train"));
  res->Set("match.score_s", med("match.score"));
  res->Set("serve.index_build_s", med("serve.index_build"));
  res->Set("serve.snapshot_write_s", med("serve.snapshot_write"));
  res->Set("explained_fraction", Median(explained));

  const LayerCounts& c = traced.back().counts;
  res->Set("graph.nodes", static_cast<double>(c.original.nodes));
  res->Set("graph.edges", static_cast<double>(c.original.edges));
  res->Set("graph.compress_ratio",
           c.compressed_ran ? static_cast<double>(c.compressed.nodes) /
                                  static_cast<double>(c.expanded.nodes)
                            : 0.0);
  res->Set("embed.walk_tokens", static_cast<double>(c.walk_tokens));
  std::vector<double> epoch_s, train_cpu, tokens_per_s;
  for (const Build& b : traced) {
    const LayerCounts& bc = b.counts;
    for (double e : bc.epoch_seconds) epoch_s.push_back(e);
    train_cpu.push_back(bc.train_cpu_s);
    tokens_per_s.push_back(static_cast<double>(bc.walk_tokens) * bc.epochs /
                           bc.train_s);
  }
  res->Set("embed.train_epoch_s", Median(epoch_s));
  res->Set("embed.train_cpu_s", Median(train_cpu));
  res->Set("embed.train_tokens_per_s", Median(tokens_per_s));
}

/// Word2Vec::Train on the last traced build's walks at `threads` threads:
/// CPU / (wall x threads), and the trained vectors must equal the
/// one-thread build's (the trainer is thread-count invariant).
void MeasureParallelTrainer(const LayerCounts& c, size_t threads,
                            WorkloadResult* res) {
  embed::Word2VecOptions o = c.w2v;
  o.threads = threads;
  embed::Word2Vec w2v(o);
  const double t0 = NowMs();
  const double cpu0 = ProcessCpuSeconds();
  const util::Status st = w2v.Train(c.walks, c.vocab_size);
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double wall = (NowMs() - t0) / 1000.0;
  std::vector<float> vectors;
  for (size_t id = 0; st.ok() && id < c.vocab_size; ++id) {
    const float* v = w2v.Vector(static_cast<int32_t>(id));
    vectors.insert(vectors.end(), v, v + w2v.dim());
  }
  res->Check(st.ok() && vectors == c.vectors,
             util::StrFormat("trainer output is identical at 1 and %zu "
                             "threads",
                             threads));
  res->Set("embed.train_parallel_eff",
           cpu / (wall * static_cast<double>(threads)));
}

}  // namespace

/// One of a run's scenarios: its inputs on disk, the scores of its first
/// build (every later build must match them), and the engine of its last.
struct RunScenario {
  BuildSpec spec;
  InputFiles files;
  std::vector<std::vector<double>> reference;
  std::unique_ptr<serve::QueryEngine> engine;
};

WorkloadResult RunBuildWorkload(const std::string& name,
                                const RunContext& ctx) {
  WorkloadResult res;
  res.workload = name;
  const std::string snapshot = ctx.work_dir + "/" + name + ".tds";

  // Set-up and builds run pinned; the nproc-thread trainer probe is not.
  auto pin = std::make_unique<PinToOneCpu>();

  // Set-up: generate each scenario and write its corpora, three times
  // each (a set-up takes milliseconds; setup_s is the median of all).
  std::vector<double> setup_s;
  std::vector<RunScenario> scenarios(kScenariosPerRun);
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t j = 0; j < kScenariosPerRun; ++j) {
      const double t0 = NowMs();
      scenarios[j].spec = MakeBuildSpec(name, ScenarioSeed(ctx.seed, j));
      auto written =
          WriteInputs(scenarios[j].spec.data.scenario,
                      util::StrFormat("%s/%s-%zu", ctx.work_dir.c_str(),
                                      name.c_str(), j));
      setup_s.push_back((NowMs() - t0) / 1000.0);
      if (!written.ok()) {
        res.Check(false, "write inputs: " + written.status().ToString());
        return res;
      }
      scenarios[j].files = *written;
    }
  }

  ReleaseInputMemory();

  // Measure: rounds of one build per scenario until ctx.seconds have
  // passed. The traced run follows each build with a traced one.
  std::vector<Build> plain, traced;
  const double start = NowMs();
  uint64_t request = 0;
  while (plain.empty() || (NowMs() - start) < ctx.seconds * 1000.0) {
    for (RunScenario& sc : scenarios) {
      ++res.attempted;
      auto b = RunBuild(sc.spec, sc.files, snapshot, nullptr, 0);
      if (!b.ok()) {
        ++res.failed;
        res.Check(false, "build: " + b.status().ToString());
        return res;
      }
      if (sc.reference.empty()) sc.reference = b->scores;
      res.Check(SameBits(b->scores, sc.reference),
                "builds are deterministic");
      sc.engine = std::move(b->engine);
      plain.push_back(std::move(b).ValueOrDie());
      if (!ctx.trace) continue;
      ++res.attempted;
      auto t = RunBuild(sc.spec, sc.files, snapshot, ctx.spans, ++request);
      if (!t.ok()) {
        ++res.failed;
        res.Check(false, "traced build: " + t.status().ToString());
        return res;
      }
      res.Check(SameBits(t->scores, sc.reference),
                "traced composition reproduces TDmatch::Run bit for bit");
      traced.push_back(std::move(t).ValueOrDie());
    }
  }

  const double peak_rss_mb = PeakRssMb();
  pin.reset();

  // Checks outside the timed span.
  {
    const BuildSpec& spec = scenarios.front().spec;
    core::TDmatch td(spec.options, spec.data.kb.get());
    auto in_memory = td.Run(spec.data.scenario.first,
                            spec.data.scenario.second);
    res.Check(in_memory.ok() &&
                  SameBits(in_memory->scores, scenarios.front().reference),
              "corpora read back through the loader reproduce the "
              "in-memory scenario's scores");
  }
  CheckSnapshot(snapshot, &res);

  const std::vector<double> wall = Seconds(plain, &Build::wall_s);
  std::vector<double> mrr, recall;
  std::string sizes;
  for (const RunScenario& sc : scenarios) {
    const corpus::Scenario& s = sc.spec.data.scenario;
    mrr.push_back(Mrr(sc.reference, s));
    recall.push_back(RecallAt5(*sc.engine, s.first.NumDocs()));
    sizes += util::StrFormat(" %zux%zu", s.first.NumDocs(),
                             s.second.NumDocs());
  }
  res.Set("setup_s", Median(setup_s));
  res.Set("p50_ms", Median(wall) * 1000.0);
  res.Set("p99_ms", Percentile(wall, 0.99) * 1000.0);
  res.Set("cpu_ms", Median(Seconds(plain, &Build::cpu_s)) * 1000.0);
  res.Set("build_s", Median(wall));
  res.Set("build_cpu_s", Median(Seconds(plain, &Build::cpu_s)));
  res.Set("mrr", Mean(mrr));
  res.Set("recall_at_5", Mean(recall));
  res.Set("peak_rss_mb", peak_rss_mb);
  std::string walls;
  for (double w : wall) walls += util::StrFormat(" %.3f", w);
  res.notes.push_back(util::StrFormat(
      "%zu builds over %zu scenarios (queries x candidates:%s); p99 is "
      "nearest-rank over %zu builds (the slowest); build seconds:%s",
      plain.size(), scenarios.size(), sizes.c_str(), plain.size(),
      walls.c_str()));

  if (ctx.trace) {
    SetLayerMetrics(traced, ctx.spans->spans(), &res);
    MeasureParallelTrainer(traced.back().counts, ctx.threads, &res);
    res.Set("serve.snapshot_bytes", static_cast<double>(FileBytes(snapshot)));
    res.Set("trace.overhead_ratio",
            Median(Seconds(traced, &Build::wall_s)) / Median(wall));
  }
  return res;
}

util::Result<std::vector<std::vector<std::string>>> BuildLookupSnapshot(
    const RunContext& ctx, const std::string& path) {
  const BuildSpec spec =
      MakeBuildSpec("build_data", ScenarioSeed(ctx.seed, 0));
  TDM_ASSIGN_OR_RETURN(InputFiles files,
                       WriteInputs(spec.data.scenario,
                                   ctx.work_dir + "/serve_lookup"));
  TDM_ASSIGN_OR_RETURN(Build b, RunBuild(spec, files, path, nullptr, 0));
  std::vector<std::vector<std::string>> gold;
  for (const auto& answers : spec.data.scenario.gold) {
    gold.emplace_back();
    for (int32_t c : answers) {
      gold.back().push_back(
          util::StrFormat("%s%d__", kCandidatePrefix, static_cast<int>(c)));
    }
  }
  return gold;
}

}  // namespace tdbench
