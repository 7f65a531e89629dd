// Serving-index quality benchmark: IVF and IVF-PQ recall@5 against the
// exact scan, and the PQ index footprint.
//
// Two scenarios:
//  * "IMDb"      — the trained smoke pipeline's embeddings served through a
//                  QueryEngine: IVF recall@5 vs the exact index over the
//                  real query docs, per nprobe.
//  * "Synthetic" — a clustered vector corpus big enough for the ANN
//                  trade-off to show (smoke: 4k vectors): recall@5 vs
//                  nprobe, and the PQ sweep — recall@5 / memory_bytes /
//                  list-bytes compression for pq_m ∈ {4, 8, 16}.
//
// Every row is seed-deterministic and gated by tools/check_bench.py:
// recall@5 on quality drops (PQ rows also on the --min-recall floor),
// memory_bytes on growth. Serving latency and throughput are timed
// open-loop over HTTP by tdbench's serve_lookup / serve_scan workloads.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace tdmatch;  // NOLINT

namespace {

/// The nprobe the PQ sweep serves at — the smallest value whose measured
/// recall@5 clears 0.95 on the synthetic corpus (see the nprobe rows).
constexpr size_t kServingNprobe = 8;

void RunSynthetic(bench::BenchReporter& rep, const bench::BenchOptions& opts) {
  if (!opts.Matches("Synthetic")) return;
  const char* scenario = "Synthetic";
  size_t n = 20000;
  if (opts.scale == bench::Scale::kSmoke) n = 4000;
  if (opts.scale == bench::Scale::kFull) n = 100000;
  const int dim = 48;
  const size_t num_queries = 200;
  const uint64_t seed = opts.seed == 0 ? 7 : opts.seed;

  util::Rng rng(seed);
  const auto vectors = bench::MakeClusteredVectors(n, dim, 64, &rng);
  std::vector<const std::vector<float>*> rows;
  rows.reserve(n);
  for (const auto& v : vectors) rows.push_back(&v);
  auto matrix = std::make_shared<const serve::VectorMatrix>(
      serve::VectorMatrix::FromRows(rows, dim));
  // Queries: perturbed corpus members, so every query has dense true
  // neighbors.
  std::vector<std::vector<float>> queries(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    queries[q] = vectors[rng.UniformInt(n)];
    for (auto& x : queries[q]) {
      x += 0.1f * static_cast<float>(rng.Gaussian());
    }
  }

  serve::ExactIndex exact(matrix);
  serve::IvfOptions ivf_opts;
  ivf_opts.seed = seed;
  ivf_opts.nprobe = kServingNprobe;
  serve::IvfIndex ivf(matrix, ivf_opts);
  rep.Printf("\nSynthetic corpus: n=%zu dim=%d nlist=%zu\n", n, dim,
             ivf.nlist());

  // --- recall@5 vs nprobe (the knob) -------------------------------------
  rep.Printf("%-12s %-10s\n", "nprobe", "recall@5");
  util::StopWatch watch;
  for (size_t nprobe : {1, 2, 4, 8, 16}) {
    ivf.set_nprobe(nprobe);
    watch.Reset();
    const double recall = serve::MeasureRecallAtK(ivf, exact, queries, 5);
    rep.Add(scenario, "nprobe=" + std::to_string(nprobe), "recall@5",
            recall, watch.ElapsedSeconds());
    rep.Printf("%-12zu %-10.4f\n", nprobe, recall);
  }
  rep.Add(scenario, "index=ivf", "memory_bytes",
          static_cast<double>(ivf.MemoryBytes()), 0.0);

  // --- PQ: recall@5 vs compression ---------------------------------------
  // Product-quantized lists trade list bytes for approximation error; the
  // exact re-rank (pq_rerank) recovers most of the recall. Compression is
  // the ratio of *list* bytes (flat f32 lists vs u8 codes + codebook) —
  // the part PQ actually shrinks; centroids/offsets/ids are identical
  // between the two layouts.
  rep.Printf("%-12s %-10s %-14s %-13s\n", "pq_m", "recall@5",
             "memory_bytes", "compression");
  for (size_t m : {4, 8, 16}) {
    serve::IvfOptions pq_opts = ivf_opts;
    pq_opts.pq_m = m;
    watch.Reset();
    serve::IvfIndex pq(matrix, pq_opts);
    const double recall = serve::MeasureRecallAtK(pq, exact, queries, 5);
    const double compression = static_cast<double>(ivf.ListBytes()) /
                               static_cast<double>(pq.ListBytes());
    const std::string param = "pq_m=" + std::to_string(m);
    rep.Add(scenario, param, "recall@5", recall, watch.ElapsedSeconds());
    rep.Add(scenario, param, "memory_bytes",
            static_cast<double>(pq.MemoryBytes()), 0.0);
    rep.Add(scenario, param, "compression", compression, 0.0);
    rep.Printf("%-12zu %-10.4f %-14zu %-13.2f\n", m, recall,
               pq.MemoryBytes(), compression);
  }
}

void RunTrainedScenario(bench::BenchReporter& rep,
                        const bench::BenchOptions& opts) {
  // The real pipeline's embeddings: IMDb at smoke scale has only a few
  // dozen candidates, so this scenario gates recall on trained vectors
  // while the synthetic corpus above carries the PQ trade-off.
  bench::BenchOptions gen_opts = opts;
  gen_opts.filter = "^IMDb$";
  if (!opts.Matches("IMDb")) return;
  auto scenarios = bench::MakeSweepScenarios(gen_opts);
  if (scenarios.empty()) return;
  auto& sc = scenarios.front();

  core::TDmatchOptions options = sc.base_options;
  options.export_embeddings = true;
  core::TDmatch engine(options);
  auto run = engine.Run(sc.data.scenario.first, sc.data.scenario.second);
  if (!run.ok()) {
    std::fprintf(stderr, "serve_qps: IMDb pipeline FAILED: %s\n",
                 run.status().ToString().c_str());
    return;
  }

  serve::Snapshot snap;
  snap.meta.scenario = sc.name;
  snap.meta.Set("candidate_prefix", "__D1:");
  snap.table = std::move(run->embeddings);
  serve::QueryEngineOptions eopts;
  eopts.threads = 4;
  eopts.ivf.seed = opts.seed == 0 ? 7 : opts.seed;
  auto qe = serve::QueryEngine::BuildForPrefix(std::move(snap), "__D1:",
                                               eopts);
  TDM_CHECK(qe.ok()) << qe.status().ToString();

  // Queries: every query doc that got an embedding.
  std::vector<std::vector<float>> queries;
  for (const auto& label : qe->table().Labels()) {
    if (label.rfind("__D0:", 0) == 0) queries.push_back(*qe->table().Get(label));
  }
  rep.Printf("\nIMDb (trained, %zu candidates, %zu queries)\n",
             qe->num_candidates(), queries.size());

  rep.Printf("%-12s %-10s\n", "nprobe", "recall@5");
  util::StopWatch watch;
  for (size_t nprobe : {1, 2, 4}) {
    qe->ivf_index()->set_nprobe(nprobe);
    watch.Reset();
    const double recall = serve::MeasureRecallAtK(
        *qe->ivf_index(), qe->exact_index(), queries, 5);
    rep.Add("IMDb", "nprobe=" + std::to_string(nprobe), "recall@5", recall,
            watch.ElapsedSeconds());
    rep.Printf("%-12zu %-10.4f\n", nprobe, recall);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseArgsOrExit(argc, argv);
  bench::BenchReporter rep("serve_qps", opts);
  rep.Note("Serving-index quality: IVF / IVF-PQ recall@5 vs the exact "
           "scan, and the PQ footprint");
  RunTrainedScenario(rep, opts);
  RunSynthetic(rep, opts);
  return rep.Finish() ? 0 : 1;
}
