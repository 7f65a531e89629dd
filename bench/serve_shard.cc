// Scatter-gather serving benchmark: qps/latency vs shard count, offered
// load past saturation over real HTTP, and deterministic models of the
// admission gate and the result cache.
//
// Row classes (tools/check_bench.py):
//   * qps / *_ms / *_seconds rows are timings — never value-compared,
//     gated only through the per-scenario wall-time aggregate;
//   * `identity`, `shed_rate`, and `cache_hit_rate` rows are exact-gated:
//     identity is the fraction of sharded exact-mode answers bit-identical
//     to the unsharded engine (must stay 1.0), and the shed/cache rates
//     come from seeded simulations of the real AdmissionController /
//     ResultCache — pure functions of (seed, grid), so any drift is a
//     behavior change, not noise.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/admission.h"
#include "serve/http/client.h"
#include "serve/http/server.h"
#include "serve/http/service.h"
#include "serve/mmap_snapshot.h"
#include "serve/result_cache.h"
#include "serve/sharded_engine.h"
#include "serve/snapshot.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace tdmatch;  // NOLINT

namespace {

double Percentile(std::vector<double> ms, double p) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  const size_t idx = std::min(
      ms.size() - 1, static_cast<size_t>(p * static_cast<double>(ms.size())));
  return ms[idx];
}

/// Clustered unit vectors, same construction as bench/serve_qps.
std::vector<std::vector<float>> MakeClusteredVectors(size_t n, int dim,
                                                     size_t centers,
                                                     util::Rng* rng) {
  std::vector<std::vector<float>> anchor(centers);
  for (auto& c : anchor) {
    c.resize(static_cast<size_t>(dim));
    for (auto& x : c) x = static_cast<float>(rng->Gaussian());
  }
  std::vector<std::vector<float>> out(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& c = anchor[i % centers];
    out[i].resize(static_cast<size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      out[i][static_cast<size_t>(d)] =
          c[static_cast<size_t>(d)] +
          0.35f * static_cast<float>(rng->Gaussian());
    }
  }
  return out;
}

/// Writes the clustered snapshot to `name` under $TMPDIR (default /tmp)
/// and returns its path.
std::string WriteSnapshot(const char* name, size_t n, int dim,
                          uint64_t seed) {
  util::Rng rng(seed);
  const auto vectors = MakeClusteredVectors(n, dim, 64, &rng);
  serve::SnapshotMeta meta;
  meta.scenario = "ShardScaling";
  meta.Set("candidate_prefix", "v");
  embed::EmbeddingTable table(dim);
  for (size_t i = 0; i < n; ++i) {
    table.Put("v" + std::to_string(i), vectors[i]);
  }
  const char* tmp = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
  const util::Status st = serve::SnapshotIo::Write(table, meta, path);
  TDM_CHECK(st.ok()) << st.ToString();
  return path;
}

// ---------------------------------------------------------------------------
// ShardScaling: qps / p99 / bit-identity vs shard count
// ---------------------------------------------------------------------------

void RunShardScaling(bench::BenchReporter& rep,
                     const bench::BenchOptions& opts) {
  if (!opts.Matches("ShardScaling")) return;
  const char* scenario = "ShardScaling";
  size_t n = 20000;
  double seconds = 0.4;
  size_t identity_queries = 400;
  if (opts.scale == bench::Scale::kSmoke) {
    n = 4000;
    seconds = 0.2;
    identity_queries = 150;
  }
  if (opts.scale == bench::Scale::kFull) {
    n = 50000;
    seconds = 0.8;
  }
  const int dim = 32;
  const uint64_t seed = opts.seed == 0 ? 7 : opts.seed;
  const size_t k = 10;

  rep.Printf("\nShard scaling: n=%zu dim=%d k=%zu, fixed %.2fs per "
             "throughput cell\n",
             n, dim, k, seconds);
  rep.Printf("%-10s %-12s %-10s %-10s %-10s %-9s\n", "shards",
             "build_s", "qps", "p50_ms", "p99_ms", "identity");

  // One written and mapped snapshot feeds the unsharded reference — which
  // every shard count must reproduce bit-exactly in exact mode — and every
  // per-N engine.
  const std::string path =
      WriteSnapshot("serve_shard_scaling.tds", n, dim, seed);
  auto view = serve::SnapshotView::Open(path);
  TDM_CHECK(view.ok()) << view.status().ToString();
  std::remove(path.c_str());  // the mapping keeps the file alive
  serve::ShardedEngineOptions ref_opts;
  ref_opts.shards = 1;
  ref_opts.engine.ivf.seed = seed;
  auto reference =
      serve::ShardedQueryEngine::BuildFromView(*view, "v", ref_opts);
  TDM_CHECK(reference.ok()) << reference.status().ToString();

  util::Rng pick(seed + 17);
  std::vector<std::string> batch_labels;
  for (size_t i = 0; i < 512; ++i) {
    batch_labels.push_back("v" + std::to_string(pick.UniformInt(n)));
  }

  for (const size_t shards :
       {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    serve::ShardedEngineOptions sopts;
    sopts.shards = shards;
    sopts.engine.ivf.seed = seed;
    util::StopWatch watch;
    auto engine = serve::ShardedQueryEngine::BuildFromView(*view, "v", sopts);
    TDM_CHECK(engine.ok()) << engine.status().ToString();
    const double build_seconds = watch.ElapsedSeconds();

    // Bit-identity vs the unsharded reference, exact mode: labels,
    // global candidate ids, and score bits must all agree.
    size_t identical = 0;
    for (size_t q = 0; q < identity_queries; ++q) {
      const std::string label =
          "v" + std::to_string(q * (n / identity_queries));
      auto want = reference->Query(label, k, serve::SearchMode::kExact);
      auto got = engine->Query(label, k, serve::SearchMode::kExact);
      TDM_CHECK(want.ok() && got.ok());
      bool same = want->size() == got->size();
      for (size_t r = 0; same && r < want->size(); ++r) {
        same = (*want)[r].label == (*got)[r].label &&
               (*want)[r].candidate == (*got)[r].candidate &&
               (*want)[r].score == (*got)[r].score;
      }
      identical += same ? 1 : 0;
    }
    const double identity = static_cast<double>(identical) /
                            static_cast<double>(identity_queries);

    // Throughput: threaded QueryBatch over a fixed label set for a fixed
    // wall budget (machine-independent scenario wall by construction).
    watch.Reset();
    uint64_t done = 0;
    while (watch.ElapsedSeconds() < seconds) {
      auto results = engine->QueryBatch(batch_labels, k);
      TDM_CHECK(results.size() == batch_labels.size());
      done += results.size();
    }
    const double qps = static_cast<double>(done) / watch.ElapsedSeconds();

    // Single-query latency distribution (approx mode, the serving
    // default), one caller.
    std::vector<double> lat_ms;
    lat_ms.reserve(256);
    for (size_t q = 0; q < 256; ++q) {
      const std::string& label = batch_labels[q % batch_labels.size()];
      util::StopWatch one;
      auto r = engine->Query(label, k);
      TDM_CHECK(r.ok());
      lat_ms.push_back(one.ElapsedMillis());
    }
    const double p50 = Percentile(lat_ms, 0.5);
    const double p99 = Percentile(lat_ms, 0.99);

    const std::string param = "shards=" + std::to_string(shards);
    rep.Add(scenario, param, "build_seconds", build_seconds, build_seconds);
    rep.Add(scenario, param, "qps", qps, seconds);
    rep.Add(scenario, param, "p50_ms", p50, 0.0);
    rep.Add(scenario, param, "p99_ms", p99, 0.0);
    rep.Add(scenario, param, "identity", identity, 0.0);
    rep.Printf("%-10zu %-12.3f %-10.0f %-10.4f %-10.4f %-9.3f\n", shards,
               build_seconds, qps, p50, p99, identity);
  }
}

// ---------------------------------------------------------------------------
// Overload: offered load past saturation over real HTTP
// ---------------------------------------------------------------------------

void RunOverload(bench::BenchReporter& rep, const bench::BenchOptions& opts) {
  if (!opts.Matches("Overload")) return;
  const char* scenario = "Overload";
  size_t n = 4000;
  double seconds = 0.3;
  if (opts.scale == bench::Scale::kSmoke) {
    n = 1500;
    seconds = 0.2;
  }
  const int dim = 32;
  const uint64_t seed = opts.seed == 0 ? 7 : opts.seed;

  const std::string path =
      WriteSnapshot("serve_shard_bench.tds", n, dim, seed);

  // A 1 ms debug delay per admitted query gives the server a real
  // capacity ceiling (~threads kqps) that loopback clients can actually
  // exceed, so "offered load past saturation" means something on any
  // machine; --max-inflight 8 makes the excess shed instead of queue.
  serve::http::ServiceOptions sopts;
  sopts.engine.ivf.seed = seed;
  sopts.shards = 4;
  sopts.max_inflight = 8;
  sopts.allow_debug_delay = true;
  serve::http::MatchService service(sopts);
  {
    const util::Status st = service.LoadInitial(path);
    TDM_CHECK(st.ok()) << st.ToString();
  }
  serve::http::HttpServerOptions hopts;
  hopts.threads = 16;  // accept every offered connection; admission sheds
  serve::http::HttpServer server(hopts);
  service.Register(&server);
  {
    const util::Status st = server.Start();
    TDM_CHECK(st.ok()) << st.ToString();
  }

  rep.Printf("\nOverload: shards=4, max_inflight=8, 1ms simulated work, "
             "%.2fs per offered-load cell\n", seconds);
  rep.Printf("%-10s %-14s %-10s %-14s\n", "conn", "achieved_qps", "p99_ms",
             "observed_shed");
  const std::string body = "{\"label\": \"v1\", \"k\": 5, \"delay_ms\": 1}";
  for (const size_t connections : {size_t{2}, size_t{8}, size_t{24}}) {
    std::atomic<bool> stop{false};
    std::vector<uint64_t> ok_count(connections, 0);
    std::vector<uint64_t> shed_count(connections, 0);
    std::vector<std::vector<double>> lat(connections);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < connections; ++t) {
      threads.emplace_back([&, t] {
        auto client =
            serve::http::HttpClient::Connect("127.0.0.1", server.port());
        if (!client.ok()) return;
        while (!stop.load(std::memory_order_relaxed)) {
          util::StopWatch one;
          auto r = client->Post("/v1/query", body);
          if (!r.ok()) continue;
          if (r->status == 200) {
            ++ok_count[t];
            lat[t].push_back(one.ElapsedMillis());
          } else if (r->status == 429) {
            ++shed_count[t];
          }
        }
      });
    }
    util::StopWatch watch;
    while (watch.ElapsedSeconds() < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    for (auto& t : threads) t.join();

    uint64_t ok = 0, sheds = 0;
    std::vector<double> all_ms;
    for (size_t t = 0; t < connections; ++t) {
      ok += ok_count[t];
      sheds += shed_count[t];
      all_ms.insert(all_ms.end(), lat[t].begin(), lat[t].end());
    }
    const double achieved = static_cast<double>(ok) / seconds;
    const double p99 = Percentile(all_ms, 0.99);
    // Machine-dependent, so informational (not exact-gated like the
    // AdmissionModel rows): the fraction of responses that were 429s.
    const double observed_shed =
        ok + sheds == 0
            ? 0.0
            : static_cast<double>(sheds) / static_cast<double>(ok + sheds);
    const std::string param = "conn=" + std::to_string(connections);
    rep.Add(scenario, param, "achieved_qps", achieved, seconds);
    rep.Add(scenario, param, "p99_ms", p99, 0.0);
    rep.Add(scenario, param, "observed_shed", observed_shed, 0.0);
    rep.Printf("%-10zu %-14.0f %-10.3f %-14.3f\n", connections, achieved,
               p99, observed_shed);
  }
  server.Stop();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// AdmissionModel / CacheModel: deterministic, exact-gated rates
// ---------------------------------------------------------------------------

void RunAdmissionModel(bench::BenchReporter& rep,
                       const bench::BenchOptions& opts) {
  if (!opts.Matches("AdmissionModel")) return;
  const char* scenario = "AdmissionModel";
  rep.Printf("\nAdmission model (deterministic burst replay):\n");
  rep.Printf("%-18s %-10s\n", "config", "shed_rate");
  struct Grid { size_t capacity, burst; };
  for (const Grid g : {Grid{2, 4}, Grid{4, 4}, Grid{4, 8}, Grid{8, 32}}) {
    serve::AdmissionController gate(
        serve::AdmissionOptions{g.capacity, 1, 30});
    const size_t rounds = 1000;
    util::StopWatch watch;
    for (size_t round = 0; round < rounds; ++round) {
      // A burst of overlapping arrivals: every request is in flight until
      // the whole burst has been answered — the worst case the in-flight
      // budget exists for.
      std::vector<serve::AdmissionController::Ticket> tickets;
      tickets.reserve(g.burst);
      for (size_t i = 0; i < g.burst; ++i) tickets.emplace_back(&gate);
      TDM_CHECK(gate.RetryAfterSeconds(5.0) >= 1);
      TDM_CHECK(gate.RetryAfterSeconds(5.0) <= 30);
    }
    const uint64_t total = gate.admitted() + gate.shed();
    const double shed_rate =
        static_cast<double>(gate.shed()) / static_cast<double>(total);
    const std::string param = "cap=" + std::to_string(g.capacity) +
                              ",burst=" + std::to_string(g.burst);
    rep.Add(scenario, param, "shed_rate", shed_rate, watch.ElapsedSeconds());
    rep.Printf("%-18s %-10.4f\n", param.c_str(), shed_rate);
  }
}

void RunCacheModel(bench::BenchReporter& rep,
                   const bench::BenchOptions& opts) {
  if (!opts.Matches("CacheModel")) return;
  const char* scenario = "CacheModel";
  const uint64_t seed = opts.seed == 0 ? 7 : opts.seed;
  rep.Printf("\nResult-cache model (seeded key stream, capacity sweep):\n");
  rep.Printf("%-22s %-16s %-10s\n", "config", "cache_hit_rate",
             "evictions");
  struct Grid { size_t entries, keyspace; };
  for (const Grid g :
       {Grid{64, 64}, Grid{64, 256}, Grid{256, 1024}}) {
    serve::ResultCache cache(serve::ResultCacheOptions{g.entries, 8});
    // Clustered popularity: half the lookups hit an 8x smaller hot set,
    // the shape a result cache exists for. Seeded, so the hit rate is a
    // pure function of (seed, grid) and exact-gated in CI.
    util::Rng rng(seed + 1);
    const size_t lookups = 20000;
    util::StopWatch watch;
    for (size_t i = 0; i < lookups; ++i) {
      const size_t universe =
          rng.UniformInt(2) == 0 ? std::max<size_t>(1, g.keyspace / 8)
                                 : g.keyspace;
      const std::string key =
          "q" + std::to_string(rng.UniformInt(universe)) + "|k=5|m=a|np=4";
      std::string body;
      if (!cache.Get(key, 1, &body)) {
        cache.Put(key, 1, "{\"matches\":[]}");
      }
    }
    const double hit_rate =
        static_cast<double>(cache.hits()) /
        static_cast<double>(cache.hits() + cache.misses());
    const std::string param = "entries=" + std::to_string(g.entries) +
                              ",keys=" + std::to_string(g.keyspace);
    rep.Add(scenario, param, "cache_hit_rate", hit_rate,
            watch.ElapsedSeconds());
    rep.Add(scenario, param, "evictions",
            static_cast<double>(cache.evictions()), 0.0);
    rep.Printf("%-22s %-16.4f %-10zu\n", param.c_str(), hit_rate,
               static_cast<size_t>(cache.evictions()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseArgsOrExit(argc, argv);
  bench::BenchReporter rep("serve_shard", opts);
  rep.Note("Sharded scatter-gather serving: qps/p99 vs shard count "
           "(exact-mode bit-identity gated), offered load past saturation, "
           "deterministic admission + cache models");
  RunShardScaling(rep, opts);
  RunOverload(rep, opts);
  RunAdmissionModel(rep, opts);
  RunCacheModel(rep, opts);
  return rep.Finish() ? 0 : 1;
}
