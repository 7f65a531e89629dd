// Observability cost of the HTTP serving front end: a MatchService +
// HttpServer pair serving a synthetic snapshot in-process, driven by
// serve::http::HttpClient threads over persistent loopback connections.
//
// Three measurements, each gated by tools/check_bench.py:
//  * obs_overhead_ratio — untraced vs 10%-sampled tracing qps
//    (--max-obs-overhead);
//  * profiler_overhead_ratio — profiler off vs armed at 99 Hz
//    (--max-profiler-overhead);
//  * history_memory_bytes — metric-history ring memory per sampling
//    cadence (the *_bytes growth gate).
// The qps rows beside the ratios are timings and never value-compared.
// Serving latency and throughput themselves are timed open-loop by
// tdbench's serve_lookup / serve_scan workloads.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/http/client.h"
#include "serve/http/server.h"
#include "serve/http/service.h"
#include "serve/snapshot.h"
#include "util/logging.h"
#include "util/obs/jsonlog.h"
#include "util/obs/profiler.h"
#include "util/obs/timeseries.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace tdmatch;  // NOLINT

namespace {

/// Paired off/on rounds per overhead section; the gate takes the minimum
/// ratio over them.
constexpr int kRounds = 5;

std::string TempSnapshotPath() {
  std::string path = "serve_http_bench.tds";
  if (const char* tmp = std::getenv("TMPDIR"); tmp != nullptr) {
    return std::string(tmp) + "/" + path;
  }
  return "/tmp/" + path;
}

/// Drives the server with `connections` client threads, each posting
/// single-label /v1/query requests for `seconds` of wall time, and
/// returns the answered query count.
uint64_t DriveLoad(uint16_t port, size_t n_vectors, size_t connections,
                   double seconds, uint64_t seed) {
  std::atomic<bool> stop{false};
  std::vector<uint64_t> answered(connections, 0);
  std::vector<uint64_t> errors(connections, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      auto client = serve::http::HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++errors[t];
        return;
      }
      util::Rng rng(seed + 1000 + t);
      const std::string body =
          "{\"k\": 5, \"labels\": [\"v" +
          std::to_string(rng.UniformInt(n_vectors)) + "\"]}";
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = client->Post("/v1/query", body);
        if (!r.ok() || r->status != 200) {
          ++errors[t];
          continue;
        }
        ++answered[t];
      }
    });
  }
  util::StopWatch watch;
  while (watch.ElapsedSeconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  uint64_t total_errors = 0;
  for (uint64_t e : errors) total_errors += e;
  TDM_CHECK(total_errors == 0) << total_errors << " request errors";
  uint64_t total = 0;
  for (uint64_t a : answered) total += a;
  return total;
}

/// Best qps of each side and the minimum paired off/on ratio over
/// kRounds rounds. Loopback qps at these short cells is noisy (+-10%
/// round to round), which would swamp a single-shot ratio. Each round
/// runs off and on back to back under near-identical machine conditions;
/// noise that happens to slow the "on" side inflates some rounds but
/// rarely all of them, while a real regression inflates every round — so
/// the minimum stays a tight upper-bound estimate of true overhead.
struct Overhead {
  double qps_off = 0.0;
  double qps_on = 0.0;
  double ratio = 1e9;

  void AddRound(uint64_t off, uint64_t on, double seconds) {
    const double off_qps = static_cast<double>(off) / seconds;
    const double on_qps = static_cast<double>(on) / seconds;
    qps_off = std::max(qps_off, off_qps);
    qps_on = std::max(qps_on, on_qps);
    ratio = std::min(ratio, off_qps / std::max(on_qps, 1e-9));
  }
};

void RunHttpSynthetic(bench::BenchReporter& rep,
                      const bench::BenchOptions& opts) {
  if (!opts.Matches("HttpSynthetic")) return;
  const char* scenario = "HttpSynthetic";
  size_t n = 10000;
  double seconds = 0.5;
  if (opts.scale == bench::Scale::kSmoke) {
    n = 2000;
    seconds = 0.25;
  }
  if (opts.scale == bench::Scale::kFull) {
    n = 50000;
    seconds = 1.0;
  }
  const int dim = 32;
  const uint64_t seed = opts.seed == 0 ? 7 : opts.seed;

  // --- snapshot on disk, served over mmap --------------------------------
  util::Rng rng(seed);
  const auto vectors = bench::MakeClusteredVectors(n, dim, 64, &rng);
  embed::EmbeddingTable table(dim);
  for (size_t i = 0; i < n; ++i) {
    table.Put("v" + std::to_string(i), vectors[i]);
  }
  serve::SnapshotMeta meta;
  meta.scenario = scenario;
  meta.Set("candidate_prefix", "v");
  const std::string path = TempSnapshotPath();
  TDM_CHECK(serve::SnapshotIo::Write(table, meta, path).ok());

  serve::http::HttpServerOptions hopts;
  // More workers than the 2 load connections, so a connection still
  // closing from the previous cell never delays the next cell's accept.
  hopts.threads = 6;
  serve::http::ServiceOptions sopts;
  sopts.engine.ivf.seed = seed;
  serve::http::MatchService service(sopts);
  serve::http::HttpServer server(hopts);
  {
    util::Status st = service.LoadInitial(path);
    TDM_CHECK(st.ok()) << st.ToString();
    service.Register(&server);
    st = server.Start();
    TDM_CHECK(st.ok()) << st.ToString();
  }
  rep.Printf("\nHTTP serving: n=%zu dim=%d, %zu worker threads, 2 "
             "connections, %d paired rounds of %.2fs\n",
             n, dim, hopts.threads, kRounds, seconds);

  // --- observability overhead ---------------------------------------------
  // Same snapshot served by a second service with production-rate tracing
  // (10% of requests carry per-stage spans + histograms + one JSONL line
  // into a counting sink; the other 90% pay one sampler branch) against
  // the untraced server above, on a single-label config — where
  // per-request overhead is least amortized. check_bench gates the ratio
  // with --max-obs-overhead (<= 5%: tracing must stay cheap enough to
  // leave on).
  {
    serve::http::ServiceOptions tr_opts = sopts;
    tr_opts.trace_sample = 0.1;
    util::obs::JsonLogger trace_log;
    uint64_t trace_lines = 0;
    trace_log.set_sink([&trace_lines](const std::string&) { ++trace_lines; });
    tr_opts.logger = &trace_log;
    serve::http::MatchService traced(tr_opts);
    serve::http::HttpServer traced_server(hopts);
    {
      util::Status st = traced.LoadInitial(path);
      TDM_CHECK(st.ok()) << st.ToString();
      traced.Register(&traced_server);
      st = traced_server.Start();
      TDM_CHECK(st.ok()) << st.ToString();
    }
    Overhead obs;
    for (int round = 0; round < kRounds; ++round) {
      const uint64_t off =
          DriveLoad(server.port(), n, 2, seconds, seed + 31 * round);
      const uint64_t on =
          DriveLoad(traced_server.port(), n, 2, seconds, seed + 31 * round);
      obs.AddRound(off, on, seconds);
    }
    traced_server.Stop();
    TDM_CHECK(trace_lines > 0) << "traced server emitted no JSONL lines";
    rep.Add(scenario, "obs=off", "qps", obs.qps_off, 2 * kRounds * seconds);
    rep.Add(scenario, "obs=on", "qps", obs.qps_on, 0.0);
    rep.Add(scenario, "obs=on", "obs_overhead_ratio", obs.ratio, 0.0);
    rep.Printf("%-20s off %-8.0f on %-8.0f ratio %.3f (%llu trace lines)\n",
               "obs qps", obs.qps_off, obs.qps_on, obs.ratio,
               static_cast<unsigned long long>(trace_lines));
  }

  // --- profiler overhead ---------------------------------------------------
  // Same paired-rounds design: the same server is driven with the sampling
  // CPU profiler disarmed and then armed at the production default 99 Hz.
  // check_bench gates the ratio with --max-profiler-overhead (<= 5%: a
  // 99 Hz SIGPROF + frame-pointer walk must be cheap enough to capture on
  // a live server).
  {
    Overhead prof;
    uint64_t profile_samples = 0;
    if (util::obs::CpuProfiler::Supported()) {
      for (int round = 0; round < kRounds; ++round) {
        const uint64_t off =
            DriveLoad(server.port(), n, 2, seconds, seed + 47 * round);
        {
          const util::Status st = util::obs::CpuProfiler::Global().Start(99);
          TDM_CHECK(st.ok()) << st.ToString();
        }
        const uint64_t on =
            DriveLoad(server.port(), n, 2, seconds, seed + 47 * round);
        profile_samples += util::obs::CpuProfiler::Global().Stop().samples;
        prof.AddRound(off, on, seconds);
      }
    } else {
      // Keep the row (check_bench requires rows to persist) with a
      // truthful no-op value on platforms without the profiler.
      prof.ratio = 1.0;
    }
    rep.Add(scenario, "profile=off", "qps", prof.qps_off,
            2 * kRounds * seconds);
    rep.Add(scenario, "profile=on", "qps", prof.qps_on, 0.0);
    rep.Add(scenario, "profile=on", "profiler_overhead_ratio", prof.ratio,
            0.0);
    rep.Printf("%-20s off %-8.0f on %-8.0f ratio %.3f (%llu samples)\n",
               "profiler qps", prof.qps_off, prof.qps_on, prof.ratio,
               static_cast<unsigned long long>(profile_samples));
  }

  // --- metric history memory ----------------------------------------------
  // Ring memory for the service's tdmatch_* families across sampling
  // cadences, capacity sized for a fixed 60 s retention.
  const double kRetention = 60.0;
  for (const double interval : {0.1, 1.0}) {
    util::obs::TimeSeriesOptions topts;
    topts.interval_seconds = interval;
    topts.capacity = static_cast<size_t>(kRetention / interval);
    topts.name_prefix = "tdmatch_";
    util::obs::TimeSeriesStore store(service.registry(), topts);
    for (size_t i = 0; i < topts.capacity; ++i) {
      store.SampleOnce(static_cast<double>(i) * interval);
    }
    const size_t series =
        store.Window(kRetention,
                     static_cast<double>(topts.capacity) * interval)
            .size();
    TDM_CHECK(series > 0) << "history captured no series";
    const std::string param =
        "interval=" + std::to_string(interval).substr(0, 3) + "s";
    rep.Add(scenario, param, "history_memory_bytes",
            static_cast<double>(store.MemoryBytes()), 0.0);
    rep.Printf("%-20s %zu series, %.0f KiB\n", param.c_str(), series,
               static_cast<double>(store.MemoryBytes()) / 1024.0);
  }

  server.Stop();
  std::remove(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseArgsOrExit(argc, argv);
  bench::BenchReporter rep("serve_http", opts);
  rep.Note("HTTP front end: tracing and profiler qps overhead over "
           "loopback, metric-history memory");
  RunHttpSynthetic(rep, opts);
  return rep.Finish() ? 0 : 1;
}
