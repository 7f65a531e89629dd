// serve_lookup and serve_scan: open-loop HTTP load against an in-process
// MatchService + HttpServer, from generated snapshots.
//
// Each run has a fixed-rate phase (latency, CPU per request) and a fixed
// goodput ladder. The traced run adds a traced fixed-rate phase, whose
// client and server spans share a request id, and then replays that
// phase's request sequence in-process against the served engine for the
// engine-layer timings.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/http/client.h"
#include "serve/http/server.h"
#include "serve/http/service.h"
#include "serve/mmap_snapshot.h"
#include "serve/query_engine.h"
#include "serve/sharded_engine.h"
#include "serve/snapshot.h"
#include "stats.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads.h"

namespace tdbench {

using namespace tdmatch;  // NOLINT
using serve::http::HttpClient;
using serve::http::HttpRequest;
using serve::http::HttpResponse;
using serve::http::HttpServer;
using serve::http::MatchService;

namespace {

constexpr size_t kK = 5;
/// Labels per batch request.
constexpr size_t kBatchSize = 16;

struct ServeSpec {
  size_t shards = 1;
  size_t cache_entries = 0;
  size_t nprobe = 4;
  /// Offered rate of the fixed-rate phase (requests/s).
  double fixed_rate = 0.0;
  /// Goodput ladder (requests/s, ascending, 10% steps) and its p99 limit.
  std::vector<double> ladder;
  double p99_limit_ms = 0.0;
  /// Zipf exponent of the single-label keys; 0 = uniform.
  double zipf_s = 0.0;
  /// Every `batch_every`-th request is a kBatchSize-label batch (0 =
  /// singles only).
  size_t batch_every = 0;
  /// p50 and p99 are medians of per-window percentiles over windows of
  /// this many requests (0 = one window: the whole phase).
  size_t percentile_window = 0;
  /// POST /v1/reload period within every load phase, the first one a
  /// quarter period in, or a quarter of a shorter phase (0 = never).
  double reload_interval_ms = 0.0;
  /// k-means iterations of every shard's IVF build (each reload pays it).
  size_t kmeans_iters = 8;

  /// Set-ups timed per run (the median is reported).
  int setup_reps = 3;
};

ServeSpec MakeServeSpec(const std::string& workload) {
  ServeSpec s;
  if (workload == "serve_lookup") {
    s.shards = 1;
    s.cache_entries = 12;  // below the 32 distinct keys
    s.fixed_rate = 6000;
    s.ladder = GeometricLadder(5000, 1.1, 36);  // 5k .. 140k
    s.p99_limit_ms = 5.0;
    s.percentile_window = 5000;
    s.zipf_s = 1.1;
    s.setup_reps = 21;
  } else {
    s.shards = 4;
    s.nprobe = 8;
    s.fixed_rate = 100;
    s.ladder = GeometricLadder(100, 1.1, 31);  // 100 .. 1745
    s.p99_limit_ms = 100.0;
    s.batch_every = 4;
    s.reload_interval_ms = 5000;
    s.kmeans_iters = 4;
  }
  return s;
}

/// Generated serving input: the snapshot and, per query label, its gold
/// answers.
struct ServeInputs {
  std::string snapshot;
  std::vector<std::string> queries;
  std::vector<std::vector<std::string>> gold;
};

std::string QueryLabel(size_t i) { return util::StrFormat("__D0:%zu__", i); }
std::string CandidateLabel(size_t i) {
  return util::StrFormat("__D1:%zu__", i);
}

/// serve_scan's snapshot: 100k clustered candidates at dim 64 plus 2048
/// query vectors, each a perturbed copy of one candidate (its gold), with
/// the global IVF index embedded as the "ivfpq" section.
util::Status WriteScanSnapshot(const RunContext& ctx, ServeInputs* in) {
  constexpr int kDim = 64;
  constexpr size_t kCandidates = 100000;
  constexpr size_t kCenters = 1000;
  constexpr size_t kQueries = 2048;
  util::Rng rng(ctx.seed);
  std::vector<std::vector<float>> anchors(kCenters,
                                          std::vector<float>(kDim));
  for (auto& a : anchors) {
    for (float& x : a) x = static_cast<float>(rng.Gaussian());
  }
  std::vector<std::vector<float>> cand(kCandidates, std::vector<float>(kDim));
  for (size_t i = 0; i < kCandidates; ++i) {
    const auto& a = anchors[rng.UniformInt(kCenters)];
    for (int d = 0; d < kDim; ++d) {
      cand[i][d] = a[d] + 0.35f * static_cast<float>(rng.Gaussian());
    }
  }
  serve::Snapshot snap;
  snap.meta.scenario = "SyntheticScan";
  snap.meta.Set("query_prefix", "__D0:");
  snap.meta.Set("candidate_prefix", "__D1:");
  snap.table = embed::EmbeddingTable(kDim);
  for (size_t q = 0; q < kQueries; ++q) {
    const size_t gold = rng.UniformInt(kCandidates);
    std::vector<float> v = cand[gold];
    for (float& x : v) x += 0.1f * static_cast<float>(rng.Gaussian());
    snap.table.Put(QueryLabel(q), std::move(v));
    in->queries.push_back(QueryLabel(q));
    in->gold.push_back({CandidateLabel(gold)});
  }
  for (size_t i = 0; i < kCandidates; ++i) {
    snap.table.Put(CandidateLabel(i), std::move(cand[i]));
  }
  const serve::SnapshotMeta meta = snap.meta;
  serve::QueryEngineOptions eopts;
  eopts.threads = ctx.threads;
  eopts.use_snapshot_index = false;
  TDM_ASSIGN_OR_RETURN(
      serve::QueryEngine engine,
      serve::QueryEngine::BuildForPrefix(std::move(snap), "__D1:", eopts));
  return serve::SnapshotIo::Write(
      engine.table(), meta,
      {{serve::QueryEngine::kIvfSectionTag, engine.SerializeIvfSection()}},
      in->snapshot);
}

util::Result<ServeInputs> MakeInputs(const std::string& workload,
                                     const RunContext& ctx) {
  ServeInputs in;
  in.snapshot = ctx.work_dir + "/" + workload + ".tds";
  if (workload == "serve_lookup") {
    TDM_ASSIGN_OR_RETURN(in.gold, BuildLookupSnapshot(ctx, in.snapshot));
    for (size_t i = 0; i < in.gold.size(); ++i) {
      in.queries.push_back(QueryLabel(i));
    }
  } else {
    TDM_RETURN_NOT_OK(WriteScanSnapshot(ctx, &in));
  }
  return in;
}

/// One request of a phase's schedule.
struct Planned {
  std::string body;
  std::vector<std::string> labels;  // 1 = single, more = batch
};

/// Draws single-label keys: Zipf(s) over a seeded permutation of the
/// query labels, or uniform when s = 0.
class KeySampler {
 public:
  KeySampler(const std::vector<std::string>& labels, double s,
             util::Rng* rng)
      : labels_(labels) {
    rng->Shuffle(&labels_);
    double total = 0.0;
    for (size_t r = 1; r <= labels_.size(); ++r) {
      total += s > 0 ? 1.0 / std::pow(static_cast<double>(r), s) : 1.0;
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  const std::string& Draw(util::Rng* rng) const {
    const double u = rng->Uniform();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return labels_[std::min(i, labels_.size() - 1)];
  }

 private:
  std::vector<std::string> labels_;
  std::vector<double> cdf_;
};

std::vector<Planned> MakePlan(const ServeSpec& spec, const ServeInputs& in,
                              size_t count, uint64_t seed) {
  util::Rng rng(seed);
  const KeySampler keys(in.queries, spec.zipf_s, &rng);
  std::vector<Planned> plan(count);
  for (size_t i = 0; i < count; ++i) {
    Planned& p = plan[i];
    util::JsonWriter w;
    w.BeginObject();
    if (spec.batch_every > 0 && i % spec.batch_every == spec.batch_every - 1) {
      w.Key("labels").BeginArray();
      for (size_t b = 0; b < kBatchSize; ++b) {
        p.labels.push_back(in.queries[rng.UniformInt(in.queries.size())]);
        w.Value(p.labels.back());
      }
      w.EndArray();
    } else {
      p.labels.push_back(keys.Draw(&rng));
      w.Key("label").Value(p.labels.back());
    }
    w.Key("k").Value(static_cast<int64_t>(kK)).EndObject();
    p.body = w.str();
  }
  return plan;
}

/// True when a 200 body parses and carries k matches for every label.
bool ValidBody(const std::string& body, size_t labels) {
  auto v = util::JsonParse(body);
  if (!v.ok() || !v->is_object()) return false;
  auto has_k = [](const util::JsonValue* o) {
    const util::JsonValue* m = o == nullptr ? nullptr : o->Find("matches");
    return m != nullptr && m->is_array() && m->items().size() == kK;
  };
  if (labels == 1) return has_k(&*v);
  const util::JsonValue* results = v->Find("results");
  if (results == nullptr || !results->is_array() ||
      results->items().size() != labels) {
    return false;
  }
  for (const auto& r : results->items()) {
    if (!has_k(&r)) return false;
  }
  return true;
}

struct Outcome {
  double due_ms = 0.0;
  double send_ms = 0.0;
  double done_ms = 0.0;
  double lag_ms = 0.0;
  int status = 0;  // HTTP status; -1 connect/transport failure; 0 unsent
  bool valid = false;
};

struct PhaseResult {
  PhaseCounts counts;
  std::vector<Outcome> out;
  uint64_t first_request = 0;  // request ids are first_request + i
  uint64_t bad_bodies = 0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms;  // from due, succeeded requests
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  bool backlog_growing = false;
  std::vector<double> reload_ms;  // succeeded reloads
  size_t reloads_failed = 0;
};

/// POSTs /v1/reload at first_ms, first_ms + interval_ms, ... (NowMs()
/// time base) on its own connection until stopped; the destructor stops
/// and joins. A non-positive interval starts nothing.
class Reloader {
 public:
  Reloader(uint16_t port, double first_ms, double interval_ms) {
    if (interval_ms <= 0) return;
    thread_ = std::thread([this, port, first_ms, interval_ms] {
      auto client = HttpClient::Connect("127.0.0.1", port, 60000);
      for (double next = first_ms;; next += interval_ms) {
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait_for(lock,
                       std::chrono::duration<double, std::milli>(
                           std::max(0.0, next - NowMs())),
                       [this] { return stop_; });
          if (stop_) return;
        }
        const double t0 = NowMs();
        auto r = client.ok() ? client->Post("/v1/reload", "{}")
                             : util::Result<HttpResponse>(client.status());
        const bool ok = r.ok() && r->status == 200;
        std::lock_guard<std::mutex> lock(mu_);
        (ok ? ms_ : failed_ms_).push_back(NowMs() - t0);
      }
    });
  }
  ~Reloader() { Stop(); }
  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  /// Round-trip times of the reloads that succeeded (after Stop()).
  const std::vector<double>& ms() const { return ms_; }
  size_t failed() const { return failed_ms_.size(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;              // guarded by mu_
  std::vector<double> ms_;         // guarded by mu_ until joined
  std::vector<double> failed_ms_;  // guarded by mu_ until joined
  std::thread thread_;
};

/// Runs one open-loop phase: request i is due at start + i / rate; each
/// of `clients` threads owns every clients-th request on its own
/// keep-alive connection. Requests still unsent 3 s after the phase's
/// last due time are counted as failed.
PhaseResult RunPhase(const std::string& name, const ServeSpec& spec,
                     uint16_t port, const std::vector<Planned>& plan,
                     double rate, size_t clients, SpanLog* spans,
                     uint64_t* next_request) {
  PhaseResult res;
  res.counts.phase = name;
  res.counts.rate = rate;
  res.out.resize(plan.size());
  res.first_request = *next_request;
  *next_request += plan.size();
  const bool traced = spans != nullptr && spans->enabled();
  const double cpu0 = ProcessCpuSeconds();
  const double start = NowMs() + 20.0;
  const double deadline = start + DueMs(plan.size(), rate) + 3000.0;
  Reloader reloads(
      port,
      start + std::min(spec.reload_interval_ms, DueMs(plan.size(), rate)) / 4,
      spec.reload_interval_ms);

  auto worker = [&](size_t t) {
    // Wake within ~1 us of a due time instead of the default 50 us slack:
    // at 6000/s the default slack alone is as long as a lookup.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    auto client = HttpClient::Connect("127.0.0.1", port);
    double prev_done = start;
    for (size_t i = t; i < plan.size(); i += clients) {
      Outcome& o = res.out[i];
      o.due_ms = start + DueMs(i, rate);
      if (!client.ok()) {
        o.status = -1;
        continue;
      }
      double now = NowMs();
      if (now > deadline) continue;
      if (now < o.due_ms) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(o.due_ms - now));
      }
      o.send_ms = NowMs();
      o.lag_ms = GeneratorLagMs(o.due_ms, o.send_ms, prev_done);
      const uint64_t request = res.first_request + i;
      std::vector<std::pair<std::string, std::string>> headers;
      uint64_t root = 0, rt = 0;
      if (traced) {
        root = spans->NextId();
        rt = spans->NextId();
        headers.emplace_back("X-Request-Id",
                             util::StrFormat("%llu-%llu",
                                             static_cast<unsigned long long>(
                                                 request),
                                             static_cast<unsigned long long>(
                                                 rt)));
      }
      auto r = client->Request("POST", "/v1/query", plan[i].body,
                               "application/json", headers);
      o.done_ms = NowMs();
      prev_done = o.done_ms;
      if (traced) {
        spans->Record({"request", root, 0, request, o.due_ms, o.done_ms});
        spans->Record({"http.roundtrip", rt, root, request, o.send_ms,
                       o.done_ms});
      }
      if (!r.ok()) {
        o.status = -1;
        continue;
      }
      o.status = r->status;
      o.valid = o.status == 200 && ValidBody(r->body, plan[i].labels.size());
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  reloads.Stop();
  res.cpu_s = ProcessCpuSeconds() - cpu0;
  res.reload_ms = reloads.ms();
  res.reloads_failed = reloads.failed();

  std::vector<double> lateness;
  for (const Outcome& o : res.out) {
    if (o.status != 0) ++res.counts.sent;
    if (o.status == 200 && o.valid) {
      ++res.counts.succeeded;
      res.latency_ms.push_back(LatencyFromDueMs(o.due_ms, o.done_ms));
    } else if (o.status == 429) {
      ++res.counts.refused;
    } else {
      ++res.counts.failed;
      if (o.status == 200) ++res.bad_bodies;
    }
    lateness.push_back(o.status == 0 ? DueMs(plan.size(), rate)
                                     : o.send_ms - o.due_ms);
  }
  res.p50_ms = WindowedPercentile(res.latency_ms, 0.5, spec.percentile_window);
  res.p90_ms = WindowedPercentile(res.latency_ms, 0.9, spec.percentile_window);
  res.p99_ms = WindowedPercentile(res.latency_ms, 0.99, spec.percentile_window);
  res.backlog_growing = BacklogGrowing(lateness, 5.0);
  return res;
}

/// A running MatchService + HttpServer pair.
struct Server {
  std::unique_ptr<MatchService> service;
  std::unique_ptr<HttpServer> http;
};

/// Set-up as a serving process pays it: snapshot open (CRC-checked),
/// engine build, routes, listening socket. The /v1/query route is the
/// benchmark's own: it wraps MatchService::HandleQuery so the traced run
/// can time the service and the request parse under the client's request
/// id (X-Request-Id: "<request>-<parent span>").
util::Result<Server> StartServer(const ServeSpec& spec, const RunContext& ctx,
                                 const std::string& snapshot) {
  serve::http::ServiceOptions so;
  so.engine.threads = kEngineThreads;
  so.engine.default_k = kK;
  so.engine.ivf.nprobe = spec.nprobe;
  so.engine.ivf.kmeans_iters = spec.kmeans_iters;
  so.shards = spec.shards;
  so.cache_entries = spec.cache_entries;
  so.history_interval_s = 0;
  so.allow_profile = false;
  Server s;
  s.service = std::make_unique<MatchService>(so);
  TDM_RETURN_NOT_OK(s.service->LoadInitial(snapshot));
  serve::http::HttpServerOptions ho;
  ho.threads = ctx.threads;
  s.http = std::make_unique<HttpServer>(ho);
  MatchService* service = s.service.get();
  SpanLog* spans = ctx.spans;
  s.http->Handle("POST", "/v1/query", [service, spans](const HttpRequest& r) {
    if (spans == nullptr || !spans->enabled()) {
      return service->HandleQuery(r);
    }
    // X-Request-Id: "<request>-<parent span>", set by traced phases.
    unsigned long long request = 0, parent = 0;
    if (std::sscanf(r.Header("x-request-id").c_str(), "%llu-%llu", &request,
                    &parent) != 2) {
      return service->HandleQuery(r);  // an untraced phase or a check
    }
    {
      ScopedSpan parse(spans, "json.parse", parent, request);
      auto parsed = util::JsonParse(r.body);
      (void)parsed;
    }
    ScopedSpan handle(spans, "service.handle", parent, request);
    return service->HandleQuery(r);
  });
  s.http->Handle("POST", "/v1/reload", [service](const HttpRequest& r) {
    return service->HandleReload(r);
  });
  TDM_RETURN_NOT_OK(s.http->Start());
  return s;
}

/// Top-k labels and scores of a /v1/query body ("matches").
bool ParseMatches(const std::string& body,
                  std::vector<std::pair<std::string, double>>* out) {
  auto v = util::JsonParse(body);
  if (!v.ok()) return false;
  const util::JsonValue* m = v->Find("matches");
  if (m == nullptr || !m->is_array()) return false;
  out->clear();
  for (const auto& item : m->items()) {
    const util::JsonValue* label = item.Find("label");
    const util::JsonValue* score = item.Find("score");
    if (label == nullptr || score == nullptr) return false;
    out->emplace_back(label->string_value(), score->number_value());
  }
  return true;
}

/// Output checks after the load: for a sample of query labels, the HTTP
/// exact answer must equal the in-process engine's (labels and scores,
/// exactly), and the HTTP approx answer gives recall@5 against that exact
/// answer and the reciprocal rank of the gold answer.
void CheckAnswers(uint16_t port, const ServeInputs& in,
                  const serve::ShardedQueryEngine& engine, uint64_t seed,
                  WorkloadResult* res) {
  auto client = HttpClient::Connect("127.0.0.1", port);
  res->Check(client.ok(), "check client connects");
  if (!client.ok()) return;
  util::Rng rng(seed ^ 0xc4ec);
  const size_t n = std::min<size_t>(in.queries.size(), 256);
  const std::vector<size_t> sample = rng.SampleIndices(in.queries.size(), n);
  double rr_sum = 0.0, recall_sum = 0.0;
  size_t exact_mismatch = 0, bad = 0;
  for (size_t idx : sample) {
    const std::string& label = in.queries[idx];
    std::vector<std::pair<std::string, double>> approx, exact;
    res->attempted += 2;
    auto a = client->Post(
        "/v1/query", "{\"label\":\"" + label + "\",\"k\":5}");
    auto e = client->Post(
        "/v1/query",
        "{\"label\":\"" + label + "\",\"k\":5,\"mode\":\"exact\"}");
    if (!a.ok() || a->status != 200 || !ParseMatches(a->body, &approx) ||
        !e.ok() || e->status != 200 || !ParseMatches(e->body, &exact)) {
      ++bad;
      res->failed += 2;
      continue;
    }
    auto want = engine.Query(label, kK, serve::SearchMode::kExact);
    bool same = want.ok() && want->size() == exact.size();
    for (size_t i = 0; same && i < exact.size(); ++i) {
      same = (*want)[i].label == exact[i].first &&
             (*want)[i].score == exact[i].second;
    }
    exact_mismatch += !same;
    size_t hit = 0;
    for (const auto& x : exact) {
      for (const auto& y : approx) hit += x.first == y.first;
    }
    recall_sum += static_cast<double>(hit) / static_cast<double>(kK);
    for (size_t r = 0; r < approx.size(); ++r) {
      const auto& gold = in.gold[idx];
      if (std::find(gold.begin(), gold.end(), approx[r].first) !=
          gold.end()) {
        rr_sum += 1.0 / static_cast<double>(r + 1);
        break;
      }
    }
  }
  res->Check(bad == 0, util::StrFormat("%zu sampled check queries failed",
                                       bad));
  res->Check(exact_mismatch == 0,
             util::StrFormat("sampled exact answers equal the in-process "
                             "engine's (%zu of %zu differ)",
                             exact_mismatch, sample.size()));
  res->Set("mrr", rr_sum / static_cast<double>(sample.size()));
  res->Set("recall_at_5", recall_sum / static_cast<double>(sample.size()));
}

/// Books a phase's counts and reloads into the result. `in_totals` adds
/// its requests to attempted/failed (the ladder's rungs probe past
/// capacity on purpose and are reported per phase only).
void AddPhase(const PhaseResult& p, bool in_totals,
              std::vector<double>* reload_ms, WorkloadResult* res) {
  res->phases.push_back(p.counts);
  reload_ms->insert(reload_ms->end(), p.reload_ms.begin(), p.reload_ms.end());
  res->attempted += p.reload_ms.size() + p.reloads_failed;
  res->failed += p.reloads_failed;
  if (in_totals) {
    res->attempted += p.out.size();
    res->failed += p.counts.refused + p.counts.failed;
  }
  res->Check(p.bad_bodies == 0,
             util::StrFormat("every 200 body parses and carries k matches "
                             "(%llu bad in phase %s)",
                             static_cast<unsigned long long>(p.bad_bodies),
                             p.counts.phase.c_str()));
}

/// Searches the ladder for goodput; each rung tried runs for
/// `rung_seconds` and is reported as its own phase.
double RunLadder(const ServeSpec& spec, const ServeInputs& in, uint16_t port,
                 double rung_seconds, size_t clients, const RunContext& ctx,
                 uint64_t* next_request, std::vector<double>* reload_ms,
                 WorkloadResult* res) {
  return SearchLadder(spec.ladder, [&](double rate) {
    const auto plan =
        MakePlan(spec, in, static_cast<size_t>(rate * rung_seconds),
                 ctx.seed * 1000 + static_cast<uint64_t>(rate));
    const PhaseResult p =
        RunPhase(util::StrFormat("ladder@%.0f", rate), spec, port, plan,
                 rate, clients, ctx.spans, next_request);
    AddPhase(p, /*in_totals=*/false, reload_ms, res);
    const Rung rung{rate, p.p99_ms, p.backlog_growing,
                    p.counts.refused + p.counts.failed};
    const bool pass = RungPasses(rung, spec.p99_limit_ms);
    res->notes.push_back(util::StrFormat(
        "rung %.0f/s: p99 %.3f ms, backlog %s, errors %llu -> %s", rate,
        rung.p99_ms, rung.backlog_growing ? "growing" : "steady",
        static_cast<unsigned long long>(rung.errors),
        pass ? "pass" : "miss"));
    return pass;
  });
}

/// Engine-layer timings: the traced phase's request sequence replayed
/// in-process against the served engine, one request at a time.
struct Replay {
  double query_ms = 0.0, scatter_ms = 0.0, merge_ms = 0.0, batch_ms = 0.0;
  double per_request_ms = 0.0;
};

Replay ReplayEngine(const std::vector<Planned>& plan, uint64_t first_request,
                    const serve::ShardedQueryEngine& engine, SpanLog* spans) {
  std::vector<double> query, scatter, merge, batch, all;
  const size_t n = std::min<size_t>(plan.size(), 20000);
  for (size_t i = 0; i < n; ++i) {
    const Planned& p = plan[i];
    const uint64_t request = first_request + i;
    const double t0 = NowMs();
    if (p.labels.size() == 1) {
      ScopedSpan span(spans, "engine.query", 0, request);
      serve::ShardedQueryEngine::QueryTiming timing;
      auto r = engine.Query(p.labels[0], kK, serve::SearchMode::kApprox, 0,
                            &timing);
      span.Close();
      query.push_back(NowMs() - t0);
      scatter.push_back(timing.scatter_ms);
      merge.push_back(timing.merge_ms);
    } else {
      ScopedSpan span(spans, "engine.batch", 0, request);
      auto r = engine.QueryBatch(p.labels, kK, serve::SearchMode::kApprox);
      span.Close();
      batch.push_back(NowMs() - t0);
    }
    all.push_back(NowMs() - t0);
  }
  return {Mean(query), Mean(scatter), Mean(merge), Mean(batch), Mean(all)};
}

/// Per-layer metrics of the traced fixed-rate phase.
void SetServeLayers(const PhaseResult& traced, const std::vector<Span>& spans,
                    WorkloadResult* res) {
  const uint64_t lo = traced.first_request;
  const uint64_t hi = lo + traced.out.size();
  std::vector<Span> phase;
  std::map<uint64_t, double> roundtrip, handle, parse;
  for (const Span& s : spans) {
    if (s.request < lo || s.request >= hi) continue;
    const std::string name = s.name;
    if (name == "http.roundtrip") roundtrip[s.request] = s.ms();
    if (name == "service.handle") handle[s.request] = s.ms();
    if (name == "json.parse") parse[s.request] = s.ms();
    if (name == "request" || name == "http.roundtrip" ||
        name == "service.handle" || name == "json.parse") {
      phase.push_back(s);
    }
  }
  std::vector<double> rt, hd, ps, transport;
  for (const auto& [request, ms] : roundtrip) {
    rt.push_back(ms);
    const double h = handle.count(request) ? handle[request] : 0.0;
    const double p = parse.count(request) ? parse[request] : 0.0;
    if (handle.count(request)) hd.push_back(h);
    if (parse.count(request)) ps.push_back(p);
    transport.push_back(ms - h - p);
  }
  double request_ms = 0.0, layers_self_ms = 0.0;
  for (const auto& [name, t] : TotalsByName(phase)) {
    if (name == "request") {
      request_ms = t.total_ms;
    } else {
      layers_self_ms += t.self_ms;
    }
  }
  res->Set("http.roundtrip_ms", Mean(rt));
  res->Set("http.transport_ms", Mean(transport));
  res->Set("service.handle_ms", Mean(hd));
  res->Set("json.parse_ms", Mean(ps));
  res->Set("explained_fraction",
           request_ms > 0 ? layers_self_ms / request_ms : 0.0);
  std::vector<double> lag;
  for (const Outcome& o : traced.out) lag.push_back(o.lag_ms);
  res->Set("generator_lag_ms", Percentile(lag, 0.99));
}

/// Set-up timings split by layer: snapshot open (CRC-checked) and engine
/// build, as MatchService::LoadInitial performs them.
void SetSetupLayers(const ServeSpec& spec, const std::string& snapshot,
                    WorkloadResult* res) {
  std::vector<double> open_s, build_s;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    const double t0 = NowMs();
    auto view = serve::SnapshotView::Open(snapshot, /*verify_crc=*/true);
    const double t1 = NowMs();
    if (!view.ok()) return;
    serve::ShardedEngineOptions so;
    so.shards = spec.shards;
    so.engine.threads = kEngineThreads;
    so.engine.ivf.nprobe = spec.nprobe;
    so.engine.ivf.kmeans_iters = spec.kmeans_iters;
    auto engine =
        serve::ShardedQueryEngine::BuildFromView(*view, "__D1:", so);
    const double t2 = NowMs();
    if (!engine.ok()) return;
    open_s.push_back((t1 - t0) / 1000.0);
    build_s.push_back((t2 - t1) / 1000.0);
    if (rep + 1 == spec.setup_reps) {
      double max_size = 0.0, sum = 0.0;
      for (size_t i = 0; i < engine->active_shards(); ++i) {
        const double n = static_cast<double>(engine->shard_size(i));
        max_size = std::max(max_size, n);
        sum += n;
      }
      res->Set("engine.shard_imbalance",
               max_size / (sum / static_cast<double>(engine->active_shards())));
    }
  }
  res->Set("snapshot.open_s", Median(open_s));
  res->Set("engine.build_s", Median(build_s));
  double adopted = 0.0;
  if (spec.shards == 1) {
    // The shards=1 engine is the plain QueryEngine build path.
    auto view = serve::SnapshotView::Open(snapshot, /*verify_crc=*/true);
    serve::QueryEngineOptions eopts;
    eopts.threads = kEngineThreads;
    eopts.ivf.nprobe = spec.nprobe;
    if (view.ok()) {
      auto engine = serve::QueryEngine::BuildFromView(*view, "__D1:", eopts);
      adopted = engine.ok() && engine->ivf_from_snapshot() ? 1.0 : 0.0;
    }
  }
  res->Set("engine.ivf_adopted", adopted);
}

}  // namespace

WorkloadResult RunServeWorkload(const std::string& name,
                                const RunContext& ctx) {
  WorkloadResult res;
  res.workload = name;
  const ServeSpec spec = MakeServeSpec(name);
  auto inputs = MakeInputs(name, ctx);
  if (!inputs.ok()) {
    res.Check(false, "generate inputs: " + inputs.status().ToString());
    return res;
  }
  const ServeInputs& in = *inputs;
  ReleaseInputMemory();
  const PinToOneCpu pin;  // set-up, server, clients and reloads

  // Set-up, timed several times; the last server stays up.
  std::vector<double> setup_s;
  Server server;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    server.http.reset();  // stop routing before the service goes
    server.service.reset();
    const double t0 = NowMs();
    auto s = StartServer(spec, ctx, in.snapshot);
    setup_s.push_back((NowMs() - t0) / 1000.0);
    if (!s.ok()) {
      res.Check(false, "server start: " + s.status().ToString());
      return res;
    }
    server = std::move(s).ValueOrDie();
  }
  const uint16_t port = server.http->port();
  const size_t clients = spec.reload_interval_ms > 0
                             ? std::max<size_t>(1, ctx.threads - 1)
                             : ctx.threads;
  uint64_t next_request = 1;

  // Untraced fixed-rate phase: 70% of the run, or 35% when traced (the
  // traced phase takes the other 35%); the ladder gets the last 30%.
  const double fixed_seconds = ctx.seconds * (ctx.trace ? 0.35 : 0.7);
  const auto plan = MakePlan(
      spec, in, static_cast<size_t>(spec.fixed_rate * fixed_seconds),
      ctx.seed * 1000 + 1);
  std::vector<double> reload_ms;
  const PhaseResult fixed = RunPhase("fixed", spec, port, plan,
                                     spec.fixed_rate, clients, nullptr,
                                     &next_request);
  AddPhase(fixed, /*in_totals=*/true, &reload_ms, &res);

  const serve::ResultCache& cache = server.service->cache();
  const uint64_t hits0 = cache.hits(), misses0 = cache.misses();
  const uint64_t evictions0 = cache.evictions();
  PhaseResult traced;
  std::vector<Span> phase_spans;
  if (ctx.trace) {
    traced = RunPhase("fixed.traced", spec, port, plan, spec.fixed_rate,
                      clients, ctx.spans, &next_request);
    AddPhase(traced, /*in_totals=*/true, &reload_ms, &res);
    phase_spans = ctx.spans->spans();
  }
  const uint64_t hits = cache.hits() - hits0;
  const uint64_t lookups = hits + cache.misses() - misses0;
  const uint64_t evictions = cache.evictions() - evictions0;

  const uint64_t shed0 = server.service->admission().shed();
  // Peak memory of set-up and steady serving; the ladder's request plans
  // are the benchmark's, not the server's.
  const double peak_rss_mb = PeakRssMb();
  const double ladder_seconds = ctx.seconds * 0.3;
  // The search tries at most 1 + ceil(log2(ladder size)) rungs.
  const double rungs_tried =
      1 + std::ceil(std::log2(static_cast<double>(spec.ladder.size())));
  const double goodput =
      RunLadder(spec, in, port, ladder_seconds / rungs_tried, clients, ctx,
                &next_request, &reload_ms, &res);
  const uint64_t shed = server.service->admission().shed() - shed0;

  const std::shared_ptr<const serve::http::EngineState> state =
      server.service->state();
  CheckAnswers(port, in, *state->engine, ctx.seed, &res);
  CheckSnapshot(in.snapshot, &res);

  res.Set("setup_s", Median(setup_s));
  res.Set("p50_ms", fixed.p50_ms);
  res.Set("p90_ms", fixed.p90_ms);
  res.Set("p99_ms", fixed.p99_ms);
  res.Set("cpu_ms", fixed.counts.succeeded == 0
                        ? 0.0
                        : fixed.cpu_s * 1000.0 /
                              static_cast<double>(fixed.counts.succeeded));
  res.Set("goodput_qps", goodput);
  res.Set("peak_rss_mb", peak_rss_mb);
  std::vector<double> lag;
  for (const Outcome& o : fixed.out) lag.push_back(o.lag_ms);
  res.notes.push_back(util::StrFormat(
      "fixed rate %.0f/s over %zu requests (%zu above p99): p50 %.3f ms, "
      "p99 %.3f ms from due time; generator_lag_ms p99 %.3f; p99 limit "
      "%.1f ms; %zu reloads, median %.1f ms",
      spec.fixed_rate, fixed.latency_ms.size(),
      SamplesBeyond(fixed.latency_ms.size(), 0.99), fixed.p50_ms,
      fixed.p99_ms, Percentile(lag, 0.99), spec.p99_limit_ms,
      reload_ms.size(), Median(reload_ms)));

  if (ctx.trace) {
    SetServeLayers(traced, phase_spans, &res);
    res.Set("cache.hit_ratio",
            lookups == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(lookups));
    res.Set("cache.evictions", static_cast<double>(evictions));
    res.Set("admission.shed", static_cast<double>(shed));
    res.Set("reload_ms", Median(reload_ms));
    res.Set("trace.overhead_ratio", traced.p50_ms / fixed.p50_ms);
    const Replay replay = ReplayEngine(plan, traced.first_request,
                                       *state->engine, ctx.spans);
    res.Set("engine.query_ms", replay.query_ms);
    res.Set("engine.scatter_ms", replay.scatter_ms);
    res.Set("engine.merge_ms", replay.merge_ms);
    res.Set("engine.batch_ms", replay.batch_ms);
    res.Set("service.overhead_ms",
            res.metrics["service.handle_ms"] -
                (1.0 - res.metrics["cache.hit_ratio"]) *
                    replay.per_request_ms);
    SetSetupLayers(spec, in.snapshot, &res);
  }
  server.http->Stop();
  return res;
}

}  // namespace tdbench
