#ifndef TDMATCH_SERVE_HTTP_SERVICE_H_
#define TDMATCH_SERVE_HTTP_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/admission.h"
#include "serve/http/http.h"
#include "serve/http/server.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/sharded_engine.h"
#include "util/obs/jsonlog.h"
#include "util/obs/metrics.h"
#include "util/obs/profiler.h"
#include "util/obs/slo.h"
#include "util/obs/timeseries.h"
#include "util/obs/trace.h"
#include "util/result.h"
#include "util/status.h"
#include "util/timer.h"

namespace tdmatch {
namespace serve {
namespace http {

/// One immutable serving epoch: an engine built over the mapped snapshot
/// (SnapshotView) plus the identity of that snapshot. Swapped wholesale
/// on reload.
struct EngineState {
  uint64_t version = 0;
  std::string snapshot_path;
  double load_seconds = 0.0;
  /// On-disk format version of the loaded snapshot (1 = plain, 2 = with
  /// sections), surfaced in build_info.
  uint32_t snapshot_format = 1;
  std::shared_ptr<ShardedQueryEngine> engine;
};

/// What MatchService::Reload swapped: the epoch it published and the
/// version of the one it replaced, both read under the reload lock, so
/// concurrent reloads report one unbroken chain of versions.
struct ReloadResult {
  std::shared_ptr<const EngineState> state;
  uint64_t previous_version = 0;
};

struct ServiceOptions {
  QueryEngineOptions engine;
  /// Expose POST /v1/reload. Off ⇒ the route is not registered at all.
  bool allow_reload = true;
  /// Per-request cap on batch "labels" length.
  size_t max_batch = 1024;
  /// Scatter-gather shard count for the serving engine. 1 = the classic
  /// unsharded engine (exact-mode results are bit-identical either way).
  size_t shards = 1;
  /// Admission budget for /v1/query: requests past this many in flight
  /// get 429 + Retry-After. SIZE_MAX never sheds; 0 sheds everything.
  size_t max_inflight = std::numeric_limits<size_t>::max();
  /// p99 latency budget (ms) the nprobe auto-tuner steers approx queries
  /// toward; <= 0 disables tuning.
  double latency_budget_ms = 0.0;
  /// LRU result-cache capacity in responses; 0 disables the cache.
  size_t cache_entries = 0;
  /// Honor a debug "delay_ms" field on /v1/query (sleeps inside the
  /// admission window). Only for tests/CI: it makes in-flight overlap —
  /// and therefore 429s — deterministic under a flood.
  bool allow_debug_delay = false;
  /// Fraction of /v1/query requests traced with per-stage spans (0 =
  /// never, 1 = every request). Traced requests feed the per-stage
  /// histograms and emit one JSONL "trace" line.
  double trace_sample = 0.0;
  /// Trace (and log) any query slower than this many milliseconds, on
  /// top of the sample; <= 0 disables the slow-query path.
  double slow_query_ms = 0.0;
  /// Metrics registry to publish into. Null ⇒ the service creates a
  /// private registry (safe for many services per process, as tests do);
  /// a server binary passes &util::obs::Registry::Global() so /v1/metrics
  /// is the process-wide view.
  util::obs::Registry* registry = nullptr;
  /// Structured logger for trace/slow-query lines. Null ⇒ the process
  /// JsonLogger::Global().
  util::obs::JsonLogger* logger = nullptr;
  /// Metric-history sampling interval (seconds). > 0 starts a background
  /// sampler at LoadInitial that snapshots the registry into fixed rings;
  /// <= 0 disables the sampler (the /v1/metrics/history endpoint still
  /// exists but stays empty unless something samples manually).
  double history_interval_s = 1.0;
  /// Ring capacity per series — retention is points * interval.
  size_t history_points = 600;
  /// Expose GET /v1/debug/profile (the sampling CPU profiler). The
  /// endpoint blocks one worker for the capture window.
  bool allow_profile = true;
  /// Cap on a single /v1/debug/profile capture ("seconds" param).
  double profile_max_seconds = 30.0;
  /// Default sampling frequency for /v1/debug/profile (overridable per
  /// request with "hz").
  int profile_hz = 99;
  /// Availability SLO target (fraction of requests that are not 5xx).
  double slo_availability_target = 0.999;
  /// Latency SLO target: this fraction of requests must finish within
  /// latency_budget_ms. Tracked only when latency_budget_ms > 0 (the
  /// budget doubles as the objective threshold).
  double slo_latency_target = 0.999;
  /// Fast pair drives /v1/healthz "degraded"; slow pair is report-only.
  util::obs::SloWindowPair slo_fast{60.0, 600.0, 14.4};
  util::obs::SloWindowPair slo_slow{300.0, 3600.0, 6.0};
};

/// A /v1/query body after validation: the request's shape plus everything
/// execution needs, with every label already resolved against the
/// snapshot's prefixes (`q:3` -> `__D0:3__`).
struct QueryRequest {
  enum class Shape { kLabel, kLabels, kVector };
  Shape shape = Shape::kLabel;
  /// Resolved names: one for kLabel, one per batch item for kLabels.
  std::vector<std::string> names;
  /// kLabel only: the resolved blocking filter, when "allowed" was given.
  std::optional<std::vector<std::string>> allowed;
  /// kVector only: the raw query vector.
  std::vector<float> vector;
  size_t k = 0;
  SearchMode mode = SearchMode::kApprox;
  /// Debug hold inside the admission window (0 unless allow_debug_delay).
  double delay_ms = 0.0;
};

/// Validates a /v1/query body completely: JSON syntax, "k", "mode", the
/// selector, "delay_ms", and the shape-specific fields (label types, batch
/// size and items, "allowed" items, vector numbers). Every failure is
/// InvalidArgument carrying the 400 message. Only engine-level errors (an
/// unknown label, a wrong vector dim) are left for execution.
util::Result<QueryRequest> ParseQueryRequest(std::string_view body,
                                             const ServiceOptions& options,
                                             const SnapshotMeta& meta);

/// \brief The JSON endpoints of the serving front end, bound to an
/// HttpServer:
///
///   POST /v1/query    single ({"label"}), batch ({"labels": [...]}),
///                     raw vector ({"vector": [...]}); optional "k",
///                     "mode" ("approx"/"exact"), and — single-label
///                     only — a blocking filter {"allowed": [...]}
///                     mirroring QueryEngine::QueryFiltered.
///   GET  /v1/healthz  liveness + current snapshot version
///   GET  /v1/stats    counters, qps, latency percentiles, snapshot id
///   GET  /v1/metrics  Prometheus text exposition of the same registry
///   POST /v1/reload   atomically swap in a new snapshot (optional
///                     {"snapshot": path}; defaults to re-reading the
///                     current path)
///
/// A /v1/query runs five steps against one pinned epoch: parse
/// (ParseQueryRequest validates the whole body, so a malformed request is
/// answered 400 and never reaches the cache or admission), cache (an
/// unfiltered single-label hit is served before admission), admission
/// (429 + Retry-After past the in-flight budget), execute (the engine
/// call for the request's shape) and render (the one JSON body). Errors
/// are counted at two sites: a failed parse, and the failed items of an
/// execution.
///
/// Every service counter lives in an obs::Registry (striped counters,
/// one relaxed atomic bump on the hot path); /v1/stats and /v1/metrics
/// are two renderings of the same data. A request that wins the trace
/// sample (or any request when --slow-query-ms is set) carries an
/// obs::Trace whose spans — parse, cache, admission, scatter, merge,
/// serialize, each stage at most once — aggregate into per-stage
/// histograms and emit one JSONL line. Untraced requests pay one branch
/// per would-be span; tracing is read-only on results (exact-mode bodies
/// stay bit-identical).
///
/// Hot reload is an RCU epoch swap: every request pins the current
/// EngineState via a shared_ptr read with std::atomic_load, reload builds
/// the new state off to the side and publishes it with std::atomic_store.
/// In-flight queries keep serving the old engine until they drop their
/// pin; the old snapshot (and its mmap) is unmapped when the last reader
/// drains. No request ever observes a half-swapped state, and every
/// response is stamped with the snapshot_version it was answered from.
/// A failed reload leaves the old state serving and reports the error.
///
/// Epoch lifecycle. LoadInitial and Reload hand the build to one builder
/// thread, shared by every service in the process and started on first
/// use, and block until it returns. So every epoch allocates from that
/// thread's malloc arena, and a new epoch reuses the heap its predecessor
/// freed instead of growing the arena of whichever thread asked. The
/// build releases the snapshot pages it copied (everything past the
/// labels; see SnapshotView::ReleasePayloadPages). The old epoch is freed
/// when its last pin drops, so memory across reloads peaks at two
/// epochs: the serving one and the one being built.
class MatchService {
 public:
  explicit MatchService(ServiceOptions options = {});
  ~MatchService();

  /// Builds the first serving state (version 1). Must succeed before
  /// Register/serving.
  util::Status LoadInitial(const std::string& snapshot_path);

  /// Registers the routes on `server` (before server.Start()).
  void Register(HttpServer* server);

  /// The current epoch (never null after LoadInitial). Callers holding
  /// the returned shared_ptr keep that epoch's engine + mapping alive.
  std::shared_ptr<const EngineState> state() const;

  /// Swaps in `path` (empty ⇒ current path). Serialized; concurrent
  /// queries are unaffected until the atomic publish.
  util::Result<ReloadResult> Reload(const std::string& path);

  // Endpoint handlers (exposed for in-process tests).
  HttpResponse HandleQuery(const HttpRequest& request);
  HttpResponse HandleHealth(const HttpRequest& request);
  HttpResponse HandleStats(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleReload(const HttpRequest& request);
  HttpResponse HandleHistory(const HttpRequest& request);
  HttpResponse HandleSlo(const HttpRequest& request);
  HttpResponse HandleProfile(const HttpRequest& request);

  const ServiceOptions& options() const { return options_; }
  const AdmissionController& admission() const { return admission_; }
  const ResultCache& cache() const { return cache_; }
  /// Null until LoadInitial; disabled unless latency_budget_ms > 0.
  const NprobeTuner* tuner() const { return tuner_.get(); }
  /// The registry this service publishes into (its own unless injected).
  util::obs::Registry* registry() const { return registry_; }
  /// Metric-history rings (never null). The background sampler runs only
  /// when history_interval_s > 0; tests drive SampleOnce directly.
  util::obs::TimeSeriesStore* history() const { return history_.get(); }
  /// Objective tracker (never null).
  util::obs::SloTracker* slo() const { return slo_.get(); }

 private:
  /// BuildEpoch on the process's builder thread; blocks until it is done.
  util::Result<std::shared_ptr<const EngineState>> BuildState(
      const std::string& path, uint64_t version) const;
  /// Opens `path` and builds the epoch's sharded engine over it.
  util::Result<std::shared_ptr<const EngineState>> BuildEpoch(
      const std::string& path, uint64_t version) const;
  /// The 429 + Retry-After response for a refused query.
  HttpResponse ShedResponse();
  /// Parse, cache, admission, execute and render for one /v1/query body
  /// against the pinned `state` (`trace` may be null). `watch` started
  /// with the request; answered queries observe it into the latency
  /// histogram.
  HttpResponse AnswerQuery(std::string_view body, const EngineState& state,
                           util::obs::Trace* trace,
                           const util::StopWatch& watch);
  /// Seconds on the steady clock — the SLO tracker's time base.
  static double NowSeconds();
  /// Stage histograms + the JSONL trace/slow-query line.
  void FinishRequestTrace(util::obs::Trace* trace, bool sampled, int status,
                          uint64_t snapshot_version);
  /// Registers/refreshes the state-dependent callback metrics
  /// (build_info labels, snapshot phase gauges) for `state`.
  void PublishStateMetrics(const EngineState& state);

  ServiceOptions options_;
  /// Current epoch; read with std::atomic_load, published with
  /// std::atomic_store (the C++17 shared_ptr atomic free functions).
  std::shared_ptr<const EngineState> state_;
  /// Serializes reloads (readers never take it).
  std::mutex reload_mu_;

  std::chrono::steady_clock::time_point start_time_;
  /// Owns the registry when none was injected.
  std::unique_ptr<util::obs::Registry> owned_registry_;
  util::obs::Registry* registry_ = nullptr;
  util::obs::JsonLogger* logger_ = nullptr;

  // Registry-owned instruments (resolved once; pointers are stable).
  util::obs::Counter* queries_ = nullptr;
  util::obs::Counter* errors_ = nullptr;
  util::obs::Counter* reloads_ = nullptr;
  util::obs::Counter* traces_ = nullptr;
  util::obs::Counter* slow_queries_ = nullptr;
  util::obs::Histogram* latency_ = nullptr;
  /// Per-stage latency histograms, parallel to kStageNames.
  static constexpr size_t kStages = 6;
  static const char* const kStageNames[kStages];
  util::obs::Histogram* stage_latency_[kStages] = {};

  util::obs::TraceSampler sampler_;
  AdmissionController admission_;
  ResultCache cache_;
  std::unique_ptr<NprobeTuner> tuner_;

  std::unique_ptr<util::obs::TimeSeriesStore> history_;
  std::unique_ptr<util::obs::TimeSeriesSampler> history_sampler_;
  std::unique_ptr<util::obs::SloTracker> slo_;
};

}  // namespace http
}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_HTTP_SERVICE_H_
