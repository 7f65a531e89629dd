#include "serve/http/service.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "serve/mmap_snapshot.h"
#include "serve/snapshot.h"
#include "util/json.h"
#include "util/simd/kernels.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tdmatch {
namespace serve {
namespace http {

namespace {

int StatusToHttp(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kInvalidArgument: return 400;
    case util::StatusCode::kNotFound: return 404;
    default: return 500;
  }
}

HttpResponse ErrorResponse(int http_status, const std::string& message) {
  util::JsonWriter w;
  w.BeginObject().Key("error").Value(message).EndObject();
  return HttpResponse::Json(http_status, w.str());
}

HttpResponse ErrorResponse(const util::Status& status) {
  return ErrorResponse(StatusToHttp(status), status.ToString());
}

/// The process's one epoch builder: every serving epoch — each service's
/// initial load and every reload — is built on this thread. glibc gives
/// each thread its own malloc arena, and a freed epoch stays resident in
/// the arena that built it once a later small allocation sits above it;
/// with one builder every epoch reuses the space its predecessor freed.
/// Started on first use and shared by every MatchService in the process.
util::ThreadPool& EpochBuilder() {
  static util::ThreadPool builder(1);
  return builder;
}

/// A "Vm...:" line of /proc/self/status in bytes (0 when unreadable).
double ProcessStatusBytes(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtod(line.c_str() + key_len + 1, nullptr) * 1024.0;
    }
  }
  return 0.0;
}

/// `q:3` / `c:7` → the snapshot's metadata-doc labels, using the prefixes
/// recorded in the snapshot meta (the same shorthand the REPL speaks).
/// Anything else passes through untouched.
std::string ResolveLabel(const std::string& raw, const SnapshotMeta& meta) {
  if (raw.size() < 3 || (raw[0] != 'q' && raw[0] != 'c') || raw[1] != ':') {
    return raw;
  }
  for (size_t i = 2; i < raw.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(raw[i])) == 0) return raw;
  }
  std::string prefix =
      meta.Find(raw[0] == 'q' ? "query_prefix" : "candidate_prefix");
  if (prefix.empty()) prefix = raw[0] == 'q' ? "__D0:" : "__D1:";
  return prefix + raw.substr(2) + "__";
}

void AppendMatches(const std::vector<ScoredMatch>& matches,
                   util::JsonWriter* w) {
  w->Key("matches").BeginArray();
  for (const auto& m : matches) {
    w->BeginObject()
        .Key("label").Value(m.label)
        .Key("candidate").Value(static_cast<int64_t>(m.candidate))
        .Key("score").Value(m.score)
        .EndObject();
  }
  w->EndArray();
}

/// A JSON array of label strings, each resolved; the error names `field`.
util::Result<std::vector<std::string>> ResolveLabels(
    const util::JsonValue& array, const char* field,
    const SnapshotMeta& meta) {
  const auto not_strings = [field] {
    return util::Status::InvalidArgument(
        util::StrFormat("'%s' must be an array of strings", field));
  };
  if (!array.is_array()) return not_strings();
  std::vector<std::string> names;
  names.reserve(array.items().size());
  for (const auto& item : array.items()) {
    if (!item.is_string()) return not_strings();
    names.push_back(ResolveLabel(item.string_value(), meta));
  }
  return names;
}

using QueryResults = std::vector<util::Result<std::vector<ScoredMatch>>>;

/// Runs `query` on `engine`: one result per batch item, otherwise one.
/// A traced request records the engine's scatter and merge stages; a
/// batch merges each query inside its worker, so it has no merge stage.
QueryResults Execute(const ShardedQueryEngine& engine,
                     const QueryRequest& query, size_t nprobe,
                     util::obs::Trace* trace) {
  ShardedQueryEngine::QueryTiming timing;
  ShardedQueryEngine::QueryTiming* timing_out =
      trace != nullptr ? &timing : nullptr;
  const bool batch = query.shape == QueryRequest::Shape::kLabels;
  QueryResults results;
  if (batch) {
    const util::StopWatch batch_watch;
    results = engine.QueryBatch(query.names, query.k, query.mode, nprobe);
    timing.scatter_ms = batch_watch.ElapsedMillis();
  } else if (query.shape == QueryRequest::Shape::kVector) {
    results.push_back(engine.QueryVector(query.vector, query.k, query.mode,
                                         nprobe, timing_out));
  } else if (query.allowed.has_value()) {
    results.push_back(engine.QueryFiltered(query.names[0], *query.allowed,
                                           query.k, timing_out));
  } else {
    results.push_back(engine.Query(query.names[0], query.k, query.mode,
                                   nprobe, timing_out));
  }
  if (trace != nullptr) {
    trace->AddSpan("scatter", timing.scatter_ms);
    if (!batch) trace->AddSpan("merge", timing.merge_ms);
  }
  return results;
}

/// The 200 body for an executed `query`.
std::string Render(const EngineState& state, const QueryRequest& query,
                   const QueryResults& results, util::obs::Trace* trace) {
  util::obs::Trace::Span serialize_span(trace, "serialize");
  util::JsonWriter w;
  w.BeginObject()
      .Key("snapshot_version").Value(state.version)
      .Key("scenario").Value(state.engine->meta().scenario);
  if (query.shape == QueryRequest::Shape::kLabels) {
    w.Key("results").BeginArray();
    for (size_t i = 0; i < results.size(); ++i) {
      w.BeginObject().Key("label").Value(query.names[i]);
      if (results[i].ok()) {
        AppendMatches(*results[i], &w);
      } else {
        w.Key("error").Value(results[i].status().ToString());
      }
      w.EndObject();
    }
    w.EndArray();
  } else {
    if (query.shape == QueryRequest::Shape::kLabel) {
      w.Key("label").Value(query.names[0]);
    }
    AppendMatches(*results[0], &w);
  }
  w.EndObject();
  return w.str();
}

/// Reads query parameter `name` into `*value`, which keeps its default
/// when the parameter is absent. The whole value must parse as a finite
/// positive number up to `max`, and a whole one when `integer`; otherwise
/// this returns false and the caller answers 400.
bool ReadPositiveParam(const std::string& query, const char* name,
                       double max, bool integer, double* value) {
  const std::string text = QueryParam(query, name);
  if (text.empty()) return true;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (std::isspace(static_cast<unsigned char>(text[0])) != 0 ||
      end != text.c_str() + text.size() || !std::isfinite(parsed) ||
      parsed <= 0 || parsed > max ||
      (integer && parsed != std::floor(parsed))) {
    return false;
  }
  *value = parsed;
  return true;
}

std::string CompilerId() {
#if defined(__clang__)
  return util::StrFormat("clang-%d.%d.%d", __clang_major__, __clang_minor__,
                         __clang_patchlevel__);
#elif defined(__GNUC__)
  return util::StrFormat("gcc-%d.%d.%d", __GNUC__, __GNUC_MINOR__,
                         __GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

}  // namespace

util::Result<QueryRequest> ParseQueryRequest(std::string_view body,
                                             const ServiceOptions& options,
                                             const SnapshotMeta& meta) {
  using util::Status;
  auto parsed = util::JsonParse(body);
  if (!parsed.ok()) {
    return Status::InvalidArgument("bad request body: " +
                                   parsed.status().message());
  }
  const util::JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  QueryRequest query;
  if (const util::JsonValue* kv = root.Find("k"); kv != nullptr) {
    const double kd = kv->number_value();
    if (!kv->is_number() || kd < 0 || kd > 1e6 || kd != std::floor(kd)) {
      return Status::InvalidArgument("'k' must be an integer in [0, 1e6]");
    }
    query.k = static_cast<size_t>(kd);
  }
  if (const util::JsonValue* mv = root.Find("mode"); mv != nullptr) {
    if (!mv->is_string() || (mv->string_value() != "approx" &&
                             mv->string_value() != "exact")) {
      return Status::InvalidArgument(
          "'mode' must be \"approx\" or \"exact\"");
    }
    if (mv->string_value() == "exact") query.mode = SearchMode::kExact;
  }

  const util::JsonValue* label = root.Find("label");
  const util::JsonValue* labels = root.Find("labels");
  const util::JsonValue* vector = root.Find("vector");
  const util::JsonValue* allowed = root.Find("allowed");
  if ((label != nullptr) + (labels != nullptr) + (vector != nullptr) != 1) {
    return Status::InvalidArgument(
        "provide exactly one of 'label', 'labels', 'vector'");
  }
  if (allowed != nullptr && label == nullptr) {
    return Status::InvalidArgument(
        "'allowed' requires a single 'label' query");
  }
  // The debug delay is only honored with allow_debug_delay.
  if (const util::JsonValue* dv = root.Find("delay_ms");
      dv != nullptr && options.allow_debug_delay) {
    if (!dv->is_number() || dv->number_value() < 0.0 ||
        dv->number_value() > 10000.0) {
      return Status::InvalidArgument(
          "'delay_ms' must be a number in [0, 10000]");
    }
    query.delay_ms = dv->number_value();
  }

  if (labels != nullptr) {
    query.shape = QueryRequest::Shape::kLabels;
    if (labels->is_array() && labels->items().size() > options.max_batch) {
      return Status::InvalidArgument(
          util::StrFormat("batch of %zu exceeds the %zu query limit",
                          labels->items().size(), options.max_batch));
    }
    TDM_ASSIGN_OR_RETURN(query.names, ResolveLabels(*labels, "labels", meta));
  } else if (label != nullptr) {
    if (!label->is_string()) {
      return Status::InvalidArgument("'label' must be a string");
    }
    query.names.push_back(ResolveLabel(label->string_value(), meta));
    if (allowed != nullptr) {
      TDM_ASSIGN_OR_RETURN(query.allowed,
                           ResolveLabels(*allowed, "allowed", meta));
    }
  } else {
    query.shape = QueryRequest::Shape::kVector;
    const auto& items = vector->items();
    if (!vector->is_array() || items.empty() ||
        !std::all_of(items.begin(), items.end(),
                     [](const util::JsonValue& v) { return v.is_number(); })) {
      return Status::InvalidArgument(
          "'vector' must be a non-empty number array");
    }
    query.vector.reserve(items.size());
    for (const auto& item : items) {
      query.vector.push_back(static_cast<float>(item.number_value()));
    }
  }
  return query;
}

// ---------------------------------------------------------------------------
// MatchService
// ---------------------------------------------------------------------------

const char* const MatchService::kStageNames[MatchService::kStages] = {
    "parse", "cache", "admission", "scatter", "merge", "serialize"};

MatchService::MatchService(ServiceOptions options)
    : options_(std::move(options)),
      start_time_(std::chrono::steady_clock::now()),
      sampler_(options_.trace_sample),
      admission_(AdmissionOptions{options_.max_inflight, 1, 30}),
      cache_(ResultCacheOptions{options_.cache_entries, 8}) {
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<util::obs::Registry>();
    registry_ = owned_registry_.get();
  }
  logger_ = options_.logger != nullptr ? options_.logger
                                       : &util::obs::JsonLogger::Global();

  // Owned instruments: the hot path bumps these directly (one relaxed
  // atomic per event); /v1/stats and /v1/metrics read them back.
  queries_ = registry_->GetCounter("tdmatch_queries_total",
                                   "Queries answered (batch items count "
                                   "individually; includes cache hits)");
  errors_ = registry_->GetCounter("tdmatch_query_errors_total",
                                  "Requests or batch items rejected or "
                                  "failed");
  reloads_ = registry_->GetCounter("tdmatch_reloads_total",
                                   "Successful snapshot hot reloads");
  traces_ = registry_->GetCounter("tdmatch_traces_total",
                                  "Requests that carried a span trace");
  slow_queries_ = registry_->GetCounter(
      "tdmatch_slow_queries_total",
      "Traced requests slower than --slow-query-ms");
  latency_ = registry_->GetHistogram(
      "tdmatch_request_latency_ms", "End-to-end /v1/query latency (ms)",
      util::obs::Histogram::LatencyBoundsMs());
  for (size_t i = 0; i < kStages; ++i) {
    stage_latency_[i] = registry_->GetHistogram(
        "tdmatch_request_stage_latency_ms",
        "Per-stage latency of traced /v1/query requests (ms)",
        util::obs::Histogram::LatencyBoundsMs(),
        {{"stage", kStageNames[i]}});
  }

  // Components that keep their own counters (admission, cache, tuner,
  // shards) publish through render-time callbacks: the registry is the
  // single exposition surface without double-counting state.
  using util::obs::MetricType;
  registry_->RegisterCallback(
      MetricType::kCounter, "tdmatch_admission_admitted_total",
      "Queries admitted past the in-flight budget check", {},
      [this] { return static_cast<double>(admission_.admitted()); });
  registry_->RegisterCallback(
      MetricType::kCounter, "tdmatch_admission_shed_total",
      "Queries shed with 429 at the admission gate", {},
      [this] { return static_cast<double>(admission_.shed()); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_admission_inflight",
      "Queries currently inside the admission window", {},
      [this] { return static_cast<double>(admission_.inflight()); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_admission_max_inflight",
      "Admission budget (-1 = unlimited)", {}, [this] {
        return admission_.unlimited()
                   ? -1.0
                   : static_cast<double>(admission_.options().max_inflight);
      });
  registry_->RegisterCallback(
      MetricType::kCounter, "tdmatch_cache_hits_total",
      "Result-cache hits", {},
      [this] { return static_cast<double>(cache_.hits()); });
  registry_->RegisterCallback(
      MetricType::kCounter, "tdmatch_cache_misses_total",
      "Result-cache misses", {},
      [this] { return static_cast<double>(cache_.misses()); });
  registry_->RegisterCallback(
      MetricType::kCounter, "tdmatch_cache_evictions_total",
      "Result-cache LRU evictions", {},
      [this] { return static_cast<double>(cache_.evictions()); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_cache_entries",
      "Resident result-cache entries", {},
      [this] { return static_cast<double>(cache_.size()); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_autotune_nprobe",
      "Current auto-tuned IVF nprobe (0 = tuner off)", {}, [this] {
        return tuner_ != nullptr ? static_cast<double>(tuner_->nprobe())
                                 : 0.0;
      });
  registry_->RegisterCallback(
      MetricType::kCounter, "tdmatch_autotune_adjustments_total",
      "AIMD nprobe adjustments made by the latency-budget tuner", {},
      [this] {
        return tuner_ != nullptr ? static_cast<double>(tuner_->adjustments())
                                 : 0.0;
      });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_shards_configured",
      "Configured scatter-gather shard count", {}, [this] {
        const auto s = state();
        return s != nullptr ? static_cast<double>(s->engine->num_shards())
                            : 0.0;
      });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_shards_active",
      "Shards that own candidates", {}, [this] {
        const auto s = state();
        return s != nullptr ? static_cast<double>(s->engine->active_shards())
                            : 0.0;
      });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_engine_ivf_from_snapshot",
      "1 when the serving epoch's shards adopted the snapshot's ivfpq "
      "section, 0 when they trained k-means",
      {}, [this] {
        const auto s = state();
        return s != nullptr && s->engine->ivf_from_snapshot() ? 1.0 : 0.0;
      });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_snapshot_version",
      "Serving epoch of the loaded snapshot", {}, [this] {
        const auto s = state();
        return s != nullptr ? static_cast<double>(s->version) : 0.0;
      });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_snapshot_load_seconds",
      "Wall seconds the current snapshot took to load + index", {},
      [this] {
        const auto s = state();
        return s != nullptr ? s->load_seconds : 0.0;
      });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_process_resident_bytes",
      "Resident set size of the process (VmRSS)", {},
      [] { return ProcessStatusBytes("VmRSS"); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_process_resident_peak_bytes",
      "Peak resident set size of the process (VmHWM)", {},
      [] { return ProcessStatusBytes("VmHWM"); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_uptime_seconds",
      "Seconds since the service constructed", {}, [this] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_time_)
            .count();
      });

  // Continuous observability: metric-history rings over this registry
  // and the burn-rate SLO tracker. Both exist unconditionally (the
  // endpoints always answer); the background history sampler starts at
  // LoadInitial only when an interval is configured.
  util::obs::TimeSeriesOptions history_opts;
  history_opts.interval_seconds =
      options_.history_interval_s > 0 ? options_.history_interval_s : 1.0;
  history_opts.capacity = options_.history_points;
  history_opts.name_prefix = "tdmatch_";
  history_ =
      std::make_unique<util::obs::TimeSeriesStore>(registry_, history_opts);
  history_sampler_ =
      std::make_unique<util::obs::TimeSeriesSampler>(history_.get());

  util::obs::SloOptions slo_opts;
  slo_opts.availability_target = options_.slo_availability_target;
  slo_opts.latency_target = options_.slo_latency_target;
  slo_opts.latency_budget_ms = options_.latency_budget_ms;
  slo_opts.fast = options_.slo_fast;
  slo_opts.slow = options_.slo_slow;
  // Resolution fine enough that the fast-short window spans several
  // buckets (tests shrink the window to fractions of a second).
  slo_opts.bucket_seconds =
      std::min(5.0, std::max(0.05, options_.slo_fast.short_seconds / 4.0));
  slo_ = std::make_unique<util::obs::SloTracker>(slo_opts);

  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_history_series",
      "Metric series retained in the history rings", {},
      [this] { return static_cast<double>(history_->series_count()); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_history_memory_bytes",
      "Resident bytes of the metric-history rings", {},
      [this] { return static_cast<double>(history_->MemoryBytes()); });
  registry_->RegisterCallback(
      MetricType::kGauge, "tdmatch_slo_degraded",
      "1 while any SLO fast-burn pair is firing", {},
      [this] { return slo_->Degraded(NowSeconds()) ? 1.0 : 0.0; });
}

MatchService::~MatchService() {
  if (history_sampler_ != nullptr) history_sampler_->Stop();
}

double MatchService::NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

util::Result<std::shared_ptr<const EngineState>> MatchService::BuildState(
    const std::string& path, uint64_t version) const {
  util::Result<std::shared_ptr<const EngineState>> built =
      util::Status::Internal("epoch not built");
  EpochBuilder().RunTasks(
      1, [&](size_t) { built = BuildEpoch(path, version); });
  return built;
}

util::Result<std::shared_ptr<const EngineState>> MatchService::BuildEpoch(
    const std::string& path, uint64_t version) const {
  util::StopWatch watch;
  auto state = std::make_shared<EngineState>();
  state->version = version;
  state->snapshot_path = path;
  ShardedEngineOptions sharded;
  sharded.shards = options_.shards;
  sharded.engine = options_.engine;
  TDM_ASSIGN_OR_RETURN(std::shared_ptr<const SnapshotView> view,
                       SnapshotView::Open(path));
  std::string prefix = view->meta().Find("candidate_prefix");
  if (prefix.empty()) prefix = "__D1:";
  state->snapshot_format = view->sections().empty()
                               ? SnapshotIo::kVersion
                               : SnapshotIo::kVersionSections;
  TDM_ASSIGN_OR_RETURN(
      ShardedQueryEngine engine,
      ShardedQueryEngine::BuildFromView(std::move(view), prefix, sharded));
  state->engine = std::make_shared<ShardedQueryEngine>(std::move(engine));
  state->load_seconds = watch.ElapsedSeconds();
  return std::shared_ptr<const EngineState>(std::move(state));
}

void MatchService::PublishStateMetrics(const EngineState& state) {
  // build_info: the conventional value-1 gauge whose labels carry the
  // identity — compiler, runtime SIMD dispatch decision, snapshot format,
  // shard count. Re-registered per epoch (the format can change across
  // reloads); identity is otherwise process-constant.
  registry_->ClearCallbacks("tdmatch_build_info");
  util::obs::LabelSet info = {
      {"compiler", CompilerId()},
      {"simd", simd::IsaName(simd::ActiveIsa())},
      {"forced_scalar", simd::ForcedScalarByEnv() ? "1" : "0"},
      {"snapshot_format", std::to_string(state.snapshot_format)},
      {"shards", std::to_string(options_.shards)},
  };
  registry_->RegisterCallback(util::obs::MetricType::kGauge,
                              "tdmatch_build_info",
                              "Build/runtime identity (always 1)", info,
                              [] { return 1.0; });

  // Offline pipeline phase timers travel inside the snapshot meta
  // (phase_<name>_seconds, written by build-snapshot); republish them so
  // the serving scrape covers the offline half too.
  registry_->ClearCallbacks("tdmatch_snapshot_phase_seconds");
  for (const auto& [key, value] : state.engine->meta().extra) {
    if (!util::StartsWith(key, "phase_") ||
        !util::EndsWith(key, "_seconds")) {
      continue;
    }
    const std::string phase =
        key.substr(6, key.size() - 6 - std::strlen("_seconds"));
    const double seconds = std::strtod(value.c_str(), nullptr);
    registry_->RegisterCallback(
        util::obs::MetricType::kGauge, "tdmatch_snapshot_phase_seconds",
        "Offline pipeline phase timings recorded at snapshot build",
        {{"phase", phase}}, [seconds] { return seconds; });
  }
}

util::Status MatchService::LoadInitial(const std::string& snapshot_path) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  TDM_ASSIGN_OR_RETURN(std::shared_ptr<const EngineState> state,
                       BuildState(snapshot_path, 1));
  // The tuner's ceiling is the loaded engine's largest shard nlist —
  // probing more cells than exist buys nothing. Created once here (before
  // serving starts); reloads clamp at use instead of resetting the
  // tuner's learned position.
  NprobeTunerOptions tuning;
  tuning.budget_ms = options_.latency_budget_ms;
  tuning.initial_nprobe = options_.engine.ivf.nprobe;
  tuning.max_nprobe =
      state->engine->has_ivf() ? state->engine->max_nprobe() : 1;
  tuner_ = std::make_unique<NprobeTuner>(tuning);
  PublishStateMetrics(*state);
  std::atomic_store(&state_, std::move(state));
  if (options_.history_interval_s > 0) history_sampler_->Start();
  return util::Status::OK();
}

std::shared_ptr<const EngineState> MatchService::state() const {
  return std::atomic_load(&state_);
}

util::Result<ReloadResult> MatchService::Reload(const std::string& path) {
  // One reload at a time; queries never wait on this lock — they read the
  // published epoch pointer and carry on against it.
  std::lock_guard<std::mutex> lock(reload_mu_);
  const std::shared_ptr<const EngineState> current = state();
  if (current == nullptr) {
    return util::Status::Internal("service has no initial snapshot");
  }
  const std::string target = path.empty() ? current->snapshot_path : path;
  TDM_ASSIGN_OR_RETURN(std::shared_ptr<const EngineState> fresh,
                       BuildState(target, current->version + 1));
  // Publish. Readers that already pinned `current` finish on it; the old
  // engine (and its mmap) is destroyed when the last pin drops.
  PublishStateMetrics(*fresh);
  std::atomic_store(&state_, fresh);
  reloads_->Inc();
  // Cached responses are stamped with the version they answered for (Get
  // refuses a stale stamp on its own); clearing on swap also frees the
  // dead epoch's bodies immediately.
  cache_.Clear();
  return ReloadResult{std::move(fresh), current->version};
}

void MatchService::Register(HttpServer* server) {
  server->Handle("POST", "/v1/query",
                 [this](const HttpRequest& r) { return HandleQuery(r); });
  server->Handle("GET", "/v1/healthz",
                 [this](const HttpRequest& r) { return HandleHealth(r); });
  server->Handle("GET", "/v1/stats",
                 [this](const HttpRequest& r) { return HandleStats(r); });
  server->Handle("GET", "/v1/metrics",
                 [this](const HttpRequest& r) { return HandleMetrics(r); });
  server->Handle("GET", "/v1/metrics/history",
                 [this](const HttpRequest& r) { return HandleHistory(r); });
  server->Handle("GET", "/v1/slo",
                 [this](const HttpRequest& r) { return HandleSlo(r); });
  if (options_.allow_profile) {
    server->Handle("GET", "/v1/debug/profile", [this](const HttpRequest& r) {
      return HandleProfile(r);
    });
  }
  if (options_.allow_reload) {
    server->Handle("POST", "/v1/reload",
                   [this](const HttpRequest& r) { return HandleReload(r); });
  }
}

HttpResponse MatchService::ShedResponse() {
  // Retry-After scales with the backlog at a typical (p50) per-query
  // cost; the header is always an integer in [1, 30] seconds.
  const int retry_s =
      admission_.RetryAfterSeconds(latency_->Percentile(0.5));
  util::JsonWriter w;
  w.BeginObject()
      .Key("error").Value(util::StrFormat(
          "overloaded: %zu queries in flight at capacity %zu",
          admission_.inflight(), admission_.options().max_inflight))
      .Key("retry_after_seconds").Value(static_cast<int64_t>(retry_s))
      .EndObject();
  HttpResponse response = HttpResponse::Json(429, w.str());
  response.headers.emplace_back("Retry-After", std::to_string(retry_s));
  return response;
}

HttpResponse MatchService::HandleQuery(const HttpRequest& request) {
  util::StopWatch watch;
  // Trace decision up front: one sampler branch for the untraced fast
  // path. slow_query_ms arms tracing on every request (slowness is only
  // known after the fact), but emits a line solely for slow ones.
  const bool sampled = sampler_.ShouldSample();
  const std::string& client_id = request.Header("x-request-id");
  std::optional<util::obs::Trace> trace;
  if (sampled || options_.slow_query_ms > 0.0) {
    trace.emplace(client_id.empty() ? util::obs::GenerateTraceId()
                                    : client_id);
  }
  const std::shared_ptr<const EngineState> state = this->state();
  HttpResponse response =
      state == nullptr
          ? ErrorResponse(503, "no snapshot loaded")
          : AnswerQuery(request.body, *state,
                        trace.has_value() ? &*trace : nullptr, watch);
  if (trace.has_value()) {
    FinishRequestTrace(&*trace, sampled, response.status,
                       state != nullptr ? state->version : 0);
  }
  const std::string& id = trace.has_value() ? trace->id() : client_id;
  if (!id.empty()) response.headers.emplace_back("X-Request-Id", id);
  // SLO accounting wraps the whole request: availability counts 5xx
  // against the budget (4xx is the client's fault, 429 is protection
  // working), latency counts end-to-end wall time against the configured
  // budget. Shed and cache-hit requests count too — the user saw them.
  slo_->Record(NowSeconds(), response.status < 500,
               options_.latency_budget_ms <= 0 ||
                   watch.ElapsedMillis() <= options_.latency_budget_ms);
  return response;
}

void MatchService::FinishRequestTrace(util::obs::Trace* trace, bool sampled,
                                      int status,
                                      uint64_t snapshot_version) {
  const double total_ms = trace->Finish();
  traces_->Inc();
  for (const auto& span : trace->spans()) {
    for (size_t i = 0; i < kStages; ++i) {
      if (std::strcmp(span.name, kStageNames[i]) == 0) {
        stage_latency_[i]->Observe(span.ms);
        break;
      }
    }
  }
  const bool slow =
      options_.slow_query_ms > 0.0 && total_ms >= options_.slow_query_ms;
  if (slow) slow_queries_->Inc();
  // One JSONL line per sampled trace or slow query; armed-but-fast
  // requests fed the histograms above and stay silent.
  if (!sampled && !slow) return;
  auto ev = logger_->Log(util::obs::LogLevel::kInfo, "trace");
  if (!ev.active()) return;
  ev.Str("trace_id", trace->id())
      .Str("endpoint", "/v1/query")
      .Int("status", status)
      .Num("total_ms", total_ms)
      .Bool("slow", slow)
      .Bool("sampled", sampled)
      .Uint("snapshot_version", snapshot_version);
  util::JsonWriter& w = ev.writer();
  w.Key("spans").BeginArray();
  for (const auto& span : trace->spans()) {
    w.BeginObject()
        .Key("name").Value(span.name)
        .Key("start_ms").Value(span.start_ms)
        .Key("ms").Value(span.ms)
        .Key("depth").Value(static_cast<int64_t>(span.depth))
        .EndObject();
  }
  w.EndArray();
}

HttpResponse MatchService::AnswerQuery(std::string_view body,
                                       const EngineState& state,
                                       util::obs::Trace* trace,
                                       const util::StopWatch& watch) {
  const ShardedQueryEngine& engine = *state.engine;
  util::obs::Trace::Span parse_span(trace, "parse");
  util::Result<QueryRequest> parsed =
      ParseQueryRequest(body, options_, engine.meta());
  if (!parsed.ok()) {
    errors_->Inc();
    return ErrorResponse(400, parsed.status().message());
  }
  const QueryRequest& query = *parsed;
  // Per-query nprobe from the latency-budget auto-tuner.
  size_t nprobe = 0;
  if (tuner_ != nullptr && tuner_->enabled() &&
      query.mode == SearchMode::kApprox && engine.has_ivf()) {
    nprobe = std::max<size_t>(
        1, std::min(tuner_->nprobe(), engine.max_nprobe()));
  }
  parse_span.Close();

  // Result cache (unfiltered single-label queries; the hot-query shape).
  // A hit is served before admission: it costs one striped-map lookup, no
  // engine work, so shedding it would protect nothing.
  std::string cache_key;
  if (cache_.enabled() && query.shape == QueryRequest::Shape::kLabel &&
      !query.allowed.has_value()) {
    util::obs::Trace::Span cache_span(trace, "cache");
    cache_key = util::StrFormat("%s|k=%zu|m=%c|np=%zu",
                                query.names[0].c_str(), query.k,
                                query.mode == SearchMode::kExact ? 'e' : 'a',
                                nprobe);
    std::string cached;
    if (cache_.Get(cache_key, state.version, &cached)) {
      queries_->Inc();
      latency_->Observe(watch.ElapsedMillis());
      return HttpResponse::Json(200, std::move(cached));
    }
  }

  // Admission: shed instead of queueing past the in-flight budget.
  util::obs::Trace::Span admission_span(trace, "admission");
  AdmissionController::Ticket ticket(&admission_);
  if (!ticket.admitted()) {
    return ShedResponse();
  }
  admission_span.Close();
  if (query.delay_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(query.delay_ms));
  }

  const QueryResults results = Execute(engine, query, nprobe, trace);
  queries_->Inc(results.size());
  const auto failed = static_cast<uint64_t>(
      std::count_if(results.begin(), results.end(),
                    [](const auto& result) { return !result.ok(); }));
  if (failed > 0) errors_->Inc(failed);
  // A batch reports failed items inline; a single query's failure is the
  // response.
  if (query.shape != QueryRequest::Shape::kLabels && failed > 0) {
    return ErrorResponse(results[0].status());
  }
  std::string rendered = Render(state, query, results, trace);
  if (!cache_key.empty()) cache_.Put(cache_key, state.version, rendered);
  latency_->Observe(watch.ElapsedMillis());
  // Feed the tuner after recording: it reacts to the p99 including this
  // query. Cache hits and shed requests never reach here — the tuner only
  // learns from queries the engine actually executed.
  if (tuner_ != nullptr) tuner_->Observe(latency_->Percentile(0.99));
  return HttpResponse::Json(200, std::move(rendered));
}

HttpResponse MatchService::HandleHealth(const HttpRequest& request) {
  const std::shared_ptr<const EngineState> state = this->state();
  if (state == nullptr) {
    return ErrorResponse(503, "no snapshot loaded");
  }
  // Degraded is report-first: the process is alive and serving, it is
  // just burning error budget too fast — so the default answer stays 200
  // (load balancers must not evict a struggling-but-working replica).
  // `?strict=1` opts a prober into 503-on-degraded.
  const double now = NowSeconds();
  std::vector<std::string> burning;
  for (const auto& objective : slo_->Evaluate(now)) {
    if (objective.fast_burning) burning.push_back(objective.name);
  }
  const bool degraded = !burning.empty();
  util::JsonWriter w;
  w.BeginObject()
      .Key("status").Value(degraded ? "degraded" : "ok")
      .Key("snapshot_version").Value(state->version);
  if (degraded) {
    w.Key("burning_objectives").BeginArray();
    for (const auto& name : burning) w.Value(name);
    w.EndArray();
  }
  w.EndObject();
  const bool strict = QueryParam(request.query, "strict") == "1";
  return HttpResponse::Json(degraded && strict ? 503 : 200, w.str());
}

HttpResponse MatchService::HandleHistory(const HttpRequest& request) {
  double window_s = 300.0;
  if (!ReadPositiveParam(request.query, "window", HUGE_VAL, false,
                         &window_s)) {
    return ErrorResponse(400, "'window' must be a positive number of "
                              "seconds");
  }
  const std::string prefix = QueryParam(request.query, "series");
  // Points are heavy (every series × every sample); opt in explicitly.
  const bool with_points = QueryParam(request.query, "points") == "1";
  const double now = std::chrono::duration<double>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  const auto series = history_->Window(window_s, now, prefix);
  util::JsonWriter w;
  w.Reserve(4096);
  w.BeginObject()
      .Key("now").Value(now)
      .Key("window_seconds").Value(window_s)
      .Key("interval_seconds").Value(history_->options().interval_seconds)
      .Key("retention_seconds")
      .Value(history_->options().interval_seconds *
             static_cast<double>(history_->options().capacity))
      .Key("samples_taken").Value(history_->samples_taken())
      .Key("series").BeginArray();
  for (const auto& s : series) {
    w.BeginObject()
        .Key("name").Value(s.name)
        .Key("labels").Value(s.labels)
        .Key("type").Value(s.type == util::obs::MetricType::kCounter
                               ? "counter"
                               : "gauge")
        .Key("points_count").Value(static_cast<uint64_t>(s.points.size()))
        .Key("first_ts").Value(s.points.front().ts)
        .Key("last_ts").Value(s.points.back().ts)
        .Key("last").Value(s.last)
        .Key("delta").Value(s.delta)
        .Key("rate_per_sec").Value(s.rate_per_sec);
    if (with_points) {
      w.Key("points").BeginArray();
      for (const auto& p : s.points) {
        w.BeginArray().Value(p.ts).Value(p.value).EndArray();
      }
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  return HttpResponse::Json(200, w.str());
}

namespace {

void AppendBurn(const char* role, const util::obs::SloTracker::WindowBurn& b,
                double threshold, util::JsonWriter* w) {
  w->BeginObject()
      .Key("role").Value(role)
      .Key("window_seconds").Value(b.window_seconds)
      .Key("good").Value(b.good)
      .Key("bad").Value(b.bad)
      .Key("error_rate").Value(b.error_rate)
      .Key("burn_rate").Value(b.burn_rate)
      .Key("threshold").Value(threshold)
      .EndObject();
}

}  // namespace

HttpResponse MatchService::HandleSlo(const HttpRequest&) {
  const double now = NowSeconds();
  const auto objectives = slo_->Evaluate(now);
  const auto& slo_opts = slo_->options();
  bool degraded = false;
  for (const auto& o : objectives) degraded |= o.fast_burning;
  util::JsonWriter w;
  w.BeginObject()
      .Key("degraded").Value(degraded)
      .Key("latency_budget_ms").Value(slo_opts.latency_budget_ms)
      .Key("objectives").BeginArray();
  for (const auto& o : objectives) {
    w.BeginObject()
        .Key("name").Value(o.name)
        .Key("target").Value(o.target)
        .Key("fast_burning").Value(o.fast_burning)
        .Key("slow_burning").Value(o.slow_burning)
        .Key("error_budget_remaining").Value(o.budget_remaining)
        .Key("windows").BeginArray();
    AppendBurn("fast_short", o.fast_short, slo_opts.fast.threshold, &w);
    AppendBurn("fast_long", o.fast_long, slo_opts.fast.threshold, &w);
    AppendBurn("slow_short", o.slow_short, slo_opts.slow.threshold, &w);
    AppendBurn("slow_long", o.slow_long, slo_opts.slow.threshold, &w);
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  return HttpResponse::Json(200, w.str());
}

HttpResponse MatchService::HandleProfile(const HttpRequest& request) {
  if (!util::obs::CpuProfiler::Supported()) {
    return ErrorResponse(501, "CPU profiling is not supported on this "
                              "platform");
  }
  double seconds = 1.0;
  if (!ReadPositiveParam(request.query, "seconds", HUGE_VAL, false,
                         &seconds)) {
    return ErrorResponse(400, "'seconds' must be a positive number");
  }
  double hz = options_.profile_hz;
  if (!ReadPositiveParam(request.query, "hz", 1000, true, &hz)) {
    return ErrorResponse(400, "'hz' must be an integer in [1, 1000]");
  }
  const std::string format = QueryParam(request.query, "format");
  if (!format.empty() && format != "folded" && format != "json") {
    return ErrorResponse(400, "'format' must be \"folded\" or \"json\"");
  }
  double top = 20;
  if (!ReadPositiveParam(request.query, "top", 1e6, true, &top)) {
    return ErrorResponse(400, "'top' must be an integer in [1, 1e6]");
  }
  // The capture blocks this worker for the window — deliberate: the
  // profile IS the response body, and the blocked worker is one of many.
  auto profile = util::obs::CpuProfiler::Global().ProfileFor(
      std::min(seconds, options_.profile_max_seconds), static_cast<int>(hz));
  if (!profile.ok()) {
    if (profile.status().IsAlreadyExists()) {
      return ErrorResponse(409, "another profile capture is running");
    }
    return ErrorResponse(profile.status());
  }
  if (format == "json") {
    return HttpResponse::Json(200, profile->ToJson(static_cast<size_t>(top)));
  }
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain; charset=utf-8";
  response.body = profile->FoldedText();
  return response;
}

HttpResponse MatchService::HandleMetrics(const HttpRequest&) {
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = registry_->RenderPrometheus();
  return response;
}

HttpResponse MatchService::HandleStats(const HttpRequest&) {
  const std::shared_ptr<const EngineState> state = this->state();
  if (state == nullptr) {
    return ErrorResponse(503, "no snapshot loaded");
  }
  const ShardedQueryEngine& engine = *state->engine;
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  const uint64_t queries = queries_->Value();
  const uint64_t cache_hits = cache_.hits();
  const uint64_t cache_lookups = cache_hits + cache_.misses();
  util::JsonWriter w;
  w.BeginObject()
      .Key("snapshot_version").Value(state->version)
      .Key("snapshot_path").Value(state->snapshot_path)
      .Key("scenario").Value(engine.meta().scenario)
      .Key("snapshot_loader").Value("mmap")
      .Key("load_seconds").Value(state->load_seconds)
      .Key("candidates").Value(static_cast<uint64_t>(
          engine.num_candidates()))
      .Key("dim").Value(static_cast<int64_t>(engine.dim()))
      .Key("index").Value(engine.has_ivf() ? "ivf+exact" : "exact")
      .Key("uptime_seconds").Value(uptime)
      .Key("queries").Value(queries)
      .Key("errors").Value(errors_->Value())
      .Key("reloads").Value(reloads_->Value())
      .Key("qps").Value(uptime > 0
                            ? static_cast<double>(queries) / uptime
                            : 0.0)
      .Key("latency_ms").BeginObject()
      .Key("count").Value(latency_->count())
      .Key("p50").Value(latency_->Percentile(0.50))
      .Key("p90").Value(latency_->Percentile(0.90))
      .Key("p99").Value(latency_->Percentile(0.99))
      .EndObject()
      .Key("shards").BeginObject()
      .Key("configured").Value(static_cast<uint64_t>(engine.num_shards()))
      .Key("active").Value(static_cast<uint64_t>(engine.active_shards()))
      .EndObject()
      // max_inflight: -1 encodes "unlimited" (SIZE_MAX is not a JSON-safe
      // integer).
      .Key("admission").BeginObject()
      .Key("max_inflight").Value(
          admission_.unlimited()
              ? int64_t{-1}
              : static_cast<int64_t>(admission_.options().max_inflight))
      .Key("inflight").Value(static_cast<uint64_t>(admission_.inflight()))
      .Key("admitted").Value(admission_.admitted())
      .Key("shed").Value(admission_.shed())
      .EndObject()
      .Key("cache").BeginObject()
      .Key("enabled").Value(cache_.enabled())
      .Key("entries").Value(static_cast<uint64_t>(cache_.size()))
      .Key("hits").Value(cache_hits)
      .Key("misses").Value(cache_.misses())
      .Key("evictions").Value(cache_.evictions())
      .Key("hit_rate").Value(cache_lookups > 0
                                 ? static_cast<double>(cache_hits) /
                                       static_cast<double>(cache_lookups)
                                 : 0.0)
      .EndObject()
      .Key("autotune").BeginObject()
      .Key("enabled").Value(tuner_ != nullptr && tuner_->enabled())
      .Key("budget_ms").Value(options_.latency_budget_ms)
      .Key("nprobe").Value(static_cast<uint64_t>(
          tuner_ != nullptr ? tuner_->nprobe() : 0))
      .Key("adjustments").Value(tuner_ != nullptr ? tuner_->adjustments()
                                                  : uint64_t{0})
      .EndObject()
      .Key("tracing").BeginObject()
      .Key("sample").Value(options_.trace_sample)
      .Key("slow_query_ms").Value(options_.slow_query_ms)
      .Key("traced").Value(traces_->Value())
      .Key("slow").Value(slow_queries_->Value())
      .EndObject()
      .Key("build").BeginObject()
      .Key("compiler").Value(CompilerId())
      .Key("simd").Value(simd::IsaName(simd::ActiveIsa()))
      .Key("forced_scalar").Value(simd::ForcedScalarByEnv())
      .Key("snapshot_format").Value(static_cast<uint64_t>(
          state->snapshot_format))
      .Key("shards").Value(static_cast<uint64_t>(options_.shards))
      .EndObject()
      .EndObject();
  return HttpResponse::Json(200, w.str());
}

HttpResponse MatchService::HandleReload(const HttpRequest& request) {
  std::string path;
  if (!util::Trim(request.body).empty()) {
    auto parsed = util::JsonParse(request.body);
    if (!parsed.ok() || !parsed->is_object()) {
      return ErrorResponse(400, "reload body must be a JSON object");
    }
    if (const util::JsonValue* p = parsed->Find("snapshot"); p != nullptr) {
      if (!p->is_string()) {
        return ErrorResponse(400, "'snapshot' must be a path string");
      }
      path = p->string_value();
    }
  }
  auto reloaded = Reload(path);
  if (!reloaded.ok()) {
    // The old snapshot keeps serving; the caller learns why the new one
    // was rejected.
    errors_->Inc();
    return ErrorResponse(reloaded.status());
  }
  const EngineState& fresh = *reloaded->state;
  util::JsonWriter w;
  w.BeginObject()
      .Key("status").Value("ok")
      .Key("snapshot_version").Value(fresh.version)
      .Key("previous_version").Value(reloaded->previous_version)
      .Key("snapshot_path").Value(fresh.snapshot_path)
      .Key("scenario").Value(fresh.engine->meta().scenario)
      .Key("load_seconds").Value(fresh.load_seconds)
      .EndObject();
  return HttpResponse::Json(200, w.str());
}

}  // namespace http
}  // namespace serve
}  // namespace tdmatch
