// In-memory span recorder for the traced benchmark run. Spans are timed
// from the benchmark's own code around calls into the library's public
// functions; they stay in memory until the run ends and are then written
// as JSON Lines. The spans of one request share a request id.
#ifndef TDBENCH_TRACE_H_
#define TDBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace tdbench {

/// Steady-clock milliseconds since the first call in this process — the
/// one time base of spans, schedules and latencies.
double NowMs();

struct Span {
  const char* name = "";  ///< string literal
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< shared by the spans of one request
  double start_ms = 0.0;
  double end_ms = 0.0;
  double ms() const { return end_ms - start_ms; }
};

/// Thread-safe span store. A disabled log records nothing and hands out
/// no ids, so untraced code pays one branch per would-be span.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NextId() { return enabled_ ? next_id_.fetch_add(1) : 0; }
  void Record(const Span& span);
  std::vector<Span> spans() const;

  /// Writes one header line and then the spans in recording order, at
  /// most kMaxWrittenSpans of them (the header states how many were kept).
  tdmatch::util::Status WriteJsonl(const std::string& path,
                                   const std::string& workload) const;
  static constexpr size_t kMaxWrittenSpans = 200000;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opens at construction, records at Close() or destruction.
/// A null or disabled log makes it a no-op (id() is then 0).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void Close();

 private:
  SpanLog* log_;
  Span span_;
};

/// Per-name totals over a set of spans.
struct LayerTotals {
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Groups `spans` by name with their summed durations and self times
/// (SelfTimesMs over the whole set).
std::map<std::string, LayerTotals> TotalsByName(const std::vector<Span>& spans);

}  // namespace tdbench

#endif  // TDBENCH_TRACE_H_
