#ifndef TDMATCH_UTIL_OBS_METRICS_H_
#define TDMATCH_UTIL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tdmatch {
namespace util {
namespace obs {

/// Ordered key→value label pairs identifying one child of a metric
/// family (e.g. {{"stage", "parse"}}). Order is preserved in the
/// exposition output; children are deduplicated by their serialized form.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotonic counter, striped across cachelines so concurrent
/// writers from different threads never contend on one atomic. A bump is
/// exactly one relaxed fetch_add; Value() sums the stripes (so reads are
/// O(stripes) and monotone but not a point-in-time snapshot — fine for
/// exposition).
class Counter {
 public:
  Counter() {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }
  void Inc(uint64_t n = 1) {
    cells_[StripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  static constexpr size_t kStripes = 16;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v;
  };
  /// Threads are assigned stripes round-robin on first use; the id is
  /// process-wide so two counters never force the same pair of threads
  /// onto the same cell by construction.
  static size_t StripeIndex();

  Cell cells_[kStripes];
};

/// \brief Last-write-wins double gauge.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Interpolated p-quantile (p in [0,1]) of bounds.size() + 1 bucket
/// counts (the last one overflow): linear inside the bucket holding the
/// p-rank, the last bound for overflow, 0 when empty.
double BucketPercentile(const std::vector<double>& bounds,
                        const uint64_t* counts, double p);

/// \brief Fixed-bound histogram with atomic per-bucket counters and an
/// interpolating percentile estimator (BucketPercentile).
///
/// Buckets are defined by ascending upper bounds; observations beyond the
/// last bound land in an overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  /// Returns the bucket `v` landed in: the first bound >= v, or
  /// bounds.size() for overflow.
  size_t Observe(double v);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Lifetime p-quantile estimate (p in [0,1]); 0 when empty.
  double Percentile(double p) const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Raw (non-cumulative) count of bucket i, i in [0, bounds.size()];
  /// index bounds.size() is the overflow bucket.
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// The serving latency grid: power-of-two microsecond upper bounds
  /// 2^0us .. 2^39us expressed in milliseconds (0.001ms .. ~550s).
  static std::vector<double> LatencyBoundsMs();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// \brief The one windowed-count structure: a ring of time buckets of
/// `counters` counts each, summed over recent windows on demand.
///
/// Each counter is one word packing its epoch (high 32 bits; epoch =
/// floor(now / bucket_seconds)) and its saturating count (low 32). Add is
/// one CAS: a word of an older epoch restarts at this add, so a bucket's
/// first touch needs no re-zeroing that could erase a concurrent tally;
/// an add a revolution late is dropped. Reads count only words tagged
/// with the epoch asked for. Times are explicit seconds (< 0 dropped).
class WindowedCounts {
 public:
  /// Buckets of `bucket_seconds` (<= 0: 1) covering `span_seconds`.
  WindowedCounts(size_t counters, double bucket_seconds,
                 double span_seconds);

  int64_t Epoch(double now) const;
  void Add(double now, size_t counter, uint64_t n = 1);
  /// Per-counter sums over epochs [first, last] retained in the ring.
  std::vector<uint64_t> Sum(int64_t first, int64_t last) const;
  /// Sums over epochs Epoch(now - window_seconds) .. Epoch(now).
  std::vector<uint64_t> Window(double now, double window_seconds) const {
    return Sum(Epoch(now - window_seconds), Epoch(now));
  }
  double bucket_seconds() const { return bucket_seconds_; }

 private:
  static constexpr uint64_t kCountMask = 0xFFFFFFFFull;

  size_t counters_;
  double bucket_seconds_;
  size_t buckets_;
  std::unique_ptr<std::atomic<uint64_t>[]> words_;  // buckets_ * counters_
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// \brief Named metric families with labeled children, rendered as
/// Prometheus text exposition.
///
/// Two kinds of children coexist: *owned* metrics (Counter/Gauge/
/// Histogram instances the caller bumps directly — pointers are stable
/// for the registry's lifetime, so hot paths resolve once and never take
/// the registry lock again) and *callback* samples (a function evaluated
/// at render time, for components that already keep their own counters —
/// admission, cache, tuner, shards). Exposition output is deterministic:
/// families sorted by name, children by serialized label set.
///
/// Use Registry::Global() for process-wide metrics; tests construct their
/// own instances.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& Global();

  /// Get-or-create. Type/help are fixed by the first caller; a type
  /// mismatch on an existing family returns the existing child anyway
  /// (first registration wins — misuse is a programming error, kept
  /// non-fatal so exposition never crashes a server).
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const LabelSet& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds,
                          const LabelSet& labels = {});

  /// Callback-valued sample (rendered as `type`, value pulled at scrape
  /// time). Re-registering the same (name, labels) replaces the callback
  /// — reload paths use that to refresh identity labels.
  void RegisterCallback(MetricType type, const std::string& name,
                        const std::string& help, const LabelSet& labels,
                        std::function<double()> fn);
  /// Drops every callback child of `name` (e.g. before re-registering
  /// build_info with new labels after a reload).
  void ClearCallbacks(const std::string& name);

  /// Prometheus text exposition (text/plain; version=0.0.4): `# HELP` /
  /// `# TYPE` per family, counters as integers, gauges/callbacks as
  /// %.17g, histograms as cumulative `_bucket{le=...}` + `_sum` +
  /// `_count`. Deterministic ordering, label values escaped.
  std::string RenderPrometheus() const;

  /// One scalar child value at collection time. Histogram children
  /// flatten to two samples: `<name>_count` (counter semantics) and
  /// `<name>_sum` (gauge semantics) — enough to derive rates without
  /// retaining full bucket vectors.
  struct Sample {
    std::string name;
    std::string labels;  // serialized FormatLabels form, "" for none
    MetricType type = MetricType::kCounter;
    double value = 0.0;
  };

  /// Point-in-time scalar snapshot of every child, in the same
  /// deterministic family/label order as the exposition. Callback
  /// samples are evaluated here, exactly as a scrape would. This is the
  /// time-series sampler's input.
  std::vector<Sample> Collect() const;

 private:
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::vector<double> bounds;  // histograms only
    // Keyed by serialized label set (stable render order for free).
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::map<std::string, std::function<double()>> callbacks;
  };

  Family* GetFamily(const std::string& name, MetricType type,
                    const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

/// Serializes a label set as `{k1="v1",k2="v2"}` with Prometheus escaping
/// (backslash, double-quote, newline); empty set → empty string.
std::string FormatLabels(const LabelSet& labels);

}  // namespace obs
}  // namespace util
}  // namespace tdmatch

#endif  // TDMATCH_UTIL_OBS_METRICS_H_
