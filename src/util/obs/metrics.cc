#include "util/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace tdmatch {
namespace util {
namespace obs {

namespace {

void AppendEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '\\': out->append("\\\\"); break;
      case '"': out->append("\\\""); break;
      case '\n': out->append("\\n"); break;
      default: out->push_back(c);
    }
  }
}

void AppendHelpEscaped(std::string_view s, std::string* out) {
  // HELP text escapes only backslash and newline (quotes are legal).
  for (char c : s) {
    switch (c) {
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      default: out->push_back(c);
    }
  }
}

/// %.17g — the same round-trippable spelling JsonWriter uses, so a value
/// scraped from /v1/metrics parses back bit-exact.
std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return util::StrFormat("%.17g", v);
}

const char* TypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

/// Splices `extra` (e.g. le="...") into a serialized label block.
std::string WithExtraLabel(const std::string& serialized,
                           const std::string& extra) {
  if (serialized.empty()) return "{" + extra + "}";
  std::string out = serialized.substr(0, serialized.size() - 1);
  out += ",";
  out += extra;
  out += "}";
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

size_t Counter::StripeIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  // make_unique<T[]> value-initializes: every bucket starts at zero.
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
}

size_t Histogram::Observe(double v) {
  const auto bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  return bucket;
}

double Histogram::Percentile(double p) const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) counts[i] = BucketCount(i);
  return BucketPercentile(bounds_, counts.data(), p);
}

double BucketPercentile(const std::vector<double>& bounds,
                        const uint64_t* counts, double p) {
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds.size(); ++i) total += counts[i];
  if (total == 0 || bounds.empty()) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(total))));
  uint64_t cum = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (cum + counts[i] < rank) {
      cum += counts[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double frac = static_cast<double>(rank - cum) /
                        static_cast<double>(counts[i]);
    return lo + frac * (bounds[i] - lo);
  }
  return bounds.back();  // overflow: clamp to the last finite bound
}

std::vector<double> Histogram::LatencyBoundsMs() {
  std::vector<double> bounds;
  bounds.reserve(40);
  for (int i = 0; i < 40; ++i) {
    bounds.push_back(static_cast<double>(uint64_t{1} << i) / 1000.0);
  }
  return bounds;
}

// ---------------------------------------------------------------------------
// WindowedCounts
// ---------------------------------------------------------------------------

// A window of w seconds touches up to ceil(w / bucket) + 1 epochs. The
// words start at zero: epoch 0, no tally.
WindowedCounts::WindowedCounts(size_t counters, double bucket_seconds,
                               double span_seconds)
    : counters_(counters),
      bucket_seconds_(bucket_seconds > 0 ? bucket_seconds : 1.0),
      buckets_(static_cast<size_t>(std::ceil(std::max(0.0, span_seconds) /
                                             bucket_seconds_)) +
               1),
      words_(std::make_unique<std::atomic<uint64_t>[]>(buckets_ *
                                                       counters_)) {}

int64_t WindowedCounts::Epoch(double now) const {
  return static_cast<int64_t>(std::floor(now / bucket_seconds_));
}

void WindowedCounts::Add(double now, size_t counter, uint64_t n) {
  const int64_t epoch = Epoch(now);
  if (epoch < 0 || n == 0) return;
  const auto tag = static_cast<uint32_t>(epoch);
  std::atomic<uint64_t>& word =
      words_[static_cast<size_t>(epoch) % buckets_ * counters_ + counter];
  uint64_t cur = word.load(std::memory_order_relaxed);
  uint64_t next = 0;
  do {
    const auto seen = static_cast<uint32_t>(cur >> 32);
    uint64_t count = cur & kCountMask;
    if (seen != tag) {
      // A word with a tally from a newer epoch is a revolution ahead of
      // this add; a word with none (never touched) is free.
      if (count != 0 && static_cast<int32_t>(tag - seen) < 0) return;
      count = 0;
    }
    next = (uint64_t{tag} << 32) | (count + std::min(n, kCountMask - count));
  } while (!word.compare_exchange_weak(cur, next,
                                       std::memory_order_relaxed));
}

std::vector<uint64_t> WindowedCounts::Sum(int64_t first, int64_t last) const {
  std::vector<uint64_t> sums(counters_, 0);
  first = std::max({first, int64_t{0},
                    last - static_cast<int64_t>(buckets_) + 1});
  for (int64_t e = first; e <= last; ++e) {
    const std::atomic<uint64_t>* row =
        &words_[static_cast<size_t>(e) % buckets_ * counters_];
    for (size_t c = 0; c < counters_; ++c) {
      const uint64_t word = row[c].load(std::memory_order_relaxed);
      if (word >> 32 == static_cast<uint32_t>(e)) sums[c] += word & kCountMask;
    }
  }
  return sums;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::Global() {
  static Registry* instance = new Registry();
  return *instance;
}

std::string FormatLabels(const LabelSet& labels) {
  if (labels.empty()) return std::string();
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    AppendEscaped(v, &out);
    out += "\"";
  }
  out += "}";
  return out;
}

Registry::Family* Registry::GetFamily(const std::string& name,
                                      MetricType type,
                                      const std::string& help) {
  Family& fam = families_[name];
  if (fam.help.empty()) {
    fam.type = type;
    fam.help = help;
  }
  return &fam;
}

Counter* Registry::GetCounter(const std::string& name,
                              const std::string& help,
                              const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* fam = GetFamily(name, MetricType::kCounter, help);
  auto& slot = fam->counters[FormatLabels(labels)];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* fam = GetFamily(name, MetricType::kGauge, help);
  auto& slot = fam->gauges[FormatLabels(labels)];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help,
                                  std::vector<double> bounds,
                                  const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* fam = GetFamily(name, MetricType::kHistogram, help);
  if (fam->bounds.empty()) fam->bounds = bounds;
  auto& slot = fam->histograms[FormatLabels(labels)];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

void Registry::RegisterCallback(MetricType type, const std::string& name,
                                const std::string& help,
                                const LabelSet& labels,
                                std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* fam = GetFamily(name, type, help);
  fam->callbacks[FormatLabels(labels)] = std::move(fn);
}

void Registry::ClearCallbacks(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  if (it != families_.end()) it->second.callbacks.clear();
}

std::vector<Registry::Sample> Registry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  for (const auto& [name, fam] : families_) {
    for (const auto& [labels, counter] : fam.counters) {
      out.push_back({name, labels, MetricType::kCounter,
                     static_cast<double>(counter->Value())});
    }
    for (const auto& [labels, gauge] : fam.gauges) {
      out.push_back({name, labels, MetricType::kGauge, gauge->Value()});
    }
    for (const auto& [labels, fn] : fam.callbacks) {
      out.push_back({name, labels, fam.type, fn()});
    }
    for (const auto& [labels, hist] : fam.histograms) {
      out.push_back({name + "_count", labels, MetricType::kCounter,
                     static_cast<double>(hist->count())});
      out.push_back({name + "_sum", labels, MetricType::kGauge,
                     hist->sum()});
    }
  }
  return out;
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, fam] : families_) {
    out += "# HELP ";
    out += name;
    out += " ";
    AppendHelpEscaped(fam.help, &out);
    out += "\n# TYPE ";
    out += name;
    out += " ";
    out += TypeName(fam.type);
    out += "\n";
    for (const auto& [labels, counter] : fam.counters) {
      out += name;
      out += labels;
      out += " ";
      out += std::to_string(counter->Value());
      out += "\n";
    }
    for (const auto& [labels, gauge] : fam.gauges) {
      out += name;
      out += labels;
      out += " ";
      out += FormatValue(gauge->Value());
      out += "\n";
    }
    for (const auto& [labels, fn] : fam.callbacks) {
      out += name;
      out += labels;
      out += " ";
      out += FormatValue(fn());
      out += "\n";
    }
    for (const auto& [labels, hist] : fam.histograms) {
      uint64_t cum = 0;
      const auto& bounds = hist->bounds();
      for (size_t i = 0; i < bounds.size(); ++i) {
        cum += hist->BucketCount(i);
        out += name;
        out += "_bucket";
        out += WithExtraLabel(labels, "le=\"" + FormatValue(bounds[i]) +
                                          "\"");
        out += " ";
        out += std::to_string(cum);
        out += "\n";
      }
      cum += hist->BucketCount(bounds.size());
      out += name;
      out += "_bucket";
      out += WithExtraLabel(labels, "le=\"+Inf\"");
      out += " ";
      out += std::to_string(cum);
      out += "\n";
      out += name;
      out += "_sum";
      out += labels;
      out += " ";
      out += FormatValue(hist->sum());
      out += "\n";
      out += name;
      out += "_count";
      out += labels;
      out += " ";
      out += std::to_string(hist->count());
      out += "\n";
    }
  }
  return out;
}

}  // namespace obs
}  // namespace util
}  // namespace tdmatch
