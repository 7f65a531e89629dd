#include "util/obs/slo.h"

#include <algorithm>

namespace tdmatch {
namespace util {
namespace obs {

namespace {

// Counters of one event bucket: good then bad, per objective.
constexpr size_t kAvailability = 0;
constexpr size_t kLatency = 2;
constexpr size_t kCounters = 4;

}  // namespace

SloTracker::SloTracker(SloOptions options)
    : options_(options),
      events_(kCounters,
              std::min(5.0, std::max(0.05, options.fast.short_seconds / 4.0)),
              std::max(options.fast.long_seconds,
                       options.slow.long_seconds)) {}

void SloTracker::Record(double now, bool available, bool within_latency) {
  events_.Add(now, kAvailability + (available ? 0 : 1));
  if (options_.latency_budget_ms > 0) {
    events_.Add(now, kLatency + (within_latency ? 0 : 1));
  }
}

std::vector<SloTracker::ObjectiveStatus> SloTracker::Evaluate(
    double now) const {
  const double windows[4] = {
      options_.fast.short_seconds, options_.fast.long_seconds,
      options_.slow.short_seconds, options_.slow.long_seconds};
  std::vector<uint64_t> sums[4];
  for (int i = 0; i < 4; ++i) sums[i] = events_.Window(now, windows[i]);
  std::vector<ObjectiveStatus> out;
  const auto eval = [&](const std::string& name, size_t objective,
                        double target) {
    ObjectiveStatus st;
    st.name = name;
    st.target = target;
    WindowBurn* burns[4] = {&st.fast_short, &st.fast_long, &st.slow_short,
                            &st.slow_long};
    for (int i = 0; i < 4; ++i) {
      WindowBurn& b = *burns[i];
      b.window_seconds = windows[i];
      b.good = sums[i][objective];
      b.bad = sums[i][objective + 1];
      const uint64_t total = b.good + b.bad;
      b.error_rate = total == 0 ? 0.0
                                : static_cast<double>(b.bad) /
                                      static_cast<double>(total);
      b.burn_rate = target < 1.0 ? b.error_rate / (1.0 - target) : 0.0;
    }
    st.fast_burning =
        st.fast_short.burn_rate > options_.fast.threshold &&
        st.fast_long.burn_rate > options_.fast.threshold;
    st.slow_burning =
        st.slow_short.burn_rate > options_.slow.threshold &&
        st.slow_long.burn_rate > options_.slow.threshold;
    // Budget spent = burn over the longest report window; a burn rate of
    // exactly 1.0 sustained over that window spends exactly its share.
    st.budget_remaining =
        std::max(0.0, 1.0 - st.slow_long.burn_rate);
    return st;
  };
  out.push_back(eval("availability", kAvailability,
                     options_.availability_target));
  if (options_.latency_budget_ms > 0) {
    out.push_back(eval("latency", kLatency, options_.latency_target));
  }
  return out;
}

bool SloTracker::Degraded(double now) const {
  const std::vector<ObjectiveStatus> status = Evaluate(now);
  return std::any_of(status.begin(), status.end(),
                     [](const ObjectiveStatus& st) { return st.fast_burning; });
}

}  // namespace obs
}  // namespace util
}  // namespace tdmatch
