#ifndef TDMATCH_UTIL_OBS_SLO_H_
#define TDMATCH_UTIL_OBS_SLO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/obs/metrics.h"

namespace tdmatch {
namespace util {
namespace obs {

/// One short/long window pair with a burn-rate threshold — the standard
/// multi-window multi-burn-rate alerting recipe: the long window keeps
/// the signal from flapping, the short window makes it reset quickly
/// once the incident ends. The condition fires only when BOTH windows
/// burn above the threshold.
struct SloWindowPair {
  double short_seconds = 60.0;
  double long_seconds = 600.0;
  /// Burn rate = observed error rate / budgeted error rate (1 - target).
  /// 14.4 on a 99.9% objective means the monthly budget would be gone in
  /// ~2 days — the classic fast-page threshold.
  double threshold = 14.4;
};

struct SloOptions {
  /// Availability objective: fraction of requests that must not be
  /// server errors (5xx).
  double availability_target = 0.999;
  /// Latency objective: fraction of requests that must finish within
  /// the configured budget. <= 0 budget disables the objective (the
  /// tracker then reports availability only).
  double latency_target = 0.999;
  double latency_budget_ms = 0.0;
  /// Fast pair drives the degraded health state; the slow pair is
  /// report-only context on /v1/slo.
  SloWindowPair fast{60.0, 600.0, 14.4};
  SloWindowPair slow{300.0, 3600.0, 6.0};
};

/// \brief Objective-based health: every request outcome lands in one
/// WindowedCounts ring (metrics.h) as a good/bad tally per objective, and
/// burn rates over the configured windows are summed from it on demand.
/// The clock is explicit (timestamps in seconds) so tests drive
/// trajectories with a fake clock.
///
/// The ring's geometry follows from the windows: buckets of
/// clamp(fast.short_seconds / 4, 0.05, 5) seconds, so the fast-short
/// window spans several of them, retained over the longest window.
/// Record() is lock-free: one or two CAS-added counter words, safe to
/// call from every request thread at full load.
class SloTracker {
 public:
  explicit SloTracker(SloOptions options = {});

  /// One finished request at time `now` (seconds): was it good for
  /// availability (not a 5xx) and good for latency (within budget)?
  void Record(double now, bool available, bool within_latency);

  struct WindowBurn {
    double window_seconds = 0.0;
    uint64_t good = 0;
    uint64_t bad = 0;
    double error_rate = 0.0;  // bad / (good + bad), 0 when empty
    double burn_rate = 0.0;   // error_rate / (1 - target)
  };

  struct ObjectiveStatus {
    std::string name;      // "availability" | "latency"
    double target = 0.0;
    WindowBurn fast_short, fast_long, slow_short, slow_long;
    bool fast_burning = false;  // both fast windows above threshold
    bool slow_burning = false;
    /// Fraction of the error budget left over the slow-long window
    /// (1 = untouched, 0 = exhausted, clamped at 0).
    double budget_remaining = 1.0;
  };

  /// Burn-rate evaluation at time `now`. Latency objective present only
  /// when a budget is configured.
  std::vector<ObjectiveStatus> Evaluate(double now) const;

  /// True when any objective's fast pair is burning — the healthz
  /// "degraded" condition.
  bool Degraded(double now) const;

  const SloOptions& options() const { return options_; }
  /// Width of one ring bucket, derived from the fast-short window.
  double bucket_seconds() const { return events_.bucket_seconds(); }

 private:
  SloOptions options_;
  /// Per bucket: availability good/bad, then latency good/bad.
  WindowedCounts events_;
};

}  // namespace obs
}  // namespace util
}  // namespace tdmatch

#endif  // TDMATCH_UTIL_OBS_SLO_H_
