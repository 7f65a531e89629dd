// Pure arithmetic of the benchmark: percentiles, open-loop schedule
// timing, backlog detection for the goodput ladder, and span self time.
// Nothing here touches the clock or the library, so stats_test.cc can pin
// every rule with hand-computed numbers.
#ifndef TDBENCH_STATS_H_
#define TDBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace tdbench {

/// Nearest-rank percentile: the smallest sample with at least a `p` share
/// of the sample at or below it (p in [0, 1]). 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Nearest-rank percentile of each consecutive window of at least
/// `min_window` samples (in arrival order; the last window absorbs the
/// remainder), and then the median of those: a tail figure that one burst
/// of host noise cannot own. A sample shorter than two windows falls back
/// to the plain percentile.
double WindowedPercentile(const std::vector<double>& values, double p,
                          size_t min_window);

/// Samples strictly above the nearest-rank p-th percentile of n samples:
/// a tail percentile is worth reporting only when this is at least ten.
size_t SamplesBeyond(size_t n, double p);

/// Offset (ms from phase start) at which request `i` of an open-loop
/// schedule running at `rate_per_s` is due.
double DueMs(size_t i, double rate_per_s);

/// Latency of a request timed from when it was due, not from when the
/// client got round to sending it: a stall delays every later request,
/// and that wait is part of what the caller sees.
double LatencyFromDueMs(double due_ms, double done_ms);

/// How late the generator itself sent a request. Only lateness while the
/// sending thread was idle counts (its previous request finished before
/// this one was due): that is sleep overshoot. Lateness behind a slow
/// previous request is queueing in the system and shows in the latency.
double GeneratorLagMs(double due_ms, double send_ms, double prev_done_ms);

/// True when the send lateness (send - due, in due order) of the last
/// quarter of a phase exceeds the first quarter's, by median, by more than
/// `tolerance_ms`: the schedule is outrunning the server and the queue is
/// growing. Fewer than eight requests never count as growing.
bool BacklogGrowing(const std::vector<double>& lateness_ms,
                    double tolerance_ms);

/// One rung of the goodput ladder as measured.
struct Rung {
  double rate = 0.0;
  double p99_ms = 0.0;
  bool backlog_growing = false;
  /// Requests that were refused or failed (each misses the limit).
  uint64_t errors = 0;
};

/// Whether a rung meets the latency limit: p99 within the limit, no
/// growing backlog, no refused or failed request.
bool RungPasses(const Rung& rung, double p99_limit_ms);

/// Goodput on a fixed ladder of rates (ascending): the highest rung that
/// passes, found by binary search on the assumption that a rate passes
/// whenever a higher one does. `passes` runs one rung. The bottom rung is
/// always tried; 0 when it fails. Tries O(log n) rungs.
double SearchLadder(const std::vector<double>& ladder,
                    const std::function<bool(double)>& passes);

/// The geometric ladder base * step^i, i < n.
std::vector<double> GeometricLadder(double base, double step, size_t n);

/// A span as the self-time rule sees it.
struct SpanInterval {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Self time of every span (same order as the input): its duration minus
/// the part of its interval that its direct children cover. Overlapping
/// children (parallel work) are counted once; a child's part outside its
/// parent's interval is ignored.
std::vector<double> SelfTimesMs(const std::vector<SpanInterval>& spans);

}  // namespace tdbench

#endif  // TDBENCH_STATS_H_
