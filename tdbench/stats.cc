#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace tdbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(std::clamp(p, 0.0, 1.0) * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double WindowedPercentile(const std::vector<double>& values, double p,
                          size_t min_window) {
  const size_t windows = min_window == 0 ? 0 : values.size() / min_window;
  if (windows < 2) return Percentile(values, p);
  const size_t size = values.size() / windows;
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(w * size);
    const auto end = w + 1 == windows
                         ? values.end()
                         : begin + static_cast<std::ptrdiff_t>(size);
    tails.push_back(Percentile(std::vector<double>(begin, end), p));
  }
  return Median(std::move(tails));
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(std::clamp(p, 0.0, 1.0) * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

double DueMs(size_t i, double rate_per_s) {
  return static_cast<double>(i) * 1000.0 / rate_per_s;
}

double LatencyFromDueMs(double due_ms, double done_ms) {
  return done_ms - due_ms;
}

double GeneratorLagMs(double due_ms, double send_ms, double prev_done_ms) {
  if (prev_done_ms > due_ms) return 0.0;
  return std::max(0.0, send_ms - due_ms);
}

bool BacklogGrowing(const std::vector<double>& lateness_ms,
                    double tolerance_ms) {
  const size_t n = lateness_ms.size();
  if (n < 8) return false;
  const size_t quarter = n / 4;
  std::vector<double> first(lateness_ms.begin(),
                            lateness_ms.begin() + quarter);
  std::vector<double> last(lateness_ms.end() - quarter, lateness_ms.end());
  return Median(std::move(last)) - Median(std::move(first)) > tolerance_ms;
}

bool RungPasses(const Rung& rung, double p99_limit_ms) {
  return rung.errors == 0 && !rung.backlog_growing &&
         rung.p99_ms <= p99_limit_ms;
}

double SearchLadder(const std::vector<double>& ladder,
                    const std::function<bool(double)>& passes) {
  if (ladder.empty() || !passes(ladder[0])) return 0.0;
  size_t lo = 0, hi = ladder.size();  // lo passes; hi is the first known miss
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (passes(ladder[mid])) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return ladder[lo];
}

std::vector<double> GeometricLadder(double base, double step, size_t n) {
  std::vector<double> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(std::round(base * std::pow(step, static_cast<double>(i))));
  }
  return out;
}

std::vector<double> SelfTimesMs(const std::vector<SpanInterval>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const SpanInterval& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanInterval& p = spans[it->second];
    const double lo = std::max(s.start_ms, p.start_ms);
    const double hi = std::min(s.end_ms, p.end_ms);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    double union_ms = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : parts) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ms += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ms += run_hi - run_lo;
    self[i] = (spans[i].end_ms - spans[i].start_ms) - union_ms;
  }
  return self;
}

}  // namespace tdbench
