#include "serve/admission.h"

#include <algorithm>

namespace tdmatch {
namespace serve {

bool AdmissionController::TryAcquire() {
  size_t cur = inflight_.load(std::memory_order_relaxed);
  while (true) {
    if (cur >= options_.max_inflight) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // On CAS failure `cur` reloads the observed value and the capacity
    // check re-runs — a slot freed or taken between iterations is never
    // double-counted.
    if (inflight_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      admitted_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
}

int AdmissionController::RetryAfterSeconds(double typical_ms) const {
  const double backlog =
      static_cast<double>(inflight_.load(std::memory_order_relaxed));
  const double per_query_ms = typical_ms > 0.0 ? typical_ms : 1.0;
  const double seconds = backlog * per_query_ms / 1000.0;
  const int s = static_cast<int>(seconds) + 1;  // round up, never 0
  return std::min(std::max(s, options_.min_retry_after_s),
                  options_.max_retry_after_s);
}

NprobeTuner::NprobeTuner(NprobeTunerOptions options) : options_(options) {
  options_.min_nprobe = std::max<size_t>(1, options_.min_nprobe);
  options_.max_nprobe = std::max(options_.max_nprobe, options_.min_nprobe);
  nprobe_.store(std::clamp(options_.initial_nprobe, options_.min_nprobe,
                           options_.max_nprobe),
                std::memory_order_relaxed);
}

void NprobeTuner::Decide(double p99_ms) {
  if (!enabled()) return;
  decisions_.fetch_add(1, std::memory_order_relaxed);
  const size_t cur = nprobe_.load(std::memory_order_relaxed);
  size_t next = cur;
  if (p99_ms > options_.budget_ms) {
    next = std::max(cur / 2, options_.min_nprobe);  // multiplicative decrease
  } else if (p99_ms <= options_.budget_ms * 0.5 &&
             cur < options_.max_nprobe) {
    next = cur + 1;  // additive increase
  }
  if (next != cur) {
    nprobe_.store(next, std::memory_order_relaxed);
    adjustments_.fetch_add(1, std::memory_order_relaxed);
  }
}

void NprobeTuner::Step(double now, const util::obs::WindowedCounts& latency,
                       const std::vector<double>& bounds) {
  if (!enabled()) return;
  const int64_t epoch = latency.Epoch(now);
  int64_t decided = decided_epoch_.load(std::memory_order_relaxed);
  if (epoch <= decided ||
      !decided_epoch_.compare_exchange_strong(decided, epoch,
                                              std::memory_order_relaxed)) {
    return;
  }
  const double p99 = util::obs::BucketPercentile(
      bounds, latency.Sum(epoch - 1, epoch - 1).data(), 0.99);
  if (p99 > 0) Decide(p99);  // 0 only for an empty bucket: hold
}

}  // namespace serve
}  // namespace tdmatch
