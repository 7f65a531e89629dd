#ifndef TDMATCH_SERVE_ADMISSION_H_
#define TDMATCH_SERVE_ADMISSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/obs/metrics.h"

namespace tdmatch {
namespace serve {

struct AdmissionOptions {
  /// Queries allowed in flight at once. Requests past the budget are shed
  /// with 429 + Retry-After instead of queueing — fail fast, never fall
  /// over. SIZE_MAX (the default) never sheds; 0 sheds everything (the
  /// drain/maintenance switch, and the capacity-0 edge the tests pin).
  size_t max_inflight = std::numeric_limits<size_t>::max();
  /// Retry-After clamp, in whole seconds (RFC 9110 delta-seconds).
  int min_retry_after_s = 1;
  int max_retry_after_s = 30;
};

/// \brief Lock-free in-flight admission gate for the serving front door.
///
/// TryAcquire is a CAS loop against max_inflight: it either takes a slot
/// (the caller must Release — use Ticket for RAII) or refuses without
/// blocking. Shed requests cost one atomic read-modify-write and an error
/// response; admitted work is never queued behind refused work, so an
/// overloaded server keeps its latency budget for the requests it accepts
/// and /v1/healthz stays green past saturation.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {})
      : options_(options) {}

  /// Takes an in-flight slot if one is free. Never blocks. A refusal
  /// advances the shed counter.
  bool TryAcquire();

  void Release() { inflight_.fetch_sub(1, std::memory_order_acq_rel); }

  /// RAII slot: acquires on construction, releases on destruction when
  /// admitted. Move-only.
  class Ticket {
   public:
    explicit Ticket(AdmissionController* controller)
        : controller_(controller != nullptr && controller->TryAcquire()
                          ? controller
                          : nullptr) {}
    ~Ticket() {
      if (controller_ != nullptr) controller_->Release();
    }
    Ticket(Ticket&& other) noexcept : controller_(other.controller_) {
      other.controller_ = nullptr;
    }
    Ticket& operator=(Ticket&&) = delete;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    bool admitted() const { return controller_ != nullptr; }

   private:
    AdmissionController* controller_;
  };

  /// Retry-After hint for a shed response: roughly how long the current
  /// in-flight backlog needs to drain at `typical_ms` per query, clamped
  /// to [min, max] whole seconds so the header is always well-formed.
  int RetryAfterSeconds(double typical_ms) const;

  size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  bool unlimited() const {
    return options_.max_inflight == std::numeric_limits<size_t>::max();
  }
  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  std::atomic<size_t> inflight_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
};

struct NprobeTunerOptions {
  /// p99 latency target in milliseconds; <= 0 disables tuning.
  double budget_ms = 0.0;
  size_t min_nprobe = 1;
  /// Ceiling — the serving layer passes the largest shard nlist.
  size_t max_nprobe = 64;
  size_t initial_nprobe = 4;
};

/// \brief AIMD auto-tuner for the IVF nprobe knob against a p99 budget.
///
/// A decision on one p99: over budget ⇒ halve nprobe (latency is what
/// pages people), under half the budget ⇒ +1 (slow recovery of recall),
/// else hold. Step decides once per bucket of the recent-latency ring on
/// the last complete one, so each decision sees only queries run under
/// the previous one's nprobe. Lock-free: nprobe is a relaxed atomic.
class NprobeTuner {
 public:
  explicit NprobeTuner(NprobeTunerOptions options = {});

  bool enabled() const { return options_.budget_ms > 0.0; }

  /// The nprobe the next query should use.
  size_t nprobe() const { return nprobe_.load(std::memory_order_relaxed); }

  void Decide(double p99_ms);

  /// Run after every executed query: the first call in a newer bucket of
  /// `latency` (counters [0, bounds.size()] a histogram over `bounds`)
  /// decides on the previous bucket's p99, or holds if it is empty.
  void Step(double now, const util::obs::WindowedCounts& latency,
            const std::vector<double>& bounds);

  uint64_t decisions() const {
    return decisions_.load(std::memory_order_relaxed);
  }
  uint64_t adjustments() const {
    return adjustments_.load(std::memory_order_relaxed);
  }

 private:
  NprobeTunerOptions options_;
  std::atomic<size_t> nprobe_{1};
  std::atomic<int64_t> decided_epoch_{-1};
  std::atomic<uint64_t> decisions_{0};
  std::atomic<uint64_t> adjustments_{0};
};

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_ADMISSION_H_
