// Shared vocabulary of the benchmark: the metric catalog, one workload's
// run context and result, and the process-level probes (CPU time, peak
// resident memory) every workload reports.
#ifndef TDBENCH_COMMON_H_
#define TDBENCH_COMMON_H_

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace tdbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics with a bound in BENCHMARK.json: every workload
/// reports all of them, untraced, on the last line of its output.
extern const std::vector<MetricSpec> kEndToEnd;
/// End-to-end metrics printed in the report and result files but not
/// bounded: on a shared host their run-to-run spread is wider than any
/// bound could be (README.md, "Steadiness"). A workload sets the ones
/// that apply to it.
extern const std::vector<MetricSpec> kReported;
/// Per-layer metrics: every workload reports all of them in the traced
/// run; a layer the workload's path never calls reads 0.
extern const std::vector<MetricSpec> kPerLayer;

/// What one workload run is given.
struct RunContext {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Cap for pipeline threads, engine threads, HTTP workers and client
  /// connections: min(4, nproc).
  size_t threads = 4;
  /// Directory for generated inputs and snapshots (inside the checkout).
  std::string work_dir;
  SpanLog* spans = nullptr;
};

/// Requests of one phase of the open-loop generator, as counted.
struct PhaseCounts {
  std::string phase;
  double rate = 0.0;
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t refused = 0;  ///< 429
  uint64_t failed = 0;   ///< other status, connect failure, bad body
};

struct WorkloadResult {
  std::string workload;
  std::vector<std::string> check_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<PhaseCounts> phases;
  /// Free-form lines for the human-readable report.
  std::vector<std::string> notes;

  bool correct() const { return check_failures.empty(); }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void Set(const std::string& name, double value) { metrics[name] = value; }
};

const char* UnitOf(const std::string& metric);

/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();
/// Peak resident set size (MB) since the last ReleaseInputMemory().
double PeakRssMb();
/// Returns freed heap to the system and restarts the peak-RSS high-water
/// mark, so the peak a workload reports excludes its input generation
/// (no-op where the kernel does not support the reset; the peak is then
/// the process lifetime's).
void ReleaseInputMemory();

uint64_t FileBytes(const std::string& path);

/// Snapshot checks: `path` reopens through SnapshotView::Open with CRC
/// verification on, and a shards=1 engine built from it adopts the
/// snapshot's "ivfpq" section instead of retraining.
void CheckSnapshot(const std::string& path, WorkloadResult* res);

/// Restricts the calling thread, and every thread it starts while the
/// guard lives, to one CPU (the first the process may use); restores the
/// caller's mask on destruction. The timed parts of every workload run
/// pinned: on a 4-vCPU VM a wake-up sent to another vCPU costs 50-150 us of
/// hypervisor latency at random, which owned serve_lookup's p50 (0.04-0.19
/// ms over ten seeds unpinned, 0.030-0.040 ms pinned).
class PinToOneCpu {
 public:
  PinToOneCpu();
  ~PinToOneCpu();
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace tdbench

#endif  // TDBENCH_COMMON_H_
