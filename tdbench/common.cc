#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "serve/mmap_snapshot.h"
#include "serve/query_engine.h"

namespace tdbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"cpu_ms", "ms"},
    {"recall_at_5", "ratio"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kReported = {
    {"p90_ms", "ms"},
    {"p99_ms", "ms"},
    {"goodput_qps", "1/s"},
    {"build_s", "s"},
    {"build_cpu_s", "s"},
    {"mrr", "ratio"},
    {"error_rate", "ratio"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"corpus.load_s", "s"},
    {"graph.build_s", "s"},
    {"graph.nodes", "count"},
    {"graph.edges", "count"},
    {"graph.expand_s", "s"},
    {"graph.compress_s", "s"},
    {"graph.compress_ratio", "ratio"},
    {"embed.walks_s", "s"},
    {"embed.walk_tokens", "count"},
    {"embed.train_s", "s"},
    {"embed.train_epoch_s", "s"},
    {"embed.train_cpu_s", "s"},
    {"embed.train_tokens_per_s", "1/s"},
    {"embed.train_parallel_eff", "ratio"},
    {"match.score_s", "s"},
    {"serve.index_build_s", "s"},
    {"serve.snapshot_write_s", "s"},
    {"serve.snapshot_bytes", "bytes"},
    {"http.roundtrip_ms", "ms"},
    {"http.transport_ms", "ms"},
    {"service.handle_ms", "ms"},
    {"service.overhead_ms", "ms"},
    {"json.parse_ms", "ms"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"engine.query_ms", "ms"},
    {"engine.scatter_ms", "ms"},
    {"engine.merge_ms", "ms"},
    {"engine.batch_ms", "ms"},
    {"engine.shard_imbalance", "ratio"},
    {"admission.shed", "count"},
    {"snapshot.open_s", "s"},
    {"engine.build_s", "s"},
    {"engine.ivf_adopted", "count"},
    {"reload_ms", "ms"},
    {"generator_lag_ms", "ms"},
    {"explained_fraction", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

const char* UnitOf(const std::string& metric) {
  for (const auto* list : {&kEndToEnd, &kReported, &kPerLayer}) {
    for (const MetricSpec& m : *list) {
      if (metric == m.name) return m.unit;
    }
  }
  return "";
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  // VmHWM honours ReleaseInputMemory(); ru_maxrss is the lifetime fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void ReleaseInputMemory() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<uint64_t>(f.tellg()) : 0;
}

void CheckSnapshot(const std::string& path, WorkloadResult* res) {
  auto view = tdmatch::serve::SnapshotView::Open(path, /*verify_crc=*/true);
  res->Check(view.ok(), "snapshot reopens with CRC check: " +
                            (view.ok() ? std::string("ok")
                                       : view.status().ToString()));
  if (!view.ok()) return;
  tdmatch::serve::QueryEngineOptions eopts;
  eopts.threads = 1;
  auto engine = tdmatch::serve::QueryEngine::BuildFromView(*view, "__D1:",
                                                          eopts);
  res->Check(engine.ok() && engine->ivf_from_snapshot(),
             "shards=1 engine adopts the snapshot's ivfpq section");
}

PinToOneCpu::PinToOneCpu() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

PinToOneCpu::~PinToOneCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

}  // namespace tdbench
