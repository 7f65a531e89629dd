// The four workloads. Each runs from generated inputs only, measures for
// ctx.seconds, checks its outputs, and fills every end-to-end metric
// (untraced run) or every per-layer metric that applies (traced run).
#ifndef TDBENCH_WORKLOADS_H_
#define TDBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "util/result.h"

namespace tdbench {

/// Threads of the timed builds (pipeline and index build). On a shared
/// 4-vCPU host the block-parallel trainer's per-group barriers make
/// 4-thread builds slower than 1-thread ones whenever vCPUs are preempted
/// (build_text_xc: 0.60-0.84 s at 1 thread, 1.7-2.3 s at 4) and 3x
/// noisier. The traced run measures the trainer at nproc threads on its
/// own (embed.train_parallel_eff), unpinned (see PinToOneCpu).
constexpr size_t kBuildThreads = 1;

/// Engine threads of the serving workloads: each request runs its shard
/// scans and batch on its own HTTP worker, and a reload builds the shards
/// one after another. The serving workloads run pinned to one CPU
/// (PinToOneCpu), where a scatter pool could not run in parallel anyway;
/// unpinned, fanning a query out on a 4-thread pool made serve_scan's p50
/// twice as noisy (0.70-1.56 ms against 0.78-0.86 ms).
constexpr size_t kEngineThreads = 1;

/// build_data and build_text_xc: input files -> snapshot.
WorkloadResult RunBuildWorkload(const std::string& name,
                                const RunContext& ctx);

/// serve_lookup and serve_scan: open-loop HTTP against a MatchService.
WorkloadResult RunServeWorkload(const std::string& name,
                                const RunContext& ctx);

/// Generates the build_data inputs for ctx.seed and builds their snapshot
/// at `path`, untraced. Returns the gold answers of every query label
/// "__D0:i__" as candidate labels ("__D1:c__").
tdmatch::util::Result<std::vector<std::vector<std::string>>>
BuildLookupSnapshot(const RunContext& ctx, const std::string& path);

}  // namespace tdbench

#endif  // TDBENCH_WORKLOADS_H_
