// tdbench: the TDmatch benchmark driver.
//
//   tdbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//           --out-dir <dir> [--commit <id>]
//
// Runs the named workload(s), checks their outputs, prints a readable
// report and, as the last line of standard output, one JSON object:
// {"correct", "attempted", "failed", "metrics"} where metrics holds every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// Results (with their host/build stamp) go to <out-dir>/results, traced
// spans to <out-dir>/traces. Exits 1 when an output check fails.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "util/json.h"
#include "util/simd/kernels.h"
#include "workloads.h"

namespace tdbench {
namespace {

const char* const kWorkloads[] = {"build_data", "build_text_xc",
                                  "serve_lookup", "serve_scan"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/tdbench-out";
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "tdbench: %s\nusage: tdbench --workload <build_data|"
               "build_text_xc|serve_lookup|serve_scan|all> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>]\n",
               msg);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool known =
      a.workload == "all" ||
      std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) !=
          std::end(kWorkloads);
  if (!known) Usage("unknown workload");
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

void MakeDirs(const std::string& path) {
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    mkdir(path.substr(0, pos).c_str(), 0755);
  }
}

/// Host and build identity; two result files are comparable only when
/// every field but `commit` matches.
void WriteStamp(const Args& a, size_t threads,
                tdmatch::util::JsonWriter* w) {
  namespace simd = tdmatch::simd;
  w->Key("stamp").BeginObject()
      .Key("nproc").Value(static_cast<uint64_t>(
          std::thread::hardware_concurrency()))
      .Key("build_type").Value(TDBENCH_BUILD_TYPE)
      .Key("simd").Value(simd::IsaName(simd::ActiveIsa()))
      .Key("force_scalar").Value(simd::ForcedScalarByEnv())
      .Key("seed").Value(a.seed)
      .Key("seconds").Value(a.seconds)
      .Key("trace").Value(a.trace)
      .Key("pipeline_threads").Value(static_cast<uint64_t>(kBuildThreads))
      .Key("engine_threads").Value(static_cast<uint64_t>(kEngineThreads))
      .Key("http_workers").Value(static_cast<uint64_t>(threads))
      .Key("max_client_connections").Value(static_cast<uint64_t>(threads))
      .Key("commit").Value(a.commit)
      .EndObject();
}

void PrintReport(const WorkloadResult& r) {
  std::printf("== %s: %s (attempted %llu, failed %llu)\n",
              r.workload.c_str(), r.correct() ? "correct" : "CHECK FAILED",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const auto& [name, value] : r.metrics) {
    std::printf("   %-28s %16.6f %s\n", name.c_str(), value,
                UnitOf(name));
  }
  for (const PhaseCounts& p : r.phases) {
    std::printf("   phase %-16s rate %7.0f/s  sent %6llu  ok %6llu  "
                "refused %4llu  failed %4llu\n",
                p.phase.c_str(), p.rate,
                static_cast<unsigned long long>(p.sent),
                static_cast<unsigned long long>(p.succeeded),
                static_cast<unsigned long long>(p.refused),
                static_cast<unsigned long long>(p.failed));
  }
  for (const std::string& n : r.notes) std::printf("   note: %s\n", n.c_str());
  for (const std::string& f : r.check_failures) {
    std::printf("   CHECK FAILED: %s\n", f.c_str());
  }
}

void WriteResultFile(const Args& a, size_t threads, const WorkloadResult& r) {
  const std::string dir = a.out_dir + "/results";
  MakeDirs(dir);
  tdmatch::util::JsonWriter w;
  w.BeginObject().Key("workload").Value(r.workload);
  WriteStamp(a, threads, &w);
  w.Key("correct").Value(r.correct())
      .Key("attempted").Value(r.attempted)
      .Key("failed").Value(r.failed)
      .Key("metrics").BeginObject();
  for (const auto& [name, value] : r.metrics) {
    w.Key(name).BeginObject().Key("value").Value(value)
        .Key("unit").Value(UnitOf(name)).EndObject();
  }
  w.EndObject().Key("phases").BeginArray();
  for (const PhaseCounts& p : r.phases) {
    w.BeginObject().Key("phase").Value(p.phase).Key("rate").Value(p.rate)
        .Key("sent").Value(p.sent).Key("succeeded").Value(p.succeeded)
        .Key("refused").Value(p.refused).Key("failed").Value(p.failed)
        .EndObject();
  }
  w.EndArray().Key("check_failures").BeginArray();
  for (const std::string& f : r.check_failures) w.Value(f);
  w.EndArray().EndObject();
  const std::string path =
      dir + "/" + r.workload + "-seed" + std::to_string(a.seed) + "-trace" +
      (a.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", w.str().c_str());
    std::fclose(f);
  }
}

int Main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::string> names;
  if (a.workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    names.push_back(a.workload);
  }
  const std::vector<MetricSpec>& emitted = a.trace ? kPerLayer : kEndToEnd;

  std::vector<WorkloadResult> results;
  for (const std::string& name : names) {
    RunContext ctx;
    ctx.seed = a.seed;
    ctx.seconds = a.seconds;
    ctx.trace = a.trace;
    ctx.threads = threads;
    ctx.work_dir = a.out_dir + "/work";
    MakeDirs(ctx.work_dir);
    SpanLog spans(a.trace);
    ctx.spans = &spans;

    WorkloadResult r = name.rfind("build_", 0) == 0
                           ? RunBuildWorkload(name, ctx)
                           : RunServeWorkload(name, ctx);
    r.Set("error_rate", r.attempted == 0
                            ? 0.0
                            : static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted));
    // Layers a workload's path never calls read 0.
    for (const MetricSpec& m : emitted) r.metrics.emplace(m.name, 0.0);
    PrintReport(r);
    WriteResultFile(a, threads, r);
    if (a.trace) {
      MakeDirs(a.out_dir + "/traces");
      const std::string path = a.out_dir + "/traces/" + name + "-seed" +
                               std::to_string(a.seed) + ".jsonl";
      auto st = spans.WriteJsonl(path, name);
      if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    }
    results.push_back(std::move(r));
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const WorkloadResult& r : results) {
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
  }
  tdmatch::util::JsonWriter last;
  last.BeginObject()
      .Key("correct").Value(correct)
      .Key("attempted").Value(attempted)
      .Key("failed").Value(failed)
      .Key("metrics").BeginObject();
  for (const WorkloadResult& r : results) {
    for (const MetricSpec& m : emitted) {
      // A single workload names its metrics bare; "all" prefixes them.
      const std::string key =
          results.size() == 1 ? m.name : r.workload + "." + m.name;
      last.Key(key).BeginObject().Key("value").Value(r.metrics.at(m.name))
          .Key("unit").Value(m.unit).EndObject();
    }
  }
  last.EndObject().EndObject();
  std::printf("%s\n", last.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tdbench

int main(int argc, char** argv) { return tdbench::Main(argc, argv); }
