// Tests for the continuous-observability layer: the sampling CPU
// profiler and its folded/JSON renderings, Registry::Collect, the
// time-series metric history (ring wrap, retention, rate math), the
// windowed-count ring (revolutions, late adds, concurrent first touches),
// the SLO burn-rate tracker (healthy -> fast-burn -> recovery on a fake
// clock), and the JSONL logger's file sink with keep-one rotation.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/json.h"
#include "util/obs/jsonlog.h"
#include "util/obs/metrics.h"
#include "util/obs/profiler.h"
#include "util/obs/slo.h"
#include "util/obs/timeseries.h"

// The profiler's SIGPROF handler walks raw frame pointers; sanitizer
// runtimes intercept signals and object to reads the handler knows are
// safe. Capture tests are skipped under TSan/ASan (the pure aggregation
// and rendering tests still run).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define TDMATCH_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define TDMATCH_TEST_UNDER_SANITIZER 1
#endif
#endif
#ifndef TDMATCH_TEST_UNDER_SANITIZER
#define TDMATCH_TEST_UNDER_SANITIZER 0
#endif

// A recognizable hot function for the capture test. extern "C" +
// noinline: the symbol survives mangling and inlining, so `dladdr`
// (via -rdynamic) must be able to name it in the folded stacks.
extern "C" __attribute__((noinline)) double TdmatchObsTestSpinHot(
    uint64_t rounds) {
  volatile double acc = 0.0;
  for (uint64_t i = 0; i < rounds; ++i) {
    acc = acc + static_cast<double>(i % 1000) * 1e-9;
  }
  return acc;
}

namespace tdmatch {
namespace {

using util::obs::CpuProfile;
using util::obs::CpuProfiler;
using util::obs::JsonLogger;
using util::obs::MetricType;
using util::obs::Registry;
using util::obs::SloOptions;
using util::obs::SloTracker;
using util::obs::TimeSeriesOptions;
using util::obs::TimeSeriesSampler;
using util::obs::TimeSeriesStore;
using util::obs::WindowedCounts;

// ---------------------------------------------------------------------------
// CpuProfile rendering (pure; no capture involved)
// ---------------------------------------------------------------------------

CpuProfile MakeProfile() {
  CpuProfile p;
  p.hz = 99;
  p.seconds = 2.0;
  p.samples = 10;
  p.dropped = 1;
  p.stacks = {{"main;Run;HotLoop", 6},
              {"main;Run;ColdPath", 3},
              {"main;Idle", 1}};
  return p;
}

TEST(CpuProfileTest, FoldedTextIsFlamegraphInput) {
  const CpuProfile p = MakeProfile();
  EXPECT_EQ(p.FoldedText(),
            "main;Run;HotLoop 6\n"
            "main;Run;ColdPath 3\n"
            "main;Idle 1\n");
}

TEST(CpuProfileTest, ToJsonRanksBySelfSamples) {
  const CpuProfile p = MakeProfile();
  auto doc = util::JsonParse(p.ToJson(2));
  ASSERT_TRUE(doc.ok()) << p.ToJson(2);
  EXPECT_EQ(doc->Find("hz")->number_value(), 99.0);
  EXPECT_EQ(doc->Find("samples")->number_value(), 10.0);
  EXPECT_EQ(doc->Find("dropped")->number_value(), 1.0);
  EXPECT_EQ(doc->Find("distinct_stacks")->number_value(), 3.0);
  const util::JsonValue* top = doc->Find("top");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->items().size(), 2u);  // top_n honored
  // HotLoop leads: 6 of its samples are leaf ("self") samples.
  const util::JsonValue& first = top->items()[0];
  EXPECT_EQ(first.Find("function")->string_value(), "HotLoop");
  EXPECT_EQ(first.Find("self")->number_value(), 6.0);
  const util::JsonValue& second = top->items()[1];
  EXPECT_EQ(second.Find("function")->string_value(), "ColdPath");
  EXPECT_EQ(second.Find("self")->number_value(), 3.0);
}

TEST(CpuProfileTest, EmptyProfileRendersEmpty) {
  CpuProfile p;
  EXPECT_EQ(p.FoldedText(), "");
  auto doc = util::JsonParse(p.ToJson());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("samples")->number_value(), 0.0);
}

// ---------------------------------------------------------------------------
// CPU profiler capture
// ---------------------------------------------------------------------------

TEST(CpuProfilerTest, SecondStartIsAlreadyExists) {
  if (!CpuProfiler::Supported() || TDMATCH_TEST_UNDER_SANITIZER) {
    GTEST_SKIP() << "profiler capture not supported in this build";
  }
  CpuProfiler& prof = CpuProfiler::Global();
  ASSERT_TRUE(prof.Start(99).ok());
  EXPECT_TRUE(prof.running());
  EXPECT_TRUE(prof.Start(99).IsAlreadyExists());
  const CpuProfile p = prof.Stop();
  EXPECT_FALSE(prof.running());
  EXPECT_EQ(p.hz, 99);
}

TEST(CpuProfilerTest, CapturesSpinWorkloadWithNamedHotFrame) {
  if (!CpuProfiler::Supported() || TDMATCH_TEST_UNDER_SANITIZER) {
    GTEST_SKIP() << "profiler capture not supported in this build";
  }
  // Burn CPU in a recognizable function on background threads while the
  // profiler samples process CPU time at 500 Hz.
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  for (int t = 0; t < 2; ++t) {
    spinners.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        TdmatchObsTestSpinHot(200000);
      }
    });
  }
  auto profile = CpuProfiler::Global().ProfileFor(0.8, 500);
  stop.store(true);
  for (auto& t : spinners) t.join();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_GT(profile->samples, 10u)
      << "spin workload yielded almost no samples";
  EXPECT_NE(profile->FoldedText().find("TdmatchObsTestSpinHot"),
            std::string::npos)
      << profile->FoldedText().substr(0, 2000);
  // The hot function dominates: it must appear in the JSON top table.
  EXPECT_NE(profile->ToJson(5).find("TdmatchObsTestSpinHot"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Registry::Collect
// ---------------------------------------------------------------------------

TEST(RegistryCollectTest, EmitsScalarsAndFlattensHistograms) {
  Registry reg;
  reg.GetCounter("c_total", "h")->Inc(7);
  reg.GetGauge("g", "h", {{"shard", "0"}})->Set(2.5);
  reg.RegisterCallback(MetricType::kGauge, "cb", "h", {}, [] { return 4.0; });
  auto* hist = reg.GetHistogram("lat_ms", "h", {1.0, 10.0});
  hist->Observe(0.5);
  hist->Observe(5.0);

  const std::vector<Registry::Sample> samples = reg.Collect();
  auto find = [&](const std::string& name) -> const Registry::Sample* {
    for (const auto& s : samples) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  ASSERT_NE(find("c_total"), nullptr);
  EXPECT_EQ(find("c_total")->value, 7.0);
  EXPECT_EQ(find("c_total")->type, MetricType::kCounter);
  ASSERT_NE(find("g"), nullptr);
  EXPECT_EQ(find("g")->value, 2.5);
  EXPECT_EQ(find("g")->labels, "{shard=\"0\"}");
  ASSERT_NE(find("cb"), nullptr);
  EXPECT_EQ(find("cb")->value, 4.0);
  // Histogram flattens to _count (counter) + _sum (gauge).
  ASSERT_NE(find("lat_ms_count"), nullptr);
  EXPECT_EQ(find("lat_ms_count")->value, 2.0);
  EXPECT_EQ(find("lat_ms_count")->type, MetricType::kCounter);
  ASSERT_NE(find("lat_ms_sum"), nullptr);
  EXPECT_EQ(find("lat_ms_sum")->value, 5.5);
}

// ---------------------------------------------------------------------------
// Time-series history
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, WindowComputesDeltaAndRate) {
  Registry reg;
  auto* queries = reg.GetCounter("q_total", "h");
  TimeSeriesOptions opts;
  opts.interval_seconds = 1.0;
  opts.capacity = 10;
  TimeSeriesStore store(&reg, opts);

  // 10 qps for 5 fake seconds.
  for (int t = 0; t <= 5; ++t) {
    queries->Inc(t == 0 ? 0 : 10);
    store.SampleOnce(100.0 + t);
  }
  const auto window = store.Window(5.0, 105.0);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].name, "q_total");
  EXPECT_EQ(window[0].points.size(), 5u);  // (100, 105] excludes t=100
  EXPECT_EQ(window[0].last, 50.0);
  EXPECT_EQ(window[0].delta, 40.0);  // 10 -> 50 across the window
  EXPECT_NEAR(window[0].rate_per_sec, 10.0, 1e-9);
}

TEST(TimeSeriesTest, RingWrapsAndRetainsNewestPoints) {
  Registry reg;
  auto* g = reg.GetGauge("v", "h");
  TimeSeriesOptions opts;
  opts.capacity = 4;
  TimeSeriesStore store(&reg, opts);
  for (int t = 0; t < 10; ++t) {
    g->Set(static_cast<double>(t));
    store.SampleOnce(static_cast<double>(t));
  }
  // Only the newest `capacity` points survive, oldest first.
  const auto window = store.Window(100.0, 9.0);
  ASSERT_EQ(window.size(), 1u);
  ASSERT_EQ(window[0].points.size(), 4u);
  EXPECT_EQ(window[0].points.front().value, 6.0);
  EXPECT_EQ(window[0].points.back().value, 9.0);
  EXPECT_EQ(window[0].delta, 3.0);  // gauge delta = last - first
  EXPECT_EQ(store.samples_taken(), 10u);
}

TEST(TimeSeriesTest, CounterResetClampsDeltaToLastValue) {
  Registry reg;
  TimeSeriesOptions opts;
  opts.capacity = 8;
  TimeSeriesStore store(&reg, opts);
  // Simulate a counter reset (process restart behind the same series
  // key) with a counter-typed callback that drops from 100 to 5: a raw
  // first-to-last delta would be negative.
  double value = 100.0;
  reg.RegisterCallback(MetricType::kCounter, "r_total", "h", {},
                       [&value] { return value; });
  store.SampleOnce(1.0);
  value = 5.0;
  store.SampleOnce(2.0);
  const auto w = store.Window(10.0, 2.0);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].last, 5.0);
  EXPECT_EQ(w[0].delta, 5.0);  // clamped to the post-reset value
  EXPECT_NEAR(w[0].rate_per_sec, 5.0, 1e-9);
}

TEST(TimeSeriesTest, PrefixFiltersBothAtSampleAndQueryTime) {
  Registry reg;
  reg.GetCounter("tdmatch_a_total", "h")->Inc(1);
  reg.GetCounter("other_b_total", "h")->Inc(1);
  TimeSeriesOptions opts;
  opts.name_prefix = "tdmatch_";
  TimeSeriesStore store(&reg, opts);
  store.SampleOnce(1.0);
  EXPECT_EQ(store.series_count(), 1u);
  const auto all = store.Window(10.0, 1.0);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].name, "tdmatch_a_total");
  EXPECT_TRUE(store.Window(10.0, 1.0, "other_").empty());
}

TEST(TimeSeriesTest, MemoryBytesIsCapacityDeterministic) {
  Registry reg;
  reg.GetCounter("a_total", "h")->Inc(1);
  reg.GetCounter("b_total", "h")->Inc(1);
  TimeSeriesOptions opts;
  opts.capacity = 100;
  TimeSeriesStore store(&reg, opts);
  store.SampleOnce(1.0);
  const size_t two_series = store.MemoryBytes();
  EXPECT_GE(two_series, 2 * 100 * sizeof(TimeSeriesStore::Point));
  // More samples do not grow the rings.
  for (int t = 2; t < 50; ++t) store.SampleOnce(static_cast<double>(t));
  EXPECT_EQ(store.MemoryBytes(), two_series);
}

TEST(TimeSeriesTest, BackgroundSamplerTakesSamples) {
  Registry reg;
  reg.GetCounter("x_total", "h")->Inc(1);
  TimeSeriesOptions opts;
  opts.interval_seconds = 0.01;
  TimeSeriesStore store(&reg, opts);
  TimeSeriesSampler sampler(&store);
  sampler.Start();
  sampler.Start();  // idempotent
  EXPECT_TRUE(sampler.running());
  for (int i = 0; i < 200 && store.samples_taken() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(store.samples_taken(), 3u);
  const uint64_t after_stop = store.samples_taken();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(store.samples_taken(), after_stop);
}

// ---------------------------------------------------------------------------
// WindowedCounts
// ---------------------------------------------------------------------------

TEST(WindowedCountsTest, WindowsSumTheirBucketsOnly) {
  WindowedCounts ring(2, 1.0, 4.0);
  ring.Add(0.5, 0);
  ring.Add(1.5, 0, 3);
  ring.Add(2.5, 1, 2);
  ring.Add(-1.0, 0);  // before the clock's origin: dropped
  EXPECT_EQ(ring.Window(2.5, 1.0), (std::vector<uint64_t>{3, 2}));
  EXPECT_EQ(ring.Window(2.5, 4.0), (std::vector<uint64_t>{4, 2}));
  EXPECT_EQ(ring.Sum(1, 1), (std::vector<uint64_t>{3, 0}));
  EXPECT_EQ(ring.Epoch(2.5), 2);
}

TEST(WindowedCountsTest, StaleAndLateTalliesNeverReachAWindow) {
  // 4 s span at 1 s: 5 buckets, so epochs 0 and 5 share a slot.
  WindowedCounts ring(1, 1.0, 4.0);
  ring.Add(0.5, 0, 7);
  ring.Add(5.5, 0, 1);  // a revolution later: restarts the slot at 1
  EXPECT_EQ(ring.Sum(5, 5)[0], 1u);
  EXPECT_EQ(ring.Sum(0, 0)[0], 0u) << "older than the ring";
  ring.Add(0.5, 0, 7);  // a revolution late: dropped, not merged
  EXPECT_EQ(ring.Sum(5, 5)[0], 1u);
  EXPECT_EQ(ring.Window(5.5, 10.0)[0], 1u);
}

TEST(WindowedCountsTest, ConcurrentAddsAcrossBucketBoundariesSumExactly) {
  // Every thread crosses each bucket boundary together (a barrier per
  // epoch), adding alternately to the bucket just left and the one just
  // entered, so first touches of a fresh bucket race with adds into it.
  // A ring that reset a bucket on first touch could erase those adds.
  constexpr int kThreads = 4;
  constexpr int kEpochs = 64;
  constexpr int kAddsPerEpoch = 200;
  WindowedCounts ring(2, 1.0, kEpochs);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int e = 1; e <= kEpochs; ++e) {
        arrived.fetch_add(1);
        while (arrived.load() < e * kThreads) std::this_thread::yield();
        for (int i = 0; i < kAddsPerEpoch; ++i) {
          const double now = (i % 2 == 0 ? e : e - 1) + 0.5;
          ring.Add(now, static_cast<size_t>((i + t) % 2));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::vector<uint64_t> sums = ring.Sum(0, kEpochs);
  EXPECT_EQ(sums[0] + sums[1],
            static_cast<uint64_t>(kThreads) * kEpochs * kAddsPerEpoch);
  EXPECT_EQ(sums[0], sums[1]);
}

TEST(WindowedCountsTest, WindowPercentileMatchesTheLifetimeEstimator) {
  // One estimator serves both: a window holding a histogram's whole
  // stream reports the histogram's own percentiles.
  util::obs::Histogram lifetime(util::obs::Histogram::LatencyBoundsMs());
  const std::vector<double>& bounds = lifetime.bounds();
  WindowedCounts ring(bounds.size() + 1, 1.0, 10.0);
  for (int i = 0; i < 1000; ++i) {
    const double ms = 0.01 * (i % 97) + (i % 13 == 0 ? 40.0 : 0.0);
    ring.Add(i / 100.0, lifetime.Observe(ms));
  }
  const std::vector<uint64_t> window = ring.Window(9.99, 10.0);
  for (double p : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(util::obs::BucketPercentile(bounds, window.data(), p),
              lifetime.Percentile(p))
        << "p=" << p;
  }
}

// ---------------------------------------------------------------------------
// SLO burn-rate tracking
// ---------------------------------------------------------------------------

SloOptions TestSloOptions() {
  SloOptions o;
  o.availability_target = 0.999;
  o.latency_target = 0.999;
  o.latency_budget_ms = 50.0;
  o.fast = {10.0, 60.0, 14.4};
  o.slow = {60.0, 300.0, 6.0};
  return o;
}

TEST(SloTrackerTest, HealthyTrafficDoesNotBurn) {
  SloTracker slo(TestSloOptions());
  for (int t = 0; t < 120; ++t) {
    for (int i = 0; i < 10; ++i) {
      slo.Record(static_cast<double>(t), true, true);
    }
  }
  EXPECT_FALSE(slo.Degraded(120.0));
  const auto status = slo.Evaluate(120.0);
  ASSERT_EQ(status.size(), 2u);  // availability + latency (budget > 0)
  EXPECT_EQ(status[0].name, "availability");
  EXPECT_EQ(status[1].name, "latency");
  for (const auto& obj : status) {
    EXPECT_FALSE(obj.fast_burning);
    EXPECT_FALSE(obj.slow_burning);
    EXPECT_EQ(obj.fast_short.bad, 0u);
    EXPECT_NEAR(obj.budget_remaining, 1.0, 1e-9);
  }
}

TEST(SloTrackerTest, FastBurnFiresAndRecovers) {
  SloTracker slo(TestSloOptions());
  double now = 0.0;
  // Phase 1: 120 s of clean traffic.
  for (; now < 120.0; now += 1.0) {
    for (int i = 0; i < 10; ++i) slo.Record(now, true, true);
  }
  EXPECT_FALSE(slo.Degraded(now));

  // Phase 2: a 5xx storm — 50% errors is a burn rate of 500x the 0.1%
  // budget, far past the 14.4 fast threshold on both fast windows.
  for (; now < 180.0; now += 1.0) {
    for (int i = 0; i < 10; ++i) slo.Record(now, i % 2 == 0, true);
  }
  EXPECT_TRUE(slo.Degraded(now));
  auto status = slo.Evaluate(now);
  EXPECT_TRUE(status[0].fast_burning);
  EXPECT_GT(status[0].fast_short.burn_rate, 14.4);
  EXPECT_GT(status[0].fast_long.burn_rate, 14.4);
  EXPECT_LT(status[0].budget_remaining, 1.0);
  // The latency objective saw only good latency events.
  EXPECT_FALSE(status[1].fast_burning);

  // Phase 3: recovery. The short fast window (10 s) clears quickly even
  // though the 60 s long window still remembers the storm — then both do.
  for (; now < 260.0; now += 1.0) {
    for (int i = 0; i < 10; ++i) slo.Record(now, true, true);
  }
  EXPECT_FALSE(slo.Degraded(now));
  status = slo.Evaluate(now);
  EXPECT_FALSE(status[0].fast_burning);
}

TEST(SloTrackerTest, LatencyObjectiveBurnsIndependently) {
  SloTracker slo(TestSloOptions());
  double now = 0.0;
  for (; now < 60.0; now += 1.0) {
    // Available but slow: every request misses the latency budget.
    for (int i = 0; i < 10; ++i) slo.Record(now, true, false);
  }
  EXPECT_TRUE(slo.Degraded(now));
  const auto status = slo.Evaluate(now);
  EXPECT_FALSE(status[0].fast_burning) << "availability is clean";
  EXPECT_TRUE(status[1].fast_burning) << "latency should burn";
}

TEST(SloTrackerTest, NoLatencyBudgetMeansAvailabilityOnly) {
  SloOptions o = TestSloOptions();
  o.latency_budget_ms = 0.0;
  SloTracker slo(o);
  slo.Record(1.0, true, true);
  const auto status = slo.Evaluate(1.0);
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].name, "availability");
}

TEST(SloTrackerTest, StaleBucketsDoNotLeakAcrossRingRevolutions) {
  SloTracker slo(TestSloOptions());
  // Write a bad burst, then jump the clock far past one full ring
  // revolution: the old tallies' epochs no longer match any window.
  for (int i = 0; i < 100; ++i) slo.Record(5.0, false, false);
  EXPECT_TRUE(slo.Degraded(6.0));
  const double later = 5.0 + 400.0 * 3;
  slo.Record(later, true, true);
  EXPECT_FALSE(slo.Degraded(later));
  const auto status = slo.Evaluate(later);
  EXPECT_EQ(status[0].fast_short.bad, 0u);
  EXPECT_EQ(status[0].slow_long.bad, 0u);
}

// ---------------------------------------------------------------------------
// JSONL file sink + rotation
// ---------------------------------------------------------------------------

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(JsonLogFileTest, WritesLinesAndRotatesKeepOne) {
  const std::string path = ::testing::TempDir() + "/obs_cont_log.jsonl";
  const std::string rotated = path + ".1";
  std::remove(path.c_str());
  std::remove(rotated.c_str());
  {
    JsonLogger log;
    // Each line is ~60 bytes; rotate every ~4 lines.
    ASSERT_TRUE(log.OpenFile(path, 256).ok());
    for (int i = 0; i < 20; ++i) {
      log.Log(util::obs::LogLevel::kInfo, "tick").Int("i", i);
    }
    EXPECT_GE(log.rotations(), 2u);
    log.CloseFile();
  }
  const std::string current = ReadFileOrEmpty(path);
  const std::string previous = ReadFileOrEmpty(rotated);
  ASSERT_FALSE(current.empty());
  ASSERT_FALSE(previous.empty());
  EXPECT_LE(previous.size(), 256u + 128u);  // one line of slack
  // Every retained line is valid JSON with the expected event.
  int lines = 0;
  for (const std::string& blob : {current, previous}) {
    std::istringstream in(blob);
    std::string line;
    while (std::getline(in, line)) {
      auto doc = util::JsonParse(line);
      ASSERT_TRUE(doc.ok()) << line;
      EXPECT_EQ(doc->Find("event")->string_value(), "tick");
      ++lines;
    }
  }
  EXPECT_GT(lines, 4);
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

TEST(JsonLogFileTest, AppendsAndResumesByteAccounting) {
  const std::string path = ::testing::TempDir() + "/obs_cont_append.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  {
    JsonLogger log;
    ASSERT_TRUE(log.OpenFile(path).ok());  // max_bytes 0: never rotate
    log.Log(util::obs::LogLevel::kInfo, "first");
  }  // destructor closes the file
  {
    JsonLogger log;
    ASSERT_TRUE(log.OpenFile(path).ok());
    log.Log(util::obs::LogLevel::kInfo, "second");
    EXPECT_EQ(log.rotations(), 0u);
    log.CloseFile();
  }
  const std::string blob = ReadFileOrEmpty(path);
  EXPECT_NE(blob.find("\"event\":\"first\""), std::string::npos);
  EXPECT_NE(blob.find("\"event\":\"second\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(JsonLogFileTest, ExplicitSinkStillWinsOverFile) {
  const std::string path = ::testing::TempDir() + "/obs_cont_sink.jsonl";
  std::remove(path.c_str());
  JsonLogger log;
  ASSERT_TRUE(log.OpenFile(path).ok());
  std::vector<std::string> lines;
  log.set_sink([&lines](const std::string& line) { lines.push_back(line); });
  log.Log(util::obs::LogLevel::kInfo, "routed");
  EXPECT_EQ(lines.size(), 1u);
  log.CloseFile();
  EXPECT_EQ(ReadFileOrEmpty(path), "");
  std::remove(path.c_str());
}

TEST(JsonLogFileTest, OpenFileOnBadPathFails) {
  JsonLogger log;
  EXPECT_FALSE(log.OpenFile("/nonexistent-dir-xyz/log.jsonl").ok());
  // The logger stays usable (falls back to stderr/sink).
  std::vector<std::string> lines;
  log.set_sink([&lines](const std::string& line) { lines.push_back(line); });
  log.Log(util::obs::LogLevel::kInfo, "still_alive");
  EXPECT_EQ(lines.size(), 1u);
}

}  // namespace
}  // namespace tdmatch
