// Tests of the benchmark's pure helpers (stats.h, trace.h). Self-contained:
// prints each failure and exits non-zero if any check fails.
//
//   .bench_build/tdbench/tdbench_stats_test
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-9,
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

using namespace tdbench;  // NOLINT

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  ExpectNear(Percentile(v, 0.5), 50, "p50 of 1..100");
  ExpectNear(Percentile(v, 0.99), 99, "p99 of 1..100");
  ExpectNear(Percentile(v, 1.0), 100, "p100 of 1..100");
  ExpectNear(Percentile(v, 0.0), 1, "p0 of 1..100");
  ExpectNear(Percentile({7.0}, 0.99), 7, "p99 of one sample");
  ExpectNear(Percentile({}, 0.5), 0, "empty sample");
  // Nearest rank: p99 of fewer than 100 samples is the largest one.
  ExpectNear(Percentile({3, 1, 2, 5, 4}, 0.99), 5, "p99 of 5 samples");
  ExpectNear(Median({4, 1, 3, 2}), 2, "median of an even sample");
  ExpectNear(Mean({1, 2, 3, 6}), 3, "mean");
}

void TestSamplesBeyond() {
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  Expect(SamplesBeyond(100, 0.5) == 50, "100 samples: 50 beyond p50");
  Expect(SamplesBeyond(5, 0.99) == 0, "5 samples: none beyond p99");
  Expect(SamplesBeyond(0, 0.99) == 0, "empty sample");
}

void TestDueTimeArithmetic() {
  ExpectNear(DueMs(0, 200), 0, "first request due at start");
  ExpectNear(DueMs(3, 200), 15, "200/s: request 3 due at 15 ms");
  ExpectNear(DueMs(1000, 4000), 250, "4000/s: request 1000 at 250 ms");
  // Sent late behind a stall: latency counts from due, not from send.
  ExpectNear(LatencyFromDueMs(10.0, 14.5), 4.5, "latency from due");
  // Idle thread, woke 0.2 ms late: generator lag.
  ExpectNear(GeneratorLagMs(10.0, 10.2, 9.0), 0.2, "sleep overshoot");
  // Thread still busy with the previous request when this one fell due:
  // the wait is queueing, not generator lag.
  ExpectNear(GeneratorLagMs(10.0, 12.0, 12.0), 0.0, "busy thread");
  // Sent early never counts as negative lag.
  ExpectNear(GeneratorLagMs(10.0, 9.9, 5.0), 0.0, "no negative lag");
}

void TestBacklog() {
  std::vector<double> steady(40, 0.05);
  Expect(!BacklogGrowing(steady, 5.0), "steady lateness is no backlog");
  std::vector<double> growing;
  for (int i = 0; i < 40; ++i) growing.push_back(0.5 * i);  // 0..19.5 ms
  Expect(BacklogGrowing(growing, 5.0), "lateness rising 0->20 ms grows");
  Expect(!BacklogGrowing(growing, 50.0), "within a wide tolerance");
  // One late straggler in the last quarter does not move the median.
  std::vector<double> blip(40, 0.1);
  blip[38] = 100.0;
  Expect(!BacklogGrowing(blip, 5.0), "a single straggler");
  Expect(!BacklogGrowing({0, 100, 200}, 5.0), "too few requests");
}

void TestGoodput() {
  Expect(RungPasses({100, 1.9, false, 0}, 2.0), "p99 within the limit");
  Expect(!RungPasses({100, 2.1, false, 0}, 2.0), "p99 over the limit");
  Expect(!RungPasses({100, 0.5, true, 0}, 2.0), "growing backlog fails");
  Expect(!RungPasses({100, 0.5, false, 1}, 2.0), "a refused request fails");

  const std::vector<double> ladder = GeometricLadder(100, 2, 6);
  Expect(ladder == std::vector<double>({100, 200, 400, 800, 1600, 3200}),
         "geometric ladder");
  for (double capacity : {50.0, 100.0, 150.0, 799.0, 800.0, 5000.0}) {
    std::vector<double> tried;
    auto passes = [&](double rate) {
      tried.push_back(rate);
      return rate <= capacity;
    };
    const double want = capacity < 100 ? 0 : std::min(capacity, 3200.0);
    const double got = SearchLadder(ladder, passes);
    Expect(got <= want && (want == 0 || got * 2 > want),
           "ladder search for capacity " + std::to_string(capacity) +
               ": got " + std::to_string(got));
    Expect(tried.size() <= 4, "binary search tries at most 1 + log2(6)");
  }
  ExpectNear(SearchLadder(ladder, [](double r) { return r <= 800; }), 800,
             "highest passing rung");
  ExpectNear(SearchLadder({}, [](double) { return true; }), 0, "no ladder");
}

void TestWindowedPercentile() {
  // Four windows of 100; one burst window with a huge tail.
  std::vector<double> v;
  for (int w = 0; w < 4; ++w) {
    for (int i = 1; i <= 100; ++i) v.push_back(w == 2 ? 1000.0 : i);
  }
  ExpectNear(Percentile(v, 0.99), 1000, "plain p99 owned by the burst");
  ExpectNear(WindowedPercentile(v, 0.99, 100), 99, "median of window p99s");
  ExpectNear(WindowedPercentile(v, 0.99, 300), Percentile(v, 0.99),
             "fewer than two windows: plain percentile");
  // The last window absorbs the remainder.
  std::vector<double> odd(250, 1.0);
  odd.back() = 7.0;
  ExpectNear(WindowedPercentile(odd, 1.0, 100), 1.0,
             "two windows of 125: lower median of 1 and 7");
}

void TestSelfTime() {
  // root [0,100) with children a [10,40) and b [30,60) overlapping, and a
  // grandchild c [15,25) under a; d [90,120) sticks out of root.
  std::vector<SpanInterval> spans = {{1, 0, 0, 100},
                                     {2, 1, 10, 40},
                                     {3, 1, 30, 60},
                                     {4, 2, 15, 25},
                                     {5, 1, 90, 120}};
  const std::vector<double> self = SelfTimesMs(spans);
  // Root: children cover [10,60) and [90,100) => 60 ms covered.
  ExpectNear(self[0], 40, "root self time");
  ExpectNear(self[1], 20, "a minus its grandchild");
  ExpectNear(self[2], 30, "b has no children");
  ExpectNear(self[3], 10, "leaf");
  ExpectNear(self[4], 30, "d has no children");

  // The same rule through the span store: totals by name.
  std::vector<Span> named = {{"request", 1, 0, 7, 0, 10},
                             {"http.roundtrip", 2, 1, 7, 2, 10},
                             {"service.handle", 3, 2, 7, 4, 8}};
  const auto totals = TotalsByName(named);
  ExpectNear(totals.at("request").self_ms, 2, "queue wait before send");
  ExpectNear(totals.at("http.roundtrip").self_ms, 4, "transport");
  ExpectNear(totals.at("service.handle").self_ms, 4, "handler");
  ExpectNear(totals.at("request").total_ms, 10, "request total");
}

}  // namespace

int main() {
  TestPercentile();
  TestSamplesBeyond();
  TestDueTimeArithmetic();
  TestBacklog();
  TestGoodput();
  TestWindowedPercentile();
  TestSelfTime();
  if (failures == 0) std::printf("tdbench_stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
