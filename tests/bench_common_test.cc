// Tests for the shared bench runner: CLI parsing (bench_cli), JSON row
// formatting (bench_reporter), and scale/seed/filter-aware scenario
// generation (bench_common).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_cli.h"
#include "bench_common.h"
#include "bench_reporter.h"

namespace tdmatch {
namespace bench {
namespace {

// ---------------------------------------------------------------- CLI ----

TEST(BenchCliTest, DefaultsWhenNoFlags) {
  auto opts = ParseBenchArgs({});
  ASSERT_TRUE(opts.ok());
  EXPECT_TRUE(opts->table());
  EXPECT_FALSE(opts->json());
  EXPECT_EQ(opts->scale, Scale::kSweep);
  EXPECT_EQ(opts->seed, 0u);
  EXPECT_TRUE(opts->out_path.empty());
  EXPECT_TRUE(opts->filter.empty());
  EXPECT_FALSE(opts->help);
}

TEST(BenchCliTest, ParsesAllFlagsTogether) {
  auto opts = ParseBenchArgs({"--json", "--scale", "smoke", "--seed", "123",
                              "--out", "rows.jsonl", "--filter", "IMDb|Coro"});
  ASSERT_TRUE(opts.ok());
  EXPECT_TRUE(opts->json());
  EXPECT_EQ(opts->scale, Scale::kSmoke);
  EXPECT_EQ(opts->seed, 123u);
  EXPECT_EQ(opts->out_path, "rows.jsonl");
  EXPECT_EQ(opts->filter, "IMDb|Coro");
}

TEST(BenchCliTest, ParsesEqualsSyntax) {
  auto opts = ParseBenchArgs({"--scale=full", "--seed=7", "--out=x.jsonl",
                              "--filter=Audit"});
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->scale, Scale::kFull);
  EXPECT_EQ(opts->seed, 7u);
  EXPECT_EQ(opts->out_path, "x.jsonl");
  EXPECT_EQ(opts->filter, "Audit");
}

TEST(BenchCliTest, TableOverridesJson) {
  auto opts = ParseBenchArgs({"--json", "--table"});
  ASSERT_TRUE(opts.ok());
  EXPECT_TRUE(opts->table());
}

TEST(BenchCliTest, ParsesHelp) {
  auto opts = ParseBenchArgs({"-h"});
  ASSERT_TRUE(opts.ok());
  EXPECT_TRUE(opts->help);
}

TEST(BenchCliTest, RejectsUnknownFlag) {
  auto opts = ParseBenchArgs({"--bogus"});
  ASSERT_FALSE(opts.ok());
  EXPECT_TRUE(opts.status().IsInvalidArgument());
}

TEST(BenchCliTest, RejectsBadScale) {
  auto opts = ParseBenchArgs({"--scale", "gigantic"});
  ASSERT_FALSE(opts.ok());
  EXPECT_TRUE(opts.status().IsInvalidArgument());
}

TEST(BenchCliTest, RejectsMissingValue) {
  EXPECT_FALSE(ParseBenchArgs({"--scale"}).ok());
  EXPECT_FALSE(ParseBenchArgs({"--seed"}).ok());
  EXPECT_FALSE(ParseBenchArgs({"--out"}).ok());
  EXPECT_FALSE(ParseBenchArgs({"--filter"}).ok());
}

TEST(BenchCliTest, RejectsBadSeed) {
  EXPECT_FALSE(ParseBenchArgs({"--seed", "abc"}).ok());
  EXPECT_FALSE(ParseBenchArgs({"--seed", "-1"}).ok());
  EXPECT_FALSE(ParseBenchArgs({"--seed", "12x"}).ok());
  EXPECT_FALSE(ParseBenchArgs({"--seed", ""}).ok());
}

TEST(BenchCliTest, RejectsInvalidFilterRegex) {
  auto opts = ParseBenchArgs({"--filter", "["});
  ASSERT_FALSE(opts.ok());
  EXPECT_TRUE(opts.status().IsInvalidArgument());
}

TEST(BenchCliTest, RejectsValueOnBooleanFlag) {
  EXPECT_FALSE(ParseBenchArgs({"--json=1"}).ok());
}

TEST(BenchCliTest, FilterMatchesAsUnanchoredRegex) {
  BenchOptions opts;
  EXPECT_TRUE(opts.Matches("anything"));  // empty filter matches all
  opts.filter = "IMDb|Audit";
  EXPECT_TRUE(opts.Matches("IMDb-WT"));
  EXPECT_TRUE(opts.Matches("Audit"));
  EXPECT_FALSE(opts.Matches("Snopes"));
}

TEST(BenchCliDeathTest, BadInputExitsNonzero) {
  char prog[] = "bench";
  char flag[] = "--definitely-not-a-flag";
  char* argv[] = {prog, flag};
  EXPECT_EXIT(ParseArgsOrExit(2, argv), ::testing::ExitedWithCode(2),
              "unknown flag");
}

TEST(BenchCliDeathTest, HelpExitsZero) {
  char prog[] = "bench";
  char flag[] = "--help";
  char* argv[] = {prog, flag};
  EXPECT_EXIT(ParseArgsOrExit(2, argv), ::testing::ExitedWithCode(0), "");
}

// --------------------------------------------------------------- JSON ----

TEST(BenchJsonTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(BenchJsonTest, FormatsRow) {
  BenchRow row{"IMDb", "walk_length=20", "map@5", 0.5, 0.25};
  EXPECT_EQ(FormatJsonRow("fig6_walk_length", row),
            "{\"bench\":\"fig6_walk_length\",\"scenario\":\"IMDb\","
            "\"parameter\":\"walk_length=20\",\"metric\":\"map@5\","
            "\"value\":0.5,\"wall_seconds\":0.25}");
}

TEST(BenchJsonTest, NonFiniteValuesSerialiseAsNull) {
  BenchRow row{"s", "p", "m", std::numeric_limits<double>::quiet_NaN(), 0.5};
  const std::string json = FormatJsonRow("b", row);
  EXPECT_NE(json.find("\"value\":null"), std::string::npos);
  row.value = std::numeric_limits<double>::infinity();
  EXPECT_NE(FormatJsonRow("b", row).find("\"value\":null"),
            std::string::npos);
}

TEST(BenchReporterTest, WritesJsonLinesToOutFile) {
  const std::string path =
      ::testing::TempDir() + "/bench_reporter_test_rows.jsonl";
  BenchOptions opts;
  opts.out_path = path;
  {
    BenchReporter rep("unit_bench", opts);
    rep.Add("S1", "p=1", "m", 1.0, 0.1);
    rep.Add("S2", "p=2", "m", 2.0, 0.2);
    EXPECT_TRUE(rep.Finish());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"bench\":\"unit_bench\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"scenario\":\"S1\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"value\":2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchReporterTest, FinishFailsOnUnwritablePath) {
  BenchOptions opts;
  opts.out_path = "/nonexistent-dir-tdmatch/rows.jsonl";
  BenchReporter rep("unit_bench", opts);
  rep.Add("S", "p", "m", 1.0, 0.0);
  EXPECT_FALSE(rep.Finish());
}

TEST(BenchReporterTest, SuppressesHumanTextInJsonMode) {
  BenchOptions opts;
  opts.format = OutputFormat::kJson;
  BenchReporter rep("unit_bench", opts);
  ::testing::internal::CaptureStdout();
  rep.Note("human text");
  rep.Title("a title");
  rep.Print("a table row\n");
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
  ::testing::internal::CaptureStdout();
  rep.Add("S", "p", "m", 1.0, 0.0);
  EXPECT_TRUE(rep.Finish());
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("\"metric\":\"m\""), std::string::npos);
}

// -------------------------------------------------------------- scale ----

TEST(BenchScaleTest, SmokeTrimsSweepGrids) {
  BenchOptions smoke;
  smoke.scale = Scale::kSmoke;
  EXPECT_EQ(ScaledPoints(smoke, {5, 10, 20, 30, 40, 50}),
            (std::vector<size_t>{5, 30}));
  // Two points or fewer are kept as-is.
  EXPECT_EQ(ScaledPoints(smoke, {1, 2}), (std::vector<size_t>{1, 2}));
  BenchOptions sweep;
  EXPECT_EQ(ScaledPoints(sweep, {5, 10, 20}),
            (std::vector<size_t>{5, 10, 20}));
}

TEST(BenchScaleTest, SmokeShrinksScenariosAndOptions) {
  BenchOptions smoke;
  smoke.scale = Scale::kSmoke;
  BenchOptions full;
  full.scale = Scale::kFull;
  EXPECT_LT(ScaledImdbOptions(smoke).num_reviewed_movies,
            ScaledImdbOptions(full).num_reviewed_movies);
  EXPECT_LT(ScaledAuditOptions(smoke).num_documents,
            ScaledAuditOptions(full).num_documents);
  EXPECT_LT(ScaledSnopesOptions(smoke).num_facts,
            ScaledSnopesOptions(full).num_facts);
  EXPECT_LT(DataTaskOptions(smoke).walks.num_walks,
            DataTaskOptions(full).walks.num_walks);
}

TEST(BenchScaleTest, SeedFlagOverridesPipelineSeeds) {
  BenchOptions opts;
  opts.seed = 99;
  core::TDmatchOptions o = DataTaskOptions(opts);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_EQ(o.walks.seed, 99u);
  EXPECT_EQ(o.w2v.seed, 99u);
  // Scenario seeds are offset per generator so scenarios stay distinct.
  EXPECT_NE(ScaledImdbOptions(opts).seed, ScaledCoronaOptions(opts).seed);
}

// ---------------------------------------------------- sweep scenarios ----

TEST(BenchScenarioTest, SmokeGenerationIsDeterministicUnderFixedSeed) {
  BenchOptions opts;
  opts.scale = Scale::kSmoke;
  opts.seed = 123;
  auto a = MakeSweepScenarios(opts);
  auto b = MakeSweepScenarios(opts);
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    ASSERT_EQ(a[i].data.scenario.first.NumDocs(),
              b[i].data.scenario.first.NumDocs());
    ASSERT_EQ(a[i].data.scenario.second.NumDocs(),
              b[i].data.scenario.second.NumDocs());
    ASSERT_GT(a[i].data.scenario.first.NumDocs(), 0u);
    EXPECT_EQ(a[i].data.scenario.first.DocText(0),
              b[i].data.scenario.first.DocText(0));
    EXPECT_EQ(a[i].data.scenario.gold, b[i].data.scenario.gold);
  }
}

TEST(BenchScenarioTest, FilterSelectsScenarioSubset) {
  BenchOptions opts;
  opts.scale = Scale::kSmoke;
  opts.filter = "IMDb|Audit";
  auto scenarios = MakeSweepScenarios(opts);
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].name, "IMDb");
  EXPECT_EQ(scenarios[1].name, "Audit");
}

TEST(BenchScenarioTest, SmokeIsSmallerThanSweep) {
  BenchOptions smoke;
  smoke.scale = Scale::kSmoke;
  smoke.filter = "IMDb";
  BenchOptions sweep;
  sweep.filter = "IMDb";
  auto small = MakeSweepScenarios(smoke);
  auto medium = MakeSweepScenarios(sweep);
  ASSERT_EQ(small.size(), 1u);
  ASSERT_EQ(medium.size(), 1u);
  EXPECT_LT(small[0].data.scenario.second.NumDocs(),
            medium[0].data.scenario.second.NumDocs());
}

// ------------------------------------------------- instrumented wall ----

TEST(InstrumentedWallTest, SkipsEpochAndMergeSubdivisionsOfTrain) {
  core::TDmatchResult result;
  result.profile.Add("graph_build", 1.0);
  result.profile.Add("walks", 2.0);
  result.profile.Add("train", 4.0);
  for (int epoch = 0; epoch < 2; ++epoch) {
    result.profile.Add("train_epoch", 2.0);
    result.profile.Add("train_merge", 0.5);
  }
  result.profile.Add("match", 0.25);
  // graph_build + walks + train + match; the epochs and their merges are
  // already inside "train" and must not be counted again.
  EXPECT_DOUBLE_EQ(InstrumentedWallSeconds(result, 99.0), 7.25);
}

TEST(InstrumentedWallTest, EmptyProfileFallsBack) {
  core::TDmatchResult result;
  EXPECT_DOUBLE_EQ(InstrumentedWallSeconds(result, 3.5), 3.5);
}

}  // namespace
}  // namespace bench
}  // namespace tdmatch
