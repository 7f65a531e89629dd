#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/tdmatch.h"
#include "datagen/imdb.h"
#include "datagen/sts.h"
#include "eval/metrics.h"
#include "kb/synthetic_kb.h"
#include "match/top_k.h"
#include "testing/options.h"
#include "testing/scenarios.h"

namespace tdmatch {
namespace core {
namespace {

using testutil::FastOptions;
using testutil::MiniScenario;

TEST(TDmatchTest, EndToEndBeatsRandomByFar) {
  auto s = MiniScenario(20);
  TDmatch engine(FastOptions());
  auto result = engine.Run(s.first, s.second);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->scores.size(), 20u);
  std::vector<eval::Ranking> rankings;
  for (const auto& scores : result->scores) {
    EXPECT_EQ(scores.size(), 20u);
    rankings.push_back(match::TopK::FullRanking(scores));
  }
  // Random MRR over 20 candidates is ~0.18; the graph signal is strong.
  EXPECT_GT(eval::RankingMetrics::MRR(rankings, s.gold), 0.5);
}

TEST(TDmatchTest, ResultCarriesStatsAndTimings) {
  auto s = MiniScenario(10);
  TDmatch engine(FastOptions());
  auto result = engine.Run(s.first, s.second);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->original.nodes, 10u);
  EXPECT_GT(result->original.edges, 0u);
  EXPECT_EQ(result->original.nodes, result->expanded.nodes);  // no expand
  EXPECT_EQ(result->expanded.nodes, result->compressed.nodes);
  EXPECT_GE(result->train_seconds, 0.0);
}

TEST(TDmatchTest, ProfileFollowsEveryTrainEpochWithItsMergeShare) {
  auto s = MiniScenario(10);
  TDmatchOptions options = FastOptions();
  TDmatch engine(options);
  auto result = engine.Run(s.first, s.second);
  ASSERT_TRUE(result.ok());
  const auto& phases = result->profile.phases();
  size_t epochs = 0;
  for (size_t i = 0; i < phases.size(); ++i) {
    if (phases[i].name != "train_epoch") continue;
    ++epochs;
    ASSERT_LT(i + 1, phases.size());
    EXPECT_EQ(phases[i + 1].name, "train_merge");
    EXPECT_GE(phases[i + 1].seconds, 0.0);
    EXPECT_LE(phases[i + 1].seconds, phases[i].seconds);
  }
  EXPECT_EQ(epochs, static_cast<size_t>(options.w2v.epochs));
}

TEST(TDmatchTest, DeterministicScores) {
  auto s = MiniScenario(8);
  TDmatchOptions o = FastOptions();
  o.walks.threads = 1;
  o.w2v.threads = 1;
  TDmatch a(o), b(o);
  auto ra = a.Run(s.first, s.second);
  auto rb = b.Run(s.first, s.second);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->scores, rb->scores);
}

TEST(TDmatchTest, ThreadsOverrideNeverChangesScores) {
  // The master `threads` override fans out to the walker and the
  // block-parallel trainer, both bit-deterministic in the thread count:
  // any override must reproduce the exact same scores.
  auto s = MiniScenario(8);
  std::vector<std::vector<std::vector<double>>> all;
  for (size_t threads : {1u, 2u, 8u}) {
    TDmatchOptions o = FastOptions();
    o.threads = threads;
    TDmatch engine(o);
    auto r = engine.Run(s.first, s.second);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    all.push_back(r->scores);
  }
  EXPECT_EQ(all[0], all[1]);
  EXPECT_EQ(all[0], all[2]);
}

TEST(TDmatchTest, ExpansionRequiresResource) {
  auto s = MiniScenario(5);
  TDmatchOptions o = FastOptions();
  o.expand = true;
  TDmatch engine(o);  // no resource passed
  EXPECT_TRUE(engine.Run(s.first, s.second).status().IsInvalidArgument());
}

TEST(TDmatchTest, SynonymMergeRequiresLexicon) {
  auto s = MiniScenario(5);
  TDmatchOptions o = FastOptions();
  o.use_synonym_merge = true;
  TDmatch engine(o);
  EXPECT_TRUE(engine.Run(s.first, s.second).status().IsInvalidArgument());
}

TEST(TDmatchTest, ExpansionChangesGraphSize) {
  auto s = MiniScenario(10);
  kb::SyntheticKB kb;
  // Relate every entity to two fresh labels; at least some expansion edges
  // must survive sink removal via shared neighbors.
  for (int i = 0; i < 10; ++i) {
    std::string e = "entity" + std::to_string(i);
    kb.AddRelation(e, "famous", "isA");
    kb.AddRelation(e, "person", "isA");
  }
  TDmatchOptions o = FastOptions();
  o.expand = true;
  // Without sink pruning the KB edges are strictly additive; with it, the
  // peeled degree-1 n-gram nodes can mask the additions.
  o.expansion.remove_sinks = false;
  TDmatch engine(o, &kb);
  auto result = engine.Run(s.first, s.second);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->expanded.edges, result->original.edges);
  EXPECT_GT(result->expanded.nodes, result->original.nodes);
}

TEST(TDmatchTest, CompressionShrinksGraph) {
  auto s = MiniScenario(15);
  TDmatchOptions o = FastOptions();
  o.compression = CompressionMode::kMsp;
  o.compression_beta = 0.2;
  TDmatch engine(o);
  auto result = engine.Run(s.first, s.second);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->compressed.nodes, result->expanded.nodes);
  // Matching still works on the compressed graph.
  std::vector<eval::Ranking> rankings;
  for (const auto& scores : result->scores) {
    rankings.push_back(match::TopK::FullRanking(scores));
  }
  EXPECT_GT(eval::RankingMetrics::MRR(rankings, s.gold), 0.2);
}

TEST(TDmatchTest, TextTaskDefaultsUseCbow) {
  TDmatchOptions o = TDmatchOptions::TextTaskDefaults();
  EXPECT_TRUE(o.w2v.cbow);
  EXPECT_EQ(o.w2v.window, 15);
}

// ---------------------------------------------------------------------------
// Experiment harness
// ---------------------------------------------------------------------------

TEST(ExperimentTest, UnsupervisedRunScoresEveryQuery) {
  auto s = MiniScenario(12);
  TDmatchMethod m("W-RW", FastOptions());
  auto run = Experiment::Run(&m, s);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->rankings.size(), 12u);
  for (const auto& r : run->rankings) EXPECT_EQ(r.size(), 12u);
  EXPECT_GT(run->train_seconds, 0.0);
}

TEST(ExperimentTest, ReportComputesAllMetrics) {
  auto s = MiniScenario(12);
  TDmatchMethod m("W-RW", FastOptions());
  auto run = Experiment::Run(&m, s);
  ASSERT_TRUE(run.ok());
  auto report = Experiment::Report("W-RW", *run, s);
  EXPECT_EQ(report.method, "W-RW");
  EXPECT_GE(report.mrr, 0.0);
  EXPECT_LE(report.mrr, 1.0);
  EXPECT_LE(report.map1, report.map20 + 1e-9);
  EXPECT_LE(report.hp1, report.hp20 + 1e-9);
  EXPECT_FALSE(Experiment::FormatRow(report).empty());
  EXPECT_FALSE(Experiment::Header().empty());
}

/// Oracle supervised method: perfect on any query, used to validate the
/// cross-validation plumbing.
class OracleMethod : public match::MatchMethod {
 public:
  util::Status Fit(const corpus::Scenario& scenario,
                   const std::vector<int32_t>& train) override {
    if (train.empty()) {
      return util::Status::InvalidArgument("supervised");
    }
    scenario_ = &scenario;
    return util::Status::OK();
  }
  std::vector<double> ScoreCandidates(size_t q) const override {
    std::vector<double> scores(scenario_->second.NumDocs(), 0.0);
    for (int32_t g : scenario_->gold[q]) {
      scores[static_cast<size_t>(g)] = 1.0;
    }
    return scores;
  }
  std::string name() const override { return "oracle"; }
  bool supervised() const override { return true; }

 private:
  const corpus::Scenario* scenario_ = nullptr;
};

TEST(ExperimentTest, SupervisedCvCoversAllQueries) {
  auto s = MiniScenario(15);
  OracleMethod oracle;
  auto run = Experiment::Run(&oracle, s, HarnessOptions{.folds = 5});
  ASSERT_TRUE(run.ok());
  auto report = Experiment::Report("oracle", *run, s);
  EXPECT_DOUBLE_EQ(report.mrr, 1.0);  // every query scored by some fold
  EXPECT_DOUBLE_EQ(report.hp1, 1.0);
}

}  // namespace
}  // namespace core
}  // namespace tdmatch
