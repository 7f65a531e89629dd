// Table VII: train and test execution times (seconds) per method, averaged
// over the three task families. Test time is per single match query, as in
// the paper.

#include <cstdio>
#include <functional>
#include <limits>
#include <string>

#include "baselines/embedding_baselines.h"
#include "baselines/lbert.h"
#include "baselines/sbe.h"
#include "baselines/supervised.h"
#include "bench_common.h"
#include "util/timer.h"

using namespace tdmatch;  // NOLINT

namespace {

struct Timing {
  double train = 0;
  double test = 0;  // per query
  double wall = 0;
};

Timing TimeMethod(match::MatchMethod* m, const corpus::Scenario& s) {
  util::StopWatch watch;
  auto run = core::Experiment::Run(m, s);
  if (!run.ok()) {
    // NaN serialises as null in the JSON rows, which the CI gate
    // (tools/check_bench.py) rejects — a broken method fails ci-bench
    // instead of polluting the trajectory with fake finite timings.
    std::fprintf(stderr, "table7_times: %s FAILED: %s\n", m->name().c_str(),
                 run.status().ToString().c_str());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan, watch.ElapsedSeconds()};
  }
  return {run->train_seconds, run->test_seconds_per_query,
          watch.ElapsedSeconds()};
}

using Factory = std::function<std::unique_ptr<match::MatchMethod>(
    const datagen::GeneratedScenario&, bool text_task)>;

struct Family {
  std::string label;   // column header (task family)
  std::string name;    // row scenario name for JSON rows
  datagen::GeneratedScenario data;
  bool text_task = false;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseArgsOrExit(argc, argv);
  bench::BenchReporter rep("table7_times", opts);
  rep.Note("Reproduction of Table VII (train/test execution times, s)");

  std::vector<Family> families;
  if (opts.Matches("IMDb")) {
    families.push_back({"Text-to-data", "IMDb",
                        datagen::ImdbGenerator::Generate(
                            bench::ScaledImdbOptions(opts)),
                        false});
  }
  if (opts.Matches("Audit")) {
    families.push_back({"Structured text", "Audit",
                        datagen::AuditGenerator::Generate(
                            bench::ScaledAuditOptions(opts)),
                        true});
  }
  if (opts.Matches("Snopes")) {
    families.push_back({"Text-to-text", "Snopes",
                        datagen::ClaimsGenerator::Generate(
                            bench::ScaledSnopesOptions(opts)),
                        true});
  }

  struct Row {
    std::string name;
    Factory make;
  };
  std::vector<Row> rows = {
      {"W2VEC",
       [](const datagen::GeneratedScenario&, bool) {
         return std::make_unique<baselines::Word2VecBaseline>();
       }},
      {"D2VEC",
       [](const datagen::GeneratedScenario&, bool) {
         return std::make_unique<baselines::Doc2VecBaseline>();
       }},
      {"S-BE",
       [](const datagen::GeneratedScenario&, bool) {
         return std::make_unique<baselines::HashSentenceEncoder>();
       }},
      {"W-RW",
       [&opts](const datagen::GeneratedScenario&, bool text_task)
           -> std::unique_ptr<match::MatchMethod> {
         return std::make_unique<core::TDmatchMethod>(
             "W-RW", text_task ? bench::TextTaskOptions(opts)
                               : bench::DataTaskOptions(opts));
       }},
      {"RANK*",
       [](const datagen::GeneratedScenario&, bool) {
         return std::make_unique<baselines::PairwiseRanker>();
       }},
      {"L-BE*",
       [](const datagen::GeneratedScenario&, bool) {
         return std::make_unique<baselines::LBertProxy>();
       }},
  };

  rep.Printf("\n%-8s", "Method");
  for (const auto& fam : families) rep.Printf("  %-17s", fam.label.c_str());
  rep.Printf("\n%-8s", "");
  for (size_t i = 0; i < families.size(); ++i) {
    rep.Printf("  %-8s %-8s", "Train", "Test");
  }
  rep.Printf("\n");

  for (const auto& row : rows) {
    rep.Printf("%-8s", row.name.c_str());
    for (const auto& fam : families) {
      auto m = row.make(fam.data, fam.text_task);
      Timing t = TimeMethod(m.get(), fam.data.scenario);
      const std::string param = "method=" + row.name;
      // The pipeline method's wall comes from its own phase timers, not
      // the harness stopwatch. Per-phase and per-epoch timings are
      // tdbench's per-layer metrics (graph.build_s, embed.walks_s,
      // embed.train_epoch_s, match.score_s).
      if (const auto* td = dynamic_cast<const core::TDmatchMethod*>(m.get())) {
        t.wall = bench::InstrumentedWallSeconds(td->last_result(), t.wall);
      }
      rep.Add(fam.name, param, "train_seconds", t.train, t.wall);
      rep.Add(fam.name, param, "test_seconds_per_query", t.test, t.wall);
      rep.Printf("  %-8.3f %-8.5f", t.train, t.test);
    }
    rep.Printf("\n");
  }
  rep.Note(
      "\nNote: shapes to compare with the paper — S-BE has (near) zero\n"
      "train; W-RW trains longer than shallow embeddings but tests fastest\n"
      "among embedding methods; supervised methods pay per-fold training.");
  return rep.Finish() ? 0 : 1;
}
