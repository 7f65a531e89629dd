#include "bench_common.h"

#include <cstdio>
#include <limits>
#include <utility>

#include "eval/metrics.h"
#include "match/top_k.h"
#include "util/timer.h"

namespace tdmatch {
namespace bench {

namespace {

uint64_t SeedOr(const BenchOptions& opts, uint64_t fallback, uint64_t offset) {
  return opts.seed == 0 ? fallback : opts.seed + offset;
}

/// Shrinks walks/dims/epochs to the CI smoke budget (shared by both task
/// families so they always run at the same smoke scale).
void ApplySmokeScale(const BenchOptions& opts, core::TDmatchOptions* o) {
  if (opts.scale != Scale::kSmoke) return;
  o->walks.num_walks = 10;
  o->walks.walk_length = 12;
  o->walks.threads = 4;
  o->w2v.dim = 48;
  // 4 epochs, not 2: with the LR decay stall fixed the schedule actually
  // anneals to the floor, and on the small smoke walk corpora 2 epochs sits
  // below the convergence knee once hub subsampling thins the updates
  // (IMDb W-RW map@5 collapses to ~0.04 at 2 epochs, recovers to ~0.90 at
  // 4). Full/sweep scales have 4x the walk tokens and stay at 3 epochs.
  o->w2v.epochs = 4;
  o->w2v.threads = 4;
}

}  // namespace

core::TDmatchOptions DataTaskOptions(const BenchOptions& opts) {
  core::TDmatchOptions o;
  o.walks.num_walks = 25;
  o.walks.walk_length = 20;
  o.walks.threads = 8;
  o.w2v.dim = 64;
  o.w2v.threads = 8;
  o.w2v.epochs = 3;
  // Frequency subsampling downweights hub nodes (ubiquitous terms) in the
  // walks — the weighting mechanism of the paper's challenge 2.
  o.w2v.subsample = 1e-3;
  ApplySmokeScale(opts, &o);
  ApplySeed(opts, &o);
  return o;
}

core::TDmatchOptions TextTaskOptions(const BenchOptions& opts) {
  core::TDmatchOptions o = core::TDmatchOptions::TextTaskDefaults();
  o.walks.num_walks = 25;
  o.walks.walk_length = 20;
  o.walks.threads = 8;
  o.w2v.dim = 64;
  o.w2v.threads = 8;
  o.w2v.epochs = 3;
  o.w2v.subsample = 1e-3;
  ApplySmokeScale(opts, &o);
  ApplySeed(opts, &o);
  return o;
}

void ApplySeed(const BenchOptions& opts, core::TDmatchOptions* o) {
  if (opts.seed == 0) return;
  o->seed = opts.seed;
  o->walks.seed = opts.seed;
  o->w2v.seed = opts.seed;
}

datagen::ImdbOptions ScaledImdbOptions(const BenchOptions& opts) {
  datagen::ImdbOptions o;  // kFull: generator defaults (60/90 movies)
  if (opts.scale == Scale::kSweep) {
    o.num_reviewed_movies = 30;
    o.num_distractor_movies = 40;
  } else if (opts.scale == Scale::kSmoke) {
    o.num_reviewed_movies = 12;
    o.num_distractor_movies = 16;
  }
  o.seed = SeedOr(opts, o.seed, 1);
  return o;
}

datagen::CoronaOptions ScaledCoronaOptions(const BenchOptions& opts) {
  datagen::CoronaOptions o;  // kFull: 20 countries × 10 months, 240 claims
  if (opts.scale == Scale::kSweep) {
    o.num_countries = 15;
    o.num_months = 8;
    o.num_generated_claims = 120;
  } else if (opts.scale == Scale::kSmoke) {
    o.num_countries = 8;
    o.num_months = 4;
    o.num_generated_claims = 48;
    o.num_user_claims = 20;
  }
  o.seed = SeedOr(opts, o.seed, 2);
  return o;
}

datagen::AuditOptions ScaledAuditOptions(const BenchOptions& opts) {
  datagen::AuditOptions o;  // kFull: 160 concepts / 320 documents
  if (opts.scale == Scale::kSweep) {
    o.num_concepts = 90;
    o.num_documents = 150;
  } else if (opts.scale == Scale::kSmoke) {
    o.num_concepts = 40;
    o.num_documents = 60;
  }
  o.seed = SeedOr(opts, o.seed, 3);
  return o;
}

datagen::ClaimsOptions ScaledPolitifactOptions(const BenchOptions& opts) {
  datagen::ClaimsOptions o = datagen::ClaimsGenerator::PolitifactPreset();
  if (opts.scale == Scale::kSweep) {
    o.num_facts = 700;
    o.num_queries = 80;
  } else if (opts.scale == Scale::kSmoke) {
    o.num_facts = 200;
    o.num_queries = 24;
    o.num_topics = 12;
  }
  o.seed = SeedOr(opts, o.seed, 4);
  return o;
}

datagen::ClaimsOptions ScaledSnopesOptions(const BenchOptions& opts) {
  datagen::ClaimsOptions o = datagen::ClaimsGenerator::SnopesPreset();
  if (opts.scale == Scale::kSweep) {
    o.num_facts = 500;
    o.num_queries = 80;
  } else if (opts.scale == Scale::kSmoke) {
    o.num_facts = 160;
    o.num_queries = 24;
    o.num_topics = 12;
  }
  o.seed = SeedOr(opts, o.seed, 5);
  return o;
}

datagen::StsOptions ScaledStsOptions(const BenchOptions& opts) {
  datagen::StsOptions o;  // kFull: 500 pairs
  if (opts.scale == Scale::kSweep) {
    o.num_pairs = 350;
  } else if (opts.scale == Scale::kSmoke) {
    o.num_pairs = 120;
  }
  o.seed = SeedOr(opts, o.seed, 6);
  return o;
}

LexiconBundle MakeLexicon(const datagen::GeneratedScenario& data,
                          const BenchOptions& opts) {
  LexiconBundle out;
  embed::PretrainedLexicon::Options o;
  o.w2v.threads = opts.scale == Scale::kSmoke ? 4 : 8;
  o.w2v.epochs = opts.scale == Scale::kSmoke ? 2 : 4;
  o.w2v.seed = SeedOr(opts, o.w2v.seed, 100);
  out.lexicon = std::make_shared<embed::PretrainedLexicon>(o);
  if (!data.generic_corpus.empty()) {
    TDM_CHECK(out.lexicon->Train(data.generic_corpus).ok());
    out.gamma = out.lexicon->CalibrateGamma(data.synonym_pairs);
  }
  return out;
}

std::vector<SweepScenario> MakeSweepScenarios(const BenchOptions& opts) {
  std::vector<SweepScenario> out;
  auto add = [&out](std::string name, datagen::GeneratedScenario data,
                    core::TDmatchOptions base) {
    SweepScenario s;
    s.name = std::move(name);
    s.data = std::move(data);
    s.base_options = std::move(base);
    out.push_back(std::move(s));
  };

  if (opts.Matches("IMDb")) {
    add("IMDb", datagen::ImdbGenerator::Generate(ScaledImdbOptions(opts)),
        DataTaskOptions(opts));
  }
  if (opts.Matches("Corona")) {
    core::TDmatchOptions base = DataTaskOptions(opts);
    base.builder.bucket_numbers = true;
    base.builder.fixed_buckets = 7;
    add("Corona",
        datagen::CoronaGenerator::Generate(ScaledCoronaOptions(opts)),
        std::move(base));
  }
  if (opts.Matches("Audit")) {
    add("Audit", datagen::AuditGenerator::Generate(ScaledAuditOptions(opts)),
        TextTaskOptions(opts));
  }
  if (opts.Matches("Politifact")) {
    add("Politifact",
        datagen::ClaimsGenerator::Generate(ScaledPolitifactOptions(opts)),
        TextTaskOptions(opts));
  }
  if (opts.Matches("Snopes")) {
    add("Snopes",
        datagen::ClaimsGenerator::Generate(ScaledSnopesOptions(opts)),
        TextTaskOptions(opts));
  }
  return out;
}

void RunRankingTable(BenchReporter& reporter, const std::string& title,
                     const std::string& scenario_name,
                     const corpus::Scenario& s,
                     const std::vector<NamedMethod>& methods) {
  reporter.Title(title);
  reporter.Print(core::Experiment::Header() + "\n");
  for (const auto& nm : methods) {
    util::StopWatch watch;
    auto run = core::Experiment::Run(nm.method.get(), s);
    double wall = watch.ElapsedSeconds();
    // Pipeline methods report their own instrumented wall clock; the
    // stopwatch stays as the measurement for baselines (and the fallback).
    if (const auto* td =
            dynamic_cast<const core::TDmatchMethod*>(nm.method.get())) {
      wall = InstrumentedWallSeconds(td->last_result(), wall);
    }
    if (!run.ok()) {
      // stderr so the failure is visible in --json mode too (CI swallows
      // table output there); the row simply goes missing from the JSON.
      std::fprintf(stderr, "%s: %s on %s FAILED: %s\n",
                   reporter.bench_name().c_str(), nm.name.c_str(),
                   scenario_name.c_str(), run.status().ToString().c_str());
      reporter.Printf("%-10s  FAILED: %s\n", nm.name.c_str(),
                      run.status().ToString().c_str());
      continue;
    }
    auto report = core::Experiment::Report(nm.name, *run, s);
    reporter.Print(core::Experiment::FormatRow(report) + "\n");
    const std::string param = "method=" + nm.name;
    reporter.Add(scenario_name, param, "mrr", report.mrr, wall);
    reporter.Add(scenario_name, param, "map@1", report.map1, wall);
    reporter.Add(scenario_name, param, "map@5", report.map5, wall);
    reporter.Add(scenario_name, param, "map@20", report.map20, wall);
    reporter.Add(scenario_name, param, "hp@1", report.hp1, wall);
    reporter.Add(scenario_name, param, "hp@5", report.hp5, wall);
    reporter.Add(scenario_name, param, "hp@20", report.hp20, wall);
  }
}

double MapAt5(const corpus::Scenario& s, const core::TDmatchOptions& options,
              const kb::ExternalResource* resource,
              const embed::PretrainedLexicon* lexicon) {
  core::TDmatchMethod method("W-RW", options, resource, lexicon);
  auto run = core::Experiment::Run(&method, s);
  if (!run.ok()) {
    // NaN, not 0.0: a broken config must be distinguishable from a true
    // zero. The JSON writer turns NaN into null, which the CI gate
    // (tools/check_bench.py) rejects, failing ci-bench.
    std::fprintf(stderr, "run failed: %s\n", run.status().ToString().c_str());
    return std::numeric_limits<double>::quiet_NaN();
  }
  return eval::RankingMetrics::MAPAtK(run->rankings, s.gold, 5);
}

double MapAt5(BenchReporter& reporter, const std::string& scenario,
              const std::string& parameter, const corpus::Scenario& s,
              const core::TDmatchOptions& options,
              const kb::ExternalResource* resource,
              const embed::PretrainedLexicon* lexicon) {
  core::TDmatchMethod method("W-RW", options, resource, lexicon);
  util::StopWatch watch;
  auto run = core::Experiment::Run(&method, s);
  const double fallback = watch.ElapsedSeconds();
  const double wall = InstrumentedWallSeconds(method.last_result(), fallback);
  double value = std::numeric_limits<double>::quiet_NaN();
  if (!run.ok()) {
    // NaN, not 0.0: a broken config must be distinguishable from a true
    // zero (NaN -> null in JSON, rejected by tools/check_bench.py).
    std::fprintf(stderr, "run failed: %s\n", run.status().ToString().c_str());
  } else {
    value = eval::RankingMetrics::MAPAtK(run->rankings, s.gold, 5);
  }
  reporter.Add(scenario, parameter, "map@5", value, wall);
  return value;
}

double InstrumentedWallSeconds(const core::TDmatchResult& result,
                               double fallback_seconds) {
  if (result.profile.empty()) return fallback_seconds;
  double total = 0.0;
  for (const auto& phase : result.profile.phases()) {
    if (phase.name != "train_epoch" && phase.name != "train_merge") {
      total += phase.seconds;
    }
  }
  return total;
}

std::vector<size_t> ScaledPoints(const BenchOptions& opts,
                                 std::vector<size_t> full_points) {
  if (opts.scale != Scale::kSmoke || full_points.size() <= 2) {
    return full_points;
  }
  return {full_points.front(), full_points[full_points.size() / 2]};
}

std::vector<SweepPoint> NumericPoints(
    const BenchOptions& opts, std::vector<size_t> full_points,
    const std::function<void(core::TDmatchOptions&, size_t)>& apply) {
  std::vector<SweepPoint> out;
  for (size_t v : ScaledPoints(opts, std::move(full_points))) {
    SweepPoint p;
    p.label = std::to_string(v);
    p.apply = [apply, v](core::TDmatchOptions& o) { apply(o, v); };
    out.push_back(std::move(p));
  }
  return out;
}

void RunMapSweep(BenchReporter& reporter, const std::string& param_name,
                 const std::vector<SweepScenario>& scenarios,
                 const std::vector<SweepPoint>& points) {
  reporter.Printf("\n%-12s", param_name.c_str());
  for (const auto& sc : scenarios) reporter.Printf("  %-10s", sc.name.c_str());
  reporter.Printf("\n");
  for (const auto& p : points) {
    reporter.Printf("%-12s", p.label.c_str());
    for (const auto& sc : scenarios) {
      core::TDmatchOptions o = sc.base_options;
      p.apply(o);
      const double v = MapAt5(reporter, sc.name, param_name + "=" + p.label,
                              sc.data.scenario, o);
      reporter.Printf("  %-10.3f", v);
    }
    reporter.Printf("\n");
  }
}

}  // namespace bench
}  // namespace tdmatch
