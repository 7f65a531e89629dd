#ifndef TDMATCH_BENCH_BENCH_COMMON_H_
#define TDMATCH_BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_cli.h"
#include "bench_reporter.h"
#include "core/experiment.h"
#include "core/tdmatch.h"
#include "datagen/audit.h"
#include "datagen/claims.h"
#include "datagen/corona.h"
#include "datagen/generated.h"
#include "datagen/imdb.h"
#include "datagen/sts.h"
#include "match/method.h"
#include "util/rng.h"

namespace tdmatch {
namespace bench {

/// A named matching method owned by the bench harness.
struct NamedMethod {
  std::string name;
  std::unique_ptr<match::MatchMethod> method;
};

/// TDmatch options for the text-to-data task family (Skip-gram window 3),
/// sized by --scale. Full and sweep use the 24-core-box settings the
/// benches always had; smoke shrinks walks/dims/epochs for CI.
core::TDmatchOptions DataTaskOptions(const BenchOptions& opts);

/// Text-task variant (CBOW window 15), sized by --scale.
core::TDmatchOptions TextTaskOptions(const BenchOptions& opts);

/// Overrides the walk/word2vec/pipeline seeds with --seed (no-op when the
/// flag was not given).
void ApplySeed(const BenchOptions& opts, core::TDmatchOptions* o);

/// Scenario generator options sized by --scale: kFull keeps the
/// generator's defaults (the original table-bench setting), kSweep matches
/// the reduced sizes the figure sweeps always used, kSmoke is CI scale.
/// --seed replaces the generator's built-in seed (offset per scenario so
/// scenarios stay distinct).
datagen::ImdbOptions ScaledImdbOptions(const BenchOptions& opts);
datagen::CoronaOptions ScaledCoronaOptions(const BenchOptions& opts);
datagen::AuditOptions ScaledAuditOptions(const BenchOptions& opts);
datagen::ClaimsOptions ScaledPolitifactOptions(const BenchOptions& opts);
datagen::ClaimsOptions ScaledSnopesOptions(const BenchOptions& opts);
datagen::StsOptions ScaledStsOptions(const BenchOptions& opts);

/// Builds the scenario's "pre-trained" lexicon (trained on its generic
/// corpus) and returns it with the calibrated γ; used to enable the §II-C
/// synonym merging that is part of the default TDmatch pipeline.
struct LexiconBundle {
  std::shared_ptr<embed::PretrainedLexicon> lexicon;
  double gamma = 0.57;
};
LexiconBundle MakeLexicon(const datagen::GeneratedScenario& data,
                          const BenchOptions& opts);

/// The five standard scenarios of the evaluation (IMDb, Corona, Audit,
/// Politifact, Snopes), generated at --scale size. Scenarios whose name
/// does not pass --filter are skipped (and never generated).
struct SweepScenario {
  std::string name;
  datagen::GeneratedScenario data;
  /// Task-appropriate base options (data vs text defaults; bucketing for
  /// Corona).
  core::TDmatchOptions base_options;
};
std::vector<SweepScenario> MakeSweepScenarios(const BenchOptions& opts);

/// Runs every method on the scenario, prints a paper-style block in table
/// mode and records one row per (method, metric) under `scenario_name`:
///   Method  MRR  MAP@{1,5,20}  HasPositive@{1,5,20}
void RunRankingTable(BenchReporter& reporter, const std::string& title,
                     const std::string& scenario_name,
                     const corpus::Scenario& s,
                     const std::vector<NamedMethod>& methods);

/// Runs one TDmatch configuration and returns MAP@5 — the workhorse of the
/// Fig. 6/7/9 and ablation sweeps.
double MapAt5(const corpus::Scenario& s, const core::TDmatchOptions& options,
              const kb::ExternalResource* resource = nullptr,
              const embed::PretrainedLexicon* lexicon = nullptr);

/// Reporter-aware overload: times the run and records a "map@5" row.
double MapAt5(BenchReporter& reporter, const std::string& scenario,
              const std::string& parameter, const corpus::Scenario& s,
              const core::TDmatchOptions& options,
              const kb::ExternalResource* resource = nullptr,
              const embed::PretrainedLexicon* lexicon = nullptr);

/// Instrumented wall clock of a TDmatch pipeline run: the sum of its
/// recorded phase timers ("train_epoch" entries subdivide "train", and
/// "train_merge" entries subdivide those, so both are skipped). This is
/// what `wall_seconds` rows should carry for pipeline
/// work — a stopwatch around a whole sweep iteration also counts scenario
/// setup/teardown and smears it into whichever row closes the watch.
/// Falls back to `fallback_seconds` when the profile is empty (failed or
/// pre-profiling runs).
double InstrumentedWallSeconds(const core::TDmatchResult& result,
                               double fallback_seconds);

/// One point of a parameter sweep: a short label ("20", "Intersect") and
/// the option mutation it stands for.
struct SweepPoint {
  std::string label;
  std::function<void(core::TDmatchOptions&)> apply;
};

/// Trims a sweep grid for --scale smoke (keeps the first and the middle
/// point); sweep/full keep the full grid.
std::vector<size_t> ScaledPoints(const BenchOptions& opts,
                                 std::vector<size_t> full_points);

/// Builds SweepPoints from a numeric grid (labels are the numbers), trimmed
/// by ScaledPoints().
std::vector<SweepPoint> NumericPoints(
    const BenchOptions& opts, std::vector<size_t> full_points,
    const std::function<void(core::TDmatchOptions&, size_t)>& apply);

/// The declarative core of the Fig. 6/7/9 and ablation sweeps: for every
/// point × scenario, applies the point to the scenario's base options,
/// measures MAP@5, records a row ("<param_name>=<label>") and prints the
/// usual points-as-rows / scenarios-as-columns grid in table mode.
void RunMapSweep(BenchReporter& reporter, const std::string& param_name,
                 const std::vector<SweepScenario>& scenarios,
                 const std::vector<SweepPoint>& points);

/// `n` vectors in `dim` dimensions around `centers` Gaussian anchors
/// (vector i belongs to anchor i mod centers, plus N(0, 0.35²) noise per
/// coordinate) — the cluster structure an inverted-file index exploits;
/// uniform random vectors would degrade every ANN index to a scan. The
/// serving benches build their synthetic corpora from it.
std::vector<std::vector<float>> MakeClusteredVectors(size_t n, int dim,
                                                     size_t centers,
                                                     util::Rng* rng);

}  // namespace bench
}  // namespace tdmatch

#endif  // TDMATCH_BENCH_BENCH_COMMON_H_
