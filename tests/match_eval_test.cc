#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "eval/kfold.h"
#include "eval/metrics.h"
#include "eval/taxonomy_metrics.h"
#include "match/combine.h"
#include "match/top_k.h"
#include "util/rng.h"

namespace tdmatch {
namespace {

using eval::GoldSet;
using eval::Ranking;

// ---------------------------------------------------------------------------
// TopK
// ---------------------------------------------------------------------------

TEST(TopKTest, SelectOrdersByScore) {
  auto top = match::TopK::Select({0.1, 0.9, 0.5}, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].index, 1);
  EXPECT_DOUBLE_EQ(top[0].score, 0.9);
  EXPECT_EQ(top[1].index, 2);
}

TEST(TopKTest, SelectTieBreaksByIndex) {
  auto top = match::TopK::Select({0.5, 0.5, 0.5}, 3);
  EXPECT_EQ(top[0].index, 0);
  EXPECT_EQ(top[1].index, 1);
  EXPECT_EQ(top[2].index, 2);
}

TEST(TopKTest, SelectTieBreaksByIndexUnderBoundedHeap) {
  // Regression test for the heap implementation: many duplicate scores,
  // k small relative to n so the heap path is taken. The documented
  // stable lower-index-wins order must survive heap reordering.
  std::vector<double> scores(64);
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = (i % 2 == 0) ? 0.75 : 0.25;  // 32-way ties on both levels
  }
  auto top = match::TopK::Select(scores, 5);
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(top[i].index, static_cast<int32_t>(2 * i)) << "rank " << i;
    EXPECT_DOUBLE_EQ(top[i].score, 0.75);
  }
  // Ties at the heap displacement boundary: once the heap holds k=2
  // entries of score 0.5 (indices 0, 1), the equal-scored candidate 2
  // must NOT displace the root (lower index wins), while the
  // better-scored candidate 4 must.
  auto boundary = match::TopK::Select({0.5, 0.5, 0.5, 0.1, 0.6, 0.1, 0.1,
                                       0.1, 0.1},
                                      2);
  ASSERT_EQ(boundary.size(), 2u);
  EXPECT_EQ(boundary[0].index, 4);
  EXPECT_DOUBLE_EQ(boundary[0].score, 0.6);
  EXPECT_EQ(boundary[1].index, 0);
}

TEST(TopKTest, NanScoresRankLastInAnyInputOrder) {
  // A snapshot row holding ±inf normalizes to NaN, so NaN scores reach
  // the selector. The order stays total: numbers descending (±inf
  // included), then NaNs, every tie to the lower index.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> base = {nan, inf, 0.5, -inf, 0.5, nan, 0.25};
  const std::vector<int32_t> ranked = {1, 2, 4, 6, 3, 0, 5};
  auto same = [](double a, double b) {
    return (std::isnan(a) && std::isnan(b)) || a == b;
  };

  std::vector<size_t> perm(base.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  do {
    // The streaming selector sees the same (index, score) pairs in every
    // order and must return the same ranking.
    for (size_t k = 0; k <= base.size(); ++k) {
      match::TopKHeap heap(k);
      for (size_t i : perm) heap.Push(static_cast<int32_t>(i), base[i]);
      const auto top = heap.Take();
      ASSERT_EQ(top.size(), k);
      for (size_t r = 0; r < k; ++r) {
        EXPECT_EQ(top[r].index, ranked[r]) << "k=" << k << " rank " << r;
      }
    }
    // Select over the permuted vector ranks by (NaN last, score desc,
    // position).
    std::vector<double> scores(base.size());
    for (size_t i = 0; i < perm.size(); ++i) scores[i] = base[perm[i]];
    std::vector<int32_t> want(scores.size());
    for (size_t i = 0; i < want.size(); ++i) want[i] = static_cast<int32_t>(i);
    std::sort(want.begin(), want.end(), [&](int32_t a, int32_t b) {
      auto key = [&](int32_t i) {
        const double s = scores[static_cast<size_t>(i)];
        return std::make_tuple(std::isnan(s), std::isnan(s) ? 0.0 : -s, i);
      };
      return key(a) < key(b);
    });
    const auto got = match::TopK::Select(scores, scores.size());
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].index, want[r]) << "rank " << r;
      EXPECT_TRUE(same(got[r].score, scores[static_cast<size_t>(want[r])]));
    }
    EXPECT_EQ(match::TopK::FullRanking(scores), want);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(TopKTest, SelectClampsK) {
  EXPECT_EQ(match::TopK::Select({0.1}, 10).size(), 1u);
  EXPECT_TRUE(match::TopK::Select({}, 5).empty());
}

TEST(TopKTest, HeapAndPartialSortPathsAgree) {
  // Property check: for random scores with deliberate duplicates, the
  // bounded heap must produce exactly the ranking of a full sort under
  // the documented order (score desc, index asc), from k far below n up
  // to k = n.
  util::Rng rng(17);
  std::vector<double> scores(600);
  for (auto& s : scores) {
    s = static_cast<double>(rng.UniformInt(50ULL)) / 50.0;  // many ties
  }
  auto reference = [&](size_t k) {
    std::vector<int32_t> idx(scores.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      idx[i] = static_cast<int32_t>(i);
    }
    std::sort(idx.begin(), idx.end(), [&](int32_t a, int32_t b) {
      if (scores[static_cast<size_t>(a)] != scores[static_cast<size_t>(b)]) {
        return scores[static_cast<size_t>(a)] > scores[static_cast<size_t>(b)];
      }
      return a < b;
    });
    idx.resize(k);
    return idx;
  };
  for (size_t k : {1u, 5u, 20u, 140u, 599u, 600u}) {
    auto got = match::TopK::Select(scores, k);
    auto want = reference(k);
    ASSERT_EQ(got.size(), want.size()) << "k=" << k;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].index, want[i]) << "k=" << k << " rank " << i;
    }
  }
}

TEST(TopKTest, FullRankingIsPermutation) {
  auto r = match::TopK::FullRanking({0.3, 0.9, 0.1, 0.5});
  EXPECT_EQ(r, (std::vector<int32_t>{1, 3, 0, 2}));
}

TEST(TopKTest, ScoreAllCosine) {
  std::vector<float> q{1.0f, 0.0f};
  std::vector<std::vector<float>> cands{{1.0f, 0.0f}, {0.0f, 1.0f}, {}};
  auto s = match::TopK::ScoreAll(q, cands);
  EXPECT_NEAR(s[0], 1.0, 1e-9);
  EXPECT_NEAR(s[1], 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(s[2], 0.0);  // empty candidate scores zero
}

// ---------------------------------------------------------------------------
// ScoreCombiner
// ---------------------------------------------------------------------------

TEST(CombineTest, AverageElementwise) {
  auto avg = match::ScoreCombiner::Average({0.0, 1.0}, {1.0, 0.0});
  EXPECT_EQ(avg, (std::vector<double>{0.5, 0.5}));
}

TEST(CombineTest, MinMaxNormalize) {
  auto n = match::ScoreCombiner::MinMaxNormalize({2.0, 4.0, 6.0});
  EXPECT_EQ(n, (std::vector<double>{0.0, 0.5, 1.0}));
  auto flat = match::ScoreCombiner::MinMaxNormalize({3.0, 3.0});
  EXPECT_EQ(flat, (std::vector<double>{0.0, 0.0}));
}

TEST(CombineTest, CombinationCanFixOneMethodsMistake) {
  // Method A ranks candidate 1 first; method B strongly prefers 0. The
  // normalized average puts 0 first.
  auto combined = match::ScoreCombiner::AverageNormalized(
      {0.48, 0.52, 0.0}, {1.0, 0.1, 0.0});
  auto ranking = match::TopK::FullRanking(combined);
  EXPECT_EQ(ranking[0], 0);
}

// ---------------------------------------------------------------------------
// RankingMetrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, MrrBasic) {
  std::vector<Ranking> rankings{{2, 0, 1}, {0, 1, 2}};
  std::vector<GoldSet> gold{{0}, {0}};
  // Query 0: first correct at rank 2 → 1/2; query 1: rank 1 → 1.
  EXPECT_DOUBLE_EQ(eval::RankingMetrics::MRR(rankings, gold), 0.75);
}

TEST(MetricsTest, MrrSkipsEmptyGold) {
  std::vector<Ranking> rankings{{0, 1}, {1, 0}};
  std::vector<GoldSet> gold{{}, {1}};
  EXPECT_DOUBLE_EQ(eval::RankingMetrics::MRR(rankings, gold), 1.0);
}

TEST(MetricsTest, MrrZeroWhenNeverFound) {
  std::vector<Ranking> rankings{{0, 1}};
  std::vector<GoldSet> gold{{5}};
  EXPECT_DOUBLE_EQ(eval::RankingMetrics::MRR(rankings, gold), 0.0);
}

TEST(MetricsTest, AveragePrecisionSingleGold) {
  // Gold at rank 3 of k=5: AP@5 = (1/3)/min(1,5) = 1/3.
  EXPECT_NEAR(
      eval::RankingMetrics::AveragePrecisionAtK({7, 8, 3, 9, 1}, {3}, 5),
      1.0 / 3, 1e-9);
}

TEST(MetricsTest, AveragePrecisionMultiGold) {
  // Gold {0,1}; ranking hits at positions 1 and 3.
  // AP@5 = (1/1 + 2/3) / 2.
  EXPECT_NEAR(eval::RankingMetrics::AveragePrecisionAtK({0, 9, 1}, {0, 1}, 5),
              (1.0 + 2.0 / 3) / 2, 1e-9);
}

TEST(MetricsTest, MapAtKTruncates) {
  // Gold at rank 3 but k=2 → AP@2 = 0.
  std::vector<Ranking> rankings{{7, 8, 3}};
  std::vector<GoldSet> gold{{3}};
  EXPECT_DOUBLE_EQ(eval::RankingMetrics::MAPAtK(rankings, gold, 2), 0.0);
  EXPECT_GT(eval::RankingMetrics::MAPAtK(rankings, gold, 3), 0.0);
}

TEST(MetricsTest, HasPositiveAtK) {
  std::vector<Ranking> rankings{{2, 0}, {1, 0}};
  std::vector<GoldSet> gold{{0}, {9}};
  EXPECT_DOUBLE_EQ(
      eval::RankingMetrics::HasPositiveAtK(rankings, gold, 1), 0.0);
  EXPECT_DOUBLE_EQ(
      eval::RankingMetrics::HasPositiveAtK(rankings, gold, 2), 0.5);
}

TEST(MetricsTest, PerfectRankingScoresOne) {
  std::vector<Ranking> rankings{{0, 1, 2}};
  std::vector<GoldSet> gold{{0}};
  EXPECT_DOUBLE_EQ(eval::RankingMetrics::MRR(rankings, gold), 1.0);
  EXPECT_DOUBLE_EQ(eval::RankingMetrics::MAPAtK(rankings, gold, 1), 1.0);
  EXPECT_DOUBLE_EQ(
      eval::RankingMetrics::HasPositiveAtK(rankings, gold, 1), 1.0);
}

TEST(MetricsTest, F1Harmonic) {
  EXPECT_DOUBLE_EQ(eval::F1(0.5, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(eval::F1(0.0, 0.9), 0.0);
  EXPECT_NEAR(eval::F1(1.0, 0.5), 2.0 / 3, 1e-9);
}

TEST(MetricsTest, ExactSetScores) {
  // Query: top-2 predictions {0, 5}; gold {0, 1, 2}.
  std::vector<Ranking> rankings{{0, 5, 1}};
  std::vector<GoldSet> gold{{0, 1, 2}};
  auto prf = eval::ExactSetScores(rankings, gold, 2);
  EXPECT_DOUBLE_EQ(prf.precision, 0.5);       // 1 of 2 predictions correct
  EXPECT_NEAR(prf.recall, 1.0 / 3, 1e-9);     // 1 of 3 gold found
  EXPECT_NEAR(prf.f1, eval::F1(0.5, 1.0 / 3), 1e-9);
}

// ---------------------------------------------------------------------------
// TaxonomyMetrics
// ---------------------------------------------------------------------------

corpus::Taxonomy DeepTax() {
  // root -> l1 -> l2a -> l3a
  //              l2a -> l3b
  //        l1 -> l2b
  corpus::Taxonomy tax;
  auto root = tax.AddConcept("root");
  auto l1 = tax.AddConcept("l1", root);
  auto l2a = tax.AddConcept("l2a", l1);
  tax.AddConcept("l3a", l2a);
  tax.AddConcept("l3b", l2a);
  tax.AddConcept("l2b", l1);
  return tax;
}

TEST(TaxonomyMetricsTest, ExactMatchesById) {
  corpus::Taxonomy tax = DeepTax();
  std::vector<Ranking> rankings{{3, 5}};
  std::vector<GoldSet> gold{{3}};
  auto prf = eval::TaxonomyMetrics::ExactScores(tax, rankings, gold, 1);
  EXPECT_DOUBLE_EQ(prf.precision, 1.0);
  EXPECT_DOUBLE_EQ(prf.recall, 1.0);
}

TEST(TaxonomyMetricsTest, NodeScoresRewardSiblingPaths) {
  corpus::Taxonomy tax = DeepTax();
  // Predicted l3b (id 4) for gold l3a (id 3): stripped paths share l2a.
  std::vector<Ranking> rankings{{4}};
  std::vector<GoldSet> gold{{3}};
  auto exact = eval::TaxonomyMetrics::ExactScores(tax, rankings, gold, 1);
  auto node = eval::TaxonomyMetrics::NodeScores(tax, rankings, gold, 1);
  EXPECT_DOUBLE_EQ(exact.f1, 0.0);
  EXPECT_GT(node.f1, 0.0);  // partial path credit
  EXPECT_LT(node.f1, 1.0);
}

TEST(TaxonomyMetricsTest, NodePerfectForExactPrediction) {
  corpus::Taxonomy tax = DeepTax();
  std::vector<Ranking> rankings{{3}};
  std::vector<GoldSet> gold{{3}};
  auto node = eval::TaxonomyMetrics::NodeScores(tax, rankings, gold, 1);
  EXPECT_DOUBLE_EQ(node.precision, 1.0);
  EXPECT_DOUBLE_EQ(node.recall, 1.0);
}

TEST(TaxonomyMetricsTest, RecallGrowsWithK) {
  corpus::Taxonomy tax = DeepTax();
  std::vector<Ranking> rankings{{3, 5, 4}};
  std::vector<GoldSet> gold{{3, 4}};
  auto k1 = eval::TaxonomyMetrics::ExactScores(tax, rankings, gold, 1);
  auto k3 = eval::TaxonomyMetrics::ExactScores(tax, rankings, gold, 3);
  EXPECT_LT(k1.recall, k3.recall);
  EXPECT_GE(k1.precision, k3.precision);
}

// ---------------------------------------------------------------------------
// KFold
// ---------------------------------------------------------------------------

TEST(KFoldTest, PartitionsAllIndices) {
  auto folds = eval::KFold::Folds(23, 5, 1);
  ASSERT_EQ(folds.size(), 5u);
  std::vector<int> seen(23, 0);
  for (const auto& f : folds) {
    for (int32_t i : f.test) seen[static_cast<size_t>(i)]++;
    EXPECT_EQ(f.train.size() + f.test.size(), 23u);
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(KFoldTest, TrainTestDisjoint) {
  for (const auto& f : eval::KFold::Folds(20, 4, 2)) {
    for (int32_t t : f.test) {
      EXPECT_EQ(std::count(f.train.begin(), f.train.end(), t), 0);
    }
  }
}

TEST(KFoldTest, HoldOutFractions) {
  auto split = eval::KFold::HoldOut(100, 0.6, 3);
  EXPECT_EQ(split.train.size(), 60u);
  EXPECT_EQ(split.test.size(), 40u);
}

TEST(KFoldTest, DeterministicBySeed) {
  auto a = eval::KFold::Folds(30, 5, 7);
  auto b = eval::KFold::Folds(30, 5, 7);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].test, b[i].test);
  }
}

}  // namespace
}  // namespace tdmatch
