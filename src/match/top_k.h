#ifndef TDMATCH_MATCH_TOP_K_H_
#define TDMATCH_MATCH_TOP_K_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tdmatch {
namespace match {

/// One ranked candidate.
struct Match {
  int32_t index;
  double score;
};

/// The ranking order every top-k in the system uses: score descending,
/// ties to the lower index. A NaN score ranks after every number
/// (±inf included), and NaNs among themselves by lower index. This is a
/// strict total order on (score, index) pairs with distinct indices, so
/// the selected set and its order never depend on input order.
inline bool RankBefore(double a_score, int64_t a_index, double b_score,
                       int64_t b_index) {
  if (a_score > b_score) return true;
  if (a_score < b_score) return false;
  // Equal, or at least one NaN.
  const bool a_nan = std::isnan(a_score);
  if (a_nan != std::isnan(b_score)) return !a_nan;
  return a_index < b_index;
}

/// \brief Bounded streaming top-k selector: keeps the k best of a stream
/// of (index, score) pushes under RankBefore, in O(k) memory.
///
/// A max-heap under RankBefore, so the root is the worst kept candidate.
/// Push compares against a cached bound — the root once k are kept, a
/// sentinel every candidate beats before — so a push that does not make
/// the cut usually costs one comparison and no heap work. The result
/// depends only on the pushed set, not on push order. Indices must be
/// distinct.
class TopKHeap {
 public:
  /// Reserves k slots: clamp k to the candidate count first.
  explicit TopKHeap(size_t k);

  void Push(int32_t index, double score) {
    if (score < bound_score_) return;  // the common case, tested first
    if (RankBefore(score, index, bound_score_, bound_index_)) {
      Admit(Match{index, score});
    }
  }

  /// The kept candidates, best first; leaves the selector empty.
  std::vector<Match> Take();

 private:
  /// Heap insert or root replacement, then the bound update; out of line
  /// so only the bound test sits in the scan loops.
  void Admit(Match m);
  void ResetBound();

  size_t k_;
  std::vector<Match> heap_;
  double bound_score_ = 0.0;
  int64_t bound_index_ = 0;
};

/// \brief Ranking utilities: cosine scoring against a candidate matrix and
/// top-k selection (§IV-B) over a score vector, both under RankBefore.
class TopK {
 public:
  /// Cosine of `query` against every row of `candidates` (rows may be
  /// empty ⇒ score 0).
  static std::vector<double> ScoreAll(
      const std::vector<float>& query,
      const std::vector<std::vector<float>>& candidates);

  /// The k best of `scores` in RankBefore order (index = position): one
  /// pass of a TopKHeap.
  static std::vector<Match> Select(const std::vector<double>& scores,
                                   size_t k);

  /// Every index of `scores` in RankBefore order.
  static std::vector<int32_t> FullRanking(const std::vector<double>& scores);
};

}  // namespace match
}  // namespace tdmatch

#endif  // TDMATCH_MATCH_TOP_K_H_
