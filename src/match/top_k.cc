#include "match/top_k.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "embed/embedding_table.h"

namespace tdmatch {
namespace match {

namespace {

/// Heap comparator: with RankBefore as less-than, the root is the worst
/// kept candidate.
struct ByRank {
  bool operator()(const Match& a, const Match& b) const {
    return RankBefore(a.score, a.index, b.score, b.index);
  }
};

}  // namespace

TopKHeap::TopKHeap(size_t k) : k_(k) {
  heap_.reserve(k);
  ResetBound();
}

void TopKHeap::ResetBound() {
  // Before the heap fills, any candidate beats (NaN, past every index);
  // with k = 0, none beats (+inf, -1).
  bound_score_ = k_ > 0 ? std::numeric_limits<double>::quiet_NaN()
                        : std::numeric_limits<double>::infinity();
  bound_index_ = k_ > 0 ? std::numeric_limits<int64_t>::max() : -1;
}

void TopKHeap::Admit(Match m) {
  if (heap_.size() < k_) {
    heap_.push_back(m);
    std::push_heap(heap_.begin(), heap_.end(), ByRank());
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), ByRank());
    heap_.back() = m;
    std::push_heap(heap_.begin(), heap_.end(), ByRank());
  }
  if (heap_.size() == k_) {
    bound_score_ = heap_.front().score;
    bound_index_ = heap_.front().index;
  }
}

std::vector<Match> TopKHeap::Take() {
  std::sort_heap(heap_.begin(), heap_.end(), ByRank());
  std::vector<Match> out;
  out.swap(heap_);
  ResetBound();
  return out;
}

std::vector<double> TopK::ScoreAll(
    const std::vector<float>& query,
    const std::vector<std::vector<float>>& candidates) {
  std::vector<double> scores(candidates.size(), 0.0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].empty() || query.empty()) continue;
    scores[i] = embed::EmbeddingTable::CosineVec(query, candidates[i]);
  }
  return scores;
}

std::vector<Match> TopK::Select(const std::vector<double>& scores, size_t k) {
  const size_t n = scores.size();
  const double* s = scores.data();
  TopKHeap top(std::min(k, n));
  for (size_t i = 0; i < n; ++i) top.Push(static_cast<int32_t>(i), s[i]);
  return top.Take();
}

std::vector<int32_t> TopK::FullRanking(const std::vector<double>& scores) {
  std::vector<int32_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](int32_t a, int32_t b) {
    return RankBefore(scores[static_cast<size_t>(a)], a,
                      scores[static_cast<size_t>(b)], b);
  });
  return idx;
}

}  // namespace match
}  // namespace tdmatch
