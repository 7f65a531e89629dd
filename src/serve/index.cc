#include "serve/index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "util/logging.h"
#include "util/simd/kernels.h"

namespace tdmatch {
namespace serve {

void NormalizeSlice(float* row, int dim) {
  double norm = 0.0;
  for (int d = 0; d < dim; ++d) {
    norm += static_cast<double>(row[d]) * row[d];
  }
  norm = std::sqrt(norm);
  if (norm == 0.0) return;
  for (int d = 0; d < dim; ++d) {
    row[d] = static_cast<float>(row[d] / norm);
  }
}

VectorMatrix VectorMatrix::FromRows(
    const std::vector<const std::vector<float>*>& rows, int dim) {
  VectorMatrix m;
  m.dim_ = dim;
  m.n_ = rows.size();
  m.data_.resize(m.n_ * static_cast<size_t>(dim));
  for (size_t i = 0; i < rows.size(); ++i) {
    TDM_CHECK_EQ(rows[i]->size(), static_cast<size_t>(dim));
    float* dst = m.data_.data() + i * static_cast<size_t>(dim);
    std::copy(rows[i]->begin(), rows[i]->end(), dst);
    NormalizeSlice(dst, dim);
  }
  return m;
}

VectorMatrix VectorMatrix::FromRawRows(const char* payload,
                                       const std::vector<size_t>& rows,
                                       int dim) {
  VectorMatrix m;
  m.dim_ = dim;
  m.n_ = rows.size();
  m.data_.resize(m.n_ * static_cast<size_t>(dim));
  const size_t row_bytes = static_cast<size_t>(dim) * sizeof(float);
  for (size_t i = 0; i < rows.size(); ++i) {
    float* dst = m.data_.data() + i * static_cast<size_t>(dim);
    std::memcpy(dst, payload + rows[i] * row_bytes, row_bytes);
    NormalizeSlice(dst, dim);
  }
  return m;
}

float VectorMatrix::Dot(const float* query, size_t i) const {
  return simd::Dot(query, row(i), static_cast<size_t>(dim_));
}

std::vector<match::Match> Index::SearchVec(
    const std::vector<float>& query, size_t k,
    const std::vector<char>* allowed) const {
  TDM_CHECK_EQ(query.size(), static_cast<size_t>(dim()));
  std::vector<float> q = query;
  NormalizeSlice(q.data(), dim());
  return Search(q.data(), k, allowed);
}

std::vector<match::Match> ExactIndex::Search(
    const float* query, size_t k, const std::vector<char>* allowed) const {
  const size_t n = data_->size();
  match::TopKHeap top(std::min(k, n));
  for (size_t i = 0; i < n; ++i) {
    if (allowed != nullptr && (*allowed)[i] == 0) continue;
    top.Push(static_cast<int32_t>(i), data_->Dot(query, i));
  }
  return top.Take();
}

double MeasureRecallAtK(const Index& approx, const Index& exact,
                        const std::vector<std::vector<float>>& queries,
                        size_t k) {
  if (queries.empty() || k == 0) return 0.0;
  double total = 0.0;
  for (const auto& q : queries) {
    const auto truth = exact.SearchVec(q, k);
    if (truth.empty()) continue;
    std::unordered_set<int32_t> truth_ids;
    for (const auto& m : truth) truth_ids.insert(m.index);
    size_t hits = 0;
    for (const auto& m : approx.SearchVec(q, k)) {
      hits += truth_ids.count(m.index);
    }
    total += static_cast<double>(hits) / static_cast<double>(truth.size());
  }
  return total / static_cast<double>(queries.size());
}

}  // namespace serve
}  // namespace tdmatch
