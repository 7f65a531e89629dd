#include "serve/index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
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

VectorMatrix VectorMatrix::Allocate(size_t n, int dim,
                                    std::vector<int32_t> order) {
  VectorMatrix m;
  m.dim_ = dim;
  m.data_.resize(n * static_cast<size_t>(dim));
  if (order.empty()) {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
  }
  TDM_CHECK_EQ(order.size(), n) << "order must name every candidate";
  m.positions_.assign(n, -1);
  for (size_t pos = 0; pos < n; ++pos) {
    const int32_t id = order[pos];
    TDM_CHECK(id >= 0 && static_cast<size_t>(id) < n &&
              m.positions_[static_cast<size_t>(id)] < 0)
        << "order is not a permutation of the candidate ids";
    m.positions_[static_cast<size_t>(id)] = static_cast<int32_t>(pos);
  }
  m.ids_ = std::move(order);
  return m;
}

VectorMatrix VectorMatrix::FromRows(
    const std::vector<const std::vector<float>*>& rows, int dim,
    std::vector<int32_t> order) {
  VectorMatrix m = Allocate(rows.size(), dim, std::move(order));
  for (size_t i = 0; i < rows.size(); ++i) {
    TDM_CHECK_EQ(rows[i]->size(), static_cast<size_t>(dim));
    float* dst = m.mutable_row(i);
    std::copy(rows[i]->begin(), rows[i]->end(), dst);
    NormalizeSlice(dst, dim);
  }
  return m;
}

VectorMatrix VectorMatrix::FromRawRows(const char* payload,
                                       const std::vector<size_t>& rows,
                                       int dim, std::vector<int32_t> order) {
  VectorMatrix m = Allocate(rows.size(), dim, std::move(order));
  const size_t row_bytes = static_cast<size_t>(dim) * sizeof(float);
  for (size_t i = 0; i < rows.size(); ++i) {
    float* dst = m.mutable_row(i);
    std::memcpy(dst, payload + rows[i] * row_bytes, row_bytes);
    NormalizeSlice(dst, dim);
  }
  return m;
}

VectorMatrix VectorMatrix::Reordered(std::vector<int32_t> order) const {
  VectorMatrix m = Allocate(size(), dim_, std::move(order));
  for (size_t id = 0; id < size(); ++id) {
    std::copy_n(row(id), dim_, m.mutable_row(id));
  }
  return m;
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
  const size_t d = static_cast<size_t>(data_->dim());
  const int32_t* ids = data_->ids().data();
  const float* rows = data_->row_at(0);
  match::TopKHeap top(std::min(k, n));
  for (size_t pos = 0; pos < n; ++pos) {
    const int32_t id = ids[pos];
    if (allowed != nullptr && !(*allowed)[static_cast<size_t>(id)]) continue;
    top.Push(id, simd::Dot(query, rows + pos * d, d));
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
