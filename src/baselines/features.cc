#include "baselines/features.h"

#include <algorithm>
#include <cmath>

#include "baselines/sbe.h"
#include "embed/embedding_table.h"
#include "util/string_util.h"

namespace tdmatch {
namespace baselines {

PairFeatures::DocCache PairFeatures::BuildCache(
    const std::string& text) const {
  DocCache c;
  c.tokens = tokenizer_.Tokenize(text);
  c.token_set.insert(c.tokens.begin(), c.tokens.end());
  for (const auto& t : c.tokens) {
    if (util::IsNumeric(t)) c.numbers.insert(t);
  }
  c.tfidf_vec = tfidf_.Vectorize(c.tokens);

  // Generic pre-trained-style sentence embedding (no corpus statistics).
  static const HashSentenceEncoder kEncoder{HashSentenceEncoder::Options{}};
  c.sbe_vec = kEncoder.Encode(text);

  // Hashed bag of words, L2 normalized; plus the truncated-input variant.
  auto build_bow = [](const std::vector<std::string>& tokens, size_t limit) {
    std::vector<double> bow(kHashBowDim, 0.0);
    const size_t upto = limit == 0 ? tokens.size()
                                   : std::min(limit, tokens.size());
    for (size_t i = 0; i < upto; ++i) {
      bow[util::FnvHash(tokens[i]) % kHashBowDim] += 1.0;
    }
    double norm = 0.0;
    for (double v : bow) norm += v * v;
    norm = std::sqrt(norm);
    if (norm > 0) {
      for (double& v : bow) v /= norm;
    }
    return bow;
  };
  c.hashed_bow = build_bow(c.tokens, 0);
  c.hashed_bow_trunc = build_bow(c.tokens, kTruncTokens);
  // Char 3-gram counts over the concatenated lower-cased text.
  std::string flat = util::ToLower(text);
  for (size_t i = 0; i + 3 <= flat.size(); ++i) {
    c.char_vec[flat.substr(i, 3)] += 1.0;
  }
  double cnorm = 0.0;
  for (const auto& [k, v] : c.char_vec) cnorm += v * v;
  cnorm = std::sqrt(cnorm);
  if (cnorm > 0) {
    for (auto& [k, v] : c.char_vec) v /= cnorm;
  }
  return c;
}

void PairFeatures::Fit(const corpus::Scenario& scenario) {
  scenario_ = &scenario;
  // TF-IDF fitted over all documents of both corpora.
  std::vector<std::vector<std::string>> all_tokens;
  for (size_t i = 0; i < scenario.first.NumDocs(); ++i) {
    all_tokens.push_back(tokenizer_.Tokenize(scenario.first.DocText(i)));
  }
  for (size_t i = 0; i < scenario.second.NumDocs(); ++i) {
    all_tokens.push_back(tokenizer_.Tokenize(scenario.second.DocText(i)));
  }
  tfidf_.Fit(all_tokens);

  queries_.clear();
  candidates_.clear();
  queries_.reserve(scenario.first.NumDocs());
  for (size_t i = 0; i < scenario.first.NumDocs(); ++i) {
    queries_.push_back(BuildCache(scenario.first.DocText(i)));
  }
  candidates_.reserve(scenario.second.NumDocs());
  for (size_t i = 0; i < scenario.second.NumDocs(); ++i) {
    candidates_.push_back(BuildCache(scenario.second.DocText(i)));
  }
}

double PairFeatures::SparseCosine(
    const std::unordered_map<std::string, double>& a,
    const std::unordered_map<std::string, double>& b) {
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& big = a.size() <= b.size() ? b : a;
  double dot = 0.0;
  for (const auto& [k, v] : small) {
    auto it = big.find(k);
    if (it != big.end()) dot += v * it->second;
  }
  return dot;
}

std::vector<double> PairFeatures::Extract(size_t q, size_t c) const {
  const DocCache& Q = queries_[q];
  const DocCache& C = candidates_[c];

  size_t inter = 0;
  for (const auto& t : Q.token_set) inter += C.token_set.count(t);
  const size_t uni = Q.token_set.size() + C.token_set.size() - inter;
  const double jaccard =
      uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
  const double containment =
      Q.token_set.empty()
          ? 0.0
          : static_cast<double>(inter) /
                static_cast<double>(Q.token_set.size());

  // IDF-weighted containment: rare shared tokens count more.
  double idf_shared = 0.0, idf_total = 0.0;
  for (const auto& t : Q.token_set) {
    const double idf = tfidf_.Idf(t);
    idf_total += idf;
    if (C.token_set.count(t) > 0) idf_shared += idf;
  }
  const double idf_containment = idf_total == 0 ? 0.0 : idf_shared / idf_total;

  size_t num_inter = 0;
  for (const auto& n : Q.numbers) num_inter += C.numbers.count(n);
  const double number_overlap =
      Q.numbers.empty() ? 0.0
                        : static_cast<double>(num_inter) /
                              static_cast<double>(Q.numbers.size());

  const double len_ratio =
      Q.tokens.empty() || C.tokens.empty()
          ? 0.0
          : static_cast<double>(std::min(Q.tokens.size(), C.tokens.size())) /
                static_cast<double>(
                    std::max(Q.tokens.size(), C.tokens.size()));

  return {SparseCosine(Q.tfidf_vec, C.tfidf_vec),
          jaccard,
          containment,
          idf_containment,
          number_overlap,
          len_ratio,
          SparseCosine(Q.char_vec, C.char_vec)};
}

std::vector<double> PairFeatures::RerankerFeatures(size_t q, size_t c) const {
  const DocCache& Q = queries_[q];
  const DocCache& C = candidates_[c];
  size_t inter = 0;
  for (const auto& t : Q.token_set) inter += C.token_set.count(t);
  const size_t uni = Q.token_set.size() + C.token_set.size() - inter;
  const double jaccard =
      uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
  const double len_ratio =
      Q.tokens.empty() || C.tokens.empty()
          ? 0.0
          : static_cast<double>(std::min(Q.tokens.size(), C.tokens.size())) /
                static_cast<double>(
                    std::max(Q.tokens.size(), C.tokens.size()));
  return {embed::EmbeddingTable::CosineVec(Q.sbe_vec, C.sbe_vec),
          SparseCosine(Q.char_vec, C.char_vec), jaccard, len_ratio};
}

std::vector<double> PairFeatures::HashedInteraction(
    size_t q, size_t c, bool truncate_query) const {
  const DocCache& Q = queries_[q];
  const DocCache& C = candidates_[c];
  const std::vector<double>& qbow =
      truncate_query ? Q.hashed_bow_trunc : Q.hashed_bow;
  std::vector<double> out(kHashBowDim);
  for (size_t d = 0; d < kHashBowDim; ++d) {
    // Scaled so typical non-zero products are O(1) for the SGD trainers.
    out[d] = qbow[d] * C.hashed_bow[d] * 8.0;
  }
  return out;
}

std::vector<double> PairFeatures::ColumnFeatures(
    size_t q, size_t c, size_t max_columns,
    size_t query_prefix_tokens) const {
  std::vector<double> out(max_columns, 0.0);
  const corpus::Table* table = scenario_->second.table();
  if (table == nullptr) return out;
  const DocCache& Q = queries_[q];
  // Optional input truncation: transformers see only a bounded prefix.
  std::unordered_set<std::string> visible;
  const std::unordered_set<std::string>* tokens = &Q.token_set;
  if (query_prefix_tokens > 0 && Q.tokens.size() > query_prefix_tokens) {
    visible.insert(Q.tokens.begin(),
                   Q.tokens.begin() +
                       static_cast<std::ptrdiff_t>(query_prefix_tokens));
    tokens = &visible;
  }
  const size_t ncols = std::min(max_columns, table->NumColumns());
  for (size_t col = 0; col < ncols; ++col) {
    auto cell_tokens = tokenizer_.Tokenize(table->cell(c, col));
    if (cell_tokens.empty()) continue;
    size_t hit = 0;
    for (const auto& t : cell_tokens) hit += tokens->count(t);
    out[col] = static_cast<double>(hit) /
               static_cast<double>(cell_tokens.size());
  }
  return out;
}

std::vector<double> PairFeatures::SurfaceFeatures(size_t q, size_t c) const {
  auto full = Extract(q, c);
  // Extract() layout: [tfidf_cos, jaccard, containment, idf_containment,
  // number_overlap, len_ratio, char_cos] — keep only the weighting-free
  // surface signals (no corpus statistics, no query-normalized
  // containment / per-type number matching, which would amount to a
  // hand-tuned ranker rather than a learned one).
  return {full[1], full[5], full[6], 0.0, 0.0};
}

}  // namespace baselines
}  // namespace tdmatch
