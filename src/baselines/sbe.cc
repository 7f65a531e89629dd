#include "baselines/sbe.h"

#include <cmath>

#include "embed/embedding_table.h"
#include "match/top_k.h"
#include "util/string_util.h"

namespace tdmatch {
namespace baselines {

HashSentenceEncoder::HashSentenceEncoder()
    : HashSentenceEncoder(Options{}) {}

HashSentenceEncoder::HashSentenceEncoder(Options options)
    : options_(options) {}

std::vector<float> HashSentenceEncoder::Encode(const std::string& text) const {
  const int dim = options_.dim;
  std::vector<float> v(static_cast<size_t>(dim), 0.0f);
  auto tokens = tokenizer_.Tokenize(text);
  for (const auto& tok : tokens) {
    double w = tfidf_.num_docs() > 0 ? tfidf_.Idf(tok) : 1.0;
    if (w > options_.max_token_weight) w = options_.max_token_weight;
    // Word component.
    uint64_t h = util::FnvHash(tok, options_.hash_seed);
    const float sign = (h >> 32) & 1 ? 1.0f : -1.0f;
    v[static_cast<size_t>(h % static_cast<uint64_t>(dim))] +=
        static_cast<float>((1.0 - options_.char_weight) * w) * sign;
    // Char 3-gram component.
    std::string padded = "^" + tok + "$";
    const size_t n_grams = padded.size() >= 3 ? padded.size() - 2 : 0;
    for (size_t i = 0; i + 3 <= padded.size(); ++i) {
      uint64_t ch =
          util::FnvHash(padded.substr(i, 3), options_.hash_seed ^ 0x77);
      const float csign = (ch >> 32) & 1 ? 1.0f : -1.0f;
      v[static_cast<size_t>(ch % static_cast<uint64_t>(dim))] +=
          static_cast<float>(options_.char_weight * w /
                             static_cast<double>(n_grams)) *
          csign;
    }
  }
  embed::EmbeddingTable::Normalize(&v);
  return v;
}

util::Status HashSentenceEncoder::Fit(
    const corpus::Scenario& scenario,
    const std::vector<int32_t>& train_queries) {
  (void)train_queries;  // unsupervised
  // IDF statistics play the role of the frozen token weighting a
  // pre-trained encoder carries; fitted over both corpora so template
  // words are appropriately discounted.
  std::vector<std::vector<std::string>> docs;
  for (size_t i = 0; i < scenario.first.NumDocs(); ++i) {
    docs.push_back(tokenizer_.Tokenize(scenario.first.DocText(i)));
  }
  for (size_t i = 0; i < scenario.second.NumDocs(); ++i) {
    docs.push_back(tokenizer_.Tokenize(scenario.second.DocText(i)));
  }
  tfidf_.Fit(docs);

  candidate_vecs_.clear();
  candidate_vecs_.reserve(scenario.second.NumDocs());
  for (size_t i = 0; i < scenario.second.NumDocs(); ++i) {
    candidate_vecs_.push_back(Encode(scenario.second.DocText(i)));
  }
  query_vecs_.clear();
  query_vecs_.reserve(scenario.first.NumDocs());
  for (size_t i = 0; i < scenario.first.NumDocs(); ++i) {
    query_vecs_.push_back(Encode(scenario.first.DocText(i)));
  }
  return util::Status::OK();
}

std::vector<double> HashSentenceEncoder::ScoreCandidates(
    size_t query_index) const {
  return match::TopK::ScoreAll(query_vecs_[query_index], candidate_vecs_);
}

}  // namespace baselines
}  // namespace tdmatch
