#include "baselines/lbert.h"

#include <cmath>
#include <unordered_set>

#include "util/rng.h"
#include "util/string_util.h"

namespace tdmatch {
namespace baselines {

LBertProxy::LBertProxy() : LBertProxy(Options{}) {}

LBertProxy::LBertProxy(Options options) : options_(options) {}

std::vector<double> LBertProxy::Featurize(const std::string& text) const {
  std::vector<double> v(static_cast<size_t>(options_.feature_dim), 0.0);
  for (const auto& tok : tokenizer_.Tokenize(text)) {
    uint64_t h = util::FnvHash(tok, options_.hash_seed);
    v[static_cast<size_t>(
        h % static_cast<uint64_t>(options_.feature_dim))] += 1.0;
    // Subword (char 3-gram) features give some OOV generalization.
    std::string padded = "^" + tok + "$";
    for (size_t i = 0; i + 3 <= padded.size(); ++i) {
      uint64_t ch =
          util::FnvHash(padded.substr(i, 3), options_.hash_seed ^ 0x3);
      v[static_cast<size_t>(
          ch % static_cast<uint64_t>(options_.feature_dim))] += 0.3;
    }
  }
  // L2 normalization keeps the SGD well-conditioned.
  double norm = 0.0;
  for (double x : v) norm += x * x;
  norm = std::sqrt(norm);
  if (norm > 0) {
    for (double& x : v) x /= norm;
  }
  return v;
}

util::Status LBertProxy::Fit(const corpus::Scenario& scenario,
                             const std::vector<int32_t>& train_queries) {
  if (train_queries.empty()) {
    return util::Status::InvalidArgument("L-BE* is supervised");
  }
  const size_t num_concepts = scenario.second.NumDocs();
  per_concept_.assign(num_concepts,
                      LogisticRegression(options_.logreg));
  concept_trained_.assign(num_concepts, false);

  // Cache features for all queries (train + test share the extractor).
  query_features_.clear();
  query_features_.reserve(scenario.first.NumDocs());
  for (size_t q = 0; q < scenario.first.NumDocs(); ++q) {
    query_features_.push_back(Featurize(scenario.first.DocText(q)));
  }

  // Group train docs per concept.
  std::vector<std::vector<int32_t>> positives(num_concepts);
  for (int32_t q : train_queries) {
    for (int32_t c : scenario.gold[static_cast<size_t>(q)]) {
      positives[static_cast<size_t>(c)].push_back(q);
    }
  }

  util::Rng rng(options_.seed);
  for (size_t c = 0; c < num_concepts; ++c) {
    if (positives[c].empty()) continue;
    std::unordered_set<int32_t> pos_set(positives[c].begin(),
                                        positives[c].end());
    std::vector<Example> examples;
    for (int32_t q : positives[c]) {
      examples.push_back({query_features_[static_cast<size_t>(q)], 1.0});
      for (size_t n = 0; n < options_.negatives_per_positive; ++n) {
        int32_t neg = train_queries[static_cast<size_t>(
            rng.UniformInt(train_queries.size()))];
        if (pos_set.count(neg) > 0) continue;
        examples.push_back({query_features_[static_cast<size_t>(neg)], 0.0});
      }
    }
    TDM_RETURN_NOT_OK(per_concept_[c].Fit(examples));
    concept_trained_[c] = true;
  }
  return util::Status::OK();
}

std::vector<double> LBertProxy::ScoreCandidates(size_t query_index) const {
  std::vector<double> scores(per_concept_.size(), 0.0);
  const auto& f = query_features_[query_index];
  for (size_t c = 0; c < per_concept_.size(); ++c) {
    scores[c] = concept_trained_[c] ? per_concept_[c].Predict(f) : 0.0;
  }
  return scores;
}

}  // namespace baselines
}  // namespace tdmatch
