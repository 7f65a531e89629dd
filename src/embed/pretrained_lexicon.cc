#include "embed/pretrained_lexicon.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "embed/embedding_table.h"
#include "util/string_util.h"

namespace tdmatch {
namespace embed {

namespace {

/// Disjoint-set for merge classes.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

PretrainedLexicon::PretrainedLexicon() : PretrainedLexicon(Options{}) {}

PretrainedLexicon::PretrainedLexicon(Options options)
    : options_(options), w2v_(options.w2v) {}

util::Status PretrainedLexicon::Train(
    const std::vector<std::vector<std::string>>& sentences) {
  std::vector<std::vector<int32_t>> ids;
  ids.reserve(sentences.size());
  for (const auto& s : sentences) {
    std::vector<int32_t> row;
    row.reserve(s.size());
    for (const auto& w : s) row.push_back(vocab_.Add(w));
    ids.push_back(std::move(row));
  }
  if (vocab_.size() == 0) {
    return util::Status::InvalidArgument("empty pretraining corpus");
  }
  TDM_RETURN_NOT_OK(w2v_.Train(ids, vocab_.size()));
  trained_ = true;
  return util::Status::OK();
}

std::vector<float> PretrainedLexicon::CharVector(
    const std::string& word) const {
  const int dim = options_.w2v.dim;
  std::vector<float> v(static_cast<size_t>(dim), 0.0f);
  // Pad so even 1-2 char words produce 3-grams.
  std::string padded = "^" + word + "$";
  size_t count = 0;
  for (size_t n = 2; n <= 3; ++n) {
    if (padded.size() < n) continue;
    for (size_t i = 0; i + n <= padded.size(); ++i) {
      uint64_t h = util::FnvHash(std::string_view(padded).substr(i, n),
                                 options_.hash_seed);
      const size_t d = static_cast<size_t>(h % static_cast<uint64_t>(dim));
      const float sign = (h >> 32) & 1 ? 1.0f : -1.0f;
      v[d] += sign;
      ++count;
    }
  }
  if (count > 0) EmbeddingTable::Normalize(&v);
  return v;
}

std::vector<float> PretrainedLexicon::WordVector(
    const std::string& word) const {
  const int dim = options_.w2v.dim;
  int32_t id = vocab_.Lookup(word);
  if (!trained_ || id == text::kInvalidTokenId) {
    return std::vector<float>(static_cast<size_t>(dim), 0.0f);
  }
  std::vector<float> v = w2v_.VectorCopy(id);
  EmbeddingTable::Normalize(&v);
  return v;
}

std::vector<float> PretrainedLexicon::Vector(const std::string& label) const {
  const int dim = options_.w2v.dim;
  const double cw = options_.char_weight;
  std::vector<std::string> tokens = util::SplitWhitespace(label);
  std::vector<float> out(static_cast<size_t>(dim), 0.0f);
  if (tokens.empty()) return out;
  for (const auto& tok : tokens) {
    std::vector<float> wv = WordVector(tok);
    std::vector<float> cv = CharVector(tok);
    const bool has_word =
        std::any_of(wv.begin(), wv.end(), [](float x) { return x != 0.0f; });
    // Unknown words rely fully on the char component.
    const double wweight = has_word ? 1.0 - cw : 0.0;
    const double cweight = has_word ? cw : 1.0;
    for (int d = 0; d < dim; ++d) {
      out[static_cast<size_t>(d)] += static_cast<float>(
          wweight * wv[static_cast<size_t>(d)] +
          cweight * cv[static_cast<size_t>(d)]);
    }
  }
  EmbeddingTable::Normalize(&out);
  return out;
}

double PretrainedLexicon::Cosine(const std::string& a,
                                 const std::string& b) const {
  return EmbeddingTable::CosineVec(Vector(a), Vector(b));
}

double PretrainedLexicon::CalibrateGamma(
    const std::vector<std::pair<std::string, std::string>>& synonym_pairs)
    const {
  if (synonym_pairs.empty()) return 0.57;  // paper's Wikipedia2Vec value
  double sum = 0.0;
  for (const auto& [a, b] : synonym_pairs) sum += Cosine(a, b);
  return sum / static_cast<double>(synonym_pairs.size());
}

graph::MergeMap PretrainedLexicon::BuildMergeMap(
    const std::vector<std::string>& labels, double gamma) const {
  // Bucket labels by each of their tokens and by short prefixes, so
  // variants ("b willi" / "bruce willi") and typos share at least one
  // bucket. Pairs are only scored inside buckets — near-linear overall.
  // Numeric labels never merge here (that is the bucketing mechanism's
  // job and string similarity between numbers is meaningless).
  std::unordered_map<std::string, std::vector<size_t>> buckets;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (util::IsNumeric(labels[i])) continue;
    for (const auto& tok : util::SplitWhitespace(labels[i])) {
      buckets["t:" + tok].push_back(i);
      if (tok.size() >= 3) buckets["p:" + tok.substr(0, 3)].push_back(i);
      if (tok.size() >= 4) buckets["q:" + tok.substr(0, 2)].push_back(i);
    }
  }

  std::vector<std::vector<float>> vecs(labels.size());
  std::vector<bool> have(labels.size(), false);
  auto vec_of = [&](size_t i) -> const std::vector<float>& {
    if (!have[i]) {
      vecs[i] = Vector(labels[i]);
      have[i] = true;
    }
    return vecs[i];
  };

  // Plausibility guard before the cosine test: a candidate pair must be a
  // typo-level variant, an abbreviation of the same name, or a synonym the
  // *trained word component* recognizes — pure char-ngram coincidence
  // between unrelated words must not merge them.
  auto plausible = [&](size_t a, size_t b) {
    const size_t dist = util::EditDistance(labels[a], labels[b]);
    if (dist <= 2 && std::max(labels[a].size(), labels[b].size()) >= 4) {
      return true;  // typo variant
    }
    auto ta = util::SplitWhitespace(labels[a]);
    auto tb = util::SplitWhitespace(labels[b]);
    if (ta.size() >= 2 && ta.size() == tb.size() &&
        ta.back() == tb.back()) {
      // Abbreviation pattern ("b willi" / "bruce willi"): same final token
      // and every leading token a prefix of its counterpart.
      bool prefixes = true;
      for (size_t k = 0; k + 1 < ta.size(); ++k) {
        if (!util::StartsWith(ta[k], tb[k]) &&
            !util::StartsWith(tb[k], ta[k])) {
          prefixes = false;
          break;
        }
      }
      if (prefixes) return true;
    }
    if (trained_ && ta.size() == 1 && tb.size() == 1) {
      const int32_t ia = vocab_.Lookup(ta[0]);
      const int32_t ib = vocab_.Lookup(tb[0]);
      if (ia != text::kInvalidTokenId && ib != text::kInvalidTokenId) {
        return w2v_.CosineIds(ia, ib) >= gamma;
      }
    }
    return false;
  };

  UnionFind uf(labels.size());
  constexpr size_t kMaxBucket = 64;  // skip hub buckets (ubiquitous tokens)
  for (const auto& [key, members] : buckets) {
    if (members.size() < 2 || members.size() > kMaxBucket) continue;
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        const size_t a = members[i];
        const size_t b = members[j];
        if (labels[a] == labels[b]) continue;
        if (uf.Find(a) == uf.Find(b)) continue;
        if (!plausible(a, b)) continue;
        if (EmbeddingTable::CosineVec(vec_of(a), vec_of(b)) >= gamma) {
          uf.Union(a, b);
        }
      }
    }
  }

  // Canonical member: lexicographically smallest label of the class.
  std::unordered_map<size_t, size_t> canon;
  for (size_t i = 0; i < labels.size(); ++i) {
    size_t root = uf.Find(i);
    auto it = canon.find(root);
    if (it == canon.end() || labels[i] < labels[it->second]) {
      canon[root] = i;
    }
  }
  graph::MergeMap map;
  for (size_t i = 0; i < labels.size(); ++i) {
    size_t c = canon[uf.Find(i)];
    if (c != i) map[labels[i]] = labels[c];
  }
  return map;
}

}  // namespace embed
}  // namespace tdmatch
