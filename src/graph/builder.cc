#include "graph/builder.h"

#include <algorithm>
#include <unordered_set>

#include "text/tfidf.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace tdmatch {
namespace graph {

namespace {

/// Per-document preprocessed view: base tokens per unit. For tables a unit
/// is a cell (n-grams must not cross cell boundaries); for text/taxonomy
/// documents there is a single unit.
struct DocUnits {
  std::vector<std::vector<std::string>> units;
};

/// Tokenizes every document, sharded per document block: each worker owns
/// a contiguous doc range and writes only its own slots, and the
/// preprocessor is stateless-const, so the output is identical for any
/// thread count.
std::vector<DocUnits> PreprocessCorpus(const corpus::Corpus& c,
                                       const text::Preprocessor& pp,
                                       size_t threads) {
  std::vector<DocUnits> out(c.NumDocs());
  if (c.type() == corpus::CorpusType::kTable) {
    const corpus::Table& t = *c.table();
    util::ThreadPool::ParallelFor(
        t.NumRows(), threads,
        [&](size_t begin, size_t end, size_t /*thread_idx*/) {
          for (size_t r = begin; r < end; ++r) {
            out[r].units.resize(t.NumColumns());
            for (size_t col = 0; col < t.NumColumns(); ++col) {
              out[r].units[col] = pp.Tokens(t.cell(r, col));
            }
          }
        });
  } else {
    util::ThreadPool::ParallelFor(
        c.NumDocs(), threads,
        [&](size_t begin, size_t end, size_t /*thread_idx*/) {
          for (size_t i = begin; i < end; ++i) {
            out[i].units.push_back(pp.Tokens(c.DocText(i)));
          }
        });
  }
  return out;
}

size_t CountDistinct(const std::vector<DocUnits>& docs) {
  std::unordered_set<std::string> distinct;
  for (const auto& d : docs) {
    for (const auto& u : d.units) {
      distinct.insert(u.begin(), u.end());
    }
  }
  return distinct.size();
}

/// Applies the TF-IDF top-k filter in place (Fig. 9 baseline).
void ApplyTfIdfFilter(std::vector<DocUnits>* docs, size_t k) {
  text::TfIdf tfidf;
  std::vector<std::vector<std::string>> flat;
  flat.reserve(docs->size());
  for (const auto& d : *docs) {
    std::vector<std::string> all;
    for (const auto& u : d.units) all.insert(all.end(), u.begin(), u.end());
    flat.push_back(std::move(all));
  }
  tfidf.Fit(flat);
  for (size_t i = 0; i < docs->size(); ++i) {
    // Keep tokens that survive the per-document top-k selection.
    auto kept = tfidf.TopK(flat[i], k);
    std::unordered_set<std::string> keep(kept.begin(), kept.end());
    for (auto& u : (*docs)[i].units) {
      std::vector<std::string> filtered;
      for (auto& tok : u) {
        if (keep.count(tok) > 0) filtered.push_back(std::move(tok));
      }
      u = std::move(filtered);
    }
  }
}

}  // namespace

GraphBuilder::GraphBuilder(BuilderOptions options)
    : options_(options), preprocessor_(options.preprocess) {}

std::string GraphBuilder::MetaDocLabel(int corpus_idx, size_t doc) {
  return util::StrFormat("__D%d:%zu__", corpus_idx, doc);
}

std::string GraphBuilder::MetaColumnLabel(int corpus_idx,
                                          const std::string& column) {
  return util::StrFormat("__C%d:%s__", corpus_idx, column.c_str());
}

std::string GraphBuilder::NormalizeLabel(const text::Preprocessor& pp,
                                         const std::string& raw) {
  return util::Join(pp.Tokens(raw), " ");
}

util::Result<Graph> GraphBuilder::Build(const corpus::Corpus& first,
                                        const corpus::Corpus& second) const {
  if (first.NumDocs() == 0 || second.NumDocs() == 0) {
    return util::Status::InvalidArgument("both corpora must be non-empty");
  }
  Graph g;
  const corpus::Corpus* corpora[2] = {&first, &second};
  std::vector<DocUnits> pre[2] = {
      PreprocessCorpus(first, preprocessor_, options_.threads),
      PreprocessCorpus(second, preprocessor_, options_.threads)};

  if (options_.filter == FilterMode::kTfIdf) {
    ApplyTfIdfFilter(&pre[0], options_.tfidf_top_k);
    ApplyTfIdfFilter(&pre[1], options_.tfidf_top_k);
  }

  // §II-B: with the Intersect filter, data nodes are created from the corpus
  // with fewer distinct tokens; the other corpus only links existing nodes.
  int creator = 0;
  if (options_.filter == FilterMode::kIntersect) {
    creator = CountDistinct(pre[0]) <= CountDistinct(pre[1]) ? 0 : 1;
  }

  // Optional numeric bucketing fitted over single tokens of both corpora.
  NumericBucketer bucketer;
  if (options_.bucket_numbers) {
    std::vector<std::string> all_tokens;
    for (int ci = 0; ci < 2; ++ci) {
      for (const auto& d : pre[ci]) {
        for (const auto& u : d.units) {
          all_tokens.insert(all_tokens.end(), u.begin(), u.end());
        }
      }
    }
    if (options_.fixed_buckets > 0) {
      bucketer.FitFixedBuckets(all_tokens, options_.fixed_buckets);
    } else {
      bucketer.Fit(all_tokens);
    }
  }

  const text::NGramGenerator ngrams(options_.preprocess.max_ngram);

  // Canonicalizes a term: bucket numeric singles, then apply the merge map.
  auto canonical = [&](const std::string& term) -> std::string {
    std::string t = term;
    if (options_.bucket_numbers && bucketer.fitted()) {
      t = bucketer.BucketLabel(t);
    }
    if (options_.merge_map != nullptr) {
      auto it = options_.merge_map->find(t);
      if (it != options_.merge_map->end()) t = it->second;
    }
    return t;
  };

  // Per-document work is pipelined in blocks: n-gram generation +
  // canonicalization — the dominant cost of Alg. 1 and a pure
  // per-document map (the bucketer and merge map are read-only here) —
  // runs sharded across the pool for one block of documents, then the
  // graph mutation consumes that block sequentially in canonical document
  // order before the next block's terms are generated. The resulting
  // graph is identical for every thread count, and the materialized term
  // strings never exceed one block.
  constexpr size_t kDocBlock = 2048;

  // Processes one corpus: metadata nodes always; data nodes created when
  // `create_nodes`, otherwise only edges to pre-existing nodes (Alg. 1
  // lines 27-34).
  auto process = [&](int ci, bool create_nodes) {
    const corpus::Corpus& c = *corpora[ci];
    const bool is_table = c.type() == corpus::CorpusType::kTable;
    const bool is_structured =
        c.type() == corpus::CorpusType::kStructuredText;

    // Column metadata nodes (Alg. 1 lines 5-10).
    std::vector<NodeId> col_nodes;
    if (is_table) {
      const corpus::Table& t = *c.table();
      for (const auto& col : t.column_names()) {
        col_nodes.push_back(g.AddNode(MetaColumnLabel(ci, col),
                                      NodeType::kMetadataColumn,
                                      static_cast<CorpusTag>(ci)));
      }
    }

    // block_terms[i][u]: canonical terms of unit u of doc block_start + i.
    std::vector<std::vector<std::vector<std::string>>> block_terms;
    for (size_t block_start = 0; block_start < c.NumDocs();
         block_start += kDocBlock) {
      const size_t block_end = std::min(c.NumDocs(), block_start + kDocBlock);
      block_terms.assign(block_end - block_start, {});
      util::ThreadPool::ParallelFor(
          block_end - block_start, options_.threads,
          [&](size_t begin, size_t end, size_t /*thread_idx*/) {
            for (size_t i = begin; i < end; ++i) {
              const DocUnits& units = pre[ci][block_start + i];
              block_terms[i].resize(units.units.size());
              for (size_t u = 0; u < units.units.size(); ++u) {
                for (const std::string& raw_term :
                     ngrams.GenerateUnique(units.units[u])) {
                  std::string term = canonical(raw_term);
                  if (term.empty()) continue;
                  block_terms[i][u].push_back(std::move(term));
                }
              }
            }
          });

      for (size_t d = block_start; d < block_end; ++d) {
        NodeId doc_node =
            g.AddNode(MetaDocLabel(ci, d), NodeType::kMetadataDoc,
                      static_cast<CorpusTag>(ci), static_cast<int32_t>(d));

        // Structured text: connect to parent metadata node (lines 12-15).
        if (is_structured && options_.connect_structured_parents) {
          int32_t parent = c.ParentOf(d);
          if (parent >= 0) {
            NodeId pn =
                g.FindNode(MetaDocLabel(ci, static_cast<size_t>(parent)));
            if (pn != kInvalidNode) g.AddEdge(doc_node, pn);
          }
        }

        const auto& units = block_terms[d - block_start];
        for (size_t u = 0; u < units.size(); ++u) {
          for (const std::string& term : units[u]) {
            NodeId tn;
            if (create_nodes) {
              tn = g.AddNode(term, NodeType::kData);
            } else {
              tn = g.FindNode(term);
              if (tn == kInvalidNode) continue;  // filtered out (§II-B)
            }
            g.AddEdge(doc_node, tn);
            if (is_table) g.AddEdge(col_nodes[u], tn);
          }
        }
      }
    }
  };

  if (options_.filter == FilterMode::kIntersect) {
    process(creator, /*create_nodes=*/true);
    process(1 - creator, /*create_nodes=*/false);
  } else {
    process(0, /*create_nodes=*/true);
    process(1, /*create_nodes=*/true);
  }
  // Hand downstream consumers (walker, BFS) the flat CSR adjacency.
  g.Finalize();
  return g;
}

}  // namespace graph
}  // namespace tdmatch
