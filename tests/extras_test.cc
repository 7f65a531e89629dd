#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "corpus/loader.h"
#include "embed/io.h"
#include "graph/builder.h"
#include "graph/stats.h"
#include "match/blocking.h"
#include "testing/mutate.h"
#include "util/csv.h"
#include "util/rng.h"

namespace tdmatch {
namespace {

// ---------------------------------------------------------------------------
// graph::ComputeStatistics
// ---------------------------------------------------------------------------

graph::Graph StatsGraph() {
  graph::Graph g;
  graph::NodeId p = g.AddNode("__D0:0__", graph::NodeType::kMetadataDoc, 0, 0);
  graph::NodeId t = g.AddNode("__D1:0__", graph::NodeType::kMetadataDoc, 1, 0);
  graph::NodeId w = g.AddNode("willi");
  graph::NodeId c = g.AddNode("__C1:genre__",
                              graph::NodeType::kMetadataColumn, 1);
  g.AddNode("isolated");
  g.AddEdge(p, w);
  g.AddEdge(t, w);
  g.AddEdge(t, c);
  return g;
}

TEST(GraphStatsTest, CountsAndDegrees) {
  auto s = graph::ComputeStatistics(StatsGraph());
  EXPECT_EQ(s.nodes, 5u);
  EXPECT_EQ(s.edges, 3u);
  EXPECT_EQ(s.data_nodes, 2u);  // willi + isolated
  EXPECT_EQ(s.metadata_doc_nodes, 2u);
  EXPECT_EQ(s.metadata_column_nodes, 1u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_EQ(s.isolated_nodes, 1u);
  EXPECT_EQ(s.connected_components, 2u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 6.0 / 5.0);
}

TEST(GraphStatsTest, MetadataDistance) {
  auto s = graph::ComputeStatistics(StatsGraph(), 16, 1);
  // The single cross-corpus pair is at distance 2 via "willi".
  EXPECT_DOUBLE_EQ(s.avg_metadata_distance, 2.0);
  EXPECT_DOUBLE_EQ(s.metadata_reachability, 1.0);
}

TEST(GraphStatsTest, FormatMentionsKeyNumbers) {
  std::string txt = graph::FormatStatistics(
      graph::ComputeStatistics(StatsGraph()));
  EXPECT_NE(txt.find("nodes=5"), std::string::npos);
  EXPECT_NE(txt.find("components=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// corpus::Loader
// ---------------------------------------------------------------------------

TEST(LoaderTest, TableCsvRoundTrip) {
  corpus::Table t("movies", {"title", "genre"});
  ASSERT_TRUE(t.AddRow({"Pulp Fiction", "Drama, Crime"}).ok());
  ASSERT_TRUE(t.AddRow({"The \"Best\"", "Comedy"}).ok());
  std::string path = testing::TempDir() + "/tdm_loader_table.csv";
  ASSERT_TRUE(corpus::Loader::TableToCsv(t, path).ok());
  auto back = corpus::Loader::TableFromCsv(path, "movies");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->NumRows(), 2u);
  EXPECT_EQ(back->cell(0, 1), "Drama, Crime");
  EXPECT_EQ(back->cell(1, 0), "The \"Best\"");
  std::remove(path.c_str());
}

TEST(LoaderTest, TableFromCsvRejectsRaggedRows) {
  std::string path = testing::TempDir() + "/tdm_loader_ragged.csv";
  ASSERT_TRUE(util::Csv::WriteFile(path, {{"a", "b"}, {"only-one"}}).ok());
  EXPECT_FALSE(corpus::Loader::TableFromCsv(path, "x").ok());
  std::remove(path.c_str());
}

TEST(LoaderTest, TextsFromFileSkipsBlankLines) {
  std::string path = testing::TempDir() + "/tdm_loader_texts.txt";
  {
    std::ofstream out(path);
    out << "first paragraph\n\n  \nsecond paragraph\n";
  }
  auto corpus = corpus::Loader::TextsFromFile(path, "docs");
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->NumDocs(), 2u);
  EXPECT_EQ(corpus->DocText(1), "second paragraph");
  EXPECT_EQ(corpus->DocId(0), "docs:1");
  std::remove(path.c_str());
}

TEST(LoaderTest, TaxonomyFromCsv) {
  std::string path = testing::TempDir() + "/tdm_loader_tax.csv";
  ASSERT_TRUE(util::Csv::WriteFile(path, {{"label", "parent"},
                                          {"audit", ""},
                                          {"planning", "0"},
                                          {"execution", "0"},
                                          {"pdca", "1"}})
                  .ok());
  auto tax = corpus::Loader::TaxonomyFromCsv(path);
  ASSERT_TRUE(tax.ok()) << tax.status().ToString();
  EXPECT_EQ(tax->NumConcepts(), 4u);
  EXPECT_EQ(tax->parent(3), 1);
  EXPECT_EQ(tax->Depth(3), 3u);
  std::remove(path.c_str());
}

TEST(LoaderTest, TaxonomyRejectsForwardParent) {
  std::string path = testing::TempDir() + "/tdm_loader_tax_bad.csv";
  ASSERT_TRUE(util::Csv::WriteFile(
                  path, {{"label", "parent"}, {"a", "5"}})
                  .ok());
  EXPECT_FALSE(corpus::Loader::TaxonomyFromCsv(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// corpus::Loader — JSONL
// ---------------------------------------------------------------------------

std::string WriteTempFile(const std::string& name, const std::string& body) {
  std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << body;
  return path;
}

TEST(LoaderTest, TableFromJsonlUsesFirstRecordAsSchema) {
  std::string path = WriteTempFile(
      "tdm_loader_table.jsonl",
      "{\"title\": \"Pulp Fiction\", \"year\": 1994, \"seen\": true}\n"
      "\n"
      "{\"year\": 1999, \"title\": \"The Sixth \\\"Sense\\\"\"}\n");
  auto t = corpus::Loader::TableFromJsonl(path, "movies");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->column_names(),
            (std::vector<std::string>{"title", "year", "seen"}));
  EXPECT_EQ(t->NumRows(), 2u);
  EXPECT_EQ(t->cell(0, 1), "1994");
  EXPECT_EQ(t->cell(0, 2), "true");
  EXPECT_EQ(t->cell(1, 0), "The Sixth \"Sense\"");
  EXPECT_EQ(t->cell(1, 2), "");  // omitted field → empty cell, like CSV
  std::remove(path.c_str());
}

TEST(LoaderTest, TableFromJsonlRejectsUnknownFieldsAndNesting) {
  std::string path = WriteTempFile(
      "tdm_loader_table_bad.jsonl",
      "{\"a\": 1}\n{\"a\": 2, \"b\": 3}\n");
  auto t = corpus::Loader::TableFromJsonl(path, "x");
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("'b'"), std::string::npos);

  path = WriteTempFile("tdm_loader_table_nested.jsonl",
                       "{\"a\": {\"nested\": 1}}\n");
  EXPECT_FALSE(corpus::Loader::TableFromJsonl(path, "x").ok());

  path = WriteTempFile("tdm_loader_table_garbage.jsonl", "not json\n");
  EXPECT_FALSE(corpus::Loader::TableFromJsonl(path, "x").ok());
  std::remove(path.c_str());
}

TEST(LoaderTest, TextsFromJsonlMapsFields) {
  std::string path = WriteTempFile(
      "tdm_loader_texts.jsonl",
      "{\"id\": \"r1\", \"text\": \"a comedy with Bruce Willis\"}\n"
      "{\"text\": \"escaped \\u0041 and\\nnewline\"}\n");
  auto c = corpus::Loader::TextsFromJsonl(path, "reviews");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->NumDocs(), 2u);
  EXPECT_EQ(c->DocId(0), "r1");
  EXPECT_EQ(c->DocId(1), "reviews:2");  // no id field → line-number id
  EXPECT_EQ(c->DocText(1), "escaped A and\nnewline");
  std::remove(path.c_str());
}

TEST(LoaderTest, TextsFromJsonlDecodesSurrogatePairs) {
  // json.dumps escapes non-BMP characters as UTF-16 surrogate pairs; the
  // loader must emit the real code point's UTF-8, not two lone
  // surrogates (CESU-8).
  std::string path = WriteTempFile(
      "tdm_loader_surrogate.jsonl",
      "{\"text\": \"grin \\ud83d\\ude00 end\"}\n");
  auto c = corpus::Loader::TextsFromJsonl(path, "emoji");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->DocText(0), "grin \xF0\x9F\x98\x80 end");

  path = WriteTempFile("tdm_loader_lone_surrogate.jsonl",
                       "{\"text\": \"bad \\ud83d alone\"}\n");
  EXPECT_FALSE(corpus::Loader::TextsFromJsonl(path, "emoji").ok());
  path = WriteTempFile("tdm_loader_low_surrogate.jsonl",
                       "{\"text\": \"bad \\ude00 alone\"}\n");
  EXPECT_FALSE(corpus::Loader::TextsFromJsonl(path, "emoji").ok());
  std::remove(path.c_str());
}

TEST(LoaderTest, TextsFromJsonlCustomFieldMapping) {
  std::string path = WriteTempFile(
      "tdm_loader_texts_custom.jsonl",
      "{\"claim_id\": \"c9\", \"claim\": \"the moon is cheese\"}\n");
  corpus::JsonlTextOptions opts;
  opts.id_field = "claim_id";
  opts.text_field = "claim";
  auto c = corpus::Loader::TextsFromJsonl(path, "claims", opts);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->DocId(0), "c9");
  EXPECT_EQ(c->DocText(0), "the moon is cheese");

  // Records without the mapped text field are an error, not a skip.
  EXPECT_FALSE(corpus::Loader::TextsFromJsonl(path, "claims").ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// corpus::Loader — seeded mutation
// ---------------------------------------------------------------------------

/// A mutant of one of `seeds`: 1-3 stacked testutil::Mutate steps.
std::string MutantOf(const std::vector<std::string>& seeds, util::Rng* rng) {
  std::string bytes = seeds[rng->UniformInt(seeds.size())];
  const size_t steps = 1 + rng->UniformInt(3);
  for (size_t i = 0; i < steps; ++i) {
    bytes = testutil::Mutate(bytes, testutil::MutationLayout{}, rng);
  }
  return bytes;
}

/// Every accepted table is rectangular under its header.
void ExpectWellFormed(const corpus::Table& t) {
  EXPECT_GT(t.NumColumns(), 0u);
  for (size_t r = 0; r < t.NumRows(); ++r) {
    EXPECT_EQ(t.row(r).size(), t.NumColumns());
  }
}

/// Fixed seed, fixed budget: each mutated file either loads into a
/// well-formed value or fails with a Status — never a crash or a hang
/// (CI's sanitizer job runs this under ASan+UBSan).
TEST(LoaderTest, MutatedInputsLoadOrFailCleanly) {
  const std::vector<std::string> csv_seeds = {
      "title,year,genre\nPulp Fiction,1994,crime\n"
      "\"The Sixth \"\"Sense\"\"\",1999,\"drama, thriller\"\n",
      "a,b\n\"multi\nline\",2\n,\n",
  };
  const std::vector<std::string> table_seeds = {
      "{\"title\": \"Pulp Fiction\", \"year\": 1994, \"seen\": true}\n"
      "\n{\"year\": 1999, \"title\": \"The \\\"Sixth\\\" Sense\", "
      "\"seen\": null}\n",
      "{\"a\": -1.5e3, \"b\": false}\n{\"b\": \"x\\u0041\\n\"}\n",
  };
  const std::vector<std::string> text_seeds = {
      "{\"id\": \"r1\", \"text\": \"a comedy with Bruce Willis\"}\n"
      "{\"text\": \"escaped \\u0041 and\\nnewline\"}\n",
      "{\"text\": \"grin \\ud83d\\ude00 end\", \"id\": 7}\n\n",
  };
  std::string path;
  util::Rng rng(20261019);
  const size_t kMutants = 3000;
  size_t loaded = 0, rejected = 0;
  for (size_t m = 0; m < kMutants; ++m) {
    const size_t kind = m % 3;
    const std::vector<std::string>& seeds =
        kind == 0 ? csv_seeds : kind == 1 ? table_seeds : text_seeds;
    const std::string mutant = MutantOf(seeds, &rng);
    path = WriteTempFile("tdm_loader_fuzz", mutant);
    bool ok = false;
    if (kind == 0) {
      auto t = corpus::Loader::TableFromCsv(path, "t");
      ok = t.ok();
      if (ok) ExpectWellFormed(*t);
    } else if (kind == 1) {
      auto t = corpus::Loader::TableFromJsonl(path, "t");
      ok = t.ok();
      if (ok) ExpectWellFormed(*t);
    } else {
      auto c = corpus::Loader::TextsFromJsonl(path, "c");
      ok = c.ok();
      if (ok) {
        EXPECT_GT(c->NumDocs(), 0u);
        for (size_t d = 0; d < c->NumDocs(); ++d) {
          EXPECT_FALSE(c->DocText(d).empty()) << mutant;
          EXPECT_FALSE(c->DocId(d).empty()) << mutant;
        }
      }
    }
    if (ok) {
      ++loaded;
    } else {
      ++rejected;
    }
  }
  std::remove(path.c_str());
  // The budget reaches both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// embed::EmbeddingIo
// ---------------------------------------------------------------------------

TEST(EmbeddingIoTest, RoundTripWithSpacedLabels) {
  embed::EmbeddingTable t(3);
  t.Put("plain", {1.0f, 2.0f, 3.0f});
  t.Put("bruce willi", {-0.5f, 0.0f, 0.25f});
  std::string path = testing::TempDir() + "/tdm_vectors.txt";
  ASSERT_TRUE(embed::EmbeddingIo::Save(t, path).ok());
  auto back = embed::EmbeddingIo::Load(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->size(), 2u);
  ASSERT_NE(back->Get("bruce willi"), nullptr);
  EXPECT_FLOAT_EQ((*back->Get("bruce willi"))[2], 0.25f);
  EXPECT_FLOAT_EQ((*back->Get("plain"))[0], 1.0f);
  std::remove(path.c_str());
}

TEST(EmbeddingIoTest, LoadRejectsTruncated) {
  std::string path = testing::TempDir() + "/tdm_vectors_bad.txt";
  {
    std::ofstream out(path);
    out << "2 3\nword 1 2 3\nshort 1\n";
  }
  EXPECT_FALSE(embed::EmbeddingIo::Load(path).ok());
  std::remove(path.c_str());
}

TEST(EmbeddingIoTest, LoadMissingFile) {
  EXPECT_TRUE(
      embed::EmbeddingIo::Load("/no/such/file.txt").status().IsIOError());
}

TEST(EmbeddingIoTest, LoadRejectsDimensionMismatch) {
  std::string path = testing::TempDir() + "/tdm_vectors_dim.txt";
  {
    std::ofstream out(path);
    // Header promises dim 2; the second row carries 3 values. The stream-
    // based reader used to absorb the extra value into the next label.
    out << "2 2\nalpha 1 2\nbeta 1 2 3\n";
  }
  auto r = embed::EmbeddingIo::Load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find("dimension mismatch"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("beta"), std::string::npos);
  std::remove(path.c_str());
}

TEST(EmbeddingIoTest, LoadRejectsVocabSizeMismatch) {
  std::string path = testing::TempDir() + "/tdm_vectors_vocab.txt";
  {
    std::ofstream out(path);
    out << "3 2\nalpha 1 2\nbeta 3 4\n";  // promises 3 entries, has 2
  }
  auto fewer = embed::EmbeddingIo::Load(path);
  ASSERT_FALSE(fewer.ok());
  EXPECT_TRUE(fewer.status().IsInvalidArgument());
  EXPECT_NE(fewer.status().message().find("vocab size mismatch"),
            std::string::npos)
      << fewer.status().ToString();

  {
    std::ofstream out(path);
    out << "1 2\nalpha 1 2\nbeta 3 4\n";  // promises 1 entry, has 2
  }
  auto more = embed::EmbeddingIo::Load(path);
  ASSERT_FALSE(more.ok());
  EXPECT_NE(more.status().message().find("vocab size mismatch"),
            std::string::npos)
      << more.status().ToString();
  std::remove(path.c_str());
}

TEST(EmbeddingIoTest, LoadRejectsNonNumericValue) {
  std::string path = testing::TempDir() + "/tdm_vectors_nan.txt";
  {
    std::ofstream out(path);
    out << "1 2\nalpha 1 bogus\n";
  }
  auto r = embed::EmbeddingIo::Load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bogus"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// match::TokenBlocker
// ---------------------------------------------------------------------------

corpus::Corpus BlockCandidates() {
  corpus::Table t("movies", {"title", "actor"});
  EXPECT_TRUE(t.AddRow({"Sixth Sense", "Bruce Willis"}).ok());
  EXPECT_TRUE(t.AddRow({"Pulp Fiction", "Bruce Willis"}).ok());
  EXPECT_TRUE(t.AddRow({"Moonrise Kingdom", "Bill Murray"}).ok());
  return corpus::Corpus::FromTable(t);
}

TEST(BlockingTest, BlockContainsSharedTermCandidates) {
  match::TokenBlocker blocker;
  blocker.Index(BlockCandidates());
  auto block = blocker.Block("a film with bruce willis in it");
  // Both Willis movies share terms; the Murray one does not.
  EXPECT_EQ(block.size(), 2u);
  for (int32_t c : block) EXPECT_NE(c, 2);
}

TEST(BlockingTest, EmptyBlockForUnrelatedQuery) {
  match::TokenBlocker blocker;
  blocker.Index(BlockCandidates());
  EXPECT_TRUE(blocker.Block("completely unrelated words").empty());
}

TEST(BlockingTest, HubTermsIgnored) {
  // "bruce willis" appears in 2/3 of candidates; with a strict cap the
  // shared surname is treated as a hub and contributes nothing.
  match::TokenBlocker::Options opts;
  opts.max_term_frequency = 0.05;
  match::TokenBlocker blocker(opts);
  blocker.Index(BlockCandidates());
  auto block = blocker.Block("bruce willis");
  EXPECT_TRUE(block.empty());
}

TEST(BlockingTest, MinSharedTermsFilters) {
  match::TokenBlocker::Options opts;
  opts.min_shared_terms = 3;
  match::TokenBlocker blocker(opts);
  blocker.Index(BlockCandidates());
  // Shares "pulp", "fiction", "pulp fiction" (n-gram) with row 1 only.
  auto block = blocker.Block("the pulp fiction film");
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0], 1);
}

TEST(BlockingTest, AverageBlockFractionBounded) {
  match::TokenBlocker blocker;
  blocker.Index(BlockCandidates());
  corpus::Corpus queries = corpus::Corpus::FromTexts(
      "q", {{"q0", "bruce willis"}, {"q1", "nothing shared"}});
  double frac = blocker.AverageBlockFraction(queries);
  EXPECT_GT(frac, 0.0);
  EXPECT_LE(frac, 1.0);
}

}  // namespace
}  // namespace tdmatch
