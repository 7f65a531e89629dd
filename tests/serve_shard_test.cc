// Tests for the scatter-gather serving stack: the consistent-hash
// Sharder, exact-mode bit-identity of ShardedQueryEngine across shard
// counts, per-shard adoption of the snapshot's global IVF section (and
// the fallback on hostile ones), the release of the snapshot pages a
// build copied, the AdmissionController + NprobeTuner
// front-door knobs (and the tuner's windowed control loop on a fake
// clock), the LRU ResultCache, and the MatchService overload/caching
// behavior over HTTP.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/admission.h"
#include "serve/http/client.h"
#include "serve/http/server.h"
#include "serve/http/service.h"
#include "serve/mmap_snapshot.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/sharded_engine.h"
#include "serve/sharder.h"
#include "serve/snapshot.h"
#include "util/json.h"
#include "util/rng.h"

namespace tdmatch {
namespace {

using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::NprobeTuner;
using serve::NprobeTunerOptions;
using serve::QueryEngine;
using serve::QueryEngineOptions;
using serve::ResultCache;
using serve::ResultCacheOptions;
using serve::ScoredMatch;
using serve::SearchMode;
using serve::Sharder;
using serve::SharderOptions;
using serve::ShardedEngineOptions;
using serve::ShardedQueryEngine;
using serve::http::HttpClient;
using serve::http::HttpServer;
using serve::http::MatchService;
using serve::http::ServiceOptions;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Sharder
// ---------------------------------------------------------------------------

std::vector<std::string> DocLabels(size_t n) {
  std::vector<std::string> labels;
  labels.reserve(n);
  for (size_t i = 0; i < n; ++i) labels.push_back("doc" + std::to_string(i));
  return labels;
}

TEST(SharderTest, AssignmentIsDeterministicAndInRange) {
  const Sharder a(4);
  const Sharder b(4);  // independently built ring, same parameters
  for (const std::string& label : DocLabels(512)) {
    const size_t shard = a.ShardFor(label);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, a.ShardFor(label));  // stable across calls
    EXPECT_EQ(shard, b.ShardFor(label));  // pure function of the inputs
  }
}

TEST(SharderTest, SingleShardOwnsEverything) {
  const Sharder one(1);
  for (const std::string& label : DocLabels(64)) {
    EXPECT_EQ(one.ShardFor(label), 0u);
  }
}

TEST(SharderTest, AssignmentIsRoughlyBalanced) {
  const size_t kShards = 4, kLabels = 4096;
  const Sharder sharder(kShards);
  std::vector<size_t> counts(kShards, 0);
  for (const std::string& label : DocLabels(kLabels)) {
    ++counts[sharder.ShardFor(label)];
  }
  const size_t mean = kLabels / kShards;
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], mean / 2) << "shard " << s << " starved";
    EXPECT_LT(counts[s], mean * 2) << "shard " << s << " overloaded";
  }
}

TEST(SharderTest, SeedSaltsTheRing) {
  SharderOptions salted;
  salted.seed = 987654321;
  const Sharder a(4);
  const Sharder b(4, salted);
  size_t moved = 0;
  for (const std::string& label : DocLabels(256)) {
    moved += a.ShardFor(label) != b.ShardFor(label) ? 1 : 0;
  }
  EXPECT_GT(moved, 0u);  // the salt must actually reach the ring hashes
}

TEST(SharderTest, GrowingTheRingMovesFewLabels) {
  // The consistent-hashing point: N -> N+1 shards relocates ~1/(N+1) of
  // the labels, not ~N/(N+1) like `hash % N` would.
  const Sharder four(4);
  const Sharder five(5);
  size_t moved = 0;
  const size_t total = 4096;
  for (const std::string& label : DocLabels(total)) {
    moved += four.ShardFor(label) != five.ShardFor(label) ? 1 : 0;
  }
  // Theoretical fraction is 0.2; anything under 0.45 proves we are not in
  // modulo-rehash territory (~0.8) while leaving variance headroom.
  EXPECT_LT(static_cast<double>(moved) / static_cast<double>(total), 0.45);
  EXPECT_GT(moved, 0u);
}

TEST(SharderTest, Hash64AvalanchesNeighboringLabels) {
  // Stable, seed-sensitive, and adjacent labels land far apart.
  EXPECT_EQ(Sharder::Hash64("doc1"), Sharder::Hash64("doc1"));
  EXPECT_NE(Sharder::Hash64("doc1"), Sharder::Hash64("doc2"));
  EXPECT_NE(Sharder::Hash64("doc1"), Sharder::Hash64("doc1", 7));
  EXPECT_NE(Sharder::Hash64(""), 0u);
  // The high bits must move too (a ring keyed on a 64-bit position needs
  // entropy at the top, not just the low byte).
  EXPECT_NE(Sharder::Hash64("doc1") >> 32, Sharder::Hash64("doc2") >> 32);
}

// ---------------------------------------------------------------------------
// ShardedQueryEngine: exact-mode bit-identity vs the unsharded engine
// ---------------------------------------------------------------------------

/// 2-d geometry: candidates c<i> fan around the circle, queries q<i> sit
/// exactly on candidate (i + shift) mod n.
serve::Snapshot GeometricSnapshot(size_t n, size_t shift = 0) {
  serve::Snapshot snap;
  snap.meta.scenario = "shard-geometry";
  snap.meta.Set("candidate_prefix", "c");
  snap.meta.Set("query_prefix", "q");
  snap.table = embed::EmbeddingTable(2);
  for (size_t i = 0; i < n; ++i) {
    const float angle =
        static_cast<float>(i) / static_cast<float>(n) * 3.1f;
    snap.table.Put("c" + std::to_string(i),
                   {std::cos(angle), std::sin(angle)});
  }
  for (size_t i = 0; i < n; ++i) {
    const float angle = static_cast<float>((i + shift) % n) /
                        static_cast<float>(n) * 3.1f;
    snap.table.Put("q" + std::to_string(i),
                   {std::cos(angle), std::sin(angle)});
  }
  return snap;
}

std::string WriteGeometricSnapshot(const std::string& name, size_t n,
                                   size_t shift) {
  const std::string path = TempPath(name);
  serve::Snapshot snap = GeometricSnapshot(n, shift);
  EXPECT_TRUE(serve::SnapshotIo::Write(snap.table, snap.meta, path).ok());
  return path;
}

/// The sharded engine over `path`'s "c" candidates, through the one
/// build path: map the file, build from the view.
util::Result<ShardedQueryEngine> BuildSharded(
    const std::string& path, const ShardedEngineOptions& opts) {
  TDM_ASSIGN_OR_RETURN(auto view, serve::SnapshotView::Open(path));
  return ShardedQueryEngine::BuildFromView(std::move(view), "c", opts);
}

/// The sharded engine over GeometricSnapshot(n), written and mapped.
util::Result<ShardedQueryEngine> BuildGeometricSharded(
    size_t n, const ShardedEngineOptions& opts) {
  const std::string path = WriteGeometricSnapshot("shard_geometry.tds", n, 0);
  auto sharded = BuildSharded(path, opts);
  std::remove(path.c_str());  // the engine's mapping keeps the file alive
  return sharded;
}

QueryEngineOptions TestEngineOptions() {
  QueryEngineOptions opts;
  opts.threads = 2;  // exercise the scatter pool
  opts.ivf.seed = 4242;
  return opts;
}

void ExpectSameMatches(const std::vector<ScoredMatch>& want,
                       const std::vector<ScoredMatch>& got,
                       const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(want[r].label, got[r].label) << context << " row " << r;
    EXPECT_EQ(want[r].candidate, got[r].candidate)
        << context << " row " << r;
    // Bitwise double equality — the whole point of the merge order.
    EXPECT_EQ(want[r].score, got[r].score) << context << " row " << r;
  }
}

/// Clustered candidates c<i> in `dim` dimensions; query q<i> is a
/// perturbed copy of candidate c<(7 * i) mod n>.
serve::Snapshot ClusteredSnapshot(size_t n, int dim, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> anchors(12);
  for (auto& a : anchors) {
    for (int d = 0; d < dim; ++d) {
      a.push_back(static_cast<float>(rng.Gaussian()));
    }
  }
  serve::Snapshot snap;
  snap.meta.scenario = "shard-clusters";
  snap.table = embed::EmbeddingTable(dim);
  std::vector<std::vector<float>> cand(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& a = anchors[rng.UniformInt(anchors.size())];
    for (int d = 0; d < dim; ++d) {
      cand[i].push_back(a[static_cast<size_t>(d)] +
                        0.4f * static_cast<float>(rng.Gaussian()));
    }
    snap.table.Put("c" + std::to_string(i), cand[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    std::vector<float> q = cand[(7 * i) % n];
    for (float& x : q) x += 0.2f * static_cast<float>(rng.Gaussian());
    snap.table.Put("q" + std::to_string(i), std::move(q));
  }
  return snap;
}

/// Exact-mode answers of the sharded engine over `snap`'s "c" candidates
/// equal the unsharded engine's bit for bit at N ∈ {1, 2, 4, 8} shards,
/// for `num_queries` queries q<i> spread evenly over `n` and every k in
/// `ks`.
void ExpectExactBitIdenticalAcrossShardCounts(serve::Snapshot snap, size_t n,
                                              size_t num_queries,
                                              const std::vector<size_t>& ks) {
  const std::string path = TempPath("shard_identity.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(snap.table, snap.meta, path).ok());
  auto reference =
      QueryEngine::BuildForPrefix(std::move(snap), "c", TestEngineOptions());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.engine = TestEngineOptions();
    auto sharded = BuildSharded(path, opts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_EQ(sharded->num_shards(), shards);
    EXPECT_EQ(sharded->num_candidates(), n);
    size_t partitioned = 0;
    for (size_t s = 0; s < sharded->active_shards(); ++s) {
      partitioned += sharded->shard_size(s);
    }
    EXPECT_EQ(partitioned, n);  // every candidate in exactly one shard

    for (size_t i = 0; i < num_queries; ++i) {
      const std::string q = "q" + std::to_string(i * (n / num_queries));
      for (size_t k : ks) {
        auto want = reference->Query(q, k, SearchMode::kExact);
        auto got = sharded->Query(q, k, SearchMode::kExact);
        ASSERT_TRUE(want.ok() && got.ok());
        ExpectSameMatches(*want, *got,
                          q + " k=" + std::to_string(k) + " shards=" +
                              std::to_string(shards));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ShardedEngineTest, ExactModeBitIdenticalAcrossShardCounts) {
  const size_t n = 64;
  ExpectExactBitIdenticalAcrossShardCounts(GeometricSnapshot(n), n, n,
                                           {1, 5, n});
  // A larger clustered corpus, where scores tie less and every shard
  // holds hundreds of rows: 150 queries at k = 10.
  ExpectExactBitIdenticalAcrossShardCounts(ClusteredSnapshot(4000, 32, 7),
                                           4000, 150, {10});
}

TEST(ShardedEngineTest, FilteredBatchAndVectorMatchUnsharded) {
  const size_t n = 40;
  auto reference = QueryEngine::BuildForPrefix(GeometricSnapshot(n), "c",
                                               TestEngineOptions());
  ASSERT_TRUE(reference.ok());
  ShardedEngineOptions opts;
  opts.shards = 4;
  opts.engine = TestEngineOptions();
  auto sharded = BuildGeometricSharded(n, opts);
  ASSERT_TRUE(sharded.ok());

  // Filtered: the allowed set straddles shards and contains an unknown.
  const std::vector<std::string> allowed = {"c1", "c9", "c17", "c33",
                                            "zz-missing"};
  for (size_t i = 0; i < n; i += 7) {
    const std::string q = "q" + std::to_string(i);
    auto want = reference->QueryFiltered(q, allowed, 3);
    auto got = sharded->QueryFiltered(q, allowed, 3);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameMatches(*want, *got, "filtered " + q);
  }

  // Raw vector, exact mode.
  auto vwant =
      reference->QueryVector({0.5f, 0.25f}, 4, SearchMode::kExact);
  auto vgot = sharded->QueryVector({0.5f, 0.25f}, 4, SearchMode::kExact);
  ASSERT_TRUE(vwant.ok() && vgot.ok());
  ExpectSameMatches(*vwant, *vgot, "vector");

  // Batch: slot-for-slot identity, including the error slot.
  std::vector<std::string> labels;
  for (size_t i = 0; i < n; ++i) labels.push_back("q" + std::to_string(i));
  labels.push_back("missing-query");
  auto want_batch = reference->QueryBatch(labels, 5, SearchMode::kExact);
  auto got_batch = sharded->QueryBatch(labels, 5, SearchMode::kExact);
  ASSERT_EQ(want_batch.size(), got_batch.size());
  for (size_t i = 0; i < want_batch.size(); ++i) {
    ASSERT_EQ(want_batch[i].ok(), got_batch[i].ok()) << "slot " << i;
    if (!want_batch[i].ok()) {
      EXPECT_EQ(want_batch[i].status().message(),
                got_batch[i].status().message());
      continue;
    }
    ExpectSameMatches(*want_batch[i], *got_batch[i],
                      "batch slot " + std::to_string(i));
  }
}

TEST(ShardedEngineTest, ErrorsMatchUnsharded) {
  const size_t n = 16;
  auto reference = QueryEngine::BuildForPrefix(GeometricSnapshot(n), "c",
                                               TestEngineOptions());
  ASSERT_TRUE(reference.ok());
  ShardedEngineOptions opts;
  opts.shards = 4;
  opts.engine = TestEngineOptions();
  auto sharded = BuildGeometricSharded(n, opts);
  ASSERT_TRUE(sharded.ok());

  auto want = reference->Query("nope", 5, SearchMode::kExact);
  auto got = sharded->Query("nope", 5, SearchMode::kExact);
  ASSERT_FALSE(want.ok());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(want.status().message(), got.status().message());

  auto vwant = reference->QueryVector({1.0f}, 3, SearchMode::kExact);
  auto vgot = sharded->QueryVector({1.0f}, 3, SearchMode::kExact);
  ASSERT_FALSE(vwant.ok());
  ASSERT_FALSE(vgot.ok());
  EXPECT_EQ(vwant.status().message(), vgot.status().message());
}

TEST(ShardedEngineTest, MoreShardsThanCandidatesCompactsEmptyOnes) {
  const size_t n = 4;
  auto reference = QueryEngine::BuildForPrefix(GeometricSnapshot(n), "c",
                                               TestEngineOptions());
  ASSERT_TRUE(reference.ok());
  ShardedEngineOptions opts;
  opts.shards = 8;
  opts.engine = TestEngineOptions();
  auto sharded = BuildGeometricSharded(n, opts);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->num_shards(), 8u);
  EXPECT_LE(sharded->active_shards(), n);
  EXPECT_GE(sharded->active_shards(), 1u);

  for (size_t i = 0; i < n; ++i) {
    const std::string q = "q" + std::to_string(i);
    auto want = reference->Query(q, n, SearchMode::kExact);
    auto got = sharded->Query(q, n, SearchMode::kExact);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameMatches(*want, *got, q);
  }
}

TEST(ShardedEngineTest, ApproxIsDeterministicAndFullProbeRecoversExact) {
  // No index section: every shard trains k-means over its own slice.
  const size_t n = 64;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const std::string ctx = "shards=" + std::to_string(shards);
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.engine = TestEngineOptions();
    auto a = BuildGeometricSharded(n, opts);
    auto b = BuildGeometricSharded(n, opts);
    ASSERT_TRUE(a.ok() && b.ok()) << ctx;
    ASSERT_TRUE(a->has_ivf()) << ctx;
    EXPECT_FALSE(a->ivf_from_snapshot()) << ctx;
    size_t widest = 0;
    for (size_t s = 0; s < a->active_shards(); ++s) {
      EXPECT_FALSE(a->shard(s).ivf_from_snapshot()) << ctx;
      widest = std::max(widest, a->shard(s).ivf_index()->nlist());
    }
    EXPECT_EQ(a->max_nprobe(), widest) << ctx;

    std::vector<std::string> labels;
    for (size_t i = 0; i < n; ++i) {
      const std::string q = "q" + std::to_string(i);
      labels.push_back(q);
      // Determinism: two engines built from the same inputs agree
      // bitwise, approx mode included (per-shard k-means is seeded).
      auto ra = a->Query(q, 5, SearchMode::kApprox);
      auto rb = b->Query(q, 5, SearchMode::kApprox);
      ASSERT_TRUE(ra.ok() && rb.ok());
      ExpectSameMatches(*ra, *rb, "approx " + q + " " + ctx);

      // Probing every cell degenerates to a full scan of the same vectors
      // the exact index scores: the whole top-k, scores included, must be
      // the exact answer bit for bit.
      auto probe_all = a->Query(q, 5, SearchMode::kApprox, a->max_nprobe());
      auto exact = a->Query(q, 5, SearchMode::kExact);
      ASSERT_TRUE(probe_all.ok() && exact.ok());
      ExpectSameMatches(*exact, *probe_all, "full probe " + q + " " + ctx);
    }
    auto batch_a = a->QueryBatch(labels, 5, SearchMode::kApprox);
    auto batch_b = b->QueryBatch(labels, 5, SearchMode::kApprox);
    ASSERT_EQ(batch_a.size(), labels.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      ASSERT_TRUE(batch_a[i].ok() && batch_b[i].ok());
      ExpectSameMatches(*batch_a[i], *batch_b[i], "batch " + labels[i]);
      auto single = a->Query(labels[i], 5, SearchMode::kApprox);
      ASSERT_TRUE(single.ok());
      ExpectSameMatches(*single, *batch_a[i], "batch vs single " + labels[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// ShardedQueryEngine: adopting the snapshot's global "ivfpq" section
// ---------------------------------------------------------------------------

/// Trains the unsharded IVF index over the "c" candidates of `snap` and
/// returns its serialized "ivfpq" section.
std::string GlobalSection(serve::Snapshot snap,
                          const QueryEngineOptions& opts) {
  auto engine = QueryEngine::BuildForPrefix(std::move(snap), "c", opts);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? engine->SerializeIvfSection() : std::string();
}

std::string WriteWithSection(const std::string& name,
                             const serve::Snapshot& snap,
                             const std::string& section) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(serve::SnapshotIo::Write(
                  snap.table, snap.meta,
                  {{QueryEngine::kIvfSectionTag, section}}, path)
                  .ok());
  return path;
}

QueryEngineOptions SectionEngineOptions(size_t pq_m) {
  QueryEngineOptions opts = TestEngineOptions();
  opts.ivf.nprobe = 2;
  opts.ivf.pq_m = pq_m;
  opts.ivf.pq_rerank = 6;  // a short ADC shortlist, so re-rank matters
  return opts;
}

TEST(ShardedEngineTest, AdoptedFlatSectionBitIdenticalAcrossShardCounts) {
  const size_t n = 300;
  const QueryEngineOptions eopts = SectionEngineOptions(0);
  const std::string path = WriteWithSection(
      "shard_flat_section.tds", ClusteredSnapshot(n, 8, 17),
      GlobalSection(ClusteredSnapshot(n, 8, 17), eopts));
  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok());
  auto reference = QueryEngine::BuildFromView(*view, "c", eopts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->ivf_from_snapshot());
  const size_t nlist = reference->ivf_index()->nlist();
  ASSERT_GT(nlist, eopts.ivf.nprobe);  // approx really prunes cells

  std::vector<std::string> labels;
  for (size_t i = 0; i < n; ++i) labels.push_back("q" + std::to_string(i));
  labels.push_back("missing-query");
  const std::vector<std::vector<float>> vectors = {
      {1, 0, 0, 0, 0, 0, 0, 0}, {0.5f, -1, 2, 0, 0.25f, 0, -3, 1}};

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const std::string ctx = "shards=" + std::to_string(shards);
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.engine = eopts;
    auto sharded = BuildSharded(path, opts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_TRUE(sharded->ivf_from_snapshot()) << ctx;
    size_t members = 0;
    for (size_t s = 0; s < sharded->active_shards(); ++s) {
      const QueryEngine& shard = sharded->shard(s);
      EXPECT_TRUE(shard.ivf_from_snapshot()) << ctx << " shard " << s;
      ASSERT_TRUE(shard.has_ivf());
      EXPECT_EQ(shard.ivf_index()->nlist(), nlist) << ctx;
      for (size_t c = 0; c < nlist; ++c) {
        members += shard.ivf_index()->ListSize(c);
      }
    }
    EXPECT_EQ(members, n) << ctx;  // the slices partition every list
    EXPECT_EQ(sharded->max_nprobe(), nlist) << ctx;

    for (size_t i = 0; i < n; ++i) {
      for (size_t nprobe : {size_t{0}, size_t{1}, size_t{4}}) {
        auto want = reference->Query(labels[i], 5, SearchMode::kApprox,
                                     nprobe);
        auto got =
            sharded->Query(labels[i], 5, SearchMode::kApprox, nprobe);
        ASSERT_TRUE(want.ok() && got.ok());
        ExpectSameMatches(*want, *got,
                          labels[i] + " nprobe=" + std::to_string(nprobe) +
                              " " + ctx);
      }
    }
    for (const auto& v : vectors) {
      auto want = reference->QueryVector(v, 7, SearchMode::kApprox);
      auto got = sharded->QueryVector(v, 7, SearchMode::kApprox);
      ASSERT_TRUE(want.ok() && got.ok());
      ExpectSameMatches(*want, *got, "vector " + ctx);
    }
    auto want_batch = reference->QueryBatch(labels, 5, SearchMode::kApprox);
    auto got_batch = sharded->QueryBatch(labels, 5, SearchMode::kApprox);
    ASSERT_EQ(want_batch.size(), got_batch.size());
    for (size_t i = 0; i < want_batch.size(); ++i) {
      ASSERT_EQ(want_batch[i].ok(), got_batch[i].ok()) << "slot " << i;
      if (!want_batch[i].ok()) continue;
      ExpectSameMatches(*want_batch[i], *got_batch[i],
                        "batch " + labels[i] + " " + ctx);
    }
  }
  std::remove(path.c_str());
}

TEST(ShardedEngineTest, AdoptedPqSectionDeterministicRecallAtLeastUnsharded) {
  const size_t n = 400;
  const size_t k = 5;
  const QueryEngineOptions eopts = SectionEngineOptions(4);
  const std::string path = WriteWithSection(
      "shard_pq_section.tds", ClusteredSnapshot(n, 8, 29),
      GlobalSection(ClusteredSnapshot(n, 8, 29), eopts));
  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok());
  auto reference = QueryEngine::BuildFromView(*view, "c", eopts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->ivf_from_snapshot());
  ASSERT_TRUE(reference->ivf_index()->pq_enabled());

  // Recall@k of approx against exact, summed over every query.
  auto recall_hits = [&](auto&& approx) {
    size_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const std::string q = "q" + std::to_string(i);
      auto truth = reference->Query(q, k, SearchMode::kExact);
      auto got = approx(q);
      EXPECT_TRUE(truth.ok() && got.ok());
      std::set<std::string> want;
      for (const auto& m : *truth) want.insert(m.label);
      for (const auto& m : *got) hits += want.count(m.label);
    }
    return hits;
  };
  const size_t unsharded_hits = recall_hits([&](const std::string& q) {
    return reference->Query(q, k, SearchMode::kApprox);
  });

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const std::string ctx = "shards=" + std::to_string(shards);
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.engine = eopts;
    auto a = BuildSharded(path, opts);
    auto b = BuildSharded(path, opts);
    ASSERT_TRUE(a.ok() && b.ok()) << ctx;
    EXPECT_TRUE(a->ivf_from_snapshot()) << ctx;
    for (size_t s = 0; s < a->active_shards(); ++s) {
      EXPECT_TRUE(a->shard(s).ivf_from_snapshot()) << ctx;
      EXPECT_TRUE(a->shard(s).ivf_index()->pq_enabled()) << ctx;
    }
    for (size_t i = 0; i < n; ++i) {
      const std::string q = "q" + std::to_string(i);
      auto ra = a->Query(q, k, SearchMode::kApprox);
      auto rb = b->Query(q, k, SearchMode::kApprox);
      auto want = reference->Query(q, k, SearchMode::kApprox);
      ASSERT_TRUE(ra.ok() && rb.ok() && want.ok());
      ExpectSameMatches(*ra, *rb, "determinism " + q + " " + ctx);
      // Every shard re-ranks its own ADC shortlist: together a superset
      // of the unsharded shortlist, so rank by rank the exact scores
      // can only be as good or better.
      ASSERT_EQ(ra->size(), want->size()) << q << " " << ctx;
      for (size_t r = 0; r < want->size(); ++r) {
        EXPECT_GE((*ra)[r].score, (*want)[r].score)
            << q << " rank " << r << " " << ctx;
      }
    }
    const size_t sharded_hits = recall_hits([&](const std::string& q) {
      return a->Query(q, k, SearchMode::kApprox);
    });
    EXPECT_GE(sharded_hits, unsharded_hits) << ctx;
  }
  std::remove(path.c_str());
}

TEST(ShardedEngineTest, HostileSectionsFallBackToPerShardTraining) {
  const size_t n = 120;
  const int dim = 8;
  const QueryEngineOptions eopts = SectionEngineOptions(0);
  const serve::Snapshot snap = ClusteredSnapshot(n, dim, 41);
  auto trained = QueryEngine::BuildForPrefix(snap, "c", eopts);
  ASSERT_TRUE(trained.ok());
  const std::string good = trained->SerializeIvfSection();
  const size_t nlist = trained->ivf_index()->nlist();
  // Wire layout: 32-byte header, nlist x dim f32 centroids, nlist + 1 u64
  // offsets, n i32 ids, then the list payload.
  const size_t offsets_off = 32 + nlist * static_cast<size_t>(dim) * 4;
  const size_t ids_off = offsets_off + (nlist + 1) * 8;

  // An index over another candidate set of the same size and dim: only
  // the fingerprint tells it apart.
  auto foreign = QueryEngine::BuildForPrefix(snap, "q", eopts);
  ASSERT_TRUE(foreign.ok());
  std::string inflated = good;
  const uint64_t big = uint64_t{1} << 40;
  std::memcpy(&inflated[offsets_off + 8], &big, sizeof(big));
  std::string duplicated = good;
  std::memcpy(&duplicated[ids_off + 4], &duplicated[ids_off], 4);
  const std::vector<std::pair<std::string, std::string>> hostile = {
      {"foreign fingerprint", foreign->SerializeIvfSection()},
      {"truncated", good.substr(0, good.size() / 2)},
      {"inflated offsets", inflated},
      {"duplicate ids", duplicated},
  };

  auto reference = QueryEngine::BuildForPrefix(snap, "c", eopts);
  ASSERT_TRUE(reference.ok());
  for (const auto& [what, bytes] : hostile) {
    const std::string path =
        WriteWithSection("shard_hostile_section.tds", snap, bytes);
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      const std::string ctx = what + " shards=" + std::to_string(shards);
      ShardedEngineOptions opts;
      opts.shards = shards;
      opts.engine = eopts;
      testing::internal::CaptureStderr();
      auto sharded = BuildSharded(path, opts);
      const std::string log = testing::internal::GetCapturedStderr();
      ASSERT_TRUE(sharded.ok()) << ctx << ": " << sharded.status().ToString();
      EXPECT_TRUE(sharded->has_ivf()) << ctx;
      EXPECT_FALSE(sharded->ivf_from_snapshot()) << ctx;
      // One warning per build: the section is validated once, globally.
      size_t warnings = 0;
      for (size_t at = log.find("ignoring snapshot index section");
           at != std::string::npos;
           at = log.find("ignoring snapshot index section", at + 1)) {
        ++warnings;
      }
      EXPECT_EQ(warnings, 1u) << ctx << "\n" << log;
      for (size_t i = 0; i < n; i += 3) {
        const std::string q = "q" + std::to_string(i);
        auto want = reference->Query(q, 5, SearchMode::kExact);
        auto got = sharded->Query(q, 5, SearchMode::kExact);
        ASSERT_TRUE(want.ok() && got.ok());
        ExpectSameMatches(*want, *got, q + " " + ctx);
        EXPECT_TRUE(sharded->Query(q, 5, SearchMode::kApprox).ok());
      }
    }
    std::remove(path.c_str());
  }
}

/// Start address and resident bytes of the mapping that contains `addr`,
/// from /proc/self/smaps; rss_bytes is -1 when no mapping contains it.
struct MappingRss {
  uintptr_t start = 0;
  long long rss_bytes = -1;
};

MappingRss FindMappingRss(const void* addr) {
  const auto at = reinterpret_cast<uintptr_t>(addr);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  MappingRss found;
  while (std::getline(smaps, line)) {
    unsigned long long lo = 0, hi = 0;
    // Range lines read "lo-hi perms ..."; field lines never parse as two
    // hex numbers joined by '-'.
    if (std::sscanf(line.c_str(), "%llx-%llx ", &lo, &hi) == 2) {
      inside = at >= lo && at < hi;
      if (inside) found.start = static_cast<uintptr_t>(lo);
      continue;
    }
    long long kb = 0;
    if (inside && std::sscanf(line.c_str(), "Rss: %lld kB", &kb) == 1) {
      found.rss_bytes = kb * 1024;
      return found;
    }
  }
  return found;
}

TEST(ShardedEngineTest, BuildReleasesTheSnapshotPagesItCopied) {
  // After the build, the view's mapping keeps only its header and labels
  // resident (plus the partial pages at either end of the released
  // range), and every released byte reads back unchanged: LabelVector
  // rows and exact/approx answers equal those over a never-released view.
  const size_t n = 3000;
  const QueryEngineOptions eopts = SectionEngineOptions(0);
  const std::string path = WriteWithSection(
      "shard_release.tds", ClusteredSnapshot(n, 32, 23),
      GlobalSection(ClusteredSnapshot(n, 32, 23), eopts));
  auto fresh = serve::SnapshotView::Open(path);
  ASSERT_TRUE(fresh.ok());
  auto reference = QueryEngine::BuildFromView(*fresh, "c", eopts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->ivf_from_snapshot());
  const long long page = static_cast<long long>(::sysconf(_SC_PAGESIZE));
  const MappingRss unreleased = FindMappingRss((*fresh)->payload());
  const long long fresh_label_bytes =
      (*fresh)->payload() - reinterpret_cast<const char*>(unreleased.start);
  // The CRC scan made the whole file resident; the check below can bite.
  ASSERT_GT(unreleased.rss_bytes, fresh_label_bytes + 8 * page);

  std::vector<std::string> labels;
  for (size_t i = 0; i < n; ++i) {
    labels.push_back("c" + std::to_string(i));
    labels.push_back("q" + std::to_string(i));
  }
  const int dim = (*fresh)->dim();
  for (size_t shards : {size_t{1}, size_t{4}}) {
    const std::string ctx = "shards=" + std::to_string(shards);
    auto view = serve::SnapshotView::Open(path);
    ASSERT_TRUE(view.ok());
    const std::shared_ptr<const serve::SnapshotView> released = *view;
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.engine = eopts;
    auto sharded = ShardedQueryEngine::BuildFromView(released, "c", opts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_TRUE(sharded->ivf_from_snapshot()) << ctx;

    const MappingRss mapping = FindMappingRss(released->payload());
    ASSERT_GE(mapping.rss_bytes, 0) << ctx;
    const long long label_bytes =
        released->payload() - reinterpret_cast<const char*>(mapping.start);
    EXPECT_LE(mapping.rss_bytes, label_bytes + 2 * page) << ctx;

    // LabelVector copies view rows; the released rows fault back intact.
    std::vector<float> want(static_cast<size_t>(dim));
    std::vector<float> got(static_cast<size_t>(dim));
    for (size_t row = 0; row < released->size(); ++row) {
      (*fresh)->CopyRow(row, want.data());
      released->CopyRow(row, got.data());
      ASSERT_EQ(std::memcmp(want.data(), got.data(), want.size() * 4), 0)
          << ctx << " row " << row;
    }
    for (const std::string& label : labels) {
      for (SearchMode mode : {SearchMode::kExact, SearchMode::kApprox}) {
        auto want_matches = reference->Query(label, 5, mode);
        auto got_matches = sharded->Query(label, 5, mode);
        ASSERT_TRUE(want_matches.ok() && got_matches.ok()) << label;
        ExpectSameMatches(*want_matches, *got_matches, label + " " + ctx);
      }
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionTest, CapacityZeroShedsEverything) {
  AdmissionController gate(AdmissionOptions{0, 1, 30});
  EXPECT_FALSE(gate.TryAcquire());
  AdmissionController::Ticket ticket(&gate);
  EXPECT_FALSE(ticket.admitted());
  EXPECT_EQ(gate.shed(), 2u);
  EXPECT_EQ(gate.admitted(), 0u);
  EXPECT_EQ(gate.inflight(), 0u);
}

TEST(AdmissionTest, BurstExactlyAtTheLimit) {
  AdmissionController gate(AdmissionOptions{2, 1, 30});
  {
    AdmissionController::Ticket t1(&gate);
    AdmissionController::Ticket t2(&gate);
    EXPECT_TRUE(t1.admitted());
    EXPECT_TRUE(t2.admitted());
    EXPECT_EQ(gate.inflight(), 2u);

    // Exactly at the limit: the next request is shed, not queued.
    AdmissionController::Ticket t3(&gate);
    EXPECT_FALSE(t3.admitted());
    EXPECT_EQ(gate.shed(), 1u);
    EXPECT_EQ(gate.inflight(), 2u);
  }
  // RAII released both slots; capacity is back.
  EXPECT_EQ(gate.inflight(), 0u);
  AdmissionController::Ticket t4(&gate);
  EXPECT_TRUE(t4.admitted());
  EXPECT_EQ(gate.admitted(), 3u);
  EXPECT_EQ(gate.shed(), 1u);
}

TEST(AdmissionTest, TicketMoveTransfersTheSlot) {
  AdmissionController gate(AdmissionOptions{1, 1, 30});
  AdmissionController::Ticket a(&gate);
  EXPECT_TRUE(a.admitted());
  AdmissionController::Ticket b(std::move(a));
  EXPECT_TRUE(b.admitted());
  EXPECT_FALSE(a.admitted());  // NOLINT(bugprone-use-after-move): pinned
  EXPECT_EQ(gate.inflight(), 1u);  // exactly one slot, not two
}

TEST(AdmissionTest, DefaultIsUnlimited) {
  AdmissionController gate;
  EXPECT_TRUE(gate.unlimited());
  std::vector<AdmissionController::Ticket> tickets;
  for (int i = 0; i < 100; ++i) tickets.emplace_back(&gate);
  for (const auto& t : tickets) EXPECT_TRUE(t.admitted());
  EXPECT_EQ(gate.shed(), 0u);
  EXPECT_EQ(gate.inflight(), 100u);
}

TEST(AdmissionTest, RetryAfterIsClampedWholeSeconds) {
  AdmissionController gate(AdmissionOptions{4, 1, 30});
  // Idle: the minimum applies.
  EXPECT_EQ(gate.RetryAfterSeconds(500.0), 1);
  EXPECT_EQ(gate.RetryAfterSeconds(0.0), 1);

  AdmissionController::Ticket t1(&gate);
  AdmissionController::Ticket t2(&gate);
  ASSERT_TRUE(t1.admitted() && t2.admitted());
  // 2 in flight at 700ms each = 1.4s backlog, rounded up to 2.
  EXPECT_EQ(gate.RetryAfterSeconds(700.0), 2);
  // Absurd per-query cost still clamps to the ceiling.
  EXPECT_EQ(gate.RetryAfterSeconds(1e9), 30);
  for (int i = 1; i <= 30; ++i) {
    const int s = gate.RetryAfterSeconds(static_cast<double>(i) * 997.0);
    EXPECT_GE(s, 1);
    EXPECT_LE(s, 30);
  }
}

TEST(AdmissionTest, BurstReplayShedsExactlyTheExcess) {
  // Each round holds a burst of overlapping tickets until the whole burst
  // has arrived — the worst case the in-flight budget exists for — so
  // every arrival past the capacity is shed, round after round.
  struct Case {
    size_t capacity, burst;
    double shed_rate;
  };
  for (const Case c : {Case{2, 4, 0.5}, Case{4, 4, 0.0}, Case{4, 8, 0.5},
                       Case{8, 32, 0.75}}) {
    AdmissionController gate(AdmissionOptions{c.capacity, 1, 30});
    const size_t rounds = 1000;
    for (size_t round = 0; round < rounds; ++round) {
      std::vector<AdmissionController::Ticket> tickets;
      tickets.reserve(c.burst);
      for (size_t i = 0; i < c.burst; ++i) tickets.emplace_back(&gate);
    }
    const uint64_t total = gate.admitted() + gate.shed();
    EXPECT_EQ(total, rounds * c.burst);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(gate.shed()) / static_cast<double>(total),
        c.shed_rate)
        << "cap=" << c.capacity << " burst=" << c.burst;
    EXPECT_EQ(gate.inflight(), 0u);
  }
}

// ---------------------------------------------------------------------------
// NprobeTuner
// ---------------------------------------------------------------------------

TEST(NprobeTunerTest, DisabledWithoutBudget) {
  NprobeTuner tuner;  // budget_ms defaults to 0
  EXPECT_FALSE(tuner.enabled());
  for (int i = 0; i < 200; ++i) tuner.Decide(1e6);
  EXPECT_EQ(tuner.decisions(), 0u);
  EXPECT_EQ(tuner.adjustments(), 0u);
}

TEST(NprobeTunerTest, MultiplicativeBackoffOverBudget) {
  NprobeTunerOptions opts;
  opts.budget_ms = 10.0;
  opts.min_nprobe = 2;
  opts.max_nprobe = 64;
  opts.initial_nprobe = 16;
  NprobeTuner tuner(opts);
  ASSERT_TRUE(tuner.enabled());
  EXPECT_EQ(tuner.nprobe(), 16u);

  tuner.Decide(50.0);
  EXPECT_EQ(tuner.nprobe(), 8u);
  tuner.Decide(50.0);
  EXPECT_EQ(tuner.nprobe(), 4u);
  tuner.Decide(50.0);
  EXPECT_EQ(tuner.nprobe(), 2u);
  tuner.Decide(50.0);
  EXPECT_EQ(tuner.nprobe(), 2u);  // floored at min_nprobe
  EXPECT_EQ(tuner.adjustments(), 3u);  // the floor decision changed nothing
}

TEST(NprobeTunerTest, AdditiveRecoveryUnderHalfBudget) {
  NprobeTunerOptions opts;
  opts.budget_ms = 10.0;
  opts.min_nprobe = 1;
  opts.max_nprobe = 6;
  opts.initial_nprobe = 4;
  NprobeTuner tuner(opts);
  EXPECT_EQ(tuner.nprobe(), 4u);  // no decision yet
  tuner.Decide(1.0);
  EXPECT_EQ(tuner.nprobe(), 5u);
  tuner.Decide(1.0);
  EXPECT_EQ(tuner.nprobe(), 6u);
  tuner.Decide(1.0);
  EXPECT_EQ(tuner.nprobe(), 6u);  // capped at max_nprobe
}

TEST(NprobeTunerTest, HoldsInsideTheDeadband) {
  NprobeTunerOptions opts;
  opts.budget_ms = 10.0;
  opts.initial_nprobe = 4;
  NprobeTuner tuner(opts);
  // Between half the budget and the budget: neither direction moves.
  for (int i = 0; i < 5; ++i) tuner.Decide(7.0);
  EXPECT_EQ(tuner.nprobe(), 4u);
  EXPECT_EQ(tuner.adjustments(), 0u);
  EXPECT_EQ(tuner.decisions(), 5u);
}

TEST(NprobeTunerTest, ConstructorClampsDegenerateOptions) {
  NprobeTunerOptions opts;
  opts.budget_ms = 5.0;
  opts.min_nprobe = 0;   // -> 1
  opts.max_nprobe = 0;   // -> min
  opts.initial_nprobe = 99;  // -> clamped into [min, max]
  NprobeTuner tuner(opts);
  EXPECT_EQ(tuner.nprobe(), 1u);
  tuner.Decide(100.0);  // halving at the floor stays >= 1
  EXPECT_EQ(tuner.nprobe(), 1u);
}

TEST(NprobeTunerTest, WindowedP99BacksOffAfterALongHealthyUptime) {
  // The serving control loop on a fake clock: 10^6 fast answered queries
  // (0.4 ms) over 100 one-second ring buckets, then a slow phase (40 ms,
  // at a tenth of the rate) of five buckets against a 10 ms budget, then
  // fast traffic again. The ring is the service's recent window over the
  // latency grid; the lifetime histogram is the feed the tuner and
  // Retry-After used to read.
  NprobeTunerOptions opts;
  opts.budget_ms = 10.0;
  opts.max_nprobe = 64;
  opts.initial_nprobe = 16;
  NprobeTuner tuner(opts);
  util::obs::Histogram lifetime(util::obs::Histogram::LatencyBoundsMs());
  const std::vector<double>& bounds = lifetime.bounds();
  const double window_s = 4.0;  // the fast-short window Retry-After reads
  util::obs::WindowedCounts recent(bounds.size() + 1, 1.0, window_s);
  const auto run_bucket = [&](int epoch, double ms, int answered) {
    for (int i = 0; i < answered; ++i) {
      const double now = epoch + (i + 0.5) / answered;
      recent.Add(now, lifetime.Observe(ms));
      tuner.Step(now, recent, bounds);
    }
  };
  const auto recent_p50 = [&](double now) {
    return util::obs::BucketPercentile(
        bounds, recent.Window(now, window_s).data(), 0.5);
  };

  for (int epoch = 0; epoch < 100; ++epoch) run_bucket(epoch, 0.4, 10000);
  // One decision per bucket, each on the previous bucket's p99; the first
  // bucket's decision had nothing to read and held.
  EXPECT_EQ(tuner.decisions(), 99u);
  EXPECT_EQ(tuner.nprobe(), 64u);  // additive recovery up to the ceiling
  const double fast_p50 = recent_p50(99.99);
  EXPECT_LT(fast_p50, 0.5);

  run_bucket(100, 40.0, 1000);
  EXPECT_EQ(tuner.nprobe(), 64u) << "bucket 100 decided on bucket 99";
  run_bucket(101, 40.0, 1000);
  EXPECT_EQ(tuner.decisions(), 101u);
  EXPECT_EQ(tuner.nprobe(), 32u) << "bucket 101 decided on bucket 100";
  for (int epoch = 102; epoch < 105; ++epoch) run_bucket(epoch, 40.0, 1000);
  EXPECT_LT(lifetime.Percentile(0.99), opts.budget_ms)
      << "the lifetime p99 never leaves the budget";
  const double slow_p50 = recent_p50(104.99);
  EXPECT_GT(slow_p50, opts.budget_ms);

  // Retry-After's p50 returns to the fast value once the slow phase ages
  // out of the window, and the hint for a fixed backlog with it.
  for (int epoch = 105; epoch < 110; ++epoch) run_bucket(epoch, 0.4, 10000);
  EXPECT_EQ(recent_p50(109.99), fast_p50);
  AdmissionController gate;
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(gate.TryAcquire());
  EXPECT_EQ(gate.RetryAfterSeconds(slow_p50), 25);  // 500 x 49.152 ms
  EXPECT_EQ(gate.RetryAfterSeconds(recent_p50(109.99)), 1);
  EXPECT_LT(lifetime.Percentile(0.99), opts.budget_ms);
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, DisabledAtZeroCapacity) {
  ResultCache cache;  // capacity 0
  EXPECT_FALSE(cache.enabled());
  cache.Put("k", 1, "body");
  std::string out;
  EXPECT_FALSE(cache.Get("k", 1, &out));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);  // disabled Get doesn't even count
}

TEST(ResultCacheTest, LruEvictsTheColdestEntry) {
  ResultCache cache(ResultCacheOptions{2});
  cache.Put("a", 1, "A");
  cache.Put("b", 1, "B");
  std::string out;
  ASSERT_TRUE(cache.Get("a", 1, &out));  // "a" is now hottest
  EXPECT_EQ(out, "A");

  cache.Put("c", 1, "C");  // evicts "b", the LRU entry
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Get("b", 1, &out));
  ASSERT_TRUE(cache.Get("a", 1, &out));
  ASSERT_TRUE(cache.Get("c", 1, &out));
  EXPECT_EQ(out, "C");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCacheTest, VersionMismatchErasesTheStaleEntry) {
  ResultCache cache(ResultCacheOptions{4});
  cache.Put("q", 1, "old epoch");
  std::string out;
  EXPECT_FALSE(cache.Get("q", 2, &out));  // stale stamp: miss + erase
  EXPECT_EQ(cache.size(), 0u);
  // Even the original version can't resurrect it.
  EXPECT_FALSE(cache.Get("q", 1, &out));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ResultCacheTest, PutRefreshesInPlace) {
  ResultCache cache(ResultCacheOptions{2});
  cache.Put("k", 1, "v1");
  cache.Put("k", 2, "v2");  // refresh, not a second entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  std::string out;
  EXPECT_FALSE(cache.Get("k", 1, &out));  // old stamp is gone
  cache.Put("k", 2, "v2");
  ASSERT_TRUE(cache.Get("k", 2, &out));
  EXPECT_EQ(out, "v2");
}

TEST(ResultCacheTest, ClearDropsEverything) {
  ResultCache cache(ResultCacheOptions{16});
  for (int i = 0; i < 12; ++i) {
    cache.Put("key" + std::to_string(i), 1, "v");
  }
  EXPECT_GT(cache.size(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  std::string out;
  EXPECT_FALSE(cache.Get("key3", 1, &out));
}

TEST(ResultCacheTest, HoldsExactlyItsCapacity) {
  ResultCache cache(ResultCacheOptions{4});
  for (int i = 0; i < 64; ++i) {
    cache.Put("key" + std::to_string(i), 1, "v");
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 60u);
  std::string out;
  for (int i = 60; i < 64; ++i) {
    EXPECT_TRUE(cache.Get("key" + std::to_string(i), 1, &out)) << i;
  }
}

// Exact LRU over a plain vector, least recently used first: the model
// the cache's hits and evictions are checked against.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  bool Get(const std::string& key) {
    auto it = std::find(keys_.begin(), keys_.end(), key);
    if (it == keys_.end()) return false;
    std::rotate(it, it + 1, keys_.end());
    ++hits_;
    return true;
  }
  void Put(const std::string& key) {
    keys_.push_back(key);
    if (keys_.size() > capacity_) {
      keys_.erase(keys_.begin());
      ++evictions_;
    }
  }
  uint64_t hits() const { return hits_; }
  uint64_t evictions() const { return evictions_; }

 private:
  size_t capacity_;
  std::vector<std::string> keys_;
  uint64_t hits_ = 0;
  uint64_t evictions_ = 0;
};

TEST(ResultCacheTest, SeededHotSetStreamHitsAndEvictsExactly) {
  // 20,000 lookups from one seeded stream, half of them drawn from a hot
  // set 1/8 the size of the key space: the shape a result cache exists
  // for. Every miss is followed by a Put, as the query handler does. The
  // pinned rates are ReferenceLru's on the same stream, so a cache that
  // holds every key ({64 entries, 64 keys}) evicts nothing.
  struct Case {
    size_t entries, keys;
    double hit_rate;
    uint64_t evictions;
  };
  for (const Case c : {Case{64, 64, 0.9968, 0},
                       Case{64, 256, 0.52955, 9345},
                       Case{256, 1024, 0.52645, 9215}}) {
    ResultCache cache(ResultCacheOptions{c.entries});
    ReferenceLru model(c.entries);
    util::Rng rng(4243);
    const size_t lookups = 20000;
    for (size_t i = 0; i < lookups; ++i) {
      const size_t universe =
          rng.UniformInt(2) == 0 ? std::max<size_t>(1, c.keys / 8) : c.keys;
      const std::string key =
          "q" + std::to_string(rng.UniformInt(universe)) + "|k=5|m=a|np=4";
      std::string body;
      if (!cache.Get(key, 1, &body)) cache.Put(key, 1, "{\"matches\":[]}");
      if (!model.Get(key)) model.Put(key);
    }
    const std::string config = "entries=" + std::to_string(c.entries) +
                               " keys=" + std::to_string(c.keys);
    ASSERT_EQ(cache.hits() + cache.misses(), lookups) << config;
    EXPECT_EQ(cache.hits(), model.hits()) << config;
    EXPECT_EQ(cache.evictions(), model.evictions()) << config;
    EXPECT_DOUBLE_EQ(static_cast<double>(model.hits()) /
                         static_cast<double>(lookups),
                     c.hit_rate)
        << config;
    EXPECT_EQ(model.evictions(), c.evictions) << config;
    EXPECT_LE(cache.size(), c.entries) << config;
  }
}

// ---------------------------------------------------------------------------
// MatchService: sharded serving, shedding, cache-on-reload (over HTTP)
// ---------------------------------------------------------------------------

struct ServiceFixture {
  explicit ServiceFixture(const std::string& snapshot_path,
                          ServiceOptions sopts = {}) : service(sopts) {
    util::Status st = service.LoadInitial(snapshot_path);
    EXPECT_TRUE(st.ok()) << st.ToString();
    service.Register(&server);
    st = server.Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~ServiceFixture() { server.Stop(); }

  MatchService service;
  HttpServer server;
};

using Matches = std::vector<std::pair<std::string, double>>;

Matches ParseMatches(const util::JsonValue& container) {
  Matches out;
  const util::JsonValue* matches = container.Find("matches");
  EXPECT_NE(matches, nullptr);
  if (matches == nullptr) return out;
  for (const auto& m : matches->items()) {
    out.emplace_back(m.Find("label")->string_value(),
                     m.Find("score")->number_value());
  }
  return out;
}

TEST(ShardedServiceTest, ShardedHttpResponsesMatchUnsharded) {
  const std::string path = WriteGeometricSnapshot("svc_shards.tds", 32, 2);
  ServiceOptions unsharded;
  ServiceOptions sharded;
  sharded.shards = 4;
  ServiceFixture fx1(path, unsharded);
  ServiceFixture fx4(path, sharded);

  auto c1 = HttpClient::Connect("127.0.0.1", fx1.server.port());
  auto c4 = HttpClient::Connect("127.0.0.1", fx4.server.port());
  ASSERT_TRUE(c1.ok() && c4.ok());

  for (size_t i = 0; i < 32; ++i) {
    const std::string body = "{\"label\": \"q" + std::to_string(i) +
                             "\", \"k\": 5, \"mode\": \"exact\"}";
    auto r1 = c1->Post("/v1/query", body);
    auto r4 = c4->Post("/v1/query", body);
    ASSERT_TRUE(r1.ok() && r4.ok());
    ASSERT_EQ(r1->status, 200) << r1->body;
    ASSERT_EQ(r4->status, 200) << r4->body;
    // The rendered bodies are byte-identical: same matches, same
    // round-trippable score spellings, same snapshot_version. This is the invariant the
    // CI sharded smoke diffs from outside the process.
    EXPECT_EQ(r1->body, r4->body) << "q" << i;
  }

  auto stats = c4->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto doc = util::JsonParse(stats->body);
  ASSERT_TRUE(doc.ok()) << stats->body;
  const util::JsonValue* shards = doc->Find("shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->Find("configured")->number_value(), 4.0);
  EXPECT_GE(shards->Find("active")->number_value(), 1.0);
  std::remove(path.c_str());
}

TEST(ShardedServiceTest, MaxInflightZeroShedsWith429AndRetryAfter) {
  const std::string path = WriteGeometricSnapshot("svc_shed.tds", 8, 0);
  ServiceOptions sopts;
  sopts.max_inflight = 0;  // drain mode: every query is shed
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  for (int i = 0; i < 3; ++i) {
    auto r = client->Post("/v1/query", "{\"label\": \"q0\"}");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 429) << r->body;
    // RFC 9110 delta-seconds: a bare integer in [1, 30].
    const std::string& retry = r->Header("retry-after");
    ASSERT_FALSE(retry.empty());
    EXPECT_EQ(retry.find_first_not_of("0123456789"), std::string::npos);
    const int seconds = std::stoi(retry);
    EXPECT_GE(seconds, 1);
    EXPECT_LE(seconds, 30);
    auto doc = util::JsonParse(r->body);
    ASSERT_TRUE(doc.ok()) << r->body;
    EXPECT_NE(doc->Find("error"), nullptr);
    EXPECT_EQ(doc->Find("retry_after_seconds")->number_value(),
              static_cast<double>(seconds));
  }

  // Shedding is not an engine error, and health stays green at capacity 0
  // — the whole point of failing fast at the front door.
  auto health = client->Get("/v1/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(fx.service.admission().shed(), 3u);
  EXPECT_EQ(fx.service.admission().admitted(), 0u);

  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto doc = util::JsonParse(stats->body);
  ASSERT_TRUE(doc.ok());
  const util::JsonValue* admission = doc->Find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->Find("max_inflight")->number_value(), 0.0);
  EXPECT_EQ(admission->Find("shed")->number_value(), 3.0);
  std::remove(path.c_str());
}

TEST(ShardedServiceTest, MalformedBodiesNeverReachAdmission) {
  // Validation runs before the admission gate: at capacity 0 a malformed
  // body still gets its 400 and message, and takes no ticket.
  const std::string path = WriteGeometricSnapshot("svc_malformed.tds", 8, 0);
  ServiceOptions sopts;
  sopts.max_inflight = 0;
  sopts.max_batch = 2;
  sopts.shards = 2;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  const std::pair<const char*, const char*> cases[] = {
      {"{\"labels\": 5}", "'labels' must be an array of strings"},
      {"{\"labels\": [\"q0\", 1]}", "'labels' must be an array of strings"},
      {"{\"labels\": [\"q0\", \"q1\", \"q2\"]}",
       "batch of 3 exceeds the 2 query limit"},
      {"{\"label\": 3}", "'label' must be a string"},
      {"{\"label\": \"q0\", \"allowed\": 5}",
       "'allowed' must be an array of strings"},
      {"{\"label\": \"q0\", \"allowed\": [\"c1\", null]}",
       "'allowed' must be an array of strings"},
      {"{\"vector\": []}", "'vector' must be a non-empty number array"},
      {"{\"vector\": [0.5, \"x\"]}",
       "'vector' must be a non-empty number array"},
  };
  for (const auto& [body, message] : cases) {
    auto r = client->Post("/v1/query", body);
    ASSERT_TRUE(r.ok()) << body;
    EXPECT_EQ(r->status, 400) << body << " -> " << r->body;
    auto doc = util::JsonParse(r->body);
    ASSERT_TRUE(doc.ok()) << r->body;
    ASSERT_NE(doc->Find("error"), nullptr) << r->body;
    EXPECT_EQ(doc->Find("error")->string_value(), message) << body;
  }
  EXPECT_EQ(fx.service.admission().shed(), 0u);
  EXPECT_EQ(fx.service.admission().admitted(), 0u);

  // An unknown label is an engine-level error: it needs the engine, so it
  // meets the gate first and is shed.
  auto unknown = client->Post("/v1/query", "{\"label\": \"unknown\"}");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 429) << unknown->body;
  EXPECT_EQ(fx.service.admission().shed(), 1u);
  std::remove(path.c_str());
}

TEST(ShardedServiceTest, OverlappingQueriesShedPastTheLimit) {
  const std::string path = WriteGeometricSnapshot("svc_burst.tds", 8, 0);
  ServiceOptions sopts;
  sopts.max_inflight = 1;
  sopts.allow_debug_delay = true;  // makes the in-flight overlap determinate
  ServiceFixture fx(path, sopts);

  // A slow query holds the only slot...
  std::thread slow([&] {
    auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
    ASSERT_TRUE(client.ok());
    auto r = client->Post("/v1/query",
                          "{\"label\": \"q0\", \"delay_ms\": 1500}");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 200) << r->body;
  });
  // ...wait until it is inside the admission window, then collide.
  for (int i = 0; i < 200 && fx.service.admission().inflight() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(fx.service.admission().inflight(), 1u);

  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());
  auto shed = client->Post("/v1/query", "{\"label\": \"q1\"}");
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->status, 429) << shed->body;
  EXPECT_FALSE(shed->Header("retry-after").empty());
  slow.join();

  EXPECT_EQ(fx.service.admission().shed(), 1u);
  EXPECT_EQ(fx.service.admission().admitted(), 1u);
  EXPECT_EQ(fx.service.admission().inflight(), 0u);
  // Capacity is back after the slow query drains.
  auto ok = client->Post("/v1/query", "{\"label\": \"q1\"}");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, 200) << ok->body;
  std::remove(path.c_str());
}

TEST(ShardedServiceTest, CacheServesHitsAndInvalidatesOnReload) {
  // Two snapshots that disagree about every query's nearest neighbor: a
  // cached body surviving the reload would be visibly wrong.
  const std::string path_a = WriteGeometricSnapshot("svc_cache_a.tds", 12, 0);
  const std::string path_b = WriteGeometricSnapshot("svc_cache_b.tds", 12, 5);
  ServiceOptions sopts;
  sopts.cache_entries = 8;
  ServiceFixture fx(path_a, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  const std::string query =
      "{\"label\": \"q1\", \"k\": 1, \"mode\": \"exact\"}";
  auto first = client->Post("/v1/query", query);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200) << first->body;
  auto doc = util::JsonParse(first->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(ParseMatches(*doc)[0].first, "c1");  // shift 0: q1 sits on c1
  EXPECT_EQ(fx.service.cache().hits(), 0u);
  EXPECT_EQ(fx.service.cache().misses(), 1u);

  // Identical repeat: served from the cache, body byte-identical.
  auto second = client->Post("/v1/query", query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->body, first->body);
  EXPECT_EQ(fx.service.cache().hits(), 1u);

  // Reload swaps the snapshot and must drop the warm cache with it.
  auto reload =
      client->Post("/v1/reload", "{\"snapshot\": \"" + path_b + "\"}");
  ASSERT_TRUE(reload.ok());
  ASSERT_EQ(reload->status, 200) << reload->body;
  EXPECT_EQ(fx.service.cache().size(), 0u);

  auto third = client->Post("/v1/query", query);
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(third->status, 200) << third->body;
  auto doc3 = util::JsonParse(third->body);
  ASSERT_TRUE(doc3.ok());
  EXPECT_EQ(ParseMatches(*doc3)[0].first, "c6");  // shift 5: q1 sits on c6
  EXPECT_EQ(fx.service.cache().hits(), 1u);  // that was a miss, not a hit
  EXPECT_EQ(fx.service.cache().misses(), 2u);

  // And the new epoch's answer is itself cacheable.
  auto fourth = client->Post("/v1/query", query);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth->body, third->body);
  EXPECT_EQ(fx.service.cache().hits(), 2u);

  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto sdoc = util::JsonParse(stats->body);
  ASSERT_TRUE(sdoc.ok());
  const util::JsonValue* cache = sdoc->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->Find("enabled")->bool_value());
  EXPECT_EQ(cache->Find("hits")->number_value(), 2.0);
  EXPECT_EQ(cache->Find("misses")->number_value(), 2.0);
  EXPECT_EQ(cache->Find("hit_rate")->number_value(), 0.5);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ShardedServiceTest, StatsExposeTheNewSubsystems) {
  const std::string path = WriteGeometricSnapshot("svc_stats.tds", 16, 0);
  ServiceOptions sopts;
  sopts.shards = 2;
  sopts.max_inflight = 7;
  sopts.latency_budget_ms = 50.0;
  sopts.cache_entries = 4;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto doc = util::JsonParse(stats->body);
  ASSERT_TRUE(doc.ok()) << stats->body;

  EXPECT_EQ(doc->Find("shards")->Find("configured")->number_value(), 2.0);
  EXPECT_EQ(doc->Find("admission")->Find("max_inflight")->number_value(),
            7.0);
  EXPECT_EQ(doc->Find("admission")->Find("shed")->number_value(), 0.0);
  const util::JsonValue* autotune = doc->Find("autotune");
  ASSERT_NE(autotune, nullptr);
  EXPECT_TRUE(autotune->Find("enabled")->bool_value());
  EXPECT_EQ(autotune->Find("budget_ms")->number_value(), 50.0);
  EXPECT_GE(autotune->Find("nprobe")->number_value(), 1.0);
  EXPECT_TRUE(doc->Find("cache")->Find("enabled")->bool_value());

  // Unlimited admission encodes as -1, not SIZE_MAX.
  ServiceOptions defaults;
  ServiceFixture unlimited(path, defaults);
  auto c2 = HttpClient::Connect("127.0.0.1", unlimited.server.port());
  ASSERT_TRUE(c2.ok());
  auto s2 = c2->Get("/v1/stats");
  ASSERT_TRUE(s2.ok());
  auto d2 = util::JsonParse(s2->body);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2->Find("admission")->Find("max_inflight")->number_value(),
            -1.0);
  EXPECT_FALSE(d2->Find("autotune")->Find("enabled")->bool_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tdmatch
