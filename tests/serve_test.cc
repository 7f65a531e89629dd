// Tests for the online serving subsystem: snapshot persistence (and its
// one parser under seeded mutation), the exact/IVF index pair, and the
// batched QueryEngine.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "embed/io.h"
#include "serve/index.h"
#include "serve/ivf_index.h"
#include "serve/mmap_snapshot.h"
#include "serve/query_engine.h"
#include "serve/sharded_engine.h"
#include "serve/snapshot.h"
#include "testing/mutate.h"
#include "util/byte_io.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/obs/jsonlog.h"
#include "util/rng.h"
#include "util/simd/kernels.h"
#include "util/string_util.h"

namespace tdmatch {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A table whose floats exercise awkward bit patterns (subnormal, -0,
/// non-representable decimals) so round-trip equality is a real check.
embed::EmbeddingTable AwkwardTable() {
  embed::EmbeddingTable t(3);
  t.Put("plain", {1.0f, 2.0f, 3.0f});
  t.Put("label with spaces", {-0.0f, 1e-42f, 0.1f});
  t.Put("thirds", {1.0f / 3.0f, -2.0f / 3.0f, 1e20f});
  return t;
}

serve::SnapshotMeta DemoMeta() {
  serve::SnapshotMeta meta;
  meta.scenario = "unit-test";
  meta.Set("seed", "4242");
  meta.Set("candidate_prefix", "__D1:");
  return meta;
}

// ---------------------------------------------------------------------------
// serve::SnapshotIo
// ---------------------------------------------------------------------------

TEST(SnapshotTest, RoundTripIsBitExact) {
  const std::string path = TempPath("snap_roundtrip.tds");
  const embed::EmbeddingTable table = AwkwardTable();
  ASSERT_TRUE(serve::SnapshotIo::Write(table, DemoMeta(), path).ok());

  auto snap = serve::SnapshotIo::Read(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->meta.scenario, "unit-test");
  EXPECT_EQ(snap->meta.Find("seed"), "4242");
  EXPECT_EQ(snap->meta.Find("candidate_prefix"), "__D1:");
  EXPECT_EQ(snap->meta.Find("missing-key"), "");
  EXPECT_EQ(snap->table.dim(), table.dim());
  // Labels keep their insertion order and every float keeps its bits.
  ASSERT_EQ(snap->table.Labels(), table.Labels());
  for (const auto& label : table.Labels()) {
    const std::vector<float>* a = table.Get(label);
    const std::vector<float>* b = snap->table.Get(label);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->size(), b->size());
    EXPECT_EQ(std::memcmp(a->data(), b->data(),
                          a->size() * sizeof(float)),
              0)
        << "float bits changed for " << label;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsCorruptedByte) {
  const std::string path = TempPath("snap_corrupt.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(AwkwardTable(), DemoMeta(), path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  WriteFileBytes(path, bytes);

  auto snap = serve::SnapshotIo::Read(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsIOError());
  EXPECT_NE(snap.status().message().find("CRC"), std::string::npos)
      << snap.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsTruncatedFile) {
  const std::string path = TempPath("snap_trunc.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(AwkwardTable(), DemoMeta(), path).ok());
  const std::string bytes = ReadFileBytes(path);
  // Every truncation point must fail — either too small, or CRC mismatch.
  for (size_t keep : {size_t{0}, size_t{5}, size_t{14}, bytes.size() / 2,
                      bytes.size() - 1}) {
    WriteFileBytes(path, bytes.substr(0, keep));
    EXPECT_FALSE(serve::SnapshotIo::Read(path).ok()) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsBadMagicVersionAndEndianness) {
  const std::string path = TempPath("snap_header.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(AwkwardTable(), DemoMeta(), path).ok());
  const std::string good = ReadFileBytes(path);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  WriteFileBytes(path, bad_magic);
  auto r1 = serve::SnapshotIo::Read(path);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("magic"), std::string::npos);

  std::string bad_version = good;
  bad_version[4] = 99;  // version lives at offset 4
  WriteFileBytes(path, bad_version);
  auto r2 = serve::SnapshotIo::Read(path);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("version"), std::string::npos);

  std::string bad_endian = good;
  std::swap(bad_endian[8], bad_endian[11]);  // marker lives at offset 8
  WriteFileBytes(path, bad_endian);
  auto r3 = serve::SnapshotIo::Read(path);
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().message().find("endian"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsAbsurdDeclaredCountsEvenWithValidCrc) {
  // A hostile file can carry a correct CRC over garbage counts; the reader
  // must bound-check the declared sizes before allocating from them
  // instead of dying on bad_alloc.
  const std::string path = TempPath("snap_hostile.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(AwkwardTable(), DemoMeta(), path).ok());
  std::string bytes = ReadFileBytes(path);
  // Body layout: u32 dim at offset 12, u64 count at offset 16.
  const uint64_t absurd = uint64_t{1} << 60;
  std::memcpy(&bytes[16], &absurd, sizeof(absurd));
  const uint32_t crc = util::Crc32(bytes.data() + 12, bytes.size() - 16);
  std::memcpy(&bytes[bytes.size() - 4], &crc, sizeof(crc));
  WriteFileBytes(path, bytes);

  auto snap = serve::SnapshotIo::Read(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsInvalidArgument()) << snap.status().ToString();
  EXPECT_NE(snap.status().message().find("cannot fit"), std::string::npos)
      << snap.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsDuplicateLabelsInBothEntryPoints) {
  // A CRC-valid file whose second label repeats the first: loading it must
  // fail, not hand the first label the second row's vector.
  const std::string path = TempPath("snap_dup_label.tds");
  embed::EmbeddingTable table(2);
  table.Put("dupA", {1.0f, 0.0f});
  table.Put("dupB", {0.0f, 1.0f});
  ASSERT_TRUE(serve::SnapshotIo::Write(table, DemoMeta(), path).ok());
  std::string bytes = ReadFileBytes(path);
  const size_t at = bytes.find("dupB");
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, 4, "dupA");
  const uint32_t crc = util::Crc32(bytes.data() + 12, bytes.size() - 16);
  std::memcpy(&bytes[bytes.size() - 4], &crc, sizeof(crc));
  WriteFileBytes(path, bytes);

  for (const util::Status& st :
       {serve::SnapshotIo::Read(path).status(),
        serve::SnapshotView::Open(path).status()}) {
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("duplicate label"), std::string::npos)
        << st.ToString();
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, ConvertsTextFormatBothWays) {
  const std::string text1 = TempPath("snap_conv1.txt");
  const std::string snap_path = TempPath("snap_conv.tds");
  const std::string text2 = TempPath("snap_conv2.txt");
  ASSERT_TRUE(embed::EmbeddingIo::Save(AwkwardTable(), text1).ok());

  ASSERT_TRUE(serve::SnapshotIo::ConvertTextToSnapshot(text1, DemoMeta(),
                                                       snap_path)
                  .ok());
  auto snap = serve::SnapshotIo::Read(snap_path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->table.size(), 3u);
  EXPECT_NE(snap->table.Get("label with spaces"), nullptr);

  ASSERT_TRUE(
      serve::SnapshotIo::ConvertSnapshotToText(snap_path, text2).ok());
  auto back = embed::EmbeddingIo::Load(text2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const embed::EmbeddingTable source = AwkwardTable();
  ASSERT_EQ(back->size(), source.size());
  // Text -> snapshot -> text must not lose a bit of any vector.
  for (const std::string& label : source.Labels()) {
    const std::vector<float>* want = source.Get(label);
    const std::vector<float>* got = back->Get(label);
    ASSERT_NE(got, nullptr) << label;
    ASSERT_EQ(got->size(), want->size()) << label;
    EXPECT_EQ(0, std::memcmp(got->data(), want->data(),
                             want->size() * sizeof(float)))
        << label;
  }
  std::remove(text1.c_str());
  std::remove(snap_path.c_str());
  std::remove(text2.c_str());
}

// ---------------------------------------------------------------------------
// serve::ExactIndex / serve::IvfIndex
// ---------------------------------------------------------------------------

/// `n` clustered unit-ish vectors around `centers` seeded anchors.
std::vector<std::vector<float>> ClusteredVectors(size_t n, int dim,
                                                 size_t centers,
                                                 uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> anchor(centers);
  for (auto& c : anchor) {
    c.resize(static_cast<size_t>(dim));
    for (auto& x : c) x = static_cast<float>(rng.Gaussian());
  }
  std::vector<std::vector<float>> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].resize(static_cast<size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      out[i][static_cast<size_t>(d)] =
          anchor[i % centers][static_cast<size_t>(d)] +
          0.3f * static_cast<float>(rng.Gaussian());
    }
  }
  return out;
}

std::shared_ptr<const serve::VectorMatrix> MatrixOf(
    const std::vector<std::vector<float>>& vectors, int dim) {
  std::vector<const std::vector<float>*> rows;
  rows.reserve(vectors.size());
  for (const auto& v : vectors) rows.push_back(&v);
  return std::make_shared<const serve::VectorMatrix>(
      serve::VectorMatrix::FromRows(rows, dim));
}

TEST(ExactIndexTest, RanksByCosineWithTieBreak) {
  std::vector<std::vector<float>> vecs = {
      {1.0f, 0.0f}, {0.0f, 1.0f}, {1.0f, 1.0f}, {1.0f, 0.0f}};
  serve::ExactIndex index(MatrixOf(vecs, 2));
  auto top = index.SearchVec({1.0f, 0.0f}, 3);
  ASSERT_EQ(top.size(), 3u);
  // Ids 0 and 3 tie at cosine 1; the lower id wins.
  EXPECT_EQ(top[0].index, 0);
  EXPECT_EQ(top[1].index, 3);
  EXPECT_EQ(top[2].index, 2);
  EXPECT_NEAR(top[0].score, 1.0, 1e-6);
}

TEST(ExactIndexTest, FilterRestrictsCandidates) {
  std::vector<std::vector<float>> vecs = {
      {1.0f, 0.0f}, {0.9f, 0.1f}, {0.0f, 1.0f}};
  serve::ExactIndex index(MatrixOf(vecs, 2));
  std::vector<char> allowed = {0, 1, 1};
  auto top = index.SearchVec({1.0f, 0.0f}, 3, &allowed);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].index, 1);
  EXPECT_EQ(top[1].index, 2);
}

TEST(IvfIndexTest, FullProbeMatchesExactExactly) {
  const int dim = 12;
  const auto vecs = ClusteredVectors(400, dim, 10, 99);
  auto matrix = MatrixOf(vecs, dim);
  serve::ExactIndex exact(matrix);
  serve::IvfOptions opts;
  opts.nlist = 16;
  opts.seed = 5;
  serve::IvfIndex ivf(matrix, opts);
  ivf.set_nprobe(ivf.nlist());  // probe everything ⇒ must equal exact

  util::Rng rng(123);
  for (int q = 0; q < 20; ++q) {
    const auto& query = vecs[rng.UniformInt(vecs.size())];
    const auto want = exact.SearchVec(query, 7);
    const auto got = ivf.SearchVec(query, 7);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].index, want[i].index) << "query " << q << " rank "
                                             << i;
      EXPECT_DOUBLE_EQ(got[i].score, want[i].score);
    }
  }
}

TEST(IvfIndexTest, RecallAt5IsAtLeast95Percent) {
  const int dim = 16;
  const auto vecs = ClusteredVectors(800, dim, 24, 4242);
  auto matrix = MatrixOf(vecs, dim);
  serve::ExactIndex exact(matrix);
  serve::IvfOptions opts;
  opts.seed = 4242;
  opts.nprobe = 8;
  serve::IvfIndex ivf(matrix, opts);

  util::Rng rng(7);
  std::vector<std::vector<float>> queries(60);
  for (auto& q : queries) {
    q = vecs[rng.UniformInt(vecs.size())];
    for (auto& x : q) x += 0.1f * static_cast<float>(rng.Gaussian());
  }
  const double recall = serve::MeasureRecallAtK(ivf, exact, queries, 5);
  EXPECT_GE(recall, 0.95) << "nlist=" << ivf.nlist()
                          << " nprobe=" << ivf.nprobe();
}

TEST(IvfPqTest, FullProbeFullRerankMatchesExact) {
  const int dim = 12;
  const auto vecs = ClusteredVectors(400, dim, 10, 99);
  auto matrix = MatrixOf(vecs, dim);
  serve::ExactIndex exact(matrix);
  serve::IvfOptions opts;
  opts.nlist = 16;
  opts.seed = 5;
  opts.pq_m = 4;
  opts.pq_rerank = 400;  // re-rank everything ⇒ ADC error cannot matter
  serve::IvfIndex pq(matrix, opts);
  ASSERT_TRUE(pq.pq_enabled());
  pq.set_nprobe(pq.nlist());

  util::Rng rng(123);
  for (int q = 0; q < 20; ++q) {
    const auto& query = vecs[rng.UniformInt(vecs.size())];
    const auto want = exact.SearchVec(query, 7);
    const auto got = pq.SearchVec(query, 7);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].index, want[i].index) << "query " << q << " rank "
                                             << i;
      EXPECT_DOUBLE_EQ(got[i].score, want[i].score);
    }
  }
}

TEST(IvfPqTest, CompressedRecallClearsFloor) {
  const int dim = 16;
  const auto vecs = ClusteredVectors(800, dim, 24, 4242);
  auto matrix = MatrixOf(vecs, dim);
  serve::ExactIndex exact(matrix);
  serve::IvfOptions flat_opts;
  flat_opts.seed = 4242;
  flat_opts.nprobe = 8;
  serve::IvfIndex flat(matrix, flat_opts);
  serve::IvfOptions pq_opts = flat_opts;
  pq_opts.pq_m = 8;
  serve::IvfIndex pq(matrix, pq_opts);

  // The codes must actually be smaller than the f32 lists they replace
  // (codebook included), and the exact re-rank must hold the quality bar
  // the serving config promises.
  EXPECT_LT(pq.ListBytes(), flat.ListBytes());
  util::Rng rng(7);
  std::vector<std::vector<float>> queries(60);
  for (auto& q : queries) {
    q = vecs[rng.UniformInt(vecs.size())];
    for (auto& x : q) x += 0.1f * static_cast<float>(rng.Gaussian());
  }
  const double recall = serve::MeasureRecallAtK(pq, exact, queries, 5);
  EXPECT_GE(recall, 0.95) << "nlist=" << pq.nlist();
}

TEST(IvfPqTest, SerializeRoundTripSearchesIdentically) {
  const int dim = 16;
  const auto vecs = ClusteredVectors(500, dim, 16, 321);
  auto matrix = MatrixOf(vecs, dim);
  for (size_t pq_m : {size_t{0}, size_t{4}}) {  // flat and PQ wire paths
    serve::IvfOptions opts;
    opts.seed = 11;
    opts.nprobe = 4;
    opts.pq_m = pq_m;
    serve::IvfIndex trained(matrix, opts);
    const uint32_t crc = 0xfeedbeef;
    const std::string bytes = trained.Serialize(crc);

    auto loaded = serve::IvfIndex::Deserialize(bytes, matrix, crc, opts);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    util::Rng rng(55);
    for (int q = 0; q < 15; ++q) {
      const auto& query = vecs[rng.UniformInt(vecs.size())];
      const auto want = trained.SearchVec(query, 5);
      const auto got = (*loaded)->SearchVec(query, 5);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].index, want[i].index) << "pq_m=" << pq_m;
        EXPECT_DOUBLE_EQ(got[i].score, want[i].score);
      }
    }
    // And the reloaded index re-serializes to the same bytes.
    EXPECT_EQ((*loaded)->Serialize(crc), bytes);
  }
}

TEST(IvfPqTest, DeserializeRejectsHostileSections) {
  const int dim = 8;
  const auto vecs = ClusteredVectors(100, dim, 6, 13);
  auto matrix = MatrixOf(vecs, dim);
  serve::IvfOptions opts;
  opts.seed = 3;
  serve::IvfIndex trained(matrix, opts);
  const uint32_t crc = 42;
  const std::string good = trained.Serialize(crc);
  auto reject = [&](const std::string& bytes, const char* what) {
    auto r = serve::IvfIndex::Deserialize(bytes, matrix, crc, opts);
    EXPECT_FALSE(r.ok()) << "accepted " << what;
  };

  // Stale fingerprint: section built over a different candidate set.
  EXPECT_FALSE(
      serve::IvfIndex::Deserialize(good, matrix, crc + 1, opts).ok());
  // Every truncation point must fail (no over-read, no partial adopt).
  for (size_t keep : {size_t{0}, size_t{3}, size_t{16}, good.size() / 2,
                      good.size() - 1}) {
    reject(good.substr(0, keep), "truncation");
  }
  reject(good + "x", "trailing garbage");

  // Corrupt each fixed header field in place. Layout: u32 version,
  // u32 labels_crc, u32 dim, u64 n, u64 nlist, u32 pq_m.
  auto with_u32 = [&](size_t off, uint32_t v) {
    std::string b = good;
    std::memcpy(&b[off], &v, sizeof(v));
    return b;
  };
  reject(with_u32(0, 999), "bad wire version");
  reject(with_u32(8, static_cast<uint32_t>(dim) + 1), "wrong dim");
  reject(with_u32(12, 101), "wrong n (low word)");
  reject(with_u32(28, 3), "pq_m not dividing dim");

  // Structural attacks on the id/offset arrays (flat layout, so offsets
  // start after the header + centroid block).
  const size_t centroids_off = 32;
  const size_t offsets_off =
      centroids_off + trained.nlist() * static_cast<size_t>(dim) * 4;
  const size_t ids_off = offsets_off + (trained.nlist() + 1) * 8;
  {
    std::string b = good;  // non-monotone offsets
    const uint64_t big = 1ull << 40;
    std::memcpy(&b[offsets_off + 8], &big, sizeof(big));
    reject(b, "non-monotone offsets");
  }
  {
    std::string b = good;  // id out of range
    const int32_t bad_id = 100;
    std::memcpy(&b[ids_off], &bad_id, sizeof(bad_id));
    reject(b, "out-of-range id");
  }
  {
    std::string b = good;  // duplicated id
    int32_t first;
    std::memcpy(&first, &b[ids_off], sizeof(first));
    std::memcpy(&b[ids_off + 4], &first, sizeof(first));
    reject(b, "duplicate id");
  }
}

TEST(IvfIndexTest, TrainingIsThreadCountInvariant) {
  const int dim = 8;
  const auto vecs = ClusteredVectors(300, dim, 12, 11);
  auto matrix = MatrixOf(vecs, dim);
  serve::IvfOptions opts;
  opts.seed = 31;
  opts.nprobe = 3;
  opts.threads = 1;
  serve::IvfIndex one(matrix, opts);
  opts.threads = 8;
  serve::IvfIndex eight(matrix, opts);

  ASSERT_EQ(one.nlist(), eight.nlist());
  for (size_t c = 0; c < one.nlist(); ++c) {
    EXPECT_EQ(one.ListSize(c), eight.ListSize(c)) << "cell " << c;
  }
  util::Rng rng(77);
  for (int q = 0; q < 15; ++q) {
    const auto& query = vecs[rng.UniformInt(vecs.size())];
    const auto a = one.SearchVec(query, 5);
    const auto b = eight.SearchVec(query, 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].index, b[i].index);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming selection against the gather → sort-by-id → select reference
// ---------------------------------------------------------------------------

/// An IvfIndex's trained structure, read back from its Serialize bytes.
struct IvfWire {
  size_t dim = 0;
  size_t nlist = 0;
  size_t pq_m = 0;
  std::vector<float> centroids;
  std::vector<uint64_t> offsets;
  std::vector<int32_t> ids;
  std::vector<float> codebook;  // PQ: pq_m × 256 × dim/pq_m
  std::vector<float> vectors;   // flat: n × dim, list order
  std::vector<uint8_t> codes;   // PQ: n × pq_m, list order
};

IvfWire ReadIvfWire(const std::string& bytes) {
  util::ByteCursor cur(bytes);
  auto ok = [](const util::Status& s) { EXPECT_TRUE(s.ok()) << s.ToString(); };
  uint32_t version = 0, crc = 0, dim = 0, pq_m = 0;
  uint64_t n = 0, nlist = 0;
  ok(cur.ReadU32(&version));
  ok(cur.ReadU32(&crc));
  ok(cur.ReadU32(&dim));
  ok(cur.ReadU64(&n));
  ok(cur.ReadU64(&nlist));
  ok(cur.ReadU32(&pq_m));
  IvfWire w;
  w.dim = dim;
  w.nlist = static_cast<size_t>(nlist);
  w.pq_m = pq_m;
  w.centroids.resize(w.nlist * w.dim);
  ok(cur.ReadFloats(w.centroids.data(), w.centroids.size()));
  w.offsets.resize(w.nlist + 1);
  for (auto& off : w.offsets) ok(cur.ReadU64(&off));
  w.ids.resize(static_cast<size_t>(n));
  ok(cur.ReadBytes(w.ids.data(), w.ids.size() * sizeof(int32_t)));
  if (w.pq_m > 0) {
    w.codebook.resize(256 * w.dim);
    ok(cur.ReadFloats(w.codebook.data(), w.codebook.size()));
    w.codes.resize(static_cast<size_t>(n) * w.pq_m);
    ok(cur.ReadBytes(w.codes.data(), w.codes.size()));
  } else {
    w.vectors.resize(static_cast<size_t>(n) * w.dim);
    ok(cur.ReadFloats(w.vectors.data(), w.vectors.size()));
  }
  EXPECT_EQ(cur.Remaining(), 0u);
  return w;
}

/// TopK::Select as it was before the streaming selector: a partial sort
/// by (score desc, lower position).
std::vector<match::Match> GatherSelect(const std::vector<double>& scores,
                                       size_t k) {
  std::vector<int32_t> idx(scores.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int32_t>(i);
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&](int32_t a, int32_t b) {
                      const double sa = scores[static_cast<size_t>(a)];
                      const double sb = scores[static_cast<size_t>(b)];
                      if (sa != sb) return sa > sb;
                      return a < b;
                    });
  std::vector<match::Match> out;
  for (size_t i = 0; i < k; ++i) {
    out.push_back(match::Match{idx[i], scores[static_cast<size_t>(idx[i])]});
  }
  return out;
}

/// Selects the k best of `gathered` after sorting it by candidate id, so
/// the position tie-break of GatherSelect is the id order.
std::vector<match::Match> SortByIdThenSelect(
    std::vector<match::Match> gathered, size_t k) {
  std::sort(gathered.begin(), gathered.end(),
            [](const match::Match& a, const match::Match& b) {
              return a.index < b.index;
            });
  std::vector<double> scores;
  for (const auto& g : gathered) scores.push_back(g.score);
  std::vector<match::Match> out;
  for (const auto& m : GatherSelect(scores, k)) {
    out.push_back(
        match::Match{gathered[static_cast<size_t>(m.index)].index, m.score});
  }
  return out;
}

/// IvfIndex::SearchWithNprobe the gather way: score the probed members
/// into one vector, sort it by id, select (PQ: select a shortlist, sort
/// its ids, select again over the exact dots).
std::vector<match::Match> GatherSortSelectSearch(
    const IvfWire& w, const serve::VectorMatrix& matrix, const float* query,
    size_t k, size_t nprobe, size_t pq_rerank,
    const std::vector<char>* allowed) {
  const size_t d = w.dim;
  nprobe = std::max<size_t>(1, std::min(nprobe, w.nlist));
  std::vector<double> cell_scores(w.nlist);
  for (size_t c = 0; c < w.nlist; ++c) {
    cell_scores[c] = simd::Dot(query, w.centroids.data() + c * d, d);
  }
  const size_t m = w.pq_m;
  std::vector<float> table(m * 256);
  for (size_t s = 0; s < m; ++s) {
    for (size_t j = 0; j < 256; ++j) {
      table[s * 256 + j] =
          simd::Dot(query + s * (d / m),
                    w.codebook.data() + (s * 256 + j) * (d / m), d / m);
    }
  }
  std::vector<match::Match> gathered;
  for (const auto& probe : GatherSelect(cell_scores, nprobe)) {
    const size_t c = static_cast<size_t>(probe.index);
    const size_t begin = w.offsets[c];
    const size_t count = w.offsets[c + 1] - begin;
    std::vector<float> approx(count);
    if (m > 0 && count > 0) {
      simd::AdcScan(w.codes.data() + begin * m, count, m, table.data(),
                    approx.data());
    }
    for (size_t j = 0; j < count; ++j) {
      const size_t pos = begin + j;
      const int32_t id = w.ids[pos];
      if (allowed != nullptr && (*allowed)[static_cast<size_t>(id)] == 0) {
        continue;
      }
      const float score =
          m > 0 ? approx[j] : simd::Dot(query, w.vectors.data() + pos * d, d);
      gathered.push_back(match::Match{id, score});
    }
  }
  if (m == 0) return SortByIdThenSelect(std::move(gathered), k);

  std::vector<match::Match> exact;
  for (const auto& s :
       SortByIdThenSelect(std::move(gathered), std::max(pq_rerank, k))) {
    exact.push_back(match::Match{
        s.index,
        simd::Dot(query, matrix.row(static_cast<size_t>(s.index)), d)});
  }
  return SortByIdThenSelect(std::move(exact), k);
}

TEST(IvfIndexTest, StreamingSelectMatchesGatherSortSelect) {
  const int dim = 16;
  const size_t n = 300;
  auto vecs = ClusteredVectors(n, dim, 12, 2024);
  for (size_t i = 0; i < 40; ++i) vecs[150 + i] = vecs[i];  // forced ties
  vecs[n - 1].assign(static_cast<size_t>(dim), 0.0f);       // all-zero row
  auto matrix = MatrixOf(vecs, dim);

  std::vector<std::vector<float>> queries = {vecs[3], vecs[153], vecs[n - 1],
                                             vecs[77]};
  util::Rng rng(9);
  for (int q = 0; q < 6; ++q) {
    auto v = vecs[rng.UniformInt(n)];
    for (auto& x : v) x += 0.2f * static_cast<float>(rng.Gaussian());
    queries.push_back(v);
  }
  for (auto& q : queries) serve::NormalizeSlice(q.data(), dim);
  std::vector<char> allowed(n);
  for (size_t i = 0; i < n; ++i) allowed[i] = i % 3 != 1;

  struct Variant {
    size_t pq_m;
    size_t pq_rerank;  // 1 = at least k, i.e. exactly k
  };
  size_t ties = 0;
  for (const Variant v : {Variant{0, 64}, Variant{4, 1}, Variant{4, 64},
                          Variant{4, n}}) {
    serve::IvfOptions opts;
    opts.nlist = 16;
    opts.seed = 3;
    opts.pq_m = v.pq_m;
    opts.pq_rerank = v.pq_rerank;
    serve::IvfIndex ivf(matrix, opts);
    const IvfWire wire = ReadIvfWire(ivf.Serialize(0));
    ASSERT_EQ(wire.nlist, 16u);
    for (const size_t nprobe : {size_t{1}, size_t{8}, ivf.nlist()}) {
      for (const size_t k : {size_t{1}, size_t{5}, size_t{100}, n + 100}) {
        for (const std::vector<char>* mask :
             {static_cast<const std::vector<char>*>(nullptr),
              static_cast<const std::vector<char>*>(&allowed)}) {
          for (size_t q = 0; q < queries.size(); ++q) {
            const float* query = queries[q].data();
            const auto want = GatherSortSelectSearch(
                wire, *matrix, query, k, nprobe, v.pq_rerank, mask);
            const auto got = ivf.SearchWithNprobe(query, k, nprobe, mask);
            const std::string where = util::StrFormat(
                "pq_m=%zu rerank=%zu nprobe=%zu k=%zu filtered=%d query=%zu",
                v.pq_m, v.pq_rerank, nprobe, k, mask != nullptr ? 1 : 0, q);
            ASSERT_EQ(got.size(), want.size()) << where;
            for (size_t i = 0; i < want.size(); ++i) {
              EXPECT_EQ(got[i].index, want[i].index) << where << " rank " << i;
              EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score,
                                    sizeof(double)),
                        0)
                  << where << " rank " << i;
              if (i > 0 && want[i].score == want[i - 1].score) ++ties;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(ties, 0u);  // the duplicated rows did force tie-breaks
}

// ---------------------------------------------------------------------------
// serve::QueryEngine
// ---------------------------------------------------------------------------

/// Snapshot with 2-d geometry: candidates c<i> fan around the circle,
/// queries q<i> sit on top of candidate i.
serve::Snapshot GeometricSnapshot(size_t num_candidates) {
  serve::Snapshot snap;
  snap.meta.scenario = "geometry";
  snap.table = embed::EmbeddingTable(2);
  for (size_t i = 0; i < num_candidates; ++i) {
    const float angle =
        static_cast<float>(i) / static_cast<float>(num_candidates) * 3.1f;
    const std::vector<float> v = {std::cos(angle), std::sin(angle)};
    snap.table.Put("c" + std::to_string(i), v);
    snap.table.Put("q" + std::to_string(i), v);
  }
  return snap;
}

TEST(QueryEngineTest, QueryFindsNearestCandidates) {
  auto engine = serve::QueryEngine::BuildForPrefix(GeometricSnapshot(10),
                                                   "c");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->num_candidates(), 10u);

  auto top = engine->Query("q3", 3);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->size(), 3u);
  EXPECT_EQ((*top)[0].label, "c3");
  EXPECT_NEAR((*top)[0].score, 1.0, 1e-6);
  // Neighbors on the circle come next.
  EXPECT_TRUE((*top)[1].label == "c2" || (*top)[1].label == "c4");

  EXPECT_TRUE(engine->Query("no-such-label").status().IsNotFound());
}

TEST(QueryEngineTest, FilteredQueryHonorsBlock) {
  auto engine = serve::QueryEngine::BuildForPrefix(GeometricSnapshot(10),
                                                   "c");
  ASSERT_TRUE(engine.ok());
  auto top = engine->QueryFiltered("q3", {"c7", "c8", "not-a-candidate"}, 5);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->size(), 2u);
  EXPECT_EQ((*top)[0].label, "c7");  // nearer to q3 than c8
  EXPECT_EQ((*top)[1].label, "c8");

  auto none = engine->QueryFiltered("q3", {"not-a-candidate"}, 5);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(QueryEngineTest, FilteredQueryFindsAllowedOutsideProbedCells) {
  // With nprobe=1 an IVF scan would only see the query's own cell; the
  // filtered path must still return an allowed candidate on the far side
  // of the space, because it always runs on the exact index.
  serve::QueryEngineOptions opts;
  opts.ivf.nprobe = 1;
  opts.ivf.nlist = 8;
  auto engine = serve::QueryEngine::BuildForPrefix(GeometricSnapshot(40),
                                                   "c", opts);
  ASSERT_TRUE(engine.ok());
  auto top = engine->QueryFiltered("q0", {"c39"}, 5);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->size(), 1u);
  EXPECT_EQ((*top)[0].label, "c39");
}

TEST(QueryEngineTest, BuildRejectsBadCandidateSets) {
  const auto matrix = MatrixOf({{1.0f, 0.0f}, {0.0f, 1.0f}}, 2);
  const serve::MatrixGather gather = [&](std::vector<int32_t> order) {
    return matrix->Reordered(std::move(order));
  };
  EXPECT_TRUE(serve::QueryEngine::BuildOverRows({"c0", "c0"}, {}, {}, gather)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(serve::QueryEngine::BuildForPrefix(GeometricSnapshot(4), "zz")
                  .status()
                  .IsNotFound());
}

TEST(QueryEngineTest, BatchResultsAreThreadCountInvariant) {
  const size_t n = 40;
  std::vector<std::string> labels;
  for (size_t i = 0; i < n; ++i) labels.push_back("q" + std::to_string(i));
  labels.push_back("unknown-label");  // per-slot error, not batch failure

  std::vector<std::vector<std::pair<std::string, double>>> per_thread_runs;
  for (size_t threads : {1, 4, 8}) {
    serve::QueryEngineOptions opts;
    opts.threads = threads;
    opts.ivf.seed = 4242;
    auto engine = serve::QueryEngine::BuildForPrefix(GeometricSnapshot(n),
                                                     "c", opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto results = engine->QueryBatch(labels, 5);
    ASSERT_EQ(results.size(), labels.size());

    // Flatten to (label, score) so runs compare exactly.
    std::vector<std::pair<std::string, double>> flat;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        ASSERT_EQ(labels[i], "unknown-label");
        flat.emplace_back("<error>", 0.0);
        continue;
      }
      for (const auto& m : *results[i]) {
        flat.emplace_back(m.label, m.score);
      }
    }
    per_thread_runs.push_back(std::move(flat));
  }
  ASSERT_EQ(per_thread_runs.size(), 3u);
  EXPECT_EQ(per_thread_runs[0], per_thread_runs[1]);
  EXPECT_EQ(per_thread_runs[0], per_thread_runs[2]);
}

TEST(QueryEngineTest, ExactModeAvailableWithoutIvf) {
  serve::QueryEngineOptions opts;
  opts.build_ivf = false;
  auto engine = serve::QueryEngine::BuildForPrefix(GeometricSnapshot(6), "c",
                                                   opts);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->has_ivf());
  auto top = engine->Query("q2", 2);  // kApprox falls back to exact
  ASSERT_TRUE(top.ok());
  EXPECT_EQ((*top)[0].label, "c2");
}

// ---------------------------------------------------------------------------
// Snapshot sections (format v2) + engine adoption of the "ivfpq" section
// ---------------------------------------------------------------------------

TEST(SnapshotSectionsTest, SectionFreeWriteStaysByteIdenticalV1) {
  const std::string p1 = TempPath("snap_v1.tds");
  const std::string p2 = TempPath("snap_v1_sections_overload.tds");
  const embed::EmbeddingTable table = AwkwardTable();
  ASSERT_TRUE(serve::SnapshotIo::Write(table, DemoMeta(), p1).ok());
  ASSERT_TRUE(serve::SnapshotIo::Write(table, DemoMeta(), {}, p2).ok());
  // No sections ⇒ the old v1 format, byte for byte: pre-existing
  // snapshots and tools notice nothing.
  EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(SnapshotSectionsTest, SectionsRoundTripThroughIoAndView) {
  const std::string path = TempPath("snap_v2.tds");
  const std::string payload("\x01\x00\xffraw bytes\x00tail", 17);
  const std::vector<std::pair<std::string, std::string>> sections = {
      {"ivfpq", payload}, {"notes", "hello"}};
  ASSERT_TRUE(
      serve::SnapshotIo::Write(AwkwardTable(), DemoMeta(), sections, path)
          .ok());

  auto snap = serve::SnapshotIo::Read(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_NE(snap->Section("ivfpq"), nullptr);
  EXPECT_EQ(*snap->Section("ivfpq"), payload);
  ASSERT_NE(snap->Section("notes"), nullptr);
  EXPECT_EQ(*snap->Section("notes"), "hello");
  EXPECT_EQ(snap->Section("missing"), nullptr);
  // The table payload itself is untouched by trailing sections.
  EXPECT_EQ(snap->table.Labels(), AwkwardTable().Labels());

  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_NE((*view)->Section("ivfpq"), nullptr);
  EXPECT_EQ(*(*view)->Section("ivfpq"), payload);
  EXPECT_EQ((*view)->Section("missing"), nullptr);
  std::remove(path.c_str());
}

TEST(SnapshotSectionsTest, CorruptedSectionFailsCrc) {
  const std::string path = TempPath("snap_v2_corrupt.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(AwkwardTable(), DemoMeta(),
                                       {{"ivfpq", "payload-bytes"}}, path)
                  .ok());
  std::string bytes = ReadFileBytes(path);
  // Flip a bit inside the appended section region (near the end, before
  // the trailing CRC): sections sit inside the checksummed span.
  bytes[bytes.size() - 8] ^= 0x10;
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(serve::SnapshotIo::Read(path).ok());
  EXPECT_FALSE(serve::SnapshotView::Open(path).ok());
  std::remove(path.c_str());
}

TEST(QueryEngineTest, AdoptsIvfSectionFromSnapshot) {
  // Train once, persist the index as a section, rebuild from disk: the
  // second engine must adopt (no k-means) and answer identically.
  auto trained = serve::QueryEngine::BuildForPrefix(GeometricSnapshot(10),
                                                    "c");
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  ASSERT_FALSE(trained->ivf_from_snapshot());
  const std::string section = trained->SerializeIvfSection();
  ASSERT_FALSE(section.empty());

  const std::string path = TempPath("snap_adopt.tds");
  serve::Snapshot src = GeometricSnapshot(10);
  ASSERT_TRUE(serve::SnapshotIo::Write(
                  src.table, src.meta,
                  {{serve::QueryEngine::kIvfSectionTag, section}}, path)
                  .ok());
  auto snap = serve::SnapshotIo::Read(path);
  ASSERT_TRUE(snap.ok());
  auto adopted = serve::QueryEngine::BuildForPrefix(std::move(*snap), "c");
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_TRUE(adopted->ivf_from_snapshot());

  for (int i = 0; i < 10; ++i) {
    const std::string q = "q" + std::to_string(i);
    auto want = trained->Query(q, 3);
    auto got = adopted->Query(q, 3);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(got->size(), want->size());
    for (size_t r = 0; r < want->size(); ++r) {
      EXPECT_EQ((*got)[r].label, (*want)[r].label) << q;
      EXPECT_DOUBLE_EQ((*got)[r].score, (*want)[r].score);
    }
  }

  // The mmap path adopts too.
  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok());
  auto from_view = serve::QueryEngine::BuildFromView(*view, "c");
  ASSERT_TRUE(from_view.ok()) << from_view.status().ToString();
  EXPECT_TRUE(from_view->ivf_from_snapshot());
  std::remove(path.c_str());
}

TEST(QueryEngineTest, FallsBackToTrainingOnStaleSection) {
  // Section built over the "c" candidates, engine built over "q": the
  // fingerprint mismatch must be detected and the engine must train its
  // own index instead of serving another candidate set's cells.
  auto trained = serve::QueryEngine::BuildForPrefix(GeometricSnapshot(10),
                                                    "c");
  ASSERT_TRUE(trained.ok());
  const std::string path = TempPath("snap_stale.tds");
  serve::Snapshot src = GeometricSnapshot(10);
  ASSERT_TRUE(serve::SnapshotIo::Write(
                  src.table, src.meta,
                  {{serve::QueryEngine::kIvfSectionTag,
                    trained->SerializeIvfSection()}},
                  path)
                  .ok());
  auto snap = serve::SnapshotIo::Read(path);
  ASSERT_TRUE(snap.ok());
  auto engine = serve::QueryEngine::BuildForPrefix(std::move(*snap), "q");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_FALSE(engine->ivf_from_snapshot());
  EXPECT_TRUE(engine->has_ivf());
  auto top = engine->Query("c3", 1);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ((*top)[0].label, "q3");

  // An engine told not to adopt trains even when the section matches.
  auto snap2 = serve::SnapshotIo::Read(path);
  ASSERT_TRUE(snap2.ok());
  serve::QueryEngineOptions no_adopt;
  no_adopt.use_snapshot_index = false;
  auto opted_out = serve::QueryEngine::BuildForPrefix(std::move(*snap2), "c",
                                                      no_adopt);
  ASSERT_TRUE(opted_out.ok());
  EXPECT_FALSE(opted_out->ivf_from_snapshot());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// One vector store: the exact and IVF indexes read one list-order matrix
// ---------------------------------------------------------------------------

constexpr int kOneMatrixDim = 16;
constexpr size_t kOneMatrixRows = 300;

/// Candidates "c<i>": 300 clustered rows, 40 of them duplicates and the
/// last all-zero; `jitter` > 0 perturbs every row (the zero row too).
serve::Snapshot DuplicatedRowsSnapshot(float jitter = 0.0f) {
  auto vecs = ClusteredVectors(kOneMatrixRows, kOneMatrixDim, 12, 2024);
  for (size_t i = 0; i < 40; ++i) vecs[150 + i] = vecs[i];
  vecs.back().assign(static_cast<size_t>(kOneMatrixDim), 0.0f);
  util::Rng rng(77);
  for (auto& v : vecs) {
    for (auto& x : v) x += jitter * static_cast<float>(rng.Gaussian());
  }
  serve::Snapshot snap;
  snap.meta.scenario = "one-matrix";
  snap.table = embed::EmbeddingTable(kOneMatrixDim);
  for (size_t i = 0; i < vecs.size(); ++i) {
    snap.table.Put("c" + std::to_string(i), vecs[i]);
  }
  return snap;
}

/// Queries on duplicated rows, on the zero row, and perturbed ones.
std::vector<std::vector<float>> OneMatrixQueries() {
  const serve::Snapshot snap = DuplicatedRowsSnapshot();
  std::vector<std::vector<float>> queries;
  for (const char* label : {"c3", "c153", "c299", "c77"}) {
    queries.push_back(*snap.table.Get(label));
  }
  util::Rng rng(9);
  for (int q = 0; q < 6; ++q) {
    auto v = *snap.table.Get("c" + std::to_string(rng.UniformInt(
                                       kOneMatrixRows)));
    for (auto& x : v) x += 0.2f * static_cast<float>(rng.Gaussian());
    queries.push_back(v);
  }
  return queries;
}

serve::QueryEngineOptions OneMatrixOptions(size_t pq_m) {
  serve::QueryEngineOptions opts;
  opts.ivf.nlist = 16;
  opts.ivf.seed = 3;
  opts.ivf.pq_m = pq_m;
  opts.ivf.pq_rerank = kOneMatrixRows;  // ADC error cannot drop a member
  return opts;
}

void ExpectSameAnswers(const std::vector<serve::ScoredMatch>& got,
                       const std::vector<serve::ScoredMatch>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label) << where << " rank " << i;
    EXPECT_EQ(got[i].candidate, want[i].candidate) << where << " rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)), 0)
        << where << " rank " << i;
  }
}

/// At nprobe = nlist the engine's IVF index answers exactly as its exact
/// index — label, id and score bits, with and without a mask — because
/// both read the same VectorMatrix, and a flat IVF owns no vector copy.
void ExpectApproxIsExact(const serve::QueryEngine& engine,
                         const std::string& where) {
  ASSERT_TRUE(engine.has_ivf()) << where;
  const serve::IvfIndex& ivf = *engine.ivf_index();
  const serve::ExactIndex& exact = engine.exact_index();
  EXPECT_EQ(exact.matrix().get(), ivf.matrix().get()) << where;
  const size_t n = engine.num_candidates();
  const int dim = ivf.dim();
  if (!ivf.pq_enabled()) {
    EXPECT_LT(ivf.MemoryBytes(), n * static_cast<size_t>(dim) * 4) << where;
  }
  std::vector<char> allowed(n);
  for (size_t i = 0; i < n; ++i) allowed[i] = i % 3 != 1;
  for (const auto& q : OneMatrixQueries()) {
    std::vector<float> unit = q;
    serve::NormalizeSlice(unit.data(), dim);
    for (const size_t k : {size_t{1}, size_t{5}, n}) {
      auto approx =
          engine.QueryVector(q, k, serve::SearchMode::kApprox, ivf.nlist());
      auto want = engine.QueryVector(q, k, serve::SearchMode::kExact);
      ASSERT_TRUE(approx.ok() && want.ok()) << where;
      ExpectSameAnswers(*approx, *want, where);

      const auto got = ivf.SearchWithNprobe(unit.data(), k, ivf.nlist(),
                                            &allowed);
      const auto masked = exact.Search(unit.data(), k, &allowed);
      ASSERT_EQ(got.size(), masked.size()) << where;
      for (size_t i = 0; i < masked.size(); ++i) {
        EXPECT_EQ(got[i].index, masked[i].index) << where << " masked " << i;
        EXPECT_EQ(
            std::memcmp(&got[i].score, &masked[i].score, sizeof(double)), 0)
            << where << " masked " << i;
      }
    }
  }
}

/// Writes `table` with `section` as its "ivfpq" section.
std::string WriteOneMatrixSnapshot(const std::string& name,
                                   const serve::Snapshot& src,
                                   const std::string& section) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(serve::SnapshotIo::Write(
                  src.table, src.meta,
                  {{serve::QueryEngine::kIvfSectionTag, section}}, path)
                  .ok());
  return path;
}

TEST(OneMatrixTest, FullProbeIsExactOnTrainedAndAdoptedIndexes) {
  for (const size_t pq_m : {size_t{0}, size_t{4}}) {
    const serve::QueryEngineOptions opts = OneMatrixOptions(pq_m);
    const std::string mode = pq_m > 0 ? "pq" : "flat";
    auto trained =
        serve::QueryEngine::BuildForPrefix(DuplicatedRowsSnapshot(), "c", opts);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    ASSERT_FALSE(trained->ivf_from_snapshot());
    ExpectApproxIsExact(*trained, mode + " trained");

    const std::string path = WriteOneMatrixSnapshot(
        "one_matrix_" + mode + ".tds", DuplicatedRowsSnapshot(),
        trained->SerializeIvfSection());
    auto snap = serve::SnapshotIo::Read(path);
    ASSERT_TRUE(snap.ok());
    auto copied = serve::QueryEngine::BuildForPrefix(std::move(*snap), "c",
                                                     opts);
    ASSERT_TRUE(copied.ok() && copied->ivf_from_snapshot());
    ExpectApproxIsExact(*copied, mode + " adopted from a table");

    auto view = serve::SnapshotView::Open(path);
    ASSERT_TRUE(view.ok());
    auto mapped = serve::QueryEngine::BuildFromView(*view, "c", opts);
    ASSERT_TRUE(mapped.ok() && mapped->ivf_from_snapshot());
    ExpectApproxIsExact(*mapped, mode + " adopted from a view");
    // The adopted index re-serializes to the bytes it was read from.
    EXPECT_EQ(mapped->SerializeIvfSection(), trained->SerializeIvfSection());

    serve::ShardedEngineOptions sharded_opts;
    sharded_opts.shards = 4;
    sharded_opts.engine = opts;
    auto sharded =
        serve::ShardedQueryEngine::BuildFromView(*view, "c", sharded_opts);
    ASSERT_TRUE(sharded.ok() && sharded->ivf_from_snapshot());
    for (size_t i = 0; i < sharded->active_shards(); ++i) {
      ExpectApproxIsExact(sharded->shard(i),
                          mode + " shard " + std::to_string(i));
    }
    std::remove(path.c_str());
  }
}

TEST(OneMatrixTest, AdoptedSectionScoresThePayloadVectors) {
  // The section was trained over perturbed vectors under the same labels,
  // so its fingerprint is valid: the engines adopt its cells (and PQ
  // codes) but score the payload's vectors, so approx at nprobe = nlist
  // still equals exact — and exact equals an engine with no IVF at all.
  for (const size_t pq_m : {size_t{0}, size_t{4}}) {
    const serve::QueryEngineOptions opts = OneMatrixOptions(pq_m);
    const std::string mode = pq_m > 0 ? "pq" : "flat";
    auto perturbed = serve::QueryEngine::BuildForPrefix(
        DuplicatedRowsSnapshot(0.5f), "c", opts);
    ASSERT_TRUE(perturbed.ok());
    const std::string section = perturbed->SerializeIvfSection();
    const std::string path = WriteOneMatrixSnapshot(
        "one_matrix_perturbed_" + mode + ".tds", DuplicatedRowsSnapshot(),
        section);
    auto view = serve::SnapshotView::Open(path);
    ASSERT_TRUE(view.ok());

    serve::QueryEngineOptions exact_only = opts;
    exact_only.build_ivf = false;
    auto reference = serve::QueryEngine::BuildFromView(*view, "c", exact_only);
    auto adopted = serve::QueryEngine::BuildFromView(*view, "c", opts);
    ASSERT_TRUE(reference.ok() && adopted.ok());
    ASSERT_TRUE(adopted->ivf_from_snapshot());
    ExpectApproxIsExact(*adopted, mode + " perturbed section");
    for (const auto& q : OneMatrixQueries()) {
      auto got = adopted->QueryVector(q, 5, serve::SearchMode::kApprox,
                                      adopted->ivf_index()->nlist());
      auto want = reference->QueryVector(q, 5, serve::SearchMode::kExact);
      ASSERT_TRUE(got.ok() && want.ok());
      ExpectSameAnswers(*got, *want, mode + " against an IVF-free engine");
    }
    // Re-serialized, a flat index carries the payload's rows, not the
    // section's perturbed copy; PQ codes are adopted as they are.
    if (pq_m == 0) {
      EXPECT_NE(adopted->SerializeIvfSection(), section);
    } else {
      EXPECT_EQ(adopted->SerializeIvfSection(), section);
    }

    serve::ShardedEngineOptions sharded_opts;
    sharded_opts.shards = 4;
    sharded_opts.engine = opts;
    auto sharded =
        serve::ShardedQueryEngine::BuildFromView(*view, "c", sharded_opts);
    ASSERT_TRUE(sharded.ok() && sharded->ivf_from_snapshot());
    for (size_t i = 0; i < sharded->active_shards(); ++i) {
      ExpectApproxIsExact(sharded->shard(i),
                          mode + " perturbed shard " + std::to_string(i));
    }
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// The snapshot parser under seeded mutation
// ---------------------------------------------------------------------------

/// Offsets of the u32 length and count fields of a well-formed snapshot
/// file (for a u64 field, its low word): dim, vector count, every string
/// length prefix, the metadata pair and section counts, and each section
/// byte length.
std::vector<size_t> LengthFieldOffsets(const std::string& file) {
  std::vector<size_t> at;
  size_t pos = 12;
  auto field = [&](size_t bytes) {
    at.push_back(pos);
    uint64_t v = 0;
    std::memcpy(&v, &file[pos], bytes);
    pos += bytes;
    return v;
  };
  auto skip_string = [&] { pos += field(4); };
  const uint64_t dim = field(4);
  const uint64_t count = field(8);
  skip_string();  // scenario
  for (uint64_t i = 2 * field(4); i > 0; --i) skip_string();
  for (uint64_t i = 0; i < count; ++i) skip_string();
  pos += count * dim * sizeof(float);
  for (uint64_t i = field(4); i > 0; --i) {
    skip_string();
    pos += field(8);
  }
  EXPECT_EQ(pos, file.size() - 4);  // the walk ends at the CRC
  return at;
}

TEST(SnapshotMutationTest, EveryMutantFailsCleanlyOrServes) {
  // Mutants of a snapshot with an "ivfpq" section: bit flips, body
  // truncations, inflated length fields and splices, each re-stamped with
  // a valid CRC so it reaches the structural parse. Each must either fail
  // with a Status or open into a view whose every label and row reads and
  // whose engine build fails with a Status or answers queries — never
  // read out of bounds (the sanitizer builds run this too).
  const std::vector<std::vector<float>> vectors = ClusteredVectors(64, 4, 4, 7);
  serve::Snapshot snap;
  snap.meta = DemoMeta();
  snap.table = embed::EmbeddingTable(4);
  for (size_t i = 0; i < 32; ++i) {
    snap.table.Put("c" + std::to_string(i), vectors[i]);
    snap.table.Put("q" + std::to_string(i), vectors[32 + i]);
  }
  serve::QueryEngineOptions opts;
  opts.threads = 1;
  opts.ivf.nlist = 4;
  opts.ivf.pq_m = 2;
  opts.ivf.pq_rerank = 8;
  auto trained = serve::QueryEngine::BuildForPrefix(snap, "c", opts);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const std::string path = TempPath("snap_mutant.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(
                  snap.table, snap.meta,
                  {{serve::QueryEngine::kIvfSectionTag,
                    trained->SerializeIvfSection()}},
                  path)
                  .ok());
  const std::string good = ReadFileBytes(path);

  // Rejected sections log ivf_section_ignored: capture those events on
  // the global logger, and restore its stderr sink however the test ends.
  std::vector<std::string> log_lines;
  struct SinkRestore {
    ~SinkRestore() { util::obs::JsonLogger::Global().set_sink(nullptr); }
  } restore_sink;
  util::obs::JsonLogger::Global().set_sink(
      [&log_lines](const std::string& line) { log_lines.push_back(line); });
  // The header is left whole (only bit-flipped); the CRC is re-stamped
  // over each mutated body.
  const std::string unsigned_good = good.substr(0, good.size() - 4);
  const testutil::MutationLayout layout{12, LengthFieldOffsets(good)};
  util::Rng rng(20240917);
  const size_t kMutants = 2000;
  size_t opened = 0;
  size_t built = 0;
  size_t adopted = 0;
  for (size_t m = 0; m < kMutants; ++m) {
    const std::string mutant = testutil::Mutate(unsigned_good, layout, &rng);
    const uint32_t crc = util::Crc32(mutant.data() + 12, mutant.size() - 12);
    WriteFileBytes(path, mutant +
                             std::string(reinterpret_cast<const char*>(&crc),
                                         sizeof(crc)));

    auto view = serve::SnapshotView::Open(path);
    EXPECT_EQ(serve::SnapshotIo::Read(path).ok(), view.ok()) << "mutant " << m;
    if (!view.ok()) continue;
    ++opened;
    const serve::SnapshotView& v = **view;
    std::vector<float> row(static_cast<size_t>(v.dim()));
    for (size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(v.FindRow(std::string(v.label(i))), static_cast<int64_t>(i))
          << "mutant " << m;
      v.CopyRow(i, row.data());
      if (v.aligned()) {
        EXPECT_EQ(std::memcmp(v.row(i), row.data(),
                              row.size() * sizeof(float)),
                  0);
      }
    }
    auto engine = serve::QueryEngine::BuildFromView(*view, "c", opts);
    if (!engine.ok()) continue;
    ++built;
    adopted += engine->ivf_from_snapshot() ? 1 : 0;
    const std::string label(v.label(0));
    for (auto mode : {serve::SearchMode::kApprox, serve::SearchMode::kExact}) {
      EXPECT_TRUE(engine->Query(label, 5, mode).ok()) << "mutant " << m;
    }
  }
  std::remove(path.c_str());
  // The mutants reach every outcome: rejected, opened, built, adopted.
  EXPECT_LT(opened, kMutants);
  EXPECT_GT(opened, kMutants / 4);
  EXPECT_GT(built, 0u);
  EXPECT_GT(adopted, 0u);
  EXPECT_LT(adopted, built);
  // Rejected sections were reported as structured events with a reason.
  size_t ignored = 0;
  for (const std::string& line : log_lines) {
    auto doc = util::JsonParse(line);
    ASSERT_TRUE(doc.ok()) << line;
    if (doc->Find("event")->string_value() != "ivf_section_ignored") continue;
    ++ignored;
    const util::JsonValue* reason = doc->Find("reason");
    ASSERT_NE(reason, nullptr) << line;
    EXPECT_FALSE(reason->string_value().empty()) << line;
  }
  EXPECT_GT(ignored, 0u);
}

TEST(QueryEngineTest, QueryVectorValidatesDim) {
  auto engine = serve::QueryEngine::BuildForPrefix(GeometricSnapshot(4), "c");
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->QueryVector({1.0f, 0.0f, 0.0f})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace tdmatch
