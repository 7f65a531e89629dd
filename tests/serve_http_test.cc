// Tests for the HTTP serving front end and its substrate: the shared JSON
// util, the mmap zero-copy SnapshotView, the HTTP/1.1 parser/server/client,
// the MatchService endpoints, and the RCU hot-reload scheme.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/http/client.h"
#include "serve/http/http.h"
#include "serve/http/server.h"
#include "serve/http/service.h"
#include "serve/mmap_snapshot.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "testing/mutate.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/obs/jsonlog.h"
#include "util/obs/profiler.h"
#include "util/rng.h"
#include "util/string_util.h"

// The CPU profiler's SIGPROF handler is incompatible with sanitizer
// signal interception; its endpoint test is skipped under TSan/ASan.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define TDMATCH_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define TDMATCH_TEST_UNDER_SANITIZER 1
#endif
#endif
#ifndef TDMATCH_TEST_UNDER_SANITIZER
#define TDMATCH_TEST_UNDER_SANITIZER 0
#endif

namespace tdmatch {
namespace {

using serve::http::HttpClient;
using serve::http::HttpParser;
using serve::http::HttpRequest;
using serve::http::HttpResponse;
using serve::http::HttpServer;
using serve::http::HttpServerOptions;
using serve::http::MatchService;
using serve::http::QueryRequest;
using serve::http::ServiceOptions;
using serve::SnapshotMeta;

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

// ---------------------------------------------------------------------------
// util/json
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesNestedValues) {
  auto v = util::JsonParse(
      " {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"s\": \"x\\ny\"} ");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  const util::JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].number_value(), 1.0);
  EXPECT_EQ(a->items()[0].string_value(), "1");  // source spelling kept
  EXPECT_EQ(a->items()[2].number_value(), -300.0);
  const util::JsonValue* b = v->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->Find("c")->bool_value());
  EXPECT_TRUE(b->Find("d")->is_null());
  EXPECT_EQ(v->Find("s")->string_value(), "x\ny");
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(util::JsonParse("{\"a\": 1,}").ok());
  EXPECT_FALSE(util::JsonParse("{\"a\" 1}").ok());
  EXPECT_FALSE(util::JsonParse("[1, 2").ok());
  EXPECT_FALSE(util::JsonParse("{} trailing").ok());
  EXPECT_FALSE(util::JsonParse("\"bad \\ud800 surrogate\"").ok());
  EXPECT_FALSE(util::JsonParse("nope").ok());
  EXPECT_FALSE(util::JsonParse("").ok());
  // Nesting depth is bounded; hostile input cannot blow the stack.
  std::string deep(200, '[');
  EXPECT_FALSE(util::JsonParse(deep).ok());
}

TEST(JsonTest, FlatRecordContractIsPreserved) {
  util::JsonFlatRecord record;
  ASSERT_TRUE(util::JsonParseFlatRecord(
                  "{\"t\": \"x\", \"n\": 1994, \"b\": true, \"z\": null}",
                  &record)
                  .ok());
  ASSERT_EQ(record.size(), 4u);
  EXPECT_EQ(record[1].first, "n");
  EXPECT_EQ(record[1].second, "1994");  // numbers keep their spelling
  EXPECT_EQ(record[2].second, "true");
  EXPECT_EQ(record[3].second, "");  // null → empty, like CSV

  record.clear();
  util::Status st =
      util::JsonParseFlatRecord("{\"a\": {\"nested\": 1}}", &record);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("records must be flat"), std::string::npos);
}

TEST(JsonTest, WriterRoundTripsDoublesBitExact) {
  util::JsonWriter w;
  w.BeginObject()
      .Key("third").Value(1.0 / 3.0)
      .Key("neg").Value(-0.47423878312110901)
      .Key("nan").Value(std::nan(""))
      .Key("list").BeginArray().Value(1).Value("two\n\"quoted\"")
      .Value(false).Null().EndArray()
      .EndObject();
  auto v = util::JsonParse(w.str());
  ASSERT_TRUE(v.ok()) << w.str();
  // Shortest round-trip spelling → strtod must reproduce the exact bits.
  EXPECT_EQ(v->Find("third")->number_value(), 1.0 / 3.0);
  EXPECT_EQ(v->Find("neg")->number_value(), -0.47423878312110901);
  EXPECT_TRUE(v->Find("nan")->is_null());  // JSON has no NaN
  const auto& list = v->Find("list")->items();
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[1].string_value(), "two\n\"quoted\"");
}

// ---------------------------------------------------------------------------
// serve::SnapshotView, and SnapshotIo::Read's copy out of it
// ---------------------------------------------------------------------------

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

TEST(SnapshotViewTest, MatchesCopyingLoaderBitExact) {
  const std::string path = TempPath("view_roundtrip.tds");
  const embed::EmbeddingTable table = AwkwardTable();
  ASSERT_TRUE(serve::SnapshotIo::Write(table, DemoMeta(), path).ok());

  auto snap = serve::SnapshotIo::Read(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Identical metadata (no internal pad pair leaks through either path).
  EXPECT_EQ((*view)->meta().scenario, snap->meta.scenario);
  EXPECT_EQ((*view)->meta().extra, snap->meta.extra);
  EXPECT_EQ((*view)->meta().extra, DemoMeta().extra);
  EXPECT_EQ((*view)->dim(), snap->table.dim());
  ASSERT_EQ((*view)->size(), snap->table.size());

  // Labels in written order, payload bit-identical, both through CopyRow
  // and the in-place aligned pointer.
  EXPECT_TRUE((*view)->aligned());
  const std::vector<std::string> labels = snap->table.Labels();
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ((*view)->label(i), labels[i]);
    ASSERT_EQ((*view)->FindRow(labels[i]), static_cast<int64_t>(i));
    const std::vector<float>* want = snap->table.Get(labels[i]);
    std::vector<float> got(3);
    (*view)->CopyRow(i, got.data());
    EXPECT_EQ(std::memcmp(got.data(), want->data(), 3 * sizeof(float)), 0)
        << labels[i];
    EXPECT_EQ(std::memcmp((*view)->row(i), want->data(), 3 * sizeof(float)),
              0);
  }
  EXPECT_EQ((*view)->FindRow("missing"), -1);
  std::remove(path.c_str());
}

TEST(SnapshotViewTest, PayloadIsAlignedForEveryStringResidue) {
  // The writer pads the pre-payload bytes to a multiple of 4 whatever the
  // accumulated label/meta string lengths are; sweep the residues.
  for (int residue = 0; residue < 8; ++residue) {
    const std::string path = TempPath("view_align.tds");
    embed::EmbeddingTable t(2);
    t.Put(std::string(static_cast<size_t>(residue + 1), 'x'), {1.0f, 2.0f});
    serve::SnapshotMeta meta;
    meta.scenario = std::string(static_cast<size_t>(residue), 's');
    ASSERT_TRUE(serve::SnapshotIo::Write(t, meta, path).ok());
    auto view = serve::SnapshotView::Open(path);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_TRUE((*view)->aligned()) << "residue " << residue;
    EXPECT_EQ((*view)->row(0)[1], 2.0f);
    std::remove(path.c_str());
  }
}

TEST(SnapshotViewTest, RejectionMatrixMatchesCopyingLoader) {
  const std::string path = TempPath("view_reject.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(AwkwardTable(), DemoMeta(), path).ok());
  const std::string good = ReadFileBytes(path);

  // Truncation at every interesting point fails in both loaders.
  for (size_t keep : {size_t{0}, size_t{5}, size_t{14}, good.size() / 2,
                      good.size() - 1}) {
    WriteFileBytes(path, good.substr(0, keep));
    EXPECT_FALSE(serve::SnapshotIo::Read(path).ok()) << "copy kept " << keep;
    EXPECT_FALSE(serve::SnapshotView::Open(path).ok()) << "mmap kept "
                                                       << keep;
  }

  // One flipped payload byte: CRC mismatch in both.
  std::string corrupt = good;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x40);
  WriteFileBytes(path, corrupt);
  auto v1 = serve::SnapshotView::Open(path);
  ASSERT_FALSE(v1.ok());
  EXPECT_NE(v1.status().message().find("CRC"), std::string::npos);
  EXPECT_FALSE(serve::SnapshotIo::Read(path).ok());

  // Header damage: magic, version, endianness.
  std::string bad = good;
  bad[0] = 'X';
  WriteFileBytes(path, bad);
  EXPECT_NE(serve::SnapshotView::Open(path).status().message().find("magic"),
            std::string::npos);
  bad = good;
  bad[4] = 99;
  WriteFileBytes(path, bad);
  EXPECT_NE(
      serve::SnapshotView::Open(path).status().message().find("version"),
      std::string::npos);
  bad = good;
  std::swap(bad[8], bad[11]);
  WriteFileBytes(path, bad);
  EXPECT_NE(
      serve::SnapshotView::Open(path).status().message().find("endian"),
      std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotViewTest, RejectsOverflowingGeometryInBothLoaders) {
  // A count whose payload byte size overflows 64-bit (and a fortiori any
  // 32-bit) arithmetic, behind a valid CRC: both loaders must call out the
  // overflow instead of computing a wrapped size.
  const std::string path = TempPath("view_overflow.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(AwkwardTable(), DemoMeta(), path).ok());
  std::string bytes = ReadFileBytes(path);
  const uint64_t absurd = uint64_t{1} << 62;  // * 12 bytes/row overflows
  std::memcpy(&bytes[16], &absurd, sizeof(absurd));
  const uint32_t crc = util::Crc32(bytes.data() + 12, bytes.size() - 16);
  std::memcpy(&bytes[bytes.size() - 4], &crc, sizeof(crc));
  WriteFileBytes(path, bytes);

  for (const util::Status& st :
       {serve::SnapshotIo::Read(path).status(),
        serve::SnapshotView::Open(path).status()}) {
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("overflows"), std::string::npos)
        << st.ToString();
  }

  // A merely-absurd count (fits 64-bit math, not the file) still fails
  // with the fit check in both.
  const uint64_t large = uint64_t{1} << 40;
  std::memcpy(&bytes[16], &large, sizeof(large));
  const uint32_t crc2 = util::Crc32(bytes.data() + 12, bytes.size() - 16);
  std::memcpy(&bytes[bytes.size() - 4], &crc2, sizeof(crc2));
  WriteFileBytes(path, bytes);
  EXPECT_NE(serve::SnapshotIo::Read(path).status().message().find(
                "cannot fit"),
            std::string::npos);
  EXPECT_NE(serve::SnapshotView::Open(path).status().message().find(
                "cannot fit"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotViewTest, RewritingTheFileNeverTearsALiveMapping) {
  // SnapshotIo::Write replaces via temp-file + rename, so regenerating a
  // snapshot in place (the documented reload workflow) leaves a serving
  // process's mmap on the old inode — old bytes stay intact, a fresh
  // Open sees the new ones.
  const std::string path = TempPath("view_rewrite.tds");
  embed::EmbeddingTable old_table(2);
  old_table.Put("c0", {1.0f, 2.0f});
  ASSERT_TRUE(
      serve::SnapshotIo::Write(old_table, serve::SnapshotMeta{}, path).ok());
  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok());

  embed::EmbeddingTable new_table(2);
  new_table.Put("c0", {9.0f, 8.0f});
  ASSERT_TRUE(
      serve::SnapshotIo::Write(new_table, serve::SnapshotMeta{}, path).ok());

  EXPECT_EQ((*view)->row(0)[0], 1.0f);  // the live mapping is untouched
  auto fresh = serve::SnapshotView::Open(path);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->row(0)[0], 9.0f);
  std::remove(path.c_str());
}

/// Snapshot with 2-d geometry: candidates c<i> fan around the circle,
/// queries q<i> on top of candidate (i + shift) mod n — shift lets two
/// snapshot files disagree about every query's nearest neighbor.
serve::Snapshot GeometricSnapshot(size_t n, size_t shift = 0) {
  serve::Snapshot snap;
  snap.meta.scenario = shift == 0 ? "geometry" : "geometry-shifted";
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
  EXPECT_TRUE(
      serve::SnapshotIo::Write(snap.table, snap.meta, path).ok());
  return path;
}

TEST(SnapshotViewTest, EngineFromViewMatchesCopyingEngineBitExact) {
  const std::string path = WriteGeometricSnapshot("view_engine.tds", 24, 0);

  auto snap = serve::SnapshotIo::Read(path);
  ASSERT_TRUE(snap.ok());
  serve::QueryEngineOptions opts;
  opts.ivf.seed = 4242;
  auto copy_engine =
      serve::QueryEngine::BuildForPrefix(std::move(*snap), "c", opts);
  ASSERT_TRUE(copy_engine.ok()) << copy_engine.status().ToString();

  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok());
  auto view_engine = serve::QueryEngine::BuildFromView(*view, "c", opts);
  ASSERT_TRUE(view_engine.ok()) << view_engine.status().ToString();
  EXPECT_EQ(view_engine->num_candidates(), copy_engine->num_candidates());

  for (size_t i = 0; i < 24; ++i) {
    const std::string q = "q" + std::to_string(i);
    for (auto mode : {serve::SearchMode::kApprox, serve::SearchMode::kExact}) {
      auto a = copy_engine->Query(q, 5, mode);
      auto b = view_engine->Query(q, 5, mode);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a->size(), b->size());
      for (size_t r = 0; r < a->size(); ++r) {
        EXPECT_EQ((*a)[r].label, (*b)[r].label);
        EXPECT_EQ((*a)[r].score, (*b)[r].score);  // bit-identical
      }
    }
    auto fa = copy_engine->QueryFiltered(q, {"c3", "c17", "zz"}, 4);
    auto fb = view_engine->QueryFiltered(q, {"c3", "c17", "zz"}, 4);
    ASSERT_TRUE(fa.ok() && fb.ok());
    ASSERT_EQ(fa->size(), fb->size());
    for (size_t r = 0; r < fa->size(); ++r) {
      EXPECT_EQ((*fa)[r].label, (*fb)[r].label);
      EXPECT_EQ((*fa)[r].score, (*fb)[r].score);
    }
  }
  EXPECT_TRUE(view_engine->Query("nope").status().IsNotFound());

  // Several engines can share one mapping.
  auto second = serve::QueryEngine::BuildFromView(*view, "q", opts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->num_candidates(), 24u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// HttpParser
// ---------------------------------------------------------------------------

TEST(HttpParserTest, ParsesRequestIncrementally) {
  HttpParser p(HttpParser::Mode::kRequest);
  const std::string wire =
      "POST /v1/query?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n"
      "X-Custom: v\r\n\r\nbodyLEFTOVER";
  // Feed byte by byte: framing must not depend on chunk boundaries.
  for (size_t i = 0; i + 8 < wire.size(); ++i) {
    ASSERT_TRUE(p.Feed(wire.substr(i, 1)).ok()) << i;
  }
  ASSERT_TRUE(p.Feed(wire.substr(wire.size() - 8)).ok());
  ASSERT_TRUE(p.Done());
  EXPECT_EQ(p.request().method, "POST");
  EXPECT_EQ(p.request().path, "/v1/query");
  EXPECT_EQ(p.request().query, "x=1");
  EXPECT_EQ(p.request().body, "body");
  EXPECT_EQ(p.request().Header("x-custom"), "v");
  EXPECT_TRUE(p.request().KeepAlive());
  EXPECT_EQ(p.leftover(), "LEFTOVER");
}

TEST(HttpParserTest, RejectsMalformedStartLines) {
  struct Case {
    const char* wire;
    int status;
  };
  const Case cases[] = {
      {"GARBAGE\r\n\r\n", 400},
      {"GET /x HTTP/1.1 extra\r\n\r\n", 400},
      {"G<>T / HTTP/1.1\r\n\r\n", 400},
      {"GET noslash HTTP/1.1\r\n\r\n", 400},
      {"GET / HTTP/2.0\r\n\r\n", 505},
      {"GET / HTTP/1.1\r\nno colon here\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nbad name: v\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nA: 1\r\n  folded\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      // Conflicting repeated Content-Length is a smuggling vector.
      {"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n",
       400},
  };
  for (const Case& c : cases) {
    HttpParser p(HttpParser::Mode::kRequest);
    EXPECT_FALSE(p.Feed(c.wire).ok()) << c.wire;
    EXPECT_EQ(p.http_status(), c.status) << c.wire;
  }
}

TEST(HttpParserTest, EnforcesSizeLimits) {
  serve::http::HttpLimits limits;
  limits.max_header_bytes = 128;
  limits.max_body_bytes = 64;

  HttpParser headers(HttpParser::Mode::kRequest, limits);
  const std::string big_header =
      "GET / HTTP/1.1\r\nX-Big: " + std::string(300, 'a');
  EXPECT_FALSE(headers.Feed(big_header).ok());
  EXPECT_EQ(headers.http_status(), 431);

  HttpParser body(HttpParser::Mode::kRequest, limits);
  EXPECT_FALSE(
      body.Feed("POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n").ok());
  EXPECT_EQ(body.http_status(), 413);

  HttpParser overflow(HttpParser::Mode::kRequest, limits);
  EXPECT_FALSE(overflow
                   .Feed("POST / HTTP/1.1\r\nContent-Length: "
                         "99999999999999999999999999\r\n\r\n")
                   .ok());
  EXPECT_EQ(overflow.http_status(), 413);
}

TEST(HttpParserTest, AcceptsIdenticalRepeatedContentLength) {
  HttpParser p(HttpParser::Mode::kRequest);
  ASSERT_TRUE(p.Feed("POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                     "Content-Length: 2\r\n\r\nok")
                  .ok());
  ASSERT_TRUE(p.Done());
  EXPECT_EQ(p.request().body, "ok");
}

TEST(HttpParserTest, RejectsEmptyContentLength) {
  // An empty value is malformed, not "no body": read as absent, the body
  // bytes would become the next pipelined request.
  HttpParser p(HttpParser::Mode::kRequest);
  EXPECT_FALSE(
      p.Feed("POST /v1/query HTTP/1.1\r\nContent-Length:\r\n\r\n{}").ok());
  EXPECT_EQ(p.http_status(), 400);
  EXPECT_FALSE(p.Done());
  EXPECT_EQ(p.leftover(), "");

  // Absent still means no body.
  HttpParser absent(HttpParser::Mode::kRequest);
  ASSERT_TRUE(absent.Feed("POST /v1/reload HTTP/1.1\r\n\r\n").ok());
  ASSERT_TRUE(absent.Done());
  EXPECT_EQ(absent.request().body, "");
}

TEST(HttpParserTest, ParsesPipelinedRequestsAcrossReset) {
  HttpParser p(HttpParser::Mode::kRequest);
  ASSERT_TRUE(p.Feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n").ok());
  ASSERT_TRUE(p.Done());
  EXPECT_EQ(p.request().path, "/a");
  p.Reset();
  ASSERT_TRUE(p.Feed("").ok());
  ASSERT_TRUE(p.Done());
  EXPECT_EQ(p.request().path, "/b");
}

TEST(HttpParserTest, ParsesResponses) {
  HttpParser p(HttpParser::Mode::kResponse);
  ASSERT_TRUE(p.Feed("HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n"
                     "Content-Type: application/json\r\n\r\n{}")
                  .ok());
  ASSERT_TRUE(p.Done());
  EXPECT_EQ(p.response_status(), 404);
  EXPECT_EQ(p.request().body, "{}");
}

/// What a request parser made of a byte stream: each message it
/// completed (Reset between them, as the server's keep-alive loop does),
/// then the http_status() of the error that stopped it, or 0 when it was
/// still waiting for more bytes.
struct ParseOutcome {
  std::vector<std::string> messages;
  int error_status = 0;
};

ParseOutcome ParseRequestStream(const std::vector<std::string>& chunks) {
  HttpParser p(HttpParser::Mode::kRequest);
  ParseOutcome out;
  for (const std::string& chunk : chunks) {
    util::Status st = p.Feed(chunk);
    while (st.ok() && p.Done()) {
      const HttpRequest& r = p.request();
      // A completed message is well-formed by the parser's own rules.
      EXPECT_FALSE(r.method.empty());
      EXPECT_EQ(r.target.compare(0, 1, "/"), 0) << r.target;
      EXPECT_TRUE(r.version == "HTTP/1.1" || r.version == "HTTP/1.0")
          << r.version;
      const std::string& cl = r.Header("content-length");
      EXPECT_EQ(r.body.size(), cl.empty() ? 0 : std::stoull(cl));
      std::string message = r.method + " " + r.target + " " + r.version;
      for (const auto& kv : r.headers) {
        message += "\n" + kv.first + ": " + kv.second;
      }
      out.messages.push_back(message + "\n\n" + r.body);
      p.Reset();
      st = p.Feed("");
    }
    if (!st.ok()) {
      out.error_status = p.http_status();
      break;
    }
  }
  return out;
}

TEST(HttpParserTest, MutatedRequestBytesParseOrFailCleanly) {
  const std::string body = "{\"label\": \"q1\", \"k\": 3}";
  const std::string post =
      "POST /v1/query HTTP/1.1\r\nHost: localhost:8080\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  const std::string get =
      "GET /v1/metrics?format=json HTTP/1.1\r\nHost: h\r\n"
      "Accept: */*\r\n\r\n";
  const std::vector<std::string> seeds = {
      get,
      "GET /v1/healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
      post,
      "POST /v1/reload HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n",
      "POST /v1/reload HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
      post + get,  // pipelined on one connection
  };

  util::Rng rng(20261018);
  const size_t kMutants = 5000;
  size_t completed = 0, failed = 0, waiting = 0;
  for (size_t m = 0; m < kMutants; ++m) {
    const std::string mutant =
        testutil::Mutate(seeds[rng.UniformInt(seeds.size())],
                         testutil::MutationLayout{}, &rng);
    const ParseOutcome whole = ParseRequestStream({mutant});
    const int status = whole.error_status;
    ASSERT_TRUE(status == 0 || status == 400 || status == 413 ||
                status == 431 || status == 505)
        << status << " for " << mutant;

    // The same bytes split at random boundaries parse identically:
    // framing never depends on how the socket delivered them.
    std::vector<size_t> cuts(1 + rng.UniformInt(4));
    for (size_t& cut : cuts) cut = rng.UniformInt(mutant.size() + 1);
    std::sort(cuts.begin(), cuts.end());
    std::vector<std::string> chunks;
    size_t from = 0;
    for (size_t cut : cuts) {
      chunks.push_back(mutant.substr(from, cut - from));
      from = cut;
    }
    chunks.push_back(mutant.substr(from));
    const ParseOutcome split = ParseRequestStream(chunks);
    ASSERT_EQ(split.messages, whole.messages) << mutant;
    ASSERT_EQ(split.error_status, status) << mutant;

    if (status != 0) {
      ++failed;
    } else if (whole.messages.empty()) {
      ++waiting;
    } else {
      ++completed;
    }
  }
  // The budget reaches every outcome.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(waiting, 0u);
}

// ---------------------------------------------------------------------------
// HttpServer + HttpClient
// ---------------------------------------------------------------------------

/// Opens a raw TCP connection, sends `wire`, reads until the peer closes.
std::string RawRoundTrip(uint16_t port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(HttpServerTest, RoutesAndKeepsConnectionsAlive) {
  HttpServerOptions opts;
  opts.threads = 2;
  HttpServer server(opts);
  std::atomic<int> hits{0};
  server.Handle("GET", "/ping", [&hits](const HttpRequest&) {
    ++hits;
    return HttpResponse::Json(200, "{\"pong\":true}");
  });
  server.Handle("POST", "/echo", [](const HttpRequest& r) {
    return HttpResponse::Json(200, r.body);
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Several requests over one keep-alive connection.
  for (int i = 0; i < 3; ++i) {
    auto r = client->Get("/ping");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
    EXPECT_EQ(r->body, "{\"pong\":true}");
  }
  EXPECT_EQ(hits.load(), 3);

  auto echo = client->Post("/echo", "{\"x\":1}");
  ASSERT_TRUE(echo.ok());
  EXPECT_EQ(echo->body, "{\"x\":1}");

  auto missing = client->Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  auto wrong_method = client->Get("/echo");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);

  EXPECT_GE(server.requests_served(), 6u);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, MalformedInputGetsErrorResponsesNeverACrash) {
  HttpServer server;
  server.Handle("GET", "/", [](const HttpRequest&) {
    return HttpResponse::Json(200, "{}");
  });
  ASSERT_TRUE(server.Start().ok());

  EXPECT_NE(RawRoundTrip(server.port(), "GARBAGE\r\n\r\n").find("400"),
            std::string::npos);
  EXPECT_NE(RawRoundTrip(server.port(),
                         "GET / HTTP/9.9\r\n\r\n")
                .find("505"),
            std::string::npos);
  EXPECT_NE(RawRoundTrip(server.port(),
                         "POST / HTTP/1.1\r\nContent-Length: "
                         "999999999999\r\n\r\n")
                .find("413"),
            std::string::npos);
  const std::string huge_header =
      "GET / HTTP/1.1\r\nX: " + std::string(64 * 1024, 'a') + "\r\n\r\n";
  EXPECT_NE(RawRoundTrip(server.port(), huge_header).find("431"),
            std::string::npos);
  // The server must still answer well-formed requests afterwards.
  auto client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto r = client->Get("/");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 200);
  server.Stop();
}

TEST(HttpServerTest, ClientSurvivesServerSideIdleClose) {
  HttpServerOptions opts;
  opts.idle_timeout_ms = 150;
  HttpServer server(opts);
  server.Handle("GET", "/", [](const HttpRequest&) {
    return HttpResponse::Json(200, "{}");
  });
  ASSERT_TRUE(server.Start().ok());

  auto client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Get("/").ok());
  // Let the server reap the idle connection, then reuse the client: the
  // single-retry reconnect must hide the stale socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto r = client->Get("/");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status, 200);
  server.Stop();
}

// ---------------------------------------------------------------------------
// MatchService over HTTP
// ---------------------------------------------------------------------------

struct ServiceFixture {
  explicit ServiceFixture(const std::string& snapshot_path,
                          ServiceOptions sopts = {},
                          HttpServerOptions hopts = {})
      : service(sopts), server(hopts) {
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

/// (label, score) rows parsed from a response's "matches" array.
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

Matches ToMatches(const std::vector<serve::ScoredMatch>& scored) {
  Matches out;
  for (const auto& m : scored) out.emplace_back(m.label, m.score);
  return out;
}

TEST(MatchServiceTest, HttpResponsesAreBitIdenticalToInProcessResults) {
  const std::string path = WriteGeometricSnapshot("svc_bits.tds", 16, 0);
  ServiceFixture fx(path);

  // The in-process reference: the same mmap path the service uses.
  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok());
  auto engine = serve::QueryEngine::BuildFromView(*view, "c");
  ASSERT_TRUE(engine.ok());

  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());
  for (size_t i = 0; i < 16; ++i) {
    const std::string label = "q" + std::to_string(i);
    auto r = client->Post("/v1/query",
                          "{\"label\": \"" + label + "\", \"k\": 5}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, 200) << r->body;
    auto doc = util::JsonParse(r->body);
    ASSERT_TRUE(doc.ok()) << r->body;
    EXPECT_EQ(doc->Find("snapshot_version")->number_value(), 1.0);

    auto want = engine->Query(label, 5);
    ASSERT_TRUE(want.ok());
    // Round-trippable spelling over the wire → strtod back: exact
    // double equality.
    EXPECT_EQ(ParseMatches(*doc), ToMatches(*want)) << label;
  }

  // Filtered (blocking-aware) and raw-vector queries, same contract.
  auto filtered = client->Post(
      "/v1/query", "{\"label\": \"q2\", \"allowed\": [\"c9\", \"c3\"]}");
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(filtered->status, 200) << filtered->body;
  auto fdoc = util::JsonParse(filtered->body);
  ASSERT_TRUE(fdoc.ok());
  auto fwant = engine->QueryFiltered("q2", {"c9", "c3"}, 0);
  ASSERT_TRUE(fwant.ok());
  EXPECT_EQ(ParseMatches(*fdoc), ToMatches(*fwant));

  auto vec = client->Post("/v1/query",
                          "{\"vector\": [0.5, 0.25], \"k\": 3, "
                          "\"mode\": \"exact\"}");
  ASSERT_TRUE(vec.ok());
  ASSERT_EQ(vec->status, 200) << vec->body;
  auto vdoc = util::JsonParse(vec->body);
  ASSERT_TRUE(vdoc.ok());
  auto vwant =
      engine->QueryVector({0.5f, 0.25f}, 3, serve::SearchMode::kExact);
  ASSERT_TRUE(vwant.ok());
  EXPECT_EQ(ParseMatches(*vdoc), ToMatches(*vwant));

  // Batch matches per-query results slot by slot.
  auto batch = client->Post("/v1/query",
                            "{\"labels\": [\"q0\", \"missing\", \"q5\"]}");
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->status, 200) << batch->body;
  auto bdoc = util::JsonParse(batch->body);
  ASSERT_TRUE(bdoc.ok());
  const auto& results = bdoc->Find("results")->items();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(ParseMatches(results[0]), ToMatches(*engine->Query("q0")));
  EXPECT_NE(results[1].Find("error"), nullptr);
  EXPECT_EQ(ParseMatches(results[2]), ToMatches(*engine->Query("q5")));
  std::remove(path.c_str());
}

TEST(MatchServiceTest, RejectsBadRequests) {
  const std::string path = WriteGeometricSnapshot("svc_bad.tds", 6, 0);
  ServiceOptions sopts;
  sopts.max_batch = 4;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  const std::pair<const char*, int> cases[] = {
      {"", 400},
      {"not json", 400},
      {"[1,2]", 400},
      {"{}", 400},                                     // no selector
      {"{\"label\": \"q0\", \"labels\": []}", 400},    // two selectors
      {"{\"label\": \"q0\", \"k\": -1}", 400},
      {"{\"label\": \"q0\", \"k\": 2.5}", 400},
      {"{\"label\": \"q0\", \"mode\": \"warp\"}", 400},
      {"{\"labels\": [\"a\",\"b\",\"c\",\"d\",\"e\"]}", 400},  // > max_batch
      {"{\"labels\": [1]}", 400},
      {"{\"labels\": \"q0\"}", 400},
      {"{\"vector\": []}", 400},
      {"{\"vector\": [\"x\"]}", 400},
      {"{\"vector\": [1.0]}", 400},                    // wrong dim
      {"{\"labels\": [\"q0\"], \"allowed\": [\"c1\"]}", 400},
      {"{\"label\": \"unknown\"}", 404},
  };
  for (const auto& c : cases) {
    auto r = client->Post("/v1/query", c.first);
    ASSERT_TRUE(r.ok()) << c.first;
    EXPECT_EQ(r->status, c.second) << c.first << " -> " << r->body;
    auto doc = util::JsonParse(r->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_NE(doc->Find("error"), nullptr) << c.first;
  }
  std::remove(path.c_str());
}

TEST(MatchServiceTest, HealthStatsAndReloadEndpoints) {
  const std::string path_a = WriteGeometricSnapshot("svc_a.tds", 12, 0);
  const std::string path_b = WriteGeometricSnapshot("svc_b.tds", 12, 5);
  ServiceFixture fx(path_a);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  auto health = client->Get("/v1/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  auto hdoc = util::JsonParse(health->body);
  ASSERT_TRUE(hdoc.ok());
  EXPECT_EQ(hdoc->Find("status")->string_value(), "ok");
  EXPECT_EQ(hdoc->Find("snapshot_version")->number_value(), 1.0);

  ASSERT_EQ(client->Post("/v1/query", "{\"label\": \"q0\"}")->status, 200);

  // Swap in B: version increments, answers change to B's geometry (q0's
  // nearest candidate is c5 there), and a reload back restores A.
  auto reload = client->Post("/v1/reload",
                             "{\"snapshot\": \"" + path_b + "\"}");
  ASSERT_TRUE(reload.ok());
  ASSERT_EQ(reload->status, 200) << reload->body;
  auto rdoc = util::JsonParse(reload->body);
  ASSERT_TRUE(rdoc.ok());
  EXPECT_EQ(rdoc->Find("snapshot_version")->number_value(), 2.0);
  EXPECT_EQ(rdoc->Find("previous_version")->number_value(), 1.0);
  EXPECT_EQ(rdoc->Find("scenario")->string_value(), "geometry-shifted");

  auto q = client->Post("/v1/query", "{\"label\": \"q0\", \"k\": 1}");
  ASSERT_TRUE(q.ok());
  auto qdoc = util::JsonParse(q->body);
  ASSERT_TRUE(qdoc.ok());
  EXPECT_EQ(qdoc->Find("snapshot_version")->number_value(), 2.0);
  ASSERT_EQ(ParseMatches(*qdoc).size(), 1u);
  EXPECT_EQ(ParseMatches(*qdoc)[0].first, "c5");

  // A failed reload keeps the current snapshot serving.
  auto bad = client->Post("/v1/reload",
                          "{\"snapshot\": \"/no/such/file.tds\"}");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 500) << bad->body;
  auto still = client->Post("/v1/query", "{\"label\": \"q0\", \"k\": 1}");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(util::JsonParse(still->body)
                ->Find("snapshot_version")
                ->number_value(),
            2.0);

  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto sdoc = util::JsonParse(stats->body);
  ASSERT_TRUE(sdoc.ok()) << stats->body;
  EXPECT_EQ(sdoc->Find("snapshot_version")->number_value(), 2.0);
  EXPECT_EQ(sdoc->Find("reloads")->number_value(), 1.0);
  EXPECT_GE(sdoc->Find("queries")->number_value(), 3.0);
  EXPECT_GE(sdoc->Find("errors")->number_value(), 1.0);
  EXPECT_EQ(sdoc->Find("snapshot_loader")->string_value(), "mmap");
  EXPECT_NE(sdoc->Find("latency_ms"), nullptr);
  EXPECT_GE(sdoc->Find("latency_ms")->Find("p99")->number_value(),
            sdoc->Find("latency_ms")->Find("p50")->number_value());

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(MatchServiceTest, ConcurrentReloadsReportOneVersionChain) {
  // Eight reloads race: each response's previous_version must be the
  // version that reload itself replaced, so the eight (previous, new)
  // pairs link into one chain 1 -> 2 -> ... -> 9 with no version reported
  // twice. 4000 candidates make each build slow enough that the racing
  // requests all arrive while one is still building.
  const std::string path = WriteGeometricSnapshot("svc_chain.tds", 4000, 0);
  constexpr size_t kReloaders = 8;
  HttpServerOptions hopts;
  hopts.threads = kReloaders;
  ServiceFixture fx(path, {}, hopts);

  std::atomic<size_t> ready{0};
  std::vector<std::pair<uint64_t, uint64_t>> pairs(kReloaders, {0, 0});
  std::vector<std::thread> reloaders;
  for (size_t t = 0; t < kReloaders; ++t) {
    reloaders.emplace_back([&, t] {
      auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
      ++ready;
      while (ready.load() < kReloaders) std::this_thread::yield();
      if (!client.ok()) return;
      auto r = client->Post("/v1/reload", "{}");
      if (!r.ok() || r->status != 200) return;
      auto doc = util::JsonParse(r->body);
      if (!doc.ok()) return;
      pairs[t] = {
          static_cast<uint64_t>(doc->Find("previous_version")->number_value()),
          static_cast<uint64_t>(
              doc->Find("snapshot_version")->number_value())};
    });
  }
  for (auto& t : reloaders) t.join();

  std::sort(pairs.begin(), pairs.end());
  for (size_t i = 0; i < kReloaders; ++i) {
    EXPECT_EQ(pairs[i].first, 1 + i) << "reload " << i;
    EXPECT_EQ(pairs[i].second, 2 + i) << "reload " << i;
  }
  EXPECT_EQ(fx.service.state()->version, 1 + kReloaders);
  std::remove(path.c_str());
}

/// The value of an unlabeled metric on a /v1/metrics scrape; -1 when the
/// scrape fails or the sample is missing.
double ScrapeValue(HttpClient* client, const std::string& name) {
  auto m = client->Get("/v1/metrics");
  if (!m.ok() || m->status != 200) return -1.0;
  const std::string needle = "\n" + name + " ";
  const size_t pos = m->body.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(m->body.c_str() + pos + needle.size(), nullptr);
}

TEST(MatchServiceTest, IvfFromSnapshotGaugeFollowsReloadsAtFourShards) {
  // Two snapshots over the same candidates: one without an index section
  // (every shard trains k-means) and one carrying the global index that
  // every shard adopts its slice of.
  const std::string plain = WriteGeometricSnapshot("svc_ivf_plain.tds", 64, 0);
  auto trained =
      serve::QueryEngine::BuildForPrefix(GeometricSnapshot(64), "c");
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const std::string sectioned = TempPath("svc_ivf_section.tds");
  serve::Snapshot src = GeometricSnapshot(64);
  ASSERT_TRUE(serve::SnapshotIo::Write(
                  src.table, src.meta,
                  {{serve::QueryEngine::kIvfSectionTag,
                    trained->SerializeIvfSection()}},
                  sectioned)
                  .ok());

  ServiceOptions sopts;
  sopts.shards = 4;
  ServiceFixture fx(plain, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(ScrapeValue(&*client, "tdmatch_shards_active"), 4.0);
  EXPECT_EQ(ScrapeValue(&*client, "tdmatch_engine_ivf_from_snapshot"), 0.0);

  for (const auto& [path, adopted] :
       {std::pair<std::string, double>{sectioned, 1.0}, {plain, 0.0},
        {sectioned, 1.0}}) {
    auto r = client->Post("/v1/reload", "{\"snapshot\": \"" + path + "\"}");
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status, 200) << r->body;
    EXPECT_EQ(ScrapeValue(&*client, "tdmatch_engine_ivf_from_snapshot"),
              adopted)
        << path;
    EXPECT_EQ(fx.service.state()->engine->ivf_from_snapshot(),
              adopted == 1.0);
  }
  std::remove(plain.c_str());
  std::remove(sectioned.c_str());
}

TEST(MatchServiceTest, MetricsExpositionTracingAndRequestIds) {
  // Snapshot carrying offline phase timers in its meta, the way
  // build-snapshot records them.
  serve::Snapshot snap = GeometricSnapshot(64);
  snap.meta.Set("phase_train_seconds", "1.5");
  snap.meta.Set("phase_walks_seconds", "0.25");
  const std::string path = TempPath("svc_obs.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(snap.table, snap.meta, path).ok());

  ServiceOptions sopts;
  sopts.trace_sample = 1.0;  // trace every request
  util::obs::JsonLogger log;
  std::vector<std::string> lines;
  log.set_sink([&lines](const std::string& line) { lines.push_back(line); });
  sopts.logger = &log;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  // A client-supplied request id echoes back on the response.
  auto echoed = client->Request("POST", "/v1/query", "{\"label\": \"q0\"}",
                                "application/json",
                                {{"X-Request-Id", "req-42"}});
  ASSERT_TRUE(echoed.ok());
  ASSERT_EQ(echoed->status, 200) << echoed->body;
  EXPECT_EQ(echoed->Header("x-request-id"), "req-42");

  // Without one the service generates a "t-" + 16-hex id.
  auto generated = client->Post("/v1/query", "{\"label\": \"q1\"}");
  ASSERT_TRUE(generated.ok());
  const std::string id = generated->Header("x-request-id");
  ASSERT_EQ(id.size(), 18u) << id;
  EXPECT_EQ(id.substr(0, 2), "t-");

  // Heavy exact batches: enough engine work that the recorded spans must
  // explain the end-to-end time.
  std::string body = "{\"mode\": \"exact\", \"k\": 5, \"labels\": [";
  for (int i = 0; i < 64; ++i) {
    body += i > 0 ? ", " : "";
    body += "\"q" + std::to_string(i) + "\"";
  }
  body += "]}";
  constexpr int kBatches = 8;
  for (int i = 0; i < kBatches; ++i) {
    auto r = client->Post("/v1/query", body);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status, 200) << r->body;
  }

  // Every JSONL line parses back through util/json; the top-level span
  // sum never exceeds the end-to-end time (top-level spans are disjoint)
  // and, on the heavy batches, covers it to within 10% on the best sample.
  size_t trace_count = 0;
  double best_coverage = 0.0;
  for (const auto& line : lines) {
    auto doc = util::JsonParse(line);
    ASSERT_TRUE(doc.ok()) << line;
    if (doc->Find("event")->string_value() != "trace") continue;
    ++trace_count;
    EXPECT_EQ(doc->Find("endpoint")->string_value(), "/v1/query");
    EXPECT_EQ(doc->Find("status")->number_value(), 200.0);
    ASSERT_NE(doc->Find("trace_id"), nullptr);
    const double total = doc->Find("total_ms")->number_value();
    ASSERT_GT(total, 0.0) << line;
    const util::JsonValue* spans = doc->Find("spans");
    ASSERT_NE(spans, nullptr) << line;
    double span_sum = 0.0;
    for (const auto& s : spans->items()) {
      if (s.Find("depth")->number_value() == 0.0) {
        span_sum += s.Find("ms")->number_value();
      }
    }
    EXPECT_LE(span_sum, total * 1.000001) << line;
    best_coverage = std::max(best_coverage, span_sum / total);
  }
  EXPECT_EQ(trace_count, size_t{2 + kBatches});
  EXPECT_GE(best_coverage, 0.9);

  // The exposition endpoint: valid text format covering the owned
  // instruments, the component callbacks, build identity, and the
  // republished offline phase timers.
  auto m = client->Get("/v1/metrics");
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->status, 200);
  EXPECT_EQ(m->Header("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string& text = m->body;
  for (const char* needle : {
           "# TYPE tdmatch_queries_total counter",
           "# TYPE tdmatch_request_latency_ms histogram",
           "tdmatch_request_latency_ms_bucket{le=\"+Inf\"}",
           "tdmatch_request_stage_latency_ms_bucket{stage=\"scatter\",le=",
           "tdmatch_traces_total",
           "tdmatch_admission_admitted_total",
           "tdmatch_admission_shed_total",
           "tdmatch_cache_hits_total",
           "tdmatch_autotune_nprobe",
           "tdmatch_shards_active",
           "tdmatch_snapshot_version",
           "tdmatch_build_info{compiler=",
           "tdmatch_snapshot_phase_seconds{phase=\"train\"} 1.5",
           "tdmatch_snapshot_phase_seconds{phase=\"walks\"} 0.25",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // The query counter on the scrape covers all the traffic above.
  const std::string counter_needle = "\ntdmatch_queries_total ";
  const size_t pos = text.find(counter_needle);
  ASSERT_NE(pos, std::string::npos);
  const uint64_t queries = std::strtoull(
      text.c_str() + pos + counter_needle.size(), nullptr, 10);
  EXPECT_GE(queries, uint64_t{2 + kBatches * 64});

  // /v1/stats mirrors the tracing and build identity blocks.
  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto sdoc = util::JsonParse(stats->body);
  ASSERT_TRUE(sdoc.ok()) << stats->body;
  const util::JsonValue* tracing = sdoc->Find("tracing");
  ASSERT_NE(tracing, nullptr);
  EXPECT_EQ(tracing->Find("sample")->number_value(), 1.0);
  EXPECT_GE(tracing->Find("traced")->number_value(),
            static_cast<double>(kBatches));
  const util::JsonValue* build = sdoc->Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(build->Find("compiler")->string_value().empty());
  EXPECT_FALSE(build->Find("simd")->string_value().empty());

  std::remove(path.c_str());
}

TEST(MatchServiceTest, SlowQueryLogArmsWithoutSampling) {
  const std::string path = WriteGeometricSnapshot("svc_slow.tds", 12, 0);
  ServiceOptions sopts;
  sopts.trace_sample = 0.0;      // never sampled...
  sopts.slow_query_ms = 1e-6;    // ...but everything counts as slow
  util::obs::JsonLogger log;
  std::vector<std::string> lines;
  log.set_sink([&lines](const std::string& line) { lines.push_back(line); });
  sopts.logger = &log;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  ASSERT_EQ(client->Post("/v1/query", "{\"label\": \"q0\"}")->status, 200);
  ASSERT_EQ(lines.size(), 1u);
  auto doc = util::JsonParse(lines[0]);
  ASSERT_TRUE(doc.ok()) << lines[0];
  EXPECT_EQ(doc->Find("event")->string_value(), "trace");
  EXPECT_TRUE(doc->Find("slow")->bool_value());
  EXPECT_FALSE(doc->Find("sampled")->bool_value());

  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto sdoc = util::JsonParse(stats->body);
  ASSERT_TRUE(sdoc.ok());
  EXPECT_EQ(sdoc->Find("tracing")->Find("slow")->number_value(), 1.0);

  std::remove(path.c_str());
}

/// Value of `tdmatch_request_stage_latency_ms_count{stage="<stage>"}` in a
/// Prometheus exposition (-1 when the line is missing).
double StageCount(const std::string& exposition, const std::string& stage) {
  const std::string needle =
      "tdmatch_request_stage_latency_ms_count{stage=\"" + stage + "\"} ";
  const size_t at = exposition.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(exposition.c_str() + at + needle.size(), nullptr);
}

TEST(QueryRequestTest, ParsesEveryShapeWithLabelsResolvedOnce) {
  SnapshotMeta meta;
  meta.Set("query_prefix", "__D0:");
  meta.Set("candidate_prefix", "__D1:");
  ServiceOptions options;
  options.allow_debug_delay = true;

  auto single = serve::http::ParseQueryRequest(
      "{\"label\": \"q:3\", \"k\": 4, \"mode\": \"exact\", "
      "\"allowed\": [\"c:1\", \"raw\"], \"delay_ms\": 2}",
      options, meta);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->shape, QueryRequest::Shape::kLabel);
  EXPECT_EQ(single->names, std::vector<std::string>{"__D0:3__"});
  ASSERT_TRUE(single->allowed.has_value());
  EXPECT_EQ(*single->allowed, (std::vector<std::string>{"__D1:1__", "raw"}));
  EXPECT_EQ(single->k, 4u);
  EXPECT_EQ(single->mode, serve::SearchMode::kExact);
  EXPECT_EQ(single->delay_ms, 2.0);

  auto batch = serve::http::ParseQueryRequest(
      "{\"labels\": [\"q:0\", \"x\"]}", options, meta);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->shape, QueryRequest::Shape::kLabels);
  EXPECT_EQ(batch->names, (std::vector<std::string>{"__D0:0__", "x"}));
  EXPECT_FALSE(batch->allowed.has_value());
  EXPECT_EQ(batch->mode, serve::SearchMode::kApprox);

  auto vector = serve::http::ParseQueryRequest("{\"vector\": [0.5, -2]}",
                                               options, meta);
  ASSERT_TRUE(vector.ok());
  EXPECT_EQ(vector->shape, QueryRequest::Shape::kVector);
  EXPECT_EQ(vector->vector, (std::vector<float>{0.5f, -2.0f}));
  EXPECT_TRUE(vector->names.empty());

  // The debug delay is ignored, unvalidated, unless the option allows it.
  options.allow_debug_delay = false;
  auto no_delay = serve::http::ParseQueryRequest(
      "{\"label\": \"q:0\", \"delay_ms\": \"soon\"}", options, meta);
  ASSERT_TRUE(no_delay.ok());
  EXPECT_EQ(no_delay->delay_ms, 0.0);

  auto bad = serve::http::ParseQueryRequest("{\"labels\": [\"q:0\", 7]}",
                                            options, meta);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(bad.status().message(), "'labels' must be an array of strings");
}

TEST(MatchServiceTest, TracedRequestsObserveEachStageOnce) {
  // Every traced, uncached request observes parse, admission and
  // serialize exactly once, whatever its shape.
  const std::string path = WriteGeometricSnapshot("svc_stages.tds", 16, 0);
  ServiceOptions sopts;
  sopts.trace_sample = 1.0;
  util::obs::JsonLogger log;
  log.set_sink([](const std::string&) {});
  sopts.logger = &log;
  MatchService service(sopts);
  ASSERT_TRUE(service.LoadInitial(path).ok());

  const char* const bodies[] = {
      "{\"label\": \"q1\", \"k\": 3}",
      "{\"labels\": [\"q0\", \"q2\"], \"k\": 3}",
      "{\"vector\": [0.5, 0.25], \"k\": 3, \"mode\": \"exact\"}",
      "{\"label\": \"q2\", \"allowed\": [\"c1\", \"c3\"]}",
  };
  constexpr int kRounds = 5;
  for (int i = 0; i < kRounds; ++i) {
    for (const char* body : bodies) {
      HttpRequest request;
      request.body = body;
      ASSERT_EQ(service.HandleQuery(request).status, 200) << body;
    }
  }
  const std::string text = service.registry()->RenderPrometheus();
  const double requests = 4.0 * kRounds;
  EXPECT_EQ(StageCount(text, "parse"), requests);
  EXPECT_EQ(StageCount(text, "admission"), requests);
  EXPECT_EQ(StageCount(text, "serialize"), requests);
  EXPECT_EQ(StageCount(text, "scatter"), requests);
  // A batch merges inside its workers; the other three shapes merge once.
  EXPECT_EQ(StageCount(text, "merge"), 3.0 * kRounds);
  EXPECT_EQ(StageCount(text, "cache"), 0.0);  // the cache is off
  std::remove(path.c_str());
}

TEST(MatchServiceTest, SeededQueryBodyMutantsGetAnAnswer) {
  // Mutants of valid bodies of every shape, plus inflated numbers and long
  // batches, through the in-process handler: each gets 200 or a 4xx with
  // a JSON "error", and the error counter is exactly the non-200 answers
  // plus the failed batch items. The sanitizer builds run this too.
  const std::string path = WriteGeometricSnapshot("svc_fuzz.tds", 16, 0);
  ServiceOptions sopts;
  sopts.max_batch = 8;
  sopts.cache_entries = 16;
  sopts.allow_debug_delay = true;
  sopts.trace_sample = 0.25;
  util::obs::JsonLogger log;
  log.set_sink([](const std::string&) {});
  sopts.logger = &log;
  MatchService service(sopts);
  ASSERT_TRUE(service.LoadInitial(path).ok());

  std::string long_batch = "{\"labels\": [";
  for (int i = 0; i < 64; ++i) {
    long_batch += (i > 0 ? ", \"q" : "\"q") + std::to_string(i % 20) + "\"";
  }
  long_batch += "]}";
  const std::vector<std::string> seeds = {
      "{\"label\": \"q1\", \"k\": 3}",
      "{\"label\": \"q:4\", \"k\": 2, \"mode\": \"exact\"}",
      "{\"labels\": [\"q0\", \"q2\", \"missing\"], \"k\": 2}",
      "{\"labels\": [\"q0\", \"q1\", \"q2\", \"q3\", \"q4\", \"q5\", \"q6\", "
      "\"q7\"]}",
      "{\"vector\": [0.5, 0.25], \"k\": 3, \"mode\": \"approx\"}",
      "{\"label\": \"q2\", \"allowed\": [\"c1\", \"c3\"], \"k\": 2}",
      "{\"label\": \"q0\", \"k\": 1000000}",
      "{\"label\": \"q0\", \"k\": 1e300}",
      "{\"labels\": [\"q3\"], \"k\": 4294967297}",
      "{\"label\": \"q0\", \"delay_ms\": 1e9}",
      "{\"vector\": [1, 0], \"delay_ms\": -1}",
      long_batch,
  };

  util::Rng rng(20261017);
  const size_t kMutants = 5000;
  size_t non_200 = 0;
  size_t failed_items = 0;
  for (size_t m = 0; m < kMutants; ++m) {
    HttpRequest request;
    request.body = testutil::Mutate(seeds[rng.UniformInt(seeds.size())],
                                    testutil::MutationLayout{}, &rng);
    const HttpResponse response = service.HandleQuery(request);
    auto doc = util::JsonParse(response.body);
    ASSERT_TRUE(doc.ok()) << request.body << " -> " << response.body;
    if (response.status != 200) {
      ++non_200;
      ASSERT_GE(response.status, 400) << request.body;
      ASSERT_LT(response.status, 500) << request.body << " -> "
                                      << response.body;
      ASSERT_NE(doc->Find("error"), nullptr) << request.body;
      continue;
    }
    if (const util::JsonValue* results = doc->Find("results")) {
      for (const auto& item : results->items()) {
        failed_items += item.Find("error") != nullptr ? 1 : 0;
      }
    }
  }
  EXPECT_GT(non_200, 0u);
  EXPECT_LT(non_200, kMutants);
  EXPECT_GT(failed_items, 0u);
  auto stats = util::JsonParse(service.HandleStats(HttpRequest()).body);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("errors")->number_value(),
            static_cast<double>(non_200 + failed_items));
  std::remove(path.c_str());
}

TEST(MatchServiceTest, ReloadRouteCanBeDisabled) {
  const std::string path = WriteGeometricSnapshot("svc_noreload.tds", 6, 0);
  ServiceOptions sopts;
  sopts.allow_reload = false;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());
  auto r = client->Post("/v1/reload", "{}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 404);
  std::remove(path.c_str());
}

TEST(MatchServiceTest, ConcurrentHotReloadSoak) {
  // N client threads hammer one label while the main thread swaps the
  // snapshot back and forth M times. Every response must parse, carry a
  // version, and be byte-for-byte consistent with the in-process answer of
  // exactly the snapshot that version denotes (odd = A, even = B): no torn
  // reads, no mixed-version responses. Under ASan this also proves the old
  // mapping is unmapped only after its last reader drained.
  const std::string path_a = WriteGeometricSnapshot("soak_a.tds", 20, 0);
  const std::string path_b = WriteGeometricSnapshot("soak_b.tds", 20, 7);

  // In-process references, bit-identical to what the service builds.
  ServiceOptions sopts;
  auto view_a = serve::SnapshotView::Open(path_a);
  auto view_b = serve::SnapshotView::Open(path_b);
  ASSERT_TRUE(view_a.ok() && view_b.ok());
  auto engine_a = serve::QueryEngine::BuildFromView(*view_a, "c",
                                                    sopts.engine);
  auto engine_b = serve::QueryEngine::BuildFromView(*view_b, "c",
                                                    sopts.engine);
  ASSERT_TRUE(engine_a.ok() && engine_b.ok());
  const Matches want_a = ToMatches(*engine_a->Query("q1", 5));
  const Matches want_b = ToMatches(*engine_b->Query("q1", 5));
  ASSERT_NE(want_a, want_b);  // the soak must be able to tell them apart

  constexpr size_t kClients = 4;
  constexpr size_t kReloads = 12;
  constexpr size_t kQueriesPerClient = 60;

  HttpServerOptions hopts;
  hopts.threads = kClients + 2;  // clients hold workers; reloads need one
  ServiceFixture fx(path_a, sopts, hopts);

  std::atomic<uint64_t> seen_a{0}, seen_b{0}, failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (size_t i = 0; i < kQueriesPerClient; ++i) {
        auto r = client->Post("/v1/query", "{\"label\": \"q1\", \"k\": 5}");
        if (!r.ok() || r->status != 200) {
          ++failures;
          continue;
        }
        auto doc = util::JsonParse(r->body);
        if (!doc.ok() || doc->Find("snapshot_version") == nullptr) {
          ++failures;
          continue;
        }
        const auto version = static_cast<uint64_t>(
            doc->Find("snapshot_version")->number_value());
        const Matches got = ParseMatches(*doc);
        // Odd versions are A (initial load + every second reload), even
        // are B. The payload must match that snapshot exactly.
        const Matches& want = version % 2 == 1 ? want_a : want_b;
        (version % 2 == 1 ? seen_a : seen_b)++;
        if (got != want) {
          ++failures;
          ADD_FAILURE() << "version " << version
                        << " answered with the other snapshot's payload: "
                        << r->body;
        }
        if (t == 0 && i % 8 == 0) {
          std::this_thread::yield();
        }
      }
    });
  }

  auto reload_client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(reload_client.ok());
  for (size_t i = 1; i <= kReloads; ++i) {
    const std::string& target = i % 2 == 1 ? path_b : path_a;
    auto r = reload_client->Post("/v1/reload",
                                 "{\"snapshot\": \"" + target + "\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, 200) << r->body;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(seen_a.load() + seen_b.load(), 0u);
  // The final state is version 1 + kReloads, serving A (kReloads even).
  auto final_state = fx.service.state();
  EXPECT_EQ(final_state->version, 1 + kReloads);
  EXPECT_EQ(ToMatches(*final_state->engine->Query("q1", 5)), want_a);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

/// A "Vm...:" line of /proc/self/status in bytes; -1 when absent.
double ProcessStatusBytes(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) * 1024.0;
    }
  }
  return -1.0;
}

TEST(MatchServiceTest, ReloadsFromDistinctThreadsDoNotPileUpEpochs) {
  // Each reload runs on a fresh, long-lived thread (as /v1/reload lands on
  // whichever HTTP worker takes it), and that thread then allocates a
  // little, as a worker would. If epochs were built on the calling thread,
  // each would land in that thread's glibc malloc arena, and the small
  // allocation above it would keep the freed epoch resident: six reloads
  // would leave about six epochs. Built on the one builder thread, the
  // epochs share one arena and reuse each other's freed space.
  //
  // ASan and TSan replace malloc with allocators that have no glibc arenas
  // and keep freed memory in quarantine, so the measurement means nothing
  // there.
  if (TDMATCH_TEST_UNDER_SANITIZER) {
    GTEST_SKIP() << "allocator residue is a glibc malloc property";
  }
  // ~30 MB: 110k candidates at dim 64 (index-free, so a build is a copy).
  const std::string path = TempPath("svc_residue.tds");
  {
    serve::Snapshot snap;
    snap.meta.scenario = "residue";
    snap.meta.Set("candidate_prefix", "c");
    snap.table = embed::EmbeddingTable(64);
    util::Rng rng(7);
    for (size_t i = 0; i < 110000; ++i) {
      std::vector<float> v(64);
      for (float& x : v) x = static_cast<float>(rng.Gaussian());
      snap.table.Put("c" + std::to_string(i), std::move(v));
    }
    ASSERT_TRUE(serve::SnapshotIo::Write(snap.table, snap.meta, path).ok());
  }
  ServiceOptions sopts;
  sopts.engine.build_ivf = false;
  sopts.history_interval_s = 0;
  MatchService service(sopts);

  const double before = ProcessStatusBytes("VmRSS");
  ASSERT_TRUE(service.LoadInitial(path).ok());
  const double loaded = ProcessStatusBytes("VmRSS");
  const double load_growth = loaded - before;
  ASSERT_GT(load_growth, 0.0);

  constexpr size_t kReloads = 6;
  std::atomic<size_t> reloaded{0};
  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::vector<std::unique_ptr<char[]>> small(kReloads);
  std::vector<std::thread> workers;
  for (size_t i = 0; i < kReloads; ++i) {
    workers.emplace_back([&, i] {
      if (!service.Reload("").ok()) ++failures;
      small[i] = std::make_unique<char[]>(64);
      ++reloaded;
      // Stay alive, as a worker does: an exited thread's arena would be
      // handed to the next new thread.
      while (!done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    while (reloaded.load() <= i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const double after = ProcessStatusBytes("VmRSS");
  done = true;
  for (auto& t : workers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(service.state()->version, 1 + kReloads);
  EXPECT_LE(after - loaded, 1.5 * load_growth)
      << "first load grew RSS by " << load_growth / 1048576.0
      << " MB; six reloads grew it by " << (after - loaded) / 1048576.0
      << " MB more";
  std::remove(path.c_str());
}

TEST(MatchServiceTest, ResidentMemoryGaugesReadTheProcessStatus) {
  const std::string path = WriteGeometricSnapshot("svc_rss.tds", 12, 0);
  ServiceFixture fx(path);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());
  const double resident =
      ScrapeValue(&*client, "tdmatch_process_resident_bytes");
  const double peak =
      ScrapeValue(&*client, "tdmatch_process_resident_peak_bytes");
  EXPECT_GT(resident, 0.0);
  EXPECT_GE(peak, resident);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Continuous observability: /v1/metrics/history, /v1/slo, degraded
// healthz, /v1/debug/profile
// ---------------------------------------------------------------------------

TEST(MatchServiceTest, HistoryEndpointTracksQueryCounter) {
  const std::string path = WriteGeometricSnapshot("svc_hist.tds", 16, 0);
  ServiceOptions sopts;
  sopts.history_interval_s = 0.05;
  ServiceFixture fx(path, sopts);

  // Let the sampler land at least one pre-traffic point, then serve a
  // known number of queries and let it sample again.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  HttpRequest query;
  query.body = "{\"label\": \"q1\", \"k\": 3}";
  constexpr int kQueries = 30;
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(fx.service.HandleQuery(query).status, 200);
  }
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    HttpRequest probe;
    probe.query = "window=60&series=tdmatch_queries";
    auto doc = util::JsonParse(fx.service.HandleHistory(probe).body);
    ASSERT_TRUE(doc.ok());
    const util::JsonValue* series = doc->Find("series");
    ASSERT_NE(series, nullptr);
    if (!series->items().empty() &&
        series->items()[0].Find("last")->number_value() >= kQueries) {
      break;
    }
  }

  HttpRequest req;
  req.query = "window=60&series=tdmatch_queries&points=1";
  const HttpResponse resp = fx.service.HandleHistory(req);
  ASSERT_EQ(resp.status, 200) << resp.body;
  auto doc = util::JsonParse(resp.body);
  ASSERT_TRUE(doc.ok()) << resp.body;
  EXPECT_EQ(doc->Find("window_seconds")->number_value(), 60.0);
  EXPECT_NEAR(doc->Find("interval_seconds")->number_value(), 0.05, 1e-9);
  EXPECT_GT(doc->Find("samples_taken")->number_value(), 1.0);
  const util::JsonValue* series = doc->Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->items().empty()) << resp.body;
  const util::JsonValue& s = series->items()[0];
  EXPECT_EQ(s.Find("name")->string_value(), "tdmatch_queries_total");
  EXPECT_EQ(s.Find("type")->string_value(), "counter");
  EXPECT_EQ(s.Find("last")->number_value(), kQueries);
  // The window starts at a pre-traffic zero sample, so the delta is the
  // full query count.
  EXPECT_EQ(s.Find("delta")->number_value(), kQueries);
  EXPECT_GT(s.Find("rate_per_sec")->number_value(), 0.0);
  ASSERT_NE(s.Find("points"), nullptr);
  EXPECT_GE(s.Find("points")->items().size(), 2u);

  // Malformed window parameter.
  HttpRequest bad;
  bad.query = "window=nope";
  EXPECT_EQ(fx.service.HandleHistory(bad).status, 400);
  bad.query = "window=-5";
  EXPECT_EQ(fx.service.HandleHistory(bad).status, 400);
  for (const char* query : {"window=5abc", "window=inf", "window=%205"}) {
    bad.query = query;
    EXPECT_EQ(fx.service.HandleHistory(bad).status, 400) << query;
  }
  std::remove(path.c_str());
}

TEST(MatchServiceTest, SloEndpointReportsObjectivesAndWindows) {
  const std::string path = WriteGeometricSnapshot("svc_slo.tds", 16, 0);
  ServiceOptions sopts;
  sopts.latency_budget_ms = 50.0;  // enables the latency objective
  ServiceFixture fx(path, sopts);

  HttpRequest query;
  query.body = "{\"label\": \"q1\", \"k\": 3}";
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fx.service.HandleQuery(query).status, 200);
  }
  auto doc = util::JsonParse(fx.service.HandleSlo(HttpRequest()).body);
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc->Find("degraded")->bool_value());
  const util::JsonValue* objectives = doc->Find("objectives");
  ASSERT_NE(objectives, nullptr);
  ASSERT_EQ(objectives->items().size(), 2u);
  const util::JsonValue& avail = objectives->items()[0];
  EXPECT_EQ(avail.Find("name")->string_value(), "availability");
  EXPECT_EQ(avail.Find("target")->number_value(), 0.999);
  EXPECT_FALSE(avail.Find("fast_burning")->bool_value());
  EXPECT_NEAR(avail.Find("error_budget_remaining")->number_value(), 1.0,
              1e-9);
  ASSERT_EQ(avail.Find("windows")->items().size(), 4u);
  const util::JsonValue& w0 = avail.Find("windows")->items()[0];
  EXPECT_EQ(w0.Find("role")->string_value(), "fast_short");
  EXPECT_EQ(w0.Find("good")->number_value(), 10.0);
  EXPECT_EQ(w0.Find("bad")->number_value(), 0.0);
  EXPECT_EQ(objectives->items()[1].Find("name")->string_value(), "latency");
  std::remove(path.c_str());
}

TEST(MatchServiceTest, HealthzDegradesOnFastBurnAndRecovers) {
  const std::string path = WriteGeometricSnapshot("svc_burn.tds", 16, 0);
  ServiceOptions sopts;
  // Tiny windows so the trajectory runs in real time: every latency
  // breach counts (threshold 1 on a 99.9% target fires on any miss), the
  // short window forgets after 0.5 s and the long one after 1 s.
  sopts.allow_debug_delay = true;
  sopts.latency_budget_ms = 5.0;
  sopts.slo_fast = {0.5, 1.0, 1.0};
  sopts.slo_slow = {1.0, 2.0, 1.0};
  sopts.history_interval_s = 0.0;  // keep the sampler out of the timing
  ServiceFixture fx(path, sopts);

  // Phase 1: healthy.
  HttpRequest fast;
  fast.body = "{\"label\": \"q1\", \"k\": 3}";
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(fx.service.HandleQuery(fast).status, 200);
  }
  auto health = fx.service.HandleHealth(HttpRequest());
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos)
      << health.body;

  // Phase 2: every query blows the 5 ms budget -> latency fast-burn.
  HttpRequest slow;
  slow.body = "{\"label\": \"q1\", \"k\": 3, \"delay_ms\": 15}";
  for (int i = 0; i < 15; ++i) {
    ASSERT_EQ(fx.service.HandleQuery(slow).status, 200);
  }
  health = fx.service.HandleHealth(HttpRequest());
  EXPECT_EQ(health.status, 200) << "degraded stays 200 by default";
  EXPECT_NE(health.body.find("\"status\":\"degraded\""), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"burning_objectives\":[\"latency\"]"),
            std::string::npos)
      << health.body;
  HttpRequest strict;
  strict.query = "strict=1";
  EXPECT_EQ(fx.service.HandleHealth(strict).status, 503);

  // Phase 3: recovery — healthy traffic until the burst ages out of both
  // fast windows (~1 s; generous deadline for slow machines).
  bool recovered = false;
  for (int i = 0; i < 200 && !recovered; ++i) {
    ASSERT_EQ(fx.service.HandleQuery(fast).status, 200);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    recovered = fx.service.HandleHealth(HttpRequest())
                    .body.find("\"status\":\"ok\"") != std::string::npos;
  }
  EXPECT_TRUE(recovered) << "healthz never flipped back to ok";
  EXPECT_EQ(fx.service.HandleHealth(strict).status, 200);
  std::remove(path.c_str());
}

TEST(MatchServiceTest, MetricsScrapeVersusReloadHammer) {
  // Regression test for the gauge-callback/reload race: /v1/metrics and
  // /v1/metrics/history evaluate registry callbacks (including the
  // build_info labels Reload re-registers) while reloads swap them out.
  // Under TSan this is the proof the callback swap is properly locked.
  const std::string path_a = WriteGeometricSnapshot("svc_race_a.tds", 16, 0);
  const std::string path_b = WriteGeometricSnapshot("svc_race_b.tds", 16, 7);
  ServiceOptions sopts;
  sopts.history_interval_s = 0.01;  // sampler scrapes concurrently too
  HttpServerOptions hopts;
  hopts.threads = 6;
  ServiceFixture fx(path_a, sopts, hopts);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&, t] {
      auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      const std::string target =
          t == 0 ? "/v1/metrics" : "/v1/metrics/history?window=60";
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = client->Get(target);
        if (!r.ok() || r->status != 200) ++failures;
      }
    });
  }
  auto reloader = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(reloader.ok());
  for (int i = 1; i <= 10; ++i) {
    const std::string& target = i % 2 == 1 ? path_b : path_a;
    auto r = reloader->Post("/v1/reload",
                            "{\"snapshot\": \"" + target + "\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, 200) << r->body;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : scrapers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(MatchServiceTest, ProfileEndpointCapturesUnderLoad) {
  if (!util::obs::CpuProfiler::Supported() || TDMATCH_TEST_UNDER_SANITIZER) {
    GTEST_SKIP() << "profiler capture not supported in this build";
  }
  const std::string path = WriteGeometricSnapshot("svc_prof.tds", 64, 0);
  ServiceFixture fx(path);

  // Parameter validation happens before any capture.
  HttpRequest bad;
  bad.query = "seconds=nope";
  EXPECT_EQ(fx.service.HandleProfile(bad).status, 400);
  bad.query = "hz=0";
  EXPECT_EQ(fx.service.HandleProfile(bad).status, 400);
  bad.query = "format=xml";
  EXPECT_EQ(fx.service.HandleProfile(bad).status, 400);
  for (const char* query : {"seconds=2x", "seconds=nan", "hz=5x", "hz=2.5",
                            "top=-3", "top=abc", "format=json&top=0"}) {
    bad.query = query;
    EXPECT_EQ(fx.service.HandleProfile(bad).status, 400) << query;
  }

  // Keep the engine busy while the capture runs.
  std::atomic<bool> stop{false};
  std::thread load([&] {
    HttpRequest query;
    query.body = "{\"k\": 5, \"labels\": [\"q1\", \"q2\", \"q3\", \"q4\"]}";
    while (!stop.load(std::memory_order_relaxed)) {
      fx.service.HandleQuery(query);
    }
  });
  HttpRequest req;
  req.query = "seconds=0.4&hz=500&format=json&top=10";
  const HttpResponse resp = fx.service.HandleProfile(req);
  stop.store(true);
  load.join();
  ASSERT_EQ(resp.status, 200) << resp.body;
  auto doc = util::JsonParse(resp.body);
  ASSERT_TRUE(doc.ok()) << resp.body;
  EXPECT_EQ(doc->Find("hz")->number_value(), 500.0);
  EXPECT_GT(doc->Find("samples")->number_value(), 0.0) << resp.body;

  // Folded format is the default and is flamegraph.pl input.
  std::atomic<bool> stop2{false};
  std::thread load2([&] {
    HttpRequest query;
    query.body = "{\"k\": 5, \"labels\": [\"q1\", \"q2\", \"q3\", \"q4\"]}";
    while (!stop2.load(std::memory_order_relaxed)) {
      fx.service.HandleQuery(query);
    }
  });
  HttpRequest folded_req;
  folded_req.query = "seconds=0.4&hz=500";
  const HttpResponse folded = fx.service.HandleProfile(folded_req);
  stop2.store(true);
  load2.join();
  ASSERT_EQ(folded.status, 200);
  EXPECT_NE(folded.content_type.find("text/plain"), std::string::npos);
  EXPECT_FALSE(folded.body.empty());
  // Each line is "stack count"; the busy query loop must put tdmatch
  // frames on the profile.
  EXPECT_NE(folded.body.find("tdmatch"), std::string::npos)
      << folded.body.substr(0, 2000);
  std::remove(path.c_str());
}

TEST(MatchServiceTest, ProfileRouteCanBeDisabled) {
  const std::string path = WriteGeometricSnapshot("svc_noprof.tds", 16, 0);
  ServiceOptions sopts;
  sopts.allow_profile = false;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());
  auto r = client->Get("/v1/debug/profile?seconds=0.1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 404);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tdmatch
