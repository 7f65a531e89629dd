#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/csv.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tdmatch {
namespace util {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, CopySemantics) {
  Status s = Status::NotFound("x");
  Status t = s;
  EXPECT_TRUE(t.IsNotFound());
  EXPECT_EQ(t.message(), "x");
  t = Status::OK();
  EXPECT_TRUE(t.ok());
  EXPECT_TRUE(s.IsNotFound());  // copy did not alias
}

TEST(StatusTest, AllFactories) {
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("").IsOutOfRange());
  EXPECT_TRUE(Status::IOError("").IsIOError());
  EXPECT_TRUE(Status::Unimplemented("").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("").IsInternal());
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  TDM_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueRoundTrip) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
  EXPECT_EQ(r.ValueOr(-1), 21);
}

TEST(ResultTest, ErrorPropagation) {
  Result<int> r = DoubleIt(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-7), -7);
}

TEST(ResultTest, AssignOrReturnPassesValue) {
  Result<int> r = DoubleIt(4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 8);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r{Status::OK()};
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(10ULL), 10ULL);
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5ULL));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(15);
  auto s = rng.SampleIndices(100, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t i : s) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleIndicesClampsToN) {
  Rng rng(16);
  EXPECT_EQ(rng.SampleIndices(3, 10).size(), 3u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ForkIndependent) {
  Rng a(19);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

// ---------------------------------------------------------------------------
// string_util
// ---------------------------------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  auto v = Split("a,b,,c", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[2], "");
}

TEST(StringUtilTest, SplitSkipEmpty) {
  auto v = Split("a,,b,", ',', /*skip_empty=*/true);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], "b");
}

TEST(StringUtilTest, SplitWhitespaceCollapses) {
  auto v = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "foo");
  EXPECT_EQ(v[2], "baz");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtilTest, IsNumeric) {
  EXPECT_TRUE(IsNumeric("42"));
  EXPECT_TRUE(IsNumeric("-3.14"));
  EXPECT_TRUE(IsNumeric("+7"));
  EXPECT_FALSE(IsNumeric(""));
  EXPECT_FALSE(IsNumeric("3.1.4"));
  EXPECT_FALSE(IsNumeric("12a"));
  EXPECT_FALSE(IsNumeric("-"));
  EXPECT_FALSE(IsNumeric("."));
}

TEST(StringUtilTest, ParseDouble) {
  double d = 0;
  EXPECT_TRUE(ParseDouble("2.5", &d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_FALSE(ParseDouble("x2", &d));
  EXPECT_FALSE(ParseDouble("2x", &d));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringUtilTest, EditDistance) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
}

// ---------------------------------------------------------------------------
// Csv
// ---------------------------------------------------------------------------

TEST(CsvTest, ParseSimpleLine) {
  auto r = Csv::ParseLine("a,b,c");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, ParseQuotedFields) {
  auto r = Csv::ParseLine(R"("a,b",c,"say ""hi""")");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ((*r)[0], "a,b");
  EXPECT_EQ((*r)[2], "say \"hi\"");
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(Csv::ParseLine("\"abc").ok());
}

TEST(CsvTest, RejectsQuoteInsideUnquoted) {
  EXPECT_FALSE(Csv::ParseLine("ab\"c,d").ok());
}

TEST(CsvTest, EscapeRoundTrip) {
  std::vector<std::string> fields{"plain", "with,comma", "with\"quote",
                                  "multi\nline"};
  std::string line = Csv::FormatLine(fields);
  auto parsed = Csv::ParseLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, fields);
}

TEST(CsvTest, FileRoundTrip) {
  std::string path = testing::TempDir() + "/tdmatch_csv_test.csv";
  std::vector<std::vector<std::string>> rows{{"h1", "h2"},
                                             {"a,b", "2"},
                                             {"x", "say \"hi\""}};
  ASSERT_TRUE(Csv::WriteFile(path, rows).ok());
  auto read = Csv::ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_TRUE(Csv::ReadFile("/nonexistent/nope.csv").status().IsIOError());
}

// ---------------------------------------------------------------------------
// Crc32
// ---------------------------------------------------------------------------

/// The byte-at-a-time (Sarwate) CRC-32: the reference every value of the
/// slicing-by-8 Crc32 must equal.
uint32_t ReferenceCrc32(const unsigned char* p, size_t len, uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.UniformInt(256));
  }
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> bytes = RandomBytes(64 + 8, 20261018);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = bytes.data() + offset;
      EXPECT_EQ(Crc32(p, len), ReferenceCrc32(p, len, 0))
          << "offset " << offset << " len " << len;
      EXPECT_EQ(Crc32(p, len, 0x12345678u),
                ReferenceCrc32(p, len, 0x12345678u))
          << "seeded, offset " << offset << " len " << len;
    }
  }
  const std::vector<unsigned char> big = RandomBytes(size_t{1} << 20, 7);
  EXPECT_EQ(Crc32(big.data(), big.size()),
            ReferenceCrc32(big.data(), big.size(), 0));
}

TEST(Crc32Test, ChainingEqualsOneShot) {
  const std::vector<unsigned char> bytes = RandomBytes(4099, 99);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split : {size_t{1}, size_t{3}, size_t{7}, size_t{9}, size_t{13},
                       size_t{1001}, size_t{4095}}) {
    const uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  pool.RunTasks(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<int> hits(1000, 0);
  ThreadPool::ParallelFor(hits.size(), 4,
                          [&](size_t b, size_t e, size_t) {
                            for (size_t i = b; i < e; ++i) hits[i]++;
                          });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  bool called = false;
  ThreadPool::ParallelFor(0, 4, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(StopWatchTest, MeasuresElapsed) {
  StopWatch w;
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
  w.Reset();
  EXPECT_LT(w.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace util
}  // namespace tdmatch
