// Unit tests for the runtime-dispatched SIMD kernel layer
// (util/simd/kernels.h). The parity contract under test:
//
//  * Dot, Axpy, Scale, ScaleInto and Add are bit-exact between the
//    dispatched table and the scalar reference (memcmp equality): Dot
//    follows one canonical summation order on both paths and nothing
//    fuses a multiply into an add. Every length in [0, 67] runs, from base
//    pointers offset by 1-3 floats (mmap payloads are only 4-byte
//    aligned), on plain, denormal and NaN inputs;
//  * the serving-only reductions (squared_norm/dot8/adc_scan) keep FMA
//    on AVX2 and are bounded relative to the scalar value;
//  * NaN propagates through reductions on both paths; denormals are
//    computed, not flushed.
//
// When the host CPU (or the build) has no AVX2+FMA, the dispatched table
// is the scalar table and the tolerance tests degenerate to exact
// equality — they still run, so the suite is meaningful on any machine.

#include "util/simd/kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace tdmatch {
namespace simd {
namespace {

bool Avx2Active() { return ActiveIsa() == Isa::kAvx2; }

/// Fills with reproducible values in [-1, 1].
std::vector<float> RandomVec(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
  return v;
}

/// Relative tolerance for reassociated reductions over n elements.
double ReductionTol(size_t n) {
  return 1e-6 * static_cast<double>(n > 8 ? n : 8);
}

TEST(SimdDispatch, ScalarTableIsScalar) {
  EXPECT_STREQ(Scalar().name, "scalar");
}

TEST(SimdDispatch, ActiveMatchesProbeUnlessForced) {
  if (ForcedScalarByEnv()) {
    EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  } else if (BuildHasAvx2() && CpuHasAvx2Fma()) {
    EXPECT_EQ(ActiveIsa(), Isa::kAvx2);
  } else {
    EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  }
}

TEST(SimdDispatch, SetActiveIsaRoundTrips) {
  const Isa original = ActiveIsa();
  EXPECT_EQ(SetActiveIsa(Isa::kScalar), Isa::kScalar);
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  EXPECT_STREQ(Active().name, "scalar");
  const Isa granted = SetActiveIsa(Isa::kAvx2);
  if (BuildHasAvx2() && CpuHasAvx2Fma()) {
    EXPECT_EQ(granted, Isa::kAvx2);
    EXPECT_STREQ(Active().name, "avx2");
  } else {
    EXPECT_EQ(granted, Isa::kScalar);  // clamped
  }
  SetActiveIsa(original);
}

class SimdParityTest : public ::testing::Test {
 protected:
  void SetUp() override { original_ = ActiveIsa(); }
  void TearDown() override { SetActiveIsa(original_); }
  Isa original_;
};

/// Longest length the bit-exact checks cover: two 16-float steps, one
/// 8-float step and every tail length pass through it.
constexpr size_t kMaxExactN = 67;

/// Inputs for the bit-exact checks: plain values in [-1, 1], the same with
/// every fifth value a denormal, and the same with one quiet NaN. Each is
/// long enough for kMaxExactN floats from an offset of up to 3.
std::vector<std::vector<float>> ExactInputs(uint64_t seed) {
  const size_t len = kMaxExactN + 3;
  std::vector<float> plain = RandomVec(len, seed);
  std::vector<float> denormal = plain;
  const float tiny = std::numeric_limits<float>::denorm_min();
  for (size_t i = 0; i < len; i += 5) {
    denormal[i] = tiny * static_cast<float>(i + 1) * (i % 2 ? -1.0f : 1.0f);
  }
  std::vector<float> nan = plain;
  nan[len / 2] = std::numeric_limits<float>::quiet_NaN();
  return {plain, denormal, nan};
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, 4) == 0; }

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Runs `check(x, y, n, where)` for every input kind, every base offset
/// in [1, 3] (y offset by 4 minus x's) and every n in [0, 67].
template <typename Check>
void ForEachExactCase(Check check) {
  const auto xs = ExactInputs(21);
  const auto ys = ExactInputs(22);
  for (size_t kind = 0; kind < xs.size(); ++kind) {
    for (size_t off = 1; off <= 3; ++off) {
      const float* x = xs[kind].data() + off;
      const float* y = ys[kind].data() + (4 - off);
      for (size_t n = 0; n <= kMaxExactN; ++n) {
        check(x, y, n,
              "kind=" + std::to_string(kind) + " off=" + std::to_string(off) +
                  " n=" + std::to_string(n));
      }
    }
  }
}

TEST_F(SimdParityTest, DotIsBitExact) {
  ForEachExactCase([](const float* a, const float* b, size_t n,
                      const std::string& where) {
    EXPECT_TRUE(SameBits(Active().dot(a, b, n), scalar::Dot(a, b, n)))
        << where;
  });
}

TEST_F(SimdParityTest, DotLargeUnalignedIsBitExact) {
  const auto a = RandomVec(1001, 5);
  const auto b = RandomVec(1001, 6);
  EXPECT_TRUE(SameBits(Active().dot(a.data() + 1, b.data() + 1, 1000),
                       scalar::Dot(a.data() + 1, b.data() + 1, 1000)));
}

TEST_F(SimdParityTest, ElementwiseKernelsAreBitExact) {
  ForEachExactCase([](const float* x, const float* y, size_t n,
                      const std::string& where) {
    std::vector<float> ref(y, y + n), got(y, y + n);
    scalar::Axpy(0.37f, x, ref.data(), n);
    Active().axpy(0.37f, x, got.data(), n);
    EXPECT_TRUE(SameBits(ref, got)) << "axpy " << where;

    ref.assign(x, x + n);
    got.assign(x, x + n);
    scalar::Scale(-1.7f, ref.data(), n);
    Active().scale(-1.7f, got.data(), n);
    EXPECT_TRUE(SameBits(ref, got)) << "scale " << where;

    ref.assign(n, 0.0f);
    got.assign(n, 0.0f);
    scalar::ScaleInto(2.5f, x, ref.data(), n);
    Active().scale_into(2.5f, x, got.data(), n);
    EXPECT_TRUE(SameBits(ref, got)) << "scale_into " << where;

    ref.assign(y, y + n);
    got.assign(y, y + n);
    scalar::Add(x, ref.data(), n);
    Active().add(x, got.data(), n);
    EXPECT_TRUE(SameBits(ref, got)) << "add " << where;
  });
}

TEST_F(SimdParityTest, SquaredNormParity) {
  const auto x = RandomVec(100, 12);
  for (size_t n : {0u, 1u, 9u, 100u}) {
    EXPECT_NEAR(Active().squared_norm(x.data(), n),
                scalar::SquaredNorm(x.data(), n), ReductionTol(n))
        << n;
  }
}

TEST_F(SimdParityTest, Dot8MatchesEightDots) {
  const auto v = RandomVec(53, 13);
  std::vector<std::vector<float>> rows_store;
  const float* rows[8];
  for (int q = 0; q < 8; ++q) {
    rows_store.push_back(RandomVec(53, 100 + static_cast<uint64_t>(q)));
  }
  for (int q = 0; q < 8; ++q) rows[q] = rows_store[static_cast<size_t>(q)].data();
  for (size_t n : {0u, 1u, 8u, 17u, 53u}) {
    float ref[8], got[8];
    scalar::Dot8(rows, v.data(), n, ref);
    Active().dot8(rows, v.data(), n, got);
    for (int q = 0; q < 8; ++q) {
      // The scalar tile must equal eight independent dots bit-for-bit.
      EXPECT_EQ(ref[q], scalar::Dot(rows[q], v.data(), n)) << n << "/" << q;
      EXPECT_NEAR(got[q], ref[q], ReductionTol(n)) << n << "/" << q;
    }
  }
}

TEST_F(SimdParityTest, AdcScanParity) {
  util::Rng rng(77);
  for (size_t m : {1u, 4u, 8u, 12u, 16u}) {
    const size_t num_codes = 37;
    std::vector<uint8_t> codes(num_codes * m);
    for (auto& c : codes) c = static_cast<uint8_t>(rng.Next() & 0xff);
    const auto table = RandomVec(m * 256, 1000 + m);
    std::vector<float> ref(num_codes), got(num_codes);
    scalar::AdcScan(codes.data(), num_codes, m, table.data(), ref.data());
    Active().adc_scan(codes.data(), num_codes, m, table.data(), got.data());
    for (size_t i = 0; i < num_codes; ++i) {
      EXPECT_NEAR(got[i], ref[i], ReductionTol(m)) << "m=" << m << " i=" << i;
    }
  }
}

TEST_F(SimdParityTest, NanPropagatesThroughReductions) {
  auto a = RandomVec(19, 14);
  const auto b = RandomVec(19, 15);
  a[13] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(scalar::Dot(a.data(), b.data(), 19)));
  EXPECT_TRUE(std::isnan(Active().dot(a.data(), b.data(), 19)));
  EXPECT_TRUE(std::isnan(scalar::SquaredNorm(a.data(), 19)));
  EXPECT_TRUE(std::isnan(Active().squared_norm(a.data(), 19)));
}

TEST_F(SimdParityTest, DenormalsAreComputedNotFlushed) {
  // The library must never set DAZ/FTZ: a denormal times a power of two
  // is exact, so both paths must produce the identical (tiny) product.
  const float denorm = std::numeric_limits<float>::denorm_min() * 64;
  std::vector<float> a(8, denorm), b(8, 0.25f);
  const float ref = scalar::Dot(a.data(), b.data(), 8);
  const float got = Active().dot(a.data(), b.data(), 8);
  EXPECT_GT(ref, 0.0f);
  EXPECT_EQ(got, ref);
}

TEST_F(SimdParityTest, ForcedScalarDispatchIsBitExactWithReference) {
  SetActiveIsa(Isa::kScalar);
  const auto a = RandomVec(129, 16);
  const auto b = RandomVec(129, 17);
  EXPECT_EQ(Active().dot(a.data(), b.data(), 129),
            scalar::Dot(a.data(), b.data(), 129));
  EXPECT_EQ(&Active(), &Scalar());
}

TEST(SimdInfo, IsaNames) {
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kAvx2), "avx2");
  // Log the dispatch decision so CI output records the runner's ISA.
  ::testing::Test::RecordProperty("active_isa", IsaName(ActiveIsa()));
  std::printf("[simd] active ISA: %s (cpu avx2+fma: %d, build avx2: %d, "
              "TDMATCH_FORCE_SCALAR: %d)\n",
              IsaName(ActiveIsa()), CpuHasAvx2Fma() ? 1 : 0,
              BuildHasAvx2() ? 1 : 0, ForcedScalarByEnv() ? 1 : 0);
  (void)Avx2Active;
}

}  // namespace
}  // namespace simd
}  // namespace tdmatch
