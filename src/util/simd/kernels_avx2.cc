// AVX2+FMA kernel implementations. This translation unit is compiled with
// -mavx2 -mfma (see src/util/CMakeLists.txt) and therefore must only be
// *executed* after the runtime cpuid probe in kernels.cc confirms both
// features — nothing here runs at static-init time, and the dispatcher
// never installs this table on an unsupported CPU.
//
// Dot, Axpy, Scale, ScaleInto and Add are bit-exact with the scalar
// reference (the trainers dispatch through them): they multiply and add
// in separate roundings, Dot follows the canonical order of scalar::Dot,
// and -ffp-contract=off keeps the compiler from fusing the scalar tails.
// SquaredNorm, Dot8 and AdcScan run only in serving and keep FMA.
//
// All loads/stores are unaligned (loadu/storeu): serving feeds these
// kernels rows gathered from mmap'd snapshot payloads that are only
// guaranteed 4-byte aligned.
#include "util/simd/kernels.h"

#ifdef TDMATCH_SIMD_AVX2_COMPILED

#include <immintrin.h>

namespace tdmatch {
namespace simd {
namespace internal {

namespace {

/// Horizontal sum of one 8-lane register in the fixed tree
/// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) that scalar::Dot reproduces.
inline float HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

float DotAvx2(const float* a, const float* b, size_t n) {
  // The canonical order of scalar::Dot: two accumulators hide the add
  // latency chain, the multiply rounds before the add (no FMA), so the
  // result is bit-equal to scalar.
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_add_ps(
        acc0, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_loadu_ps(a + i + 8),
                                             _mm256_loadu_ps(b + i + 8)));
  }
  if (i + 8 <= n) {
    acc0 = _mm256_add_ps(
        acc0, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
    i += 8;
  }
  float acc = HSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void AxpyAvx2(float a, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_add_ps(
        _mm256_loadu_ps(y + i), _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void ScaleAvx2(float a, float* x, size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= a;
}

void ScaleIntoAvx2(float a, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = a * x[i];
}

void AddAvx2(const float* x, float* y, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

float SquaredNormAvx2(const float* x, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    acc = _mm256_fmadd_ps(v, v, acc);
  }
  float out = HSum(acc);
  for (; i < n; ++i) out += x[i] * x[i];
  return out;
}

void Dot8Avx2(const float* const rows[8], const float* v, size_t n,
              float out[8]) {
  // One pass over v feeds eight row accumulators: the 8×1 tile loads each
  // v chunk once instead of eight times (the k-means assignment shape).
  __m256 acc[8];
  for (int q = 0; q < 8; ++q) acc[q] = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vv = _mm256_loadu_ps(v + i);
    for (int q = 0; q < 8; ++q) {
      acc[q] = _mm256_fmadd_ps(_mm256_loadu_ps(rows[q] + i), vv, acc[q]);
    }
  }
  for (int q = 0; q < 8; ++q) out[q] = HSum(acc[q]);
  for (; i < n; ++i) {
    const float vi = v[i];
    for (int q = 0; q < 8; ++q) out[q] += rows[q][i] * vi;
  }
}

void AdcScanAvx2(const uint8_t* codes, size_t num_codes, size_t m,
                 const float* table, float* out) {
  // Eight subquantizers per gather: indices are s*256 + code[s], so one
  // i32 gather pulls eight table entries at once. Sub-8 tails (and any
  // m < 8) fall back to scalar lookups.
  const __m256i lane_base = _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280,
                                              1536, 1792);
  for (size_t i = 0; i < num_codes; ++i) {
    const uint8_t* code = codes + i * m;
    __m256 acc = _mm256_setzero_ps();
    size_t s = 0;
    for (; s + 8 <= m; s += 8) {
      const __m256i idx8 = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(code + s)));
      const __m256i idx = _mm256_add_epi32(idx8, lane_base);
      acc = _mm256_add_ps(
          acc, _mm256_i32gather_ps(table + s * 256, idx, sizeof(float)));
    }
    float sum = HSum(acc);
    for (; s < m; ++s) sum += table[s * 256 + code[s]];
    out[i] = sum;
  }
}

const Kernels kAvx2Kernels = {
    "avx2",        DotAvx2,         AxpyAvx2, ScaleAvx2, ScaleIntoAvx2,
    AddAvx2,       SquaredNormAvx2, Dot8Avx2, AdcScanAvx2,
};

}  // namespace

const Kernels& Avx2Kernels() { return kAvx2Kernels; }

}  // namespace internal
}  // namespace simd
}  // namespace tdmatch

#endif  // TDMATCH_SIMD_AVX2_COMPILED
