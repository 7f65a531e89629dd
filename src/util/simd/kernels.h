#ifndef TDMATCH_UTIL_SIMD_KERNELS_H_
#define TDMATCH_UTIL_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace tdmatch {
namespace simd {

/// \brief Runtime-dispatched dense-float kernels — the shared hot-loop
/// layer under serving (cosine scans, k-means assignment, ADC code scans)
/// and training (dot/axpy).
///
/// Two implementations live behind one function table:
///  * scalar  — portable loops, the reference. These are defined inline in
///    this header (namespace simd::scalar).
///  * avx2    — AVX2+FMA intrinsics (kernels_avx2.cc, compiled with
///    -mavx2 -mfma on x86-64 when the compiler supports it), selected at
///    runtime only when cpuid reports both features.
///
/// Dispatch rules:
///  * Active() probes the CPU once (first call) and returns the best
///    supported table.
///  * The environment variable TDMATCH_FORCE_SCALAR (any non-empty value
///    except "0") pins dispatch to scalar — CI runs the whole test suite
///    under both settings to prove scalar/SIMD parity on every PR.
///  * SetActiveIsa() overrides dispatch at runtime for tests; requests
///    for an ISA the CPU/build cannot run are clamped to scalar.
///
/// Parity contract (verified by tests/simd_kernels_test.cc):
///  * Dot, Axpy, Scale, ScaleInto and Add are bit-exact between ISAs.
///    Dot sums in one canonical order that both implementations follow
///    (see scalar::Dot), and no path fuses a multiply into an add: the
///    AVX2 kernels multiply then add, and the library builds with
///    -ffp-contract=off so the compiler cannot fuse the scalar loops.
///    The trainers (Word2Vec, Doc2Vec) dispatch through Active() on the
///    strength of this, and their output is byte-identical on either ISA.
///  * SquaredNorm, Dot8 and AdcScan run only in serving. Their AVX2 path
///    keeps FMA and sums in lanes, so it differs from scalar by the usual
///    O(eps * n) accumulation error; tests bound it relative to the
///    scalar value, and serving consumers (ExactIndex, IvfIndex, k-means)
///    are tested against behavioral thresholds.
///  * NaN propagation matches IEEE: a NaN anywhere in the inputs yields a
///    NaN reduction on both paths. Denormals are computed, not flushed
///    (no DAZ/FTZ is ever set by this library).
struct Kernels {
  /// Human-readable ISA name ("scalar", "avx2").
  const char* name;
  /// Dot product of two n-float slices in the canonical order (see
  /// scalar::Dot); bit-exact across ISAs.
  float (*dot)(const float* a, const float* b, size_t n);
  /// y += a * x (n floats).
  void (*axpy)(float a, const float* x, float* y, size_t n);
  /// x *= a (n floats).
  void (*scale)(float a, float* x, size_t n);
  /// y = a * x (n floats).
  void (*scale_into)(float a, const float* x, float* y, size_t n);
  /// y += x (n floats).
  void (*add)(const float* x, float* y, size_t n);
  /// Sum of squares of x (n floats).
  float (*squared_norm)(const float* x, size_t n);
  /// Batched 8-vector × 1-vector tile: out[q] = dot(rows[q], v, n) for
  /// q in [0, 8). One pass over v serves all eight rows (k-means
  /// assignment tiles 8 points against each centroid this way).
  void (*dot8)(const float* const rows[8], const float* v, size_t n,
               float out[8]);
  /// u8 ADC lookup-table scan: for each of num_codes PQ codes (m bytes
  /// each, contiguous), out[i] = sum over s of table[s * 256 + codes[i*m
  /// + s]]. `table` is the per-query m × 256 inner-product table.
  void (*adc_scan)(const uint8_t* codes, size_t num_codes, size_t m,
                   const float* table, float* out);
};

/// The portable reference table (see simd::scalar inline functions).
const Kernels& Scalar();

/// The dispatched table: AVX2+FMA when the build carries it and the CPU
/// reports it and TDMATCH_FORCE_SCALAR is not set; otherwise scalar.
const Kernels& Active();

enum class Isa { kScalar = 0, kAvx2 = 1 };

/// The ISA Active() currently dispatches to.
Isa ActiveIsa();
const char* IsaName(Isa isa);

/// Raw CPU probe (ignores the env override and SetActiveIsa).
bool CpuHasAvx2Fma();
/// True when this binary was compiled with the AVX2 kernel TU at all.
bool BuildHasAvx2();
/// True when TDMATCH_FORCE_SCALAR pinned dispatch at startup.
bool ForcedScalarByEnv();

/// Test hook: re-point Active() at `isa`, clamped to what the CPU and
/// build support (returns the ISA actually installed). Not thread-safe
/// against concurrent Active() users mid-query; call between workloads.
Isa SetActiveIsa(Isa isa);

/// Portable reference kernels.
namespace scalar {

/// The canonical dot order, which the AVX2 kernel follows lane for lane:
/// two 8-lane accumulators over 16-float steps (acc0[j] takes element
/// i+j, acc1[j] takes i+8+j), one 8-float step into acc0, the lane-wise
/// sum acc0 + acc1, the fixed tree
/// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), then the tail in order.
inline float Dot(const float* a, const float* b, size_t n) {
  float acc0[8] = {};
  float acc1[8] = {};
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t j = 0; j < 8; ++j) {
      acc0[j] += a[i + j] * b[i + j];
      acc1[j] += a[i + 8 + j] * b[i + 8 + j];
    }
  }
  if (i + 8 <= n) {
    for (size_t j = 0; j < 8; ++j) acc0[j] += a[i + j] * b[i + j];
    i += 8;
  }
  float l[8];
  for (size_t j = 0; j < 8; ++j) l[j] = acc0[j] + acc1[j];
  float acc =
      ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

inline void Axpy(float a, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

inline void Scale(float a, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= a;
}

inline void ScaleInto(float a, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = a * x[i];
}

inline void Add(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

inline float SquaredNorm(const float* x, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

/// Eight independent dots — bit-identical to calling Dot eight times, so
/// forced-scalar runs reproduce the untiled code exactly.
inline void Dot8(const float* const rows[8], const float* v, size_t n,
                 float out[8]) {
  for (int q = 0; q < 8; ++q) out[q] = Dot(rows[q], v, n);
}

inline void AdcScan(const uint8_t* codes, size_t num_codes, size_t m,
                    const float* table, float* out) {
  for (size_t i = 0; i < num_codes; ++i) {
    const uint8_t* code = codes + i * m;
    float acc = 0.0f;
    for (size_t s = 0; s < m; ++s) {
      acc += table[s * 256 + code[s]];
    }
    out[i] = acc;
  }
}

}  // namespace scalar

/// Convenience wrappers routing through the dispatched table.
inline float Dot(const float* a, const float* b, size_t n) {
  return Active().dot(a, b, n);
}
inline void Axpy(float a, const float* x, float* y, size_t n) {
  Active().axpy(a, x, y, n);
}
inline float SquaredNorm(const float* x, size_t n) {
  return Active().squared_norm(x, n);
}
inline void Dot8(const float* const rows[8], const float* v, size_t n,
                 float out[8]) {
  Active().dot8(rows, v, n, out);
}
inline void AdcScan(const uint8_t* codes, size_t num_codes, size_t m,
                    const float* table, float* out) {
  Active().adc_scan(codes, num_codes, m, table, out);
}

}  // namespace simd
}  // namespace tdmatch

#endif  // TDMATCH_UTIL_SIMD_KERNELS_H_
