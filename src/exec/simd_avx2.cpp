// AVX2 implementation of the holms::exec::simd kernels.  One Pack is two
// __m256d accumulators (lanes 0-3 and 4-7); reduce() adds them, folds the
// register halves, then the final pair — which is precisely the canonical
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) tree the scalar reference emulates.
// Compiled with -mavx2 -mfma -ffp-contract=off, so the only fused
// operations are Pack::fma's; only built on x86_64 (see
// exec/CMakeLists.txt).

#include "exec/simd.hpp"

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace holms::exec::simd::detail {
namespace {

struct Mask {
  __m256d a, b;

  friend Mask operator&(Mask x, Mask y) {
    return {_mm256_and_pd(x.a, y.a), _mm256_and_pd(x.b, y.b)};
  }
  bool all() const {
    return (_mm256_movemask_pd(a) & _mm256_movemask_pd(b)) == 0xf;
  }
};

struct IPack {
  __m256i a, b;  // lanes 0-3, lanes 4-7

  static IPack broadcast(std::uint64_t v) {
    const __m256i x = _mm256_set1_epi64x(static_cast<long long>(v));
    return {x, x};
  }
  static IPack load(const std::uint64_t* src) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 4))};
  }
  static IPack gather(const std::uint64_t* table, IPack idx) {
    const auto* t = reinterpret_cast<const long long*>(table);
    return {_mm256_i64gather_epi64(t, idx.a, 8),
            _mm256_i64gather_epi64(t, idx.b, 8)};
  }
  friend IPack operator&(IPack x, IPack y) {
    return {_mm256_and_si256(x.a, y.a), _mm256_and_si256(x.b, y.b)};
  }
  friend IPack operator|(IPack x, IPack y) {
    return {_mm256_or_si256(x.a, y.a), _mm256_or_si256(x.b, y.b)};
  }
  friend IPack operator^(IPack x, IPack y) {
    return {_mm256_xor_si256(x.a, y.a), _mm256_xor_si256(x.b, y.b)};
  }
  friend IPack operator+(IPack x, IPack y) {
    return {_mm256_add_epi64(x.a, y.a), _mm256_add_epi64(x.b, y.b)};
  }
  friend IPack operator-(IPack x, IPack y) {
    return {_mm256_sub_epi64(x.a, y.a), _mm256_sub_epi64(x.b, y.b)};
  }
  template <int N>
  static IPack shl(IPack x) {
    return {_mm256_slli_epi64(x.a, N), _mm256_slli_epi64(x.b, N)};
  }
  template <int N>
  static IPack shr(IPack x) {
    return {_mm256_srli_epi64(x.a, N), _mm256_srli_epi64(x.b, N)};
  }
};

struct Pack {
  __m256d a, b;  // lanes 0-3, lanes 4-7

  static Pack zero() {
    return {_mm256_setzero_pd(), _mm256_setzero_pd()};
  }
  static Pack broadcast(double v) {
    return {_mm256_set1_pd(v), _mm256_set1_pd(v)};
  }
  static Pack load(const double* src) {
    return {_mm256_loadu_pd(src), _mm256_loadu_pd(src + 4)};
  }
  static Pack gather(const double* x, const std::uint32_t* idx) {
    // Hardware gathers on zero-extended indices, so any uint32 index is
    // valid.  Eight scalar loads would hold eight general registers, and
    // the sweep kernel would spill its loop state around every gather.
    const __m256i lo = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)));
    const __m256i hi = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + 4)));
    return {_mm256_i64gather_pd(x, lo, 8), _mm256_i64gather_pd(x, hi, 8)};
  }
  void store(double* dst) const {
    _mm256_storeu_pd(dst, a);
    _mm256_storeu_pd(dst + 4, b);
  }

  friend Pack operator+(Pack x, Pack y) {
    return {_mm256_add_pd(x.a, y.a), _mm256_add_pd(x.b, y.b)};
  }
  friend Pack operator-(Pack x, Pack y) {
    return {_mm256_sub_pd(x.a, y.a), _mm256_sub_pd(x.b, y.b)};
  }
  friend Pack operator*(Pack x, Pack y) {
    return {_mm256_mul_pd(x.a, y.a), _mm256_mul_pd(x.b, y.b)};
  }
  friend Pack operator/(Pack x, Pack y) {
    return {_mm256_div_pd(x.a, y.a), _mm256_div_pd(x.b, y.b)};
  }

  static Pack fma(Pack x, Pack y, Pack z) {
    return {_mm256_fmadd_pd(x.a, y.a, z.a), _mm256_fmadd_pd(x.b, y.b, z.b)};
  }
  static Pack vsqrt(Pack x) {
    return {_mm256_sqrt_pd(x.a), _mm256_sqrt_pd(x.b)};
  }
  static Pack from_bits(IPack w) {
    return {_mm256_castsi256_pd(w.a), _mm256_castsi256_pd(w.b)};
  }
  IPack bits() const {
    return {_mm256_castpd_si256(a), _mm256_castpd_si256(b)};
  }

  static Pack vmin(Pack x, Pack y) {
    return {_mm256_min_pd(x.a, y.a), _mm256_min_pd(x.b, y.b)};
  }
  static Pack vmax(Pack x, Pack y) {
    return {_mm256_max_pd(x.a, y.a), _mm256_max_pd(x.b, y.b)};
  }
  static Pack vabs(Pack x) {
    const __m256d sign = _mm256_set1_pd(-0.0);
    return {_mm256_andnot_pd(sign, x.a), _mm256_andnot_pd(sign, x.b)};
  }
  static Mask gt(Pack x, Pack y) {
    return {_mm256_cmp_pd(x.a, y.a, _CMP_GT_OQ),
            _mm256_cmp_pd(x.b, y.b, _CMP_GT_OQ)};
  }
  static Mask ge(Pack x, Pack y) {
    return {_mm256_cmp_pd(x.a, y.a, _CMP_GE_OQ),
            _mm256_cmp_pd(x.b, y.b, _CMP_GE_OQ)};
  }
  static Pack blend(Mask m, Pack x, Pack y) {
    return {_mm256_blendv_pd(y.a, x.a, m.a),
            _mm256_blendv_pd(y.b, x.b, m.b)};
  }

  double reduce() const {
    const __m256d s = _mm256_add_pd(a, b);  // (l0+l4, l1+l5, l2+l6, l3+l7)
    const __m128d t = _mm_add_pd(_mm256_castpd256_pd128(s),
                                 _mm256_extractf128_pd(s, 1));
    return _mm_cvtsd_f64(_mm_add_sd(t, _mm_unpackhi_pd(t, t)));
  }
};

// Forced, so that no kernel calls out with dirty upper halves
// (simd_libm.inc).
#define HOLMS_SIMD_INLINE [[gnu::always_inline]] inline
#include "exec/simd_kernels.inc"
#undef HOLMS_SIMD_INLINE

}  // namespace

const Kernels& avx2_kernels() {
  static const Kernels k = make_table(Isa::kAvx2, "avx2");
  return k;
}

}  // namespace holms::exec::simd::detail
