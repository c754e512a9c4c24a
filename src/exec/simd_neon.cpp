// NEON (aarch64) implementation of the holms::exec::simd kernels.  One Pack
// is four float64x2_t registers v[0]={l0,l1} .. v[3]={l6,l7}; reduce() adds
// v[0]+v[2] and v[1]+v[3] (giving {l0+l4, l1+l5} and {l2+l6, l3+l7}), adds
// those, then the two remaining lanes — the canonical
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) tree.  min/max are built from
// compare+bsl rather than vminq/vmaxq so the minpd/maxpd tie convention is
// reproduced exactly.  Pack::fma is vfmaq_f64, the one fused operation.
// Compiled with -ffp-contract=off; only built on aarch64 (see
// exec/CMakeLists.txt).  No aarch64 host or CI job builds this TU yet.

#include "exec/simd.hpp"

#include <arm_neon.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace holms::exec::simd::detail {
namespace {

struct Mask {
  uint64x2_t v[4];

  friend Mask operator&(Mask x, Mask y) {
    Mask m;
    for (int k = 0; k < 4; ++k) m.v[k] = vandq_u64(x.v[k], y.v[k]);
    return m;
  }
  bool all() const {
    uint64x2_t r = vandq_u64(vandq_u64(v[0], v[1]), vandq_u64(v[2], v[3]));
    return (vgetq_lane_u64(r, 0) & vgetq_lane_u64(r, 1)) == ~std::uint64_t{0};
  }
};

struct IPack {
  uint64x2_t v[4];

  static IPack broadcast(std::uint64_t w) {
    IPack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vdupq_n_u64(w);
    return p;
  }
  static IPack load(const std::uint64_t* src) {
    IPack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vld1q_u64(src + 2 * k);
    return p;
  }
  static IPack gather(const std::uint64_t* table, IPack idx) {
    std::uint64_t i[8];
    for (int k = 0; k < 4; ++k) vst1q_u64(i + 2 * k, idx.v[k]);
    const std::uint64_t t[8] = {table[i[0]], table[i[1]], table[i[2]],
                                table[i[3]], table[i[4]], table[i[5]],
                                table[i[6]], table[i[7]]};
    return load(t);
  }
  friend IPack operator&(IPack x, IPack y) {
    for (int k = 0; k < 4; ++k) x.v[k] = vandq_u64(x.v[k], y.v[k]);
    return x;
  }
  friend IPack operator|(IPack x, IPack y) {
    for (int k = 0; k < 4; ++k) x.v[k] = vorrq_u64(x.v[k], y.v[k]);
    return x;
  }
  friend IPack operator^(IPack x, IPack y) {
    for (int k = 0; k < 4; ++k) x.v[k] = veorq_u64(x.v[k], y.v[k]);
    return x;
  }
  friend IPack operator+(IPack x, IPack y) {
    for (int k = 0; k < 4; ++k) x.v[k] = vaddq_u64(x.v[k], y.v[k]);
    return x;
  }
  friend IPack operator-(IPack x, IPack y) {
    for (int k = 0; k < 4; ++k) x.v[k] = vsubq_u64(x.v[k], y.v[k]);
    return x;
  }
  template <int N>
  static IPack shl(IPack x) {
    for (int k = 0; k < 4; ++k) x.v[k] = vshlq_n_u64(x.v[k], N);
    return x;
  }
  template <int N>
  static IPack shr(IPack x) {
    for (int k = 0; k < 4; ++k) x.v[k] = vshrq_n_u64(x.v[k], N);
    return x;
  }
};

struct Pack {
  float64x2_t v[4];

  static Pack zero() { return broadcast(0.0); }
  static Pack broadcast(double d) {
    Pack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vdupq_n_f64(d);
    return p;
  }
  static Pack load(const double* src) {
    Pack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vld1q_f64(src + 2 * k);
    return p;
  }
  static Pack gather(const double* x, const std::uint32_t* idx) {
    const double t[8] = {x[idx[0]], x[idx[1]], x[idx[2]], x[idx[3]],
                         x[idx[4]], x[idx[5]], x[idx[6]], x[idx[7]]};
    return load(t);
  }
  void store(double* dst) const {
    for (int k = 0; k < 4; ++k) vst1q_f64(dst + 2 * k, v[k]);
  }

  friend Pack operator+(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vaddq_f64(a.v[k], b.v[k]);
    return p;
  }
  friend Pack operator-(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vsubq_f64(a.v[k], b.v[k]);
    return p;
  }
  friend Pack operator*(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vmulq_f64(a.v[k], b.v[k]);
    return p;
  }
  friend Pack operator/(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vdivq_f64(a.v[k], b.v[k]);
    return p;
  }

  static Pack fma(Pack a, Pack b, Pack c) {
    Pack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vfmaq_f64(c.v[k], a.v[k], b.v[k]);
    return p;
  }
  static Pack vsqrt(Pack a) {
    for (int k = 0; k < 4; ++k) a.v[k] = vsqrtq_f64(a.v[k]);
    return a;
  }
  static Pack from_bits(IPack w) {
    Pack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vreinterpretq_f64_u64(w.v[k]);
    return p;
  }
  IPack bits() const {
    IPack w;
    for (int k = 0; k < 4; ++k) w.v[k] = vreinterpretq_u64_f64(v[k]);
    return w;
  }

  // minpd/maxpd convention (second operand on ties/NaN), via compare+bsl —
  // NOT vminq_f64/vmaxq_f64, whose IEEE minNum semantics differ on ±0/NaN.
  static Pack vmin(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 4; ++k) {
      p.v[k] = vbslq_f64(vcltq_f64(a.v[k], b.v[k]), a.v[k], b.v[k]);
    }
    return p;
  }
  static Pack vmax(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 4; ++k) {
      p.v[k] = vbslq_f64(vcgtq_f64(a.v[k], b.v[k]), a.v[k], b.v[k]);
    }
    return p;
  }
  static Pack vabs(Pack a) {
    Pack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vabsq_f64(a.v[k]);
    return p;
  }
  static Mask gt(Pack a, Pack b) {
    Mask m;
    for (int k = 0; k < 4; ++k) m.v[k] = vcgtq_f64(a.v[k], b.v[k]);
    return m;
  }
  static Mask ge(Pack a, Pack b) {
    Mask m;
    for (int k = 0; k < 4; ++k) m.v[k] = vcgeq_f64(a.v[k], b.v[k]);
    return m;
  }
  static Pack blend(Mask m, Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 4; ++k) p.v[k] = vbslq_f64(m.v[k], a.v[k], b.v[k]);
    return p;
  }

  double reduce() const {
    const float64x2_t s02 = vaddq_f64(v[0], v[2]);  // {l0+l4, l1+l5}
    const float64x2_t s13 = vaddq_f64(v[1], v[3]);  // {l2+l6, l3+l7}
    const float64x2_t t = vaddq_f64(s02, s13);
    return vgetq_lane_f64(t, 0) + vgetq_lane_f64(t, 1);
  }
};

#define HOLMS_SIMD_INLINE inline
#include "exec/simd_kernels.inc"
#undef HOLMS_SIMD_INLINE

}  // namespace

const Kernels& neon_kernels() {
  static const Kernels k = make_table(Isa::kNeon, "neon");
  return k;
}

}  // namespace holms::exec::simd::detail
