// Scalar reference implementation of the holms::exec::simd kernels: 8
// explicit f64 chains and the canonical combine tree from simd.hpp, so this
// TU defines the bit pattern every vector ISA must reproduce.  Compiled with
// -ffp-contract=off -fno-tree-vectorize (see exec/CMakeLists.txt) so the
// compiler neither fuses FMAs implicitly (std::fma, in Pack::fma and the
// owned exp and log, is the one fused operation) nor SLP-vectorizes the lane
// chains — the reference stays honestly scalar.

#include "exec/simd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace holms::exec::simd::detail {
namespace {

struct Mask {
  bool m[8];

  friend Mask operator&(Mask x, Mask y) {
    Mask r;
    for (int k = 0; k < 8; ++k) r.m[k] = x.m[k] && y.m[k];
    return r;
  }
  bool all() const {
    for (int k = 0; k < 8; ++k) {
      if (!m[k]) return false;
    }
    return true;
  }
};

struct IPack {
  std::uint64_t l[8];

  static IPack broadcast(std::uint64_t v) {
    IPack p;
    for (int k = 0; k < 8; ++k) p.l[k] = v;
    return p;
  }
  static IPack load(const std::uint64_t* src) {
    IPack p;
    for (int k = 0; k < 8; ++k) p.l[k] = src[k];
    return p;
  }
  static IPack gather(const std::uint64_t* table, IPack idx) {
    IPack p;
    for (int k = 0; k < 8; ++k) p.l[k] = table[idx.l[k]];
    return p;
  }
  template <typename Op>
  static IPack zip(IPack x, IPack y, Op op) {
    IPack p;
    for (int k = 0; k < 8; ++k) p.l[k] = op(x.l[k], y.l[k]);
    return p;
  }
  friend IPack operator&(IPack x, IPack y) {
    return zip(x, y, [](std::uint64_t a, std::uint64_t b) { return a & b; });
  }
  friend IPack operator|(IPack x, IPack y) {
    return zip(x, y, [](std::uint64_t a, std::uint64_t b) { return a | b; });
  }
  friend IPack operator^(IPack x, IPack y) {
    return zip(x, y, [](std::uint64_t a, std::uint64_t b) { return a ^ b; });
  }
  friend IPack operator+(IPack x, IPack y) {
    return zip(x, y, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  }
  friend IPack operator-(IPack x, IPack y) {
    return zip(x, y, [](std::uint64_t a, std::uint64_t b) { return a - b; });
  }
  template <int N>
  static IPack shl(IPack x) {
    for (int k = 0; k < 8; ++k) x.l[k] <<= N;
    return x;
  }
  template <int N>
  static IPack shr(IPack x) {
    for (int k = 0; k < 8; ++k) x.l[k] >>= N;
    return x;
  }
};

struct Pack {
  double l[8];

  static Pack zero() { return broadcast(0.0); }
  static Pack broadcast(double v) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = v;
    return p;
  }
  static Pack load(const double* src) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = src[k];
    return p;
  }
  static Pack gather(const double* x, const std::uint32_t* idx) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = x[idx[k]];
    return p;
  }
  void store(double* dst) const {
    for (int k = 0; k < 8; ++k) dst[k] = l[k];
  }

  friend Pack operator+(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = a.l[k] + b.l[k];
    return p;
  }
  friend Pack operator-(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = a.l[k] - b.l[k];
    return p;
  }
  friend Pack operator*(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = a.l[k] * b.l[k];
    return p;
  }
  friend Pack operator/(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = a.l[k] / b.l[k];
    return p;
  }

  // std::fma rounds once on every host (in software where the CPU has no
  // FMA), so this is the fused operation of every other table.
  static Pack fma(Pack a, Pack b, Pack c) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = std::fma(a.l[k], b.l[k], c.l[k]);
    return p;
  }
  static Pack vsqrt(Pack a) {
    for (int k = 0; k < 8; ++k) a.l[k] = std::sqrt(a.l[k]);
    return a;
  }
  static Pack from_bits(IPack w) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = std::bit_cast<double>(w.l[k]);
    return p;
  }
  IPack bits() const {
    IPack w;
    for (int k = 0; k < 8; ++k) w.l[k] = std::bit_cast<std::uint64_t>(l[k]);
    return w;
  }

  // minpd/maxpd convention: second operand on ties.
  static Pack vmin(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = a.l[k] < b.l[k] ? a.l[k] : b.l[k];
    return p;
  }
  static Pack vmax(Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = a.l[k] > b.l[k] ? a.l[k] : b.l[k];
    return p;
  }
  static Pack vabs(Pack a) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = std::fabs(a.l[k]);
    return p;
  }
  static Mask gt(Pack a, Pack b) {
    Mask m;
    for (int k = 0; k < 8; ++k) m.m[k] = a.l[k] > b.l[k];
    return m;
  }
  static Mask ge(Pack a, Pack b) {
    Mask m;
    for (int k = 0; k < 8; ++k) m.m[k] = a.l[k] >= b.l[k];
    return m;
  }
  static Pack blend(Mask m, Pack a, Pack b) {
    Pack p;
    for (int k = 0; k < 8; ++k) p.l[k] = m.m[k] ? a.l[k] : b.l[k];
    return p;
  }

  double reduce() const {
    return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
  }
};

#define HOLMS_SIMD_INLINE inline
#include "exec/simd_kernels.inc"
#undef HOLMS_SIMD_INLINE

}  // namespace

const Kernels& scalar_kernels() {
  static const Kernels k = make_table(Isa::kScalar, "scalar");
  return k;
}

}  // namespace holms::exec::simd::detail
