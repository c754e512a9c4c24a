#pragma once
// holms::exec::simd — portable fixed-lane SIMD kernels for the hot paths
// (DESIGN.md §5i).
//
// Determinism model: every kernel computes with 8 virtual f64 lanes and ONE
// canonical reduction order, regardless of the instruction set that executes
// it.  Element i of a stream is assigned to lane i % 8 (in blocks of 8); a
// reduction combines the lane partials as
//
//     ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
//
// — exactly the tree an AVX2 implementation gets from adding its two
// 4-lane accumulators, then adding the register halves, then the final pair
// — and any tail elements (n % 8) are folded in sequentially AFTER the lane
// combine.  The scalar fallback emulates the same 8 chains and the same
// combine tree, so `HOLMS_SIMD=off`, AVX2 and NEON builds produce bitwise
// identical results.  Elementwise operations (add/mul/div/min/max/blend)
// are IEEE-identical per lane on every ISA; the kernel translation units are
// compiled with -ffp-contract=off so no backend fuses a*b+c into an FMA.
//
// min/max use the SSE/AVX minpd/maxpd convention: min(a,b) = a < b ? a : b
// (second operand on ties/NaN).  For the non-negative quantities these
// kernels process that convention is bit-identical to std::min/std::max.
// The `max` reduction combines its lane maxima in the same tree shape as a
// sum; on NaN-free input with no -0 it equals std::max_element exactly.
//
// Dispatch: resolved once per process from the HOLMS_SIMD environment
// variable ("off"/"scalar", "avx2", "neon", or "auto"/unset = best
// available) plus runtime CPU detection.  kernels_for() exposes every
// compiled-in table so tests and benches can compare ISAs in-process.

#include <cstddef>
#include <cstdint>

namespace holms::exec::simd {

/// Virtual f64 lane count.  Fixed forever: it defines the canonical
/// reduction order every kernel result depends on.
inline constexpr std::size_t kLanes = 8;

enum class Isa { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// The FGS/DVFS arithmetic of n slots, one client's consecutive slots in
/// SoA form (streaming/fgs.cpp phase B).  Every field is an n-element array;
/// policy_* are 1.0/0.0 masks.  The math is purely elementwise — no
/// cross-slot reduction — so the chunk size is bitwise-neutral.
struct FgsSlotBatch {
  std::size_t n = 0;
  // Inputs (staged per slot by the scalar phase A).
  const double* capacity_bps = nullptr;
  const double* loss = nullptr;
  const double* policy_graceful = nullptr;  // 1.0 if kGracefulDegradation
  const double* policy_feedback = nullptr;  // 1.0 if kClientFeedback
  const double* freq_hz = nullptr;          // post-DVFS operating point
  const double* total_power_w = nullptr;
  const double* max_stream_bps = nullptr;
  const double* base_layer_bps = nullptr;
  const double* slot_s = nullptr;
  const double* decode_cycles_per_bit = nullptr;
  const double* rx_nj_per_bit = nullptr;
  const double* loss_shed_gain = nullptr;
  const double* base_only_loss_threshold = nullptr;
  const double* base_fec_cap = nullptr;
  const double* max_enhancement_bps = nullptr;
  const double* loss_ewma = nullptr;
  // Outputs (consumed by the scalar phase C in the original mutation order).
  double* shed = nullptr;
  double* rx_bits = nullptr;
  double* decodable_bits = nullptr;
  double* rx_energy_j = nullptr;          // rx radio energy for the slot
  double* cpu_decode_energy_j = nullptr;  // active decode energy
  double* cpu_idle_energy_j = nullptr;    // idle-fraction energy
  double* load_norm = nullptr;            // rx_bits / aptitude_bits
  double* decoded_bps = nullptr;
};

/// Kernel table for one ISA.  All reductions follow the canonical lane
/// order above; all tables produce bitwise identical results.
struct Kernels {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";

  /// sum(x[0..n)): 8-lane reduction.
  double (*sum)(const double* x, std::size_t n);
  /// sum(|a[i] - b[i]|): the solvers' L1 convergence delta.
  double (*sum_abs_diff)(const double* a, const double* b, std::size_t n);
  /// x[i] /= divisor (elementwise; bitwise-identical on every ISA).
  void (*div_all)(double* x, std::size_t n, double divisor);
  /// Gather-form SpMV over a transposed CSR: for each column c in [lo, hi),
  /// out[c] = sum_i vals[i] * x[srcs[i]] over c's row [offsets[c],
  /// offsets[c+1]).  Detects contiguous index runs (banded chains) and uses
  /// consecutive loads — a load-strategy choice only, never an order change.
  void (*spmv_cols)(const std::size_t* offsets, const std::uint32_t* srcs,
                    const double* vals, const double* x, double* out,
                    std::size_t lo, std::size_t hi);
  /// One in-place Gauss–Seidel sweep over the n columns of a transposed CSR
  /// that stores no diagonal entry: x[c] = dot(c) / denom[c], where dot(c)
  /// is c's lane-reduced gather against x as it stands, so every column
  /// reads the new value of each column swept before it.  Columns ascend, or
  /// descend when `backward` is set; a forward sweep followed by a backward
  /// one is one symmetric Gauss–Seidel iteration.
  void (*gs_sweep)(const std::size_t* offsets, const std::uint32_t* srcs,
                   const double* vals, const double* denom, double* x,
                   std::size_t n, bool backward);
  /// SwapEvaluator O(deg) delta-energy: sum over touched edges of
  /// transfer_energy(vol, new_hops) - transfer_energy(vol, old_hops) with
  /// transfer_energy(b, h) = b * ((h+1) * e_router_pj + h * e_link_pj) *
  /// 1e-12, lane-reduced in edge order.
  double (*transfer_delta)(const double* vol, const double* old_hops,
                           const double* new_hops, std::size_t n,
                           double e_router_pj, double e_link_pj);
  /// max(x[0..n)), -inf for n == 0: 8 lane maxima (vmax convention), then
  /// the lanes and the tail.  On NaN-free input with no -0 the maximum is
  /// exact, so the result equals *std::max_element bit for bit — the
  /// SwapEvaluator busiest-link rescan relies on that.
  double (*max)(const double* x, std::size_t n);
  /// Batched FGS slot arithmetic (see FgsSlotBatch).
  void (*fgs_slots)(const FgsSlotBatch& b);
};

/// The process-wide kernel table: HOLMS_SIMD env + CPU detection, resolved
/// once on first use.
const Kernels& kernels();

/// The table for an explicit ISA; falls back to scalar when that ISA was not
/// compiled in or the CPU lacks it.  For tests and benches.
const Kernels& kernels_for(Isa isa);

/// True when `isa`'s kernels were compiled in and the CPU supports them.
bool isa_available(Isa isa);

/// The ISA "auto" resolves to on this machine.
Isa best_isa();

const char* isa_name(Isa isa);

}  // namespace holms::exec::simd
