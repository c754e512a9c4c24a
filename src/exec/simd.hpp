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
// identical results.  Elementwise operations (add/mul/div/sqrt/min/max/
// blend, 64-bit integer and bit-cast ops) are IEEE-identical per lane on
// every ISA.  The kernel translation units are compiled with
// -ffp-contract=off, so no backend fuses a*b+c implicitly; the only fused
// operations are the explicit ones of the owned exp and log
// (simd_libm.inc), placed exactly where glibc 2.36's FMA builds fuse.  A
// fused multiply-add rounds once on every ISA, so those too are identical.
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
/// SoA form (streaming/fgs.cpp phase B).  The per-session inputs are
/// scalars, broadcast once per call; the per-slot inputs and the outputs
/// are n-element arrays.  The math is purely elementwise — no cross-slot
/// reduction — so the chunk size is bitwise-neutral.
struct FgsSlotBatch {
  std::size_t n = 0;
  // Per-session inputs: the same in every slot of a call.
  bool policy_graceful = false;  // kGracefulDegradation
  bool policy_feedback = false;  // kClientFeedback
  double max_stream_bps = 0.0;
  double base_layer_bps = 0.0;
  double slot_s = 0.0;
  double decode_cycles_per_bit = 0.0;
  double rx_nj_per_bit = 0.0;
  double loss_shed_gain = 0.0;
  double base_only_loss_threshold = 0.0;
  double base_fec_cap = 0.0;
  double max_enhancement_bps = 0.0;
  // Per-slot inputs (staged by the scalar phase A).
  const double* capacity_bps = nullptr;
  const double* loss = nullptr;
  const double* freq_hz = nullptr;  // post-DVFS operating point
  const double* total_power_w = nullptr;
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

/// `SweepPlan::base` of a row whose lanes' sources are not 8 consecutive
/// indices.
inline constexpr std::uint32_t kScattered = 0xffffffffu;

/// One step of a sliced sweep plan (DESIGN.md §5g): a slice of up to 8
/// columns with fewer than kLanes entries, one column per lane, or a run of
/// long columns swept one after another.  A slice's rows are 8 wide: row j
/// holds entry j of each lane's column, and a lane shorter than the slice's
/// longest is padded with entries the kernel masks out (never multiplies by
/// 0, so an inf or NaN it happens to read cannot leak into the lane).
struct SweepStep {
  double len[8] = {};         // entries of each lane's column
  double denom[8] = {};       // each lane's divisor when the plan divides
  std::uint32_t col[8] = {};  // each lane's output index
  std::uint32_t row = 0;      // slice: first 8-wide row of idx / vals;
                              // run: first long column
  std::uint32_t rows = 0;     // slice: rows; run: long columns
  std::uint32_t full = 0;     // slice: leading rows every used lane fills
  std::uint32_t lanes = 0;    // slice: lanes used (1-8); run: 0
  bool consecutive = false;   // 8 lanes with col[k] == col[0] + k
};

/// A long column of a sweep plan: its entries run from `begin` in the
/// plan's long_idx / long_vals to the next long column's `begin` (the plan
/// ends its list with one more record), in the order spmv_cols reduces
/// them.
struct SweepColumn {
  std::size_t begin = 0;
  double denom = 1.0;     // divisor when the plan divides
  std::uint32_t col = 0;  // output index
};

/// A sliced sweep plan (SELL-C-sigma with C = 8; Kreutzer et al., SIAM J.
/// Sci. Comput. 2014), built once per solve by markov/sparse.cpp.
struct SweepPlan {
  const SweepStep* steps = nullptr;
  const std::uint32_t* idx = nullptr;   // 8 per row: each lane's source index
  const double* vals = nullptr;         // 8 per row: each lane's entry
  const std::uint32_t* base = nullptr;  // per slice row: idx[k] == base + k
                                        // for every lane, else kScattered
  const SweepColumn* long_cols = nullptr;
  const std::uint32_t* long_idx = nullptr;
  const double* long_vals = nullptr;
  bool divide = false;  // divide each result by its denom
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
  /// Runs steps [lo, hi) of a sliced sweep plan in order: each column's
  /// result is the lane-reduced gather of its entries against x, divided by
  /// its denom when the plan divides, stored at out[col].  A long column is
  /// one dot_gathered, as spmv_cols reduces it.  A slice lane sums its
  /// column's products one at a time from +0, which is what that dot does
  /// with fewer than 8 entries (all of them sequential tail), so 8 short
  /// columns share a Pack without changing a bit.  x and out may alias: a
  /// slice reads every source before it stores, and a run's columns go one
  /// after another, so a plan whose columns read only what earlier slices or
  /// earlier columns of their run wrote runs in place.
  void (*sweep)(const SweepPlan& plan, std::size_t lo, std::size_t hi,
                const double* x, double* out);
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
  /// out[i] = exp(x[i]) and out[i] = log(x[i]), bit for bit what glibc
  /// 2.36's FMA variants (__ieee754_exp_fma, __ieee754_log_fma) return, on
  /// every input and every ISA; errno is not set.
  void (*exp)(const double* x, double* out, std::size_t n);
  void (*log)(const double* x, double* out, std::size_t n);
  /// out[i] = sim::unit_double of MT19937-64's tempering of words[i]: the
  /// uniforms that untempered state words become, for chunked readers of
  /// one sim::Rng stream.
  void (*unit_doubles)(const std::uint64_t* words, double* out,
                       std::size_t n);
  /// out[i] = scale[i] * exp(y[i] * sqrt(-2 log(r2[i]) / r2[i]) * sigma +
  /// mu): the tail of Marsaglia's polar normal, as sim::Rng::normal spells
  /// it, under a lognormal scale; exp and log are the ones above.
  void (*polar_lognormal)(const double* y, const double* r2,
                          const double* scale, std::size_t n, double mu,
                          double sigma, double* out);
};

/// The process-wide kernel table: HOLMS_SIMD env + CPU detection, resolved
/// once on first use.
const Kernels& kernels();

/// The table for an explicit ISA; falls back to scalar when that ISA was not
/// compiled in or the CPU lacks it.  For tests and benches.
const Kernels& kernels_for(Isa isa);

/// True when `isa`'s kernels were compiled in and the CPU supports them
/// (AVX2 needs FMA as well).
bool isa_available(Isa isa);

/// The ISA "auto" resolves to on this machine.
Isa best_isa();

}  // namespace holms::exec::simd
