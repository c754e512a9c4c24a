#include "markov/sparse.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "exec/error.hpp"
#include "exec/metrics.hpp"
#include "exec/simd.hpp"
#include "exec/thread_pool.hpp"

namespace holms::markov {
namespace {

namespace simd = exec::simd;

// Both helpers run on the exec::simd kernels, so every solver reduction in
// this TU follows the canonical 8-lane order (exec/simd.hpp) no matter which
// ISA executes it.
void normalize(std::span<double> v) {
  const auto& k = simd::kernels();
  const double sum = k.sum(v.data(), v.size());
  if (sum <= 0.0) throw holms::RuntimeError("distribution has zero mass");
  k.div_all(v.data(), v.size(), sum);
}

double l1_delta(std::span<const double> a, std::span<const double> b) {
  return simd::kernels().sum_abs_diff(a.data(), b.data(), a.size());
}

// Power iteration's fixed shard grid (DESIGN.md §5g): always 256 columns
// per shard, *independent of the thread count*.  A chain below either floor
// sweeps as one shard spanning every column: its sweep is too short to hand
// out.  A sliced sweep of short columns costs ~1.6 ns per state, about
// what a pool adds per state in hand-off and in the serial L1 delta that
// pulls the shards' output back, so a pool pays only where long columns
// dominate; 32768 nonzeros keeps every measured short-column chain of up to
// 8,100 states inline (DESIGN.md §5g has the crossover).
// Sharded and one-shard sweeps run the same plan, so the floors only decide
// whether a pool starts, never a bit of the result.  Shard s writes only
// its own output columns, whichever member claims it.
constexpr std::size_t kShardCols = 256;
constexpr std::size_t kShardMinStates = 1024;
constexpr std::size_t kShardMinNnz = 32768;

struct ShardGrid {
  std::size_t n = 0;
  std::size_t width = 0;

  std::size_t count() const { return (n + width - 1) / width; }
};

ShardGrid solve_grid(const CsrMatrix& p) {
  const std::size_t n = p.rows();
  if (n < kShardMinStates || p.nnz() < kShardMinNnz) return {n, n};
  exec::count("markov.sharded_solves");
  return {n, kShardCols};
}

// The pool a solve sweeps on: solve-local, at most one member per shard so
// none idles (a size-1 pool runs the shard loop inline).
std::size_t pool_size(const ShardGrid& grid, const SolveOptions& opts) {
  return std::min(exec::resolve_threads(opts.threads), grid.count());
}

}  // namespace

SlicedSweep plan_sweep(const CsrMatrix& pt, Sweep sweep, const double* denom,
                       std::size_t cut) {
  constexpr std::size_t kLanes = simd::kLanes;
  const std::size_t n = pt.rows();
  const bool gs = sweep != Sweep::kJacobi;
  if (gs && n > std::numeric_limits<std::uint32_t>::max() / 2) {
    throw holms::InvalidArgument("sparse_gauss_seidel: too many states");
  }
  const bool backward = sweep == Sweep::kBackward;
  const std::size_t out_half = gs && !backward ? n : 0;
  const std::size_t in_half = backward ? n : 0;
  const auto reads_new = [&](std::size_t r, std::size_t c) {
    return backward ? r > c : gs && r < c;
  };
  // Column c's sources as the sweep reads them: buffer index and entry.
  const auto sources = [&](std::size_t c, auto&& f) {
    const auto cols = pt.row_cols(c);
    const auto vals = pt.row_vals(c);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const std::size_t r = cols[i];
      if (gs && r == c) continue;
      const std::size_t half = reads_new(r, c) ? out_half : in_half;
      f(r, static_cast<std::uint32_t>(half + r), vals[i]);
    }
  };
  std::vector<std::uint32_t> len(n);
  std::size_t long_entries = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const auto cols = pt.row_cols(c);
    len[c] = static_cast<std::uint32_t>(cols.size());
    if (gs && std::binary_search(cols.begin(), cols.end(), c)) --len[c];
    if (len[c] >= kLanes) long_entries += len[c];
  }

  // Groups `seq` into steps: short columns up to 8 to a slice, consecutive
  // long ones into a run, and a new step wherever `breaks` says.  Records
  // the first position of each step and of each cut; returns false when a
  // slice column reads a value its own slice writes.  (A run sweeps its
  // columns in order, so it may read its own earlier columns.)
  std::vector<std::uint32_t> seq(n);
  for (std::size_t i = 0; i < n; ++i) {
    seq[i] = static_cast<std::uint32_t>(backward ? n - 1 - i : i);
  }
  const auto is_long = [&](std::size_t c) { return len[c] >= kLanes; };
  std::vector<std::size_t> starts, cuts, step_of(n);
  const auto group = [&](auto&& breaks) {
    starts.clear();
    cuts.clear();
    bool ok = true;
    std::size_t open = 0;  // columns in the open step
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = seq[i];
      if (breaks(i)) {
        cuts.push_back(starts.size());
        open = 0;
      }
      if (open > 0 && (is_long(c) != is_long(seq[i - 1]) ||
                       (!is_long(c) && open == kLanes))) {
        open = 0;
      }
      if (open++ == 0) starts.push_back(i);
      step_of[c] = starts.size();
      if (!gs || is_long(c)) continue;
      sources(c, [&](std::size_t r, std::uint32_t, double) {
        ok = ok && !(reads_new(r, c) && step_of[r] == step_of[c]);
      });
    }
    cuts.push_back(starts.size());
    return ok;
  };
  if (!group([&](std::size_t i) { return i % cut == 0; })) {
    // A column's level is one past the deepest column it reads new, so no
    // level reads a value written in its own level.
    std::vector<std::uint32_t> level(n, 0);
    for (const std::uint32_t c : seq) {
      sources(c, [&](std::size_t r, std::uint32_t, double) {
        if (reads_new(r, c)) level[c] = std::max(level[c], level[r] + 1);
      });
    }
    std::stable_sort(seq.begin(), seq.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return level[a] < level[b];
                     });
    group([&](std::size_t i) {
      return i == 0 || level[seq[i]] != level[seq[i - 1]];
    });
    cuts = {0, starts.size()};
  }

  SlicedSweep plan;
  plan.divide = gs;
  plan.cuts = std::move(cuts);
  plan.steps.resize(starts.size());
  plan.long_idx.resize(long_entries);
  plan.long_vals.resize(long_entries);
  std::size_t long_at = 0;
  const std::size_t bound = gs ? 2 * n : n;
  for (std::size_t s = 0; s < starts.size(); ++s) {
    const std::size_t b = starts[s];
    const std::size_t e = s + 1 < starts.size() ? starts[s + 1] : n;
    simd::SweepStep& st = plan.steps[s];
    if (is_long(seq[b])) {  // a run: each column's entries in order
      st.row = static_cast<std::uint32_t>(plan.long_cols.size());
      st.rows = static_cast<std::uint32_t>(e - b);
      for (std::size_t i = b; i < e; ++i) {
        const std::uint32_t c = seq[i];
        plan.long_cols.push_back({long_at, gs ? denom[c] : 1.0,
                                  static_cast<std::uint32_t>(out_half + c)});
        sources(c, [&](std::size_t, std::uint32_t at, double v) {
          plan.long_idx[long_at] = at;
          plan.long_vals[long_at++] = v;
        });
      }
      continue;
    }
    // A slice: lane k is column seq[b + k].
    st.row = static_cast<std::uint32_t>(plan.base.size());
    std::uint32_t at[kLanes][kLanes - 1] = {};
    double val[kLanes][kLanes - 1] = {};
    std::uint32_t lane_len[kLanes] = {};
    st.lanes = static_cast<std::uint32_t>(e - b);
    for (std::size_t k = 0; k < st.lanes; ++k) {
      const std::uint32_t c = seq[b + k];
      std::uint32_t j = 0;
      sources(c, [&](std::size_t, std::uint32_t a, double v) {
        at[k][j] = a;
        val[k][j++] = v;
      });
      lane_len[k] = j;
      st.rows = std::max(st.rows, j);
      st.col[k] = static_cast<std::uint32_t>(out_half + c);
      st.denom[k] = gs ? denom[c] : 1.0;
    }
    st.full = st.rows;
    for (std::size_t k = 0; k < kLanes; ++k) {
      if (k < st.lanes) st.full = std::min(st.full, lane_len[k]);
      // An unused lane is computed and dropped; it never masks a row.
      st.len[k] = static_cast<double>(k < st.lanes ? lane_len[k] : st.rows);
    }
    st.consecutive = st.lanes == kLanes;
    for (std::size_t k = 1; k < kLanes; ++k) {
      st.consecutive = st.consecutive && st.col[k] == st.col[0] + k;
    }
    plan.base.resize(st.row + st.rows);
    plan.idx.resize(kLanes * plan.base.size());
    plan.vals.resize(plan.idx.size());
    for (std::uint32_t j = 0; j < st.rows; ++j) {
      // Lanes past their length read a source the kernel masks out: the
      // consecutive one where the used lanes' sources allow a load, else
      // the first used lane's.
      std::size_t first = 0;
      while (j >= lane_len[first]) ++first;
      const std::size_t a = at[first][j];
      bool run = a >= first && a - first + kLanes <= bound;
      const std::size_t lo = run ? a - first : 0;
      for (std::size_t k = 0; k < st.lanes && run; ++k) {
        run = j >= lane_len[k] || at[k][j] == lo + k;
      }
      plan.base[st.row + j] = run ? static_cast<std::uint32_t>(lo)
                                  : simd::kScattered;
      std::uint32_t* idx = &plan.idx[kLanes * (st.row + j)];
      double* vals = &plan.vals[kLanes * (st.row + j)];
      for (std::size_t k = 0; k < kLanes; ++k) {
        const bool used = k < st.lanes && j < lane_len[k];
        idx[k] = used  ? at[k][j]
                 : run ? static_cast<std::uint32_t>(lo + k)
                       : at[first][j];
        vals[k] = used ? val[k][j] : 0.0;
      }
    }
  }
  plan.long_cols.push_back({long_at, 1.0, 0});  // ends the last long column
  return plan;
}

CsrMatrix::CsrMatrix(std::size_t cols, std::span<const SparseRow> rows)
    : rows_(rows.size()), cols_(cols) {
  std::size_t nnz = 0;
  for (const SparseRow& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].col >= cols || (i > 0 && row[i].col <= row[i - 1].col)) {
        throw holms::InvalidArgument(
            "CsrMatrix: row columns must be increasing and below cols");
      }
      if (row[i].value != 0.0) ++nnz;
    }
  }
  offsets_.reserve(rows_ + 1);
  offsets_.push_back(0);
  cols_idx_.reserve(nnz);
  vals_.reserve(nnz);
  for (const SparseRow& row : rows) {
    for (const RowEntry& e : row) {
      if (e.value == 0.0) continue;
      cols_idx_.push_back(static_cast<std::uint32_t>(e.col));
      vals_.push_back(e.value);
    }
    offsets_.push_back(vals_.size());
  }
}

CsrMatrix CsrMatrix::transposed() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  // Counting sort by column: offsets first, then stable placement.  Scanning
  // source rows in order makes each transposed row's entries arrive in
  // increasing (source-row = transposed-column) order — the strictly
  // ascending source order the simd kernels' gather run-detection relies on.
  t.offsets_.assign(cols_ + 1, 0);
  for (const std::uint32_t c : cols_idx_) ++t.offsets_[c + 1];
  for (std::size_t i = 0; i < cols_; ++i) t.offsets_[i + 1] += t.offsets_[i];
  t.cols_idx_.resize(nnz());
  t.vals_.resize(nnz());
  std::vector<std::size_t> fill(t.offsets_.begin(), t.offsets_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto cols = row_cols(r);
    const auto vals = row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const std::size_t slot = fill[cols[i]]++;
      t.cols_idx_[slot] = static_cast<std::uint32_t>(r);
      t.vals_[slot] = vals[i];
    }
  }
  return t;
}

SolveResult sparse_power_iteration(const CsrMatrix& p,
                                   const SolveOptions& opts) {
  const std::size_t n = p.rows();
  SolveResult res;
  if (n == 0) return res;
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);

  // Gather form on the transpose: next[c] = sum_r pi[r] * P[r, c], each
  // column reduced in ascending source-row order as spmv_cols reduces it.
  // Serial and sharded execution run the identical plan — a shard is a
  // range of its steps and no step reads another's output — so the iterate
  // sequence is a function of the problem alone: bitwise invariant to the
  // thread count, the shard grid, and the ISA.
  const auto& k = simd::kernels();
  const ShardGrid grid = solve_grid(p);
  const SlicedSweep plan =
      plan_sweep(p.transposed(), Sweep::kJacobi, nullptr, grid.width);
  const simd::SweepPlan view = plan.view();
  exec::ThreadPool pool(pool_size(grid, opts));
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    pool.parallel_for(grid.count(), [&](std::size_t s) {
      k.sweep(view, plan.cuts[s], plan.cuts[s + 1], pi.data(), next.data());
    });
    const double delta = l1_delta(pi, next);  // serial, fixed order
    pi.swap(next);
    res.iterations = it + 1;
    if (delta < opts.tolerance) {
      res.converged = true;
      break;
    }
  }
  normalize(pi);
  res.distribution = std::move(pi);
  return res;
}

SolveResult sparse_gauss_seidel(const CsrMatrix& p, const SolveOptions& opts) {
  const std::size_t n = p.rows();
  SolveResult res;
  if (n == 0) return res;
  // Column c solves pi[c] (1 - p_cc) = sum_{r != c} pi[r] p_rc, so the
  // sweeps skip the transpose's diagonal and 1 - p_cc (1 for an absorbing
  // state) is the column's divisor.
  std::vector<double> denom(n, 1.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto cols = p.row_cols(r);
    const auto vals = p.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == r && vals[i] < 1.0) denom[r] = 1.0 - vals[i];
    }
  }
  const auto sweeps = [&] {
    const CsrMatrix pt = p.transposed();
    return std::array{plan_sweep(pt, Sweep::kForward, denom.data(), n),
                      plan_sweep(pt, Sweep::kBackward, denom.data(), n)};
  }();

  // Symmetric Gauss–Seidel: a forward sweep then a backward one, then one
  // normalization.  Each sweep gives every column the value the in-place
  // sequential sweep gives it.  A forward-only sweep stalls in a period-2
  // cycle on the tandem queue at even level counts, and a backward-only one
  // on the same chain with its states reversed; the symmetric sweep
  // converges in either order.  Serial at every size, so the iterates depend
  // on the chain alone.
  const auto& k = simd::kernels();
  exec::aligned_vector<double> x(2 * n, 1.0 / static_cast<double>(n));
  const std::span<double> pi(x.data(), n);
  std::vector<double> prev(n, 0.0);
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    std::copy(pi.begin(), pi.end(), prev.begin());
    for (const SlicedSweep& s : sweeps) {
      k.sweep(s.view(), 0, s.steps.size(), x.data(), x.data());
    }
    normalize(pi);
    const double delta = l1_delta(prev, pi);
    res.iterations = it + 1;
    if (delta < opts.tolerance) {
      res.converged = true;
      break;
    }
  }
  res.distribution.assign(pi.begin(), pi.end());
  return res;
}

}  // namespace holms::markov
