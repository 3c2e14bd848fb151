// Sparse revised simplex with an LU + eta-file basis factorization and warm
// starting.  See simplex.hpp for the design overview.
//
// Standard form used internally (the shape-stable encoding of SimplexBasis):
// rows are normalized to rhs >= 0, every variable is non-negative, and the
// column space is
//   [0, n)            structural variables,
//   [n, n + m)        per-row auxiliary: slack (LessEq, +1),
//                     surplus (GreaterEq, -1), artificial (Eq, +1),
//   [n + m, n + 2m)   phase-1 artificial of GreaterEq rows (+1).
// Artificial columns never *enter* the basis; they only leave (or stay
// pinned at zero on redundant rows, guarded by the ratio test).
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tolerance/lp/simplex.hpp"
#include "tolerance/util/ensure.hpp"

namespace tolerance::lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr long kMaxIterations = 200000;
constexpr double kEps = 1e-9;  // pivot / feasibility tolerance
// Partial pricing: eligible columns scanned per iteration before the best
// candidate is taken.
constexpr int kPriceWindow = 192;
// Pivots between reinversions of the base factorization.
constexpr int kRefactorInterval = 96;
// Dual-simplex pivots spent repairing a warm basis before a cold solve.
constexpr int kDualRepairLimit = 400;
// Threshold pivoting in the Markowitz reinversion: rows within this factor
// of the largest transformed entry are acceptable pivots.
constexpr double kMarkowitzThreshold = 0.01;

enum class ColKind : unsigned char { Structural, Slack, Surplus, Artificial };

// One product-form eta: the transformed entering column w = B^{-1} a_q with
// pivot row r.  Applying the eta to x (FTRAN direction):
//   t = x[r] / w[r];  x[i] -= w[i] * t (i != r);  x[r] = t.
// BTRAN direction: y[r] = (y[r] - sum_{i != r} y[i] w[i]) / w[r].
struct Eta {
  int row = 0;
  double pivot = 0.0;                          // w[row]
  std::vector<std::pair<int, double>> terms;   // (i, w[i]) for i != row
};

// One step of the elimination-form (LU) base factorization.  Unlike the
// Gauss-Jordan eta above — whose file densifies toward nnz(B^{-1}) ~ m^2/2
// on the near-banded occupancy bases no matter how columns are ordered —
// the elimination form stores the LU factors themselves, so a good
// (Markowitz) pivot order keeps the file near nnz(B).
//   FTRAN x := B^{-1} x:
//     forward  (L): t = x[row];          x[i] -= m_i * t        (lower)
//     backward (U): z = x[row] / pivot;  x[r_j] -= u_j * z;  x[row] = z
//   BTRAN y := B^{-T} y:
//     forward  (U^T): y[row] = (y[row] - sum u_j y[r_j]) / pivot
//     backward (L^T): y[row] -= sum m_i y[i]
struct LuStep {
  int row = 0;        // pivot row of this step
  double pivot = 0.0;
  std::vector<std::pair<int, double>> lower;  // (i, multiplier), unpivoted i
  std::vector<std::pair<int, double>> upper;  // (r_j, value), earlier pivots
};

struct Problem {
  std::size_t m = 0;  // rows
  std::size_t n = 0;  // structural columns
  // Structural columns, CSC with row-sign normalization applied.  Duplicate
  // (row, col) entries are allowed — every consumer accumulates.
  std::vector<std::size_t> cptr;
  std::vector<int> crow;
  std::vector<double> cval;
  std::vector<double> rhs;       // >= 0 after normalization
  /// rhs with a deterministic, row-indexed micro-perturbation.  The LP
  /// family behind Algorithm 2 is massively degenerate (every flow-balance
  /// row has rhs 0), and pure Dantzig/Bland pivoting cycles on it once
  /// reduced costs carry any factorization noise.  Perturbing the rhs makes
  /// ratio-test ties vanish so every pivot strictly improves, which is the
  /// standard anti-degeneracy device of production codes.  Optimality of a
  /// basis (reduced costs >= 0) does not depend on the rhs, so the final
  /// basis is re-evaluated against the true rhs — and dual-simplex repaired
  /// in the rare case the perturbation was load-bearing for feasibility.
  std::vector<double> rhs_pert;
  std::vector<Relation> rel;     // normalized relations
  std::vector<double> objective; // structural objective

  std::size_t num_cols() const { return n + 2 * m; }

  ColKind kind(std::size_t j) const {
    if (j < n) return ColKind::Structural;
    if (j < n + m) {
      switch (rel[j - n]) {
        case Relation::LessEq: return ColKind::Slack;
        case Relation::GreaterEq: return ColKind::Surplus;
        case Relation::Eq: return ColKind::Artificial;
      }
    }
    return ColKind::Artificial;
  }

  bool is_artificial(std::size_t j) const {
    return kind(j) == ColKind::Artificial;
  }

  /// Row of the single +-1 entry of an auxiliary/artificial column.
  std::size_t aux_row(std::size_t j) const {
    return j < n + m ? j - n : j - n - m;
  }

  /// Does column j exist in this LP?  (n + m + i only for GreaterEq rows.)
  bool col_exists(std::size_t j) const {
    if (j < n + m) return true;
    return j < n + 2 * m && rel[j - n - m] == Relation::GreaterEq;
  }

  /// Accumulate column j into a dense work vector: work += scale * a_j.
  void scatter(std::size_t j, double scale, std::vector<double>& work) const {
    if (j < n) {
      for (std::size_t k = cptr[j]; k < cptr[j + 1]; ++k) {
        work[static_cast<std::size_t>(crow[k])] += scale * cval[k];
      }
    } else {
      const double sign = kind(j) == ColKind::Surplus ? -1.0 : 1.0;
      work[aux_row(j)] += scale * sign;
    }
  }

  /// Dense-vector / column dot product y^T a_j.
  double dot(const std::vector<double>& y, std::size_t j) const {
    if (j < n) {
      double acc = 0.0;
      for (std::size_t k = cptr[j]; k < cptr[j + 1]; ++k) {
        acc += y[static_cast<std::size_t>(crow[k])] * cval[k];
      }
      return acc;
    }
    const double sign = kind(j) == ColKind::Surplus ? -1.0 : 1.0;
    return y[aux_row(j)] * sign;
  }

  double cost(std::size_t j, bool phase1) const {
    if (phase1) return is_artificial(j) ? 1.0 : 0.0;
    return j < n ? objective[j] : 0.0;
  }
};

Problem build_problem(const LinearProgram& lp) {
  Problem p;
  p.m = lp.constraints.size();
  p.n = static_cast<std::size_t>(lp.num_vars);
  p.objective = lp.objective;
  p.rhs.resize(p.m);
  p.rel.resize(p.m);

  std::vector<double> sign(p.m, 1.0);
  for (std::size_t i = 0; i < p.m; ++i) {
    p.rel[i] = lp.constraints[i].relation;
    p.rhs[i] = lp.constraints[i].rhs;
    if (p.rhs[i] < 0.0) {
      sign[i] = -1.0;
      p.rhs[i] = -p.rhs[i];
      if (p.rel[i] == Relation::LessEq) {
        p.rel[i] = Relation::GreaterEq;
      } else if (p.rel[i] == Relation::GreaterEq) {
        p.rel[i] = Relation::LessEq;
      }
    }
  }

  // CSC transpose of the row-wise constraint storage.
  std::vector<std::size_t> count(p.n, 0);
  for (const auto& con : lp.constraints) {
    for (const auto& [var, coeff] : con.terms) {
      TOL_ENSURE(var >= 0 && var < lp.num_vars, "constraint variable index");
      (void)coeff;
      ++count[static_cast<std::size_t>(var)];
    }
  }
  p.cptr.assign(p.n + 1, 0);
  for (std::size_t j = 0; j < p.n; ++j) p.cptr[j + 1] = p.cptr[j] + count[j];
  p.crow.resize(p.cptr[p.n]);
  p.cval.resize(p.cptr[p.n]);
  std::vector<std::size_t> fill = std::vector<std::size_t>(p.cptr.begin(),
                                                           p.cptr.end() - 1);
  for (std::size_t i = 0; i < p.m; ++i) {
    for (const auto& [var, coeff] : lp.constraints[i].terms) {
      const auto j = static_cast<std::size_t>(var);
      p.crow[fill[j]] = static_cast<int>(i);
      p.cval[fill[j]] = sign[i] * coeff;
      ++fill[j];
    }
  }
  p.rhs_pert.resize(p.m);
  for (std::size_t i = 0; i < p.m; ++i) {
    p.rhs_pert[i] = p.rhs[i] + 1e-9 * (1.0 + p.rhs[i]) *
                                   (static_cast<double>(i + 1) /
                                    static_cast<double>(p.m));
  }
  return p;
}

class RevisedCore {
 public:
  RevisedCore(const Problem& p, const SimplexSolver::Options& opt)
      : p_(p), opt_(opt), basis_(p.m, -1), pos_(p.num_cols(), -1),
        banned_(p.num_cols(), 0), xb_(p.m, 0.0), work_(p.m, 0.0) {}

  // --- basis bookkeeping ---------------------------------------------------

  void set_basis(const std::vector<int>& basic) {
    std::fill(pos_.begin(), pos_.end(), -1);
    basis_ = basic;
    for (std::size_t r = 0; r < p_.m; ++r) {
      pos_[static_cast<std::size_t>(basis_[r])] = static_cast<int>(r);
    }
  }

  const std::vector<int>& basis() const { return basis_; }
  long iterations() const { return iterations_; }
  std::size_t eta_nnz() const { return eta_nnz_; }

  // --- factorization -------------------------------------------------------

  /// Rebuild the base factorization from the current basis: a sparse LU
  /// in elimination form with dynamic nnz-minimizing (Markowitz) pivot
  /// ordering.  The next column is the one with the fewest nonzeros in
  /// still-unpivoted rows; its pivot row is the numerically acceptable
  /// (threshold-pivoted) row shared with the fewest remaining columns.  A
  /// permuted-triangular basis factors with zero fill under this order, and
  /// the occupancy LP's bases — a sparse kernel bump over near-banded flow
  /// rows — stay close to that, so the file stays near nnz(B) instead of
  /// the ~m^2/2 a Gauss-Jordan product-form inverse accumulates (the fill
  /// that kept the cold Fig. 9 smax=2048 solve at dense-tableau parity).
  ///
  /// Returns false on a (numerically) singular basis.  On success the
  /// row <-> basic-column assignment may be permuted, which is fine: a
  /// basis is a column set, the row map is bookkeeping.
  bool factorize() {
    std::vector<LuStep> fresh;
    fresh.reserve(p_.m);
    std::size_t fresh_nnz = 0;
    std::vector<char> row_done(p_.m, 0);
    std::vector<int> new_basis(p_.m, -1);

    // Apply the L-part of the steps so far to work_, emit the next step
    // with pivot row `row` (entries in pivoted rows become the U column,
    // entries in unpivoted rows the L multipliers).
    const auto transform = [&](int cj) {
      std::fill(work_.begin(), work_.end(), 0.0);
      p_.scatter(static_cast<std::size_t>(cj), 1.0, work_);
      for (const LuStep& s : fresh) {
        const double t = work_[static_cast<std::size_t>(s.row)];
        if (t != 0.0) {
          for (const auto& [i, m] : s.lower) {
            work_[static_cast<std::size_t>(i)] -= m * t;
          }
        }
      }
    };
    const auto eliminate = [&](int cj, std::size_t row) {
      LuStep s;
      s.row = static_cast<int>(row);
      s.pivot = work_[row];
      for (std::size_t i = 0; i < p_.m; ++i) {
        if (i == row || work_[i] == 0.0) continue;
        if (row_done[i]) {
          s.upper.push_back({static_cast<int>(i), work_[i]});
        } else {
          s.lower.push_back({static_cast<int>(i), work_[i] / s.pivot});
        }
      }
      fresh_nnz += s.lower.size() + s.upper.size() + 1;
      fresh.push_back(std::move(s));
      row_done[row] = 1;
      new_basis[row] = cj;
    };
    const auto singular = [&]() {
      factor_ok_ = false;
      return false;
    };

    // Unit (aux/artificial) columns first: single ±1 entry, fixed row, no
    // fill.  Two unit columns sharing a row (slack + artificial of one
    // constraint) make the basis singular and are caught here.
    std::vector<int> structural;
    for (const int cj : basis_) {
      const auto j = static_cast<std::size_t>(cj);
      if (j < p_.n) {
        structural.push_back(cj);
        continue;
      }
      const std::size_t row = p_.aux_row(j);
      if (row_done[row]) return singular();
      transform(cj);
      if (std::fabs(work_[row]) <= 1e-12) return singular();
      eliminate(cj, row);
    }
    std::sort(structural.begin(), structural.end());

    // Markowitz bookkeeping on the *original* patterns (fill rows created
    // by earlier steps still qualify as pivot rows; they just do not drive
    // the ordering).
    const std::size_t k = structural.size();
    std::vector<std::size_t> active(k, 0);     // unpivoted pattern rows
    std::vector<std::size_t> degree(p_.m, 0);  // remaining cols per row
    std::vector<std::vector<std::size_t>> cols_of_row(p_.m);
    for (std::size_t c = 0; c < k; ++c) {
      const auto j = static_cast<std::size_t>(structural[c]);
      for (std::size_t t = p_.cptr[j]; t < p_.cptr[j + 1]; ++t) {
        const auto r = static_cast<std::size_t>(p_.crow[t]);
        if (row_done[r]) continue;  // taken by a unit column
        ++active[c];
        ++degree[r];
        cols_of_row[r].push_back(c);
      }
    }
    std::vector<char> col_done(k, 0);
    for (std::size_t step = 0; step < k; ++step) {
      // Next column: fewest unpivoted pattern rows; ties go to the lower
      // column index (deterministic).
      std::size_t best_c = k;
      for (std::size_t c = 0; c < k; ++c) {
        if (col_done[c]) continue;
        if (best_c == k || active[c] < active[best_c]) best_c = c;
      }
      const int cj = structural[best_c];
      transform(cj);
      double vmax = 0.0;
      for (std::size_t i = 0; i < p_.m; ++i) {
        if (!row_done[i]) vmax = std::max(vmax, std::fabs(work_[i]));
      }
      if (vmax <= 1e-12) return singular();
      // Threshold pivoting: among rows within kMarkowitzThreshold of the
      // largest transformed entry, take the one shared with the fewest
      // remaining columns (least prospective fill), breaking ties toward
      // the larger magnitude.  The largest entry always qualifies.
      const double floor = std::max(1e-12, kMarkowitzThreshold * vmax);
      std::size_t best_row = p_.m;
      for (std::size_t i = 0; i < p_.m; ++i) {
        if (row_done[i] || std::fabs(work_[i]) < floor) continue;
        if (best_row == p_.m || degree[i] < degree[best_row] ||
            (degree[i] == degree[best_row] &&
             std::fabs(work_[i]) > std::fabs(work_[best_row]))) {
          best_row = i;
        }
      }
      if (best_row == p_.m) return singular();  // defensive: cannot happen
      eliminate(cj, best_row);
      col_done[best_c] = 1;
      // The chosen column's pattern rows lose one prospective column; the
      // chosen row's columns lose one unpivoted row.
      {
        const auto j = static_cast<std::size_t>(cj);
        for (std::size_t t = p_.cptr[j]; t < p_.cptr[j + 1]; ++t) {
          const auto r = static_cast<std::size_t>(p_.crow[t]);
          if (degree[r] > 0) --degree[r];
        }
      }
      for (const std::size_t c : cols_of_row[best_row]) {
        if (!col_done[c] && active[c] > 0) --active[c];
      }
    }
    lu_ = std::move(fresh);
    etas_.clear();
    eta_nnz_ = fresh_nnz;
    set_basis(new_basis);
    pivots_since_factor_ = 0;
    factor_ok_ = true;
    return true;
  }

  /// x_B = B^{-1} rhs, recomputed from the factorization.  Reads whichever
  /// rhs mode is active (set_perturbed): cold phase 1 runs against the
  /// perturbed rhs (see Problem::rhs_pert); phase 2, warm starts and the
  /// terminal extraction use the true rhs.
  void compute_xb() {
    const auto& b = use_perturbed_ ? p_.rhs_pert : p_.rhs;
    std::copy(b.begin(), b.end(), xb_.begin());
    apply_etas_ftran(xb_);
  }

  void set_perturbed(bool on) { use_perturbed_ = on; }

  double min_xb() const {
    double lo = 0.0;
    for (double v : xb_) lo = std::min(lo, v);
    return lo;
  }

  // --- FTRAN / BTRAN -------------------------------------------------------

  static void apply_one_ftran(const Eta& e, std::vector<double>& x) {
    const auto r = static_cast<std::size_t>(e.row);
    const double t = x[r] / e.pivot;
    if (t != 0.0) {
      for (const auto& [i, w] : e.terms) {
        x[static_cast<std::size_t>(i)] -= w * t;
      }
    }
    x[r] = t;
  }

  /// x := B^{-1} x through the LU base factorization followed by the
  /// update etas pushed since.
  void apply_etas_ftran(std::vector<double>& x) const {
    for (const LuStep& s : lu_) {  // L forward
      const double t = x[static_cast<std::size_t>(s.row)];
      if (t != 0.0) {
        for (const auto& [i, m] : s.lower) {
          x[static_cast<std::size_t>(i)] -= m * t;
        }
      }
    }
    for (auto it = lu_.rbegin(); it != lu_.rend(); ++it) {  // U backward
      const auto r = static_cast<std::size_t>(it->row);
      const double z = x[r] / it->pivot;
      x[r] = z;
      if (z != 0.0) {
        for (const auto& [j, u] : it->upper) {
          x[static_cast<std::size_t>(j)] -= u * z;
        }
      }
    }
    for (const Eta& e : etas_) apply_one_ftran(e, x);
  }

  /// y := B^{-T} y — the exact transpose of apply_etas_ftran, applied in
  /// reverse: update etas backward, then U^T forward, then L^T backward.
  void apply_etas_btran(std::vector<double>& y) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      const auto r = static_cast<std::size_t>(it->row);
      double acc = y[r];
      for (const auto& [i, w] : it->terms) {
        acc -= y[static_cast<std::size_t>(i)] * w;
      }
      y[r] = acc / it->pivot;
    }
    for (const LuStep& s : lu_) {  // U^T forward
      const auto r = static_cast<std::size_t>(s.row);
      double acc = y[r];
      for (const auto& [j, u] : s.upper) {
        acc -= y[static_cast<std::size_t>(j)] * u;
      }
      y[r] = acc / s.pivot;
    }
    for (auto it = lu_.rbegin(); it != lu_.rend(); ++it) {  // L^T backward
      const auto r = static_cast<std::size_t>(it->row);
      double acc = y[r];
      for (const auto& [i, m] : it->lower) {
        acc -= y[static_cast<std::size_t>(i)] * m;
      }
      y[r] = acc;
    }
  }

  /// y^T = c_B^T B^{-1} for the given phase's objective.
  void compute_duals(bool phase1, std::vector<double>& y) const {
    y.assign(p_.m, 0.0);
    for (std::size_t r = 0; r < p_.m; ++r) {
      y[r] = p_.cost(static_cast<std::size_t>(basis_[r]), phase1);
    }
    apply_etas_btran(y);
  }

  // --- primal simplex ------------------------------------------------------

  /// Run primal iterations on the current (primal-feasible) basis.  Returns
  /// Optimal, Unbounded or IterationLimit.
  LpStatus primal(bool phase1) {
    long stall = 0;
    std::vector<double> y;
    bool verified = false;  // optimality re-checked on a fresh factorization
    int failed_certifications = 0;
    while (true) {
      if (iterations_ >= kMaxIterations) return LpStatus::IterationLimit;
      maybe_refactor();
      compute_duals(phase1, y);
      const bool bland = stall > opt_.bland_stall_threshold;
      const std::size_t enter = price(phase1, y, bland);
      if (enter == kNoCol) {
        // A full pricing pass found no candidate.  Guard against a stale
        // eta file (or columns parked by pivot rejection) declaring a false
        // optimum: refactorize once, clear the parked set, and re-check.
        if ((verified || factorization_fresh()) && !banned_dirty_) {
          return LpStatus::Optimal;
        }
        refactor_now();
        clear_banned();
        // Only a *successful* reinversion certifies the terminal verdict;
        // a basis that cannot be refactorized leaves dubious numerics, and
        // after a bounded number of attempts the honest answer is
        // IterationLimit rather than a drifted "Optimal".
        verified = factor_ok();
        if (!verified && ++failed_certifications >= 2) {
          return LpStatus::IterationLimit;
        }
        continue;
      }

      std::fill(work_.begin(), work_.end(), 0.0);
      p_.scatter(enter, 1.0, work_);
      apply_etas_ftran(work_);

      const std::size_t leave = ratio_test(work_, phase1, bland);
      if (leave == kNoRow) {
        if (!verified && !factorization_fresh()) {  // numerical guard
          refactor_now();
          verified = factor_ok();
          if (!verified && ++failed_certifications >= 2) {
            return LpStatus::IterationLimit;
          }
          continue;
        }
        return LpStatus::Unbounded;
      }
      // Pivot-size discipline: a tiny pivot element means the entering
      // column is numerically almost inside span(B); admitting it wrecks
      // the basis conditioning (reinversion then reports singularity).
      // Park the column and re-price.  Right after a fresh factorization
      // the transformed column is as accurate as it gets, so accept then —
      // genuinely ill-conditioned optimal bases remain reachable.
      if (!bland && !verified && std::fabs(work_[leave]) < 1e-7) {
        ban(enter);
        continue;
      }
      verified = false;
      const double theta = work_[leave] > kEps
                               ? std::max(0.0, xb_[leave]) / work_[leave]
                               : 0.0;  // pinned artificial, either sign
      stall = theta <= 1e-12 ? stall + 1 : 0;
      pivot(enter, leave, theta);
      clear_banned();
    }
  }

  /// Dual-simplex repair: restore primal feasibility of a dual-feasible
  /// basis (after an rhs change) without re-running phase 1.  Returns
  /// Optimal when x_B >= -tol, Infeasible when a row proves the LP has no
  /// feasible point, IterationLimit when the repair budget runs out.
  LpStatus dual_repair() {
    std::vector<double> y, row(p_.m, 0.0);
    for (int it = 0; it < kDualRepairLimit; ++it) {
      std::size_t leave = kNoRow;
      double most_neg = -1e-7;
      for (std::size_t r = 0; r < p_.m; ++r) {
        if (xb_[r] < most_neg) {
          most_neg = xb_[r];
          leave = r;
        }
      }
      if (leave == kNoRow) return LpStatus::Optimal;

      compute_duals(/*phase1=*/false, y);
      // Pivot row: alpha_j = (B^{-T} e_r)^T a_j over the nonbasic columns.
      std::fill(row.begin(), row.end(), 0.0);
      row[leave] = 1.0;
      apply_etas_btran(row);

      std::size_t enter = kNoCol;
      double best_ratio = kInf;
      for (std::size_t j = 0; j < p_.n + p_.m; ++j) {
        if (pos_[j] >= 0 || p_.is_artificial(j)) continue;
        const double alpha = p_.dot(row, j);
        if (alpha < -kEps) {
          const double d = p_.cost(j, false) - p_.dot(y, j);
          const double ratio = std::max(d, 0.0) / -alpha;
          if (ratio < best_ratio - 1e-12 ||
              (ratio < best_ratio + 1e-12 &&
               (enter == kNoCol || j < enter))) {
            best_ratio = ratio;
            enter = j;
          }
        }
      }
      if (enter == kNoCol) return LpStatus::Infeasible;  // dual unbounded

      std::fill(work_.begin(), work_.end(), 0.0);
      p_.scatter(enter, 1.0, work_);
      apply_etas_ftran(work_);
      if (std::fabs(work_[leave]) <= kEps) {
        return LpStatus::IterationLimit;  // numerically stuck; caller falls back
      }
      const double theta = xb_[leave] / work_[leave];
      pivot(enter, leave, theta);
      maybe_refactor();
    }
    return LpStatus::IterationLimit;
  }

  double phase1_objective() const {
    double total = 0.0;
    for (std::size_t r = 0; r < p_.m; ++r) {
      if (p_.is_artificial(static_cast<std::size_t>(basis_[r]))) {
        total += std::max(0.0, xb_[r]);
      }
    }
    return total;
  }

  bool has_basic_artificial() const {
    for (int b : basis_) {
      if (p_.is_artificial(static_cast<std::size_t>(b))) return true;
    }
    return false;
  }

  /// Refresh the factorization (and x_B) from the current basis.  A
  /// reinversion that fails on near-singularity keeps the incremental eta
  /// file — slightly drifted numerics beat aborting the solve — and backs
  /// off before retrying.
  void refactor_now() {
    // On failure keep the incremental eta file (slightly drifted numerics
    // beat aborting) but remember that this is NOT a fresh factorization:
    // terminal optimality/unboundedness checks must not trust it.
    factor_ok_ = factorize();
    if (!factor_ok_) pivots_since_factor_ = 0;
    compute_xb();  // always: picks up rhs-mode switches and heals drift
  }

  bool factorization_fresh() const {
    return factor_ok_ && pivots_since_factor_ == 0;
  }

  bool factor_ok() const { return factor_ok_; }

  /// Refresh only when pivots happened since the last factorization; a
  /// fresh factorization's x_B is already exact, and at large m one
  /// reinversion is the dominant cost of a warm re-solve.
  void refresh_if_stale() {
    if (pivots_since_factor_ > 0) refactor_now();
  }

 private:
  static constexpr std::size_t kNoCol =
      std::numeric_limits<std::size_t>::max();
  static constexpr std::size_t kNoRow =
      std::numeric_limits<std::size_t>::max();

  void maybe_refactor() {
    // The LU reinversion is cheap enough that a fixed cadence wins: it
    // keeps the dense-ish update etas from dominating the sweeps.
    if (pivots_since_factor_ >= kRefactorInterval) refactor_now();
  }

  void ban(std::size_t j) {
    banned_[j] = 1;
    banned_dirty_ = true;
  }

  void clear_banned() {
    if (banned_dirty_) {
      std::fill(banned_.begin(), banned_.end(), 0);
      banned_dirty_ = false;
    }
  }

  void push_eta(std::size_t row, const std::vector<double>& w) {
    Eta e;
    e.row = static_cast<int>(row);
    e.pivot = w[row];
    for (std::size_t i = 0; i < p_.m; ++i) {
      if (i != row && w[i] != 0.0) {
        e.terms.push_back({static_cast<int>(i), w[i]});
      }
    }
    eta_nnz_ += e.terms.size() + 1;
    etas_.push_back(std::move(e));
  }

  /// Partial pricing: scan eligible columns in a rotating window starting at
  /// the cursor, keep the best Dantzig candidate of the first window that
  /// has one; a full wrap with no candidate means optimal.  Bland mode scans
  /// from column 0 and takes the first eligible column.
  std::size_t price(bool phase1, const std::vector<double>& y, bool bland) {
    const std::size_t scan_end = p_.n + p_.m;  // artificials never enter
    std::size_t best = kNoCol;
    double best_d = -kEps;
    std::size_t scanned = 0;
    std::size_t j = bland ? 0 : cursor_ % scan_end;
    int window_left = kPriceWindow;
    while (scanned < scan_end) {
      if (pos_[j] < 0 && !banned_[j] && !p_.is_artificial(j)) {
        const double d = p_.cost(j, phase1) - p_.dot(y, j);
        if (d < -kEps) {
          if (bland) return j;
          if (d < best_d) {
            best_d = d;
            best = j;
          }
        }
      }
      ++scanned;
      j = j + 1 == scan_end ? 0 : j + 1;
      if (!bland && --window_left == 0) {
        if (best != kNoCol) break;
        window_left = kPriceWindow;
      }
    }
    if (best != kNoCol) cursor_ = j;
    return best;
  }

  /// Min-ratio test with two refinements over the textbook one:
  ///  * In phase 2, a row whose basic variable is a zero-valued artificial
  ///    (a redundant row left over from phase 1) joins as a ratio-0
  ///    candidate on *either* pivot sign, so an artificial can never grow
  ///    back above zero and silently leave the original feasible region.
  ///  * Ties within a small ratio window are resolved by the largest pivot
  ///    element (Harris-style): this LP family has heavily degenerate
  ///    bases, and always pivoting on the biggest eligible element both
  ///    keeps the basis well-conditioned and breaks the tie patterns that
  ///    make Dantzig cycle.  Under Bland's rule the tie-break reverts to
  ///    the smallest basic column index, preserving its termination proof.
  std::size_t ratio_test(const std::vector<double>& w, bool phase1,
                         bool bland) const {
    std::size_t leave = kNoRow;
    double best_ratio = kInf;
    double best_pivot = 0.0;
    for (std::size_t r = 0; r < p_.m; ++r) {
      const double a = w[r];
      // Artificials carrying only tolerance-level mass (phase 1 ends within
      // the perturbation noise of zero) count as pinned-at-zero.
      const bool art_pin =
          !phase1 && std::fabs(a) > kEps && xb_[r] <= 1e-6 &&
          p_.is_artificial(static_cast<std::size_t>(basis_[r]));
      if (a <= kEps && !art_pin) continue;
      const double ratio = art_pin ? 0.0 : std::max(0.0, xb_[r]) / a;
      if (ratio < best_ratio - 1e-12) {
        best_ratio = ratio;
        best_pivot = std::fabs(a);
        leave = r;
      } else if (ratio <= best_ratio + 1e-12) {
        best_ratio = std::min(best_ratio, ratio);
        const bool better =
            bland ? (leave != kNoRow && basis_[r] < basis_[leave])
                  : std::fabs(a) > best_pivot;
        if (better) {
          best_pivot = std::fabs(a);
          leave = r;
        }
      }
    }
    return leave;
  }

  void pivot(std::size_t enter, std::size_t leave, double theta) {
    if (theta != 0.0) {
      for (std::size_t i = 0; i < p_.m; ++i) xb_[i] -= theta * work_[i];
    }
    xb_[leave] = theta;
    push_eta(leave, work_);
    pos_[static_cast<std::size_t>(basis_[leave])] = -1;
    basis_[leave] = static_cast<int>(enter);
    pos_[enter] = static_cast<int>(leave);
    ++iterations_;
    ++pivots_since_factor_;
  }

  const Problem& p_;
  const SimplexSolver::Options& opt_;
  std::vector<int> basis_;
  std::vector<int> pos_;       // column -> basis row, -1 if nonbasic
  std::vector<char> banned_;   // columns parked by pivot-size rejection
  bool banned_dirty_ = false;
  bool factor_ok_ = true;      // last factorize() attempt succeeded
  bool use_perturbed_ = true;
  std::vector<double> xb_;
  std::vector<double> work_;   // FTRAN scratch (also the last pivot column)
  std::vector<LuStep> lu_;     // base factorization (Markowitz reinversion)
  std::vector<Eta> etas_;      // updates since the last reinversion
  std::size_t eta_nnz_ = 0;
  std::size_t cursor_ = 0;     // partial-pricing rotation state
  long iterations_ = 0;
  int pivots_since_factor_ = 0;
};

bool valid_warm_basis(const Problem& p, const SimplexBasis& warm) {
  if (warm.basic.size() != p.m) return false;
  std::vector<char> seen(p.num_cols(), 0);
  for (int b : warm.basic) {
    if (b < 0 || static_cast<std::size_t>(b) >= p.num_cols()) return false;
    const auto j = static_cast<std::size_t>(b);
    if (!p.col_exists(j) || seen[j]) return false;
    seen[j] = 1;
  }
  return true;
}

}  // namespace

LpSolution SimplexSolver::solve(const LinearProgram& lp) const {
  return solve(lp, SimplexBasis{});
}

LpSolution SimplexSolver::solve(const LinearProgram& lp,
                                const SimplexBasis& warm) const {
  TOL_ENSURE(lp.num_vars > 0, "LP must have at least one variable");
  TOL_ENSURE(static_cast<int>(lp.objective.size()) == lp.num_vars,
             "objective size mismatch");
  const Problem p = build_problem(lp);
  RevisedCore core(p, options_);
  LpSolution sol;

  // --- warm-start attempt --------------------------------------------------
  bool warm_ready = false;  // basis factorized and primal feasible
  if (!warm.empty()) {
    sol.warm_start = WarmStart::Rejected;
    core.set_perturbed(false);  // warm bases are judged against the true rhs
    if (valid_warm_basis(p, warm)) {
      core.set_basis(warm.basic);
      if (core.factorize()) {
        core.compute_xb();
        // A usable warm basis needs x_B >= 0 AND any basic artificials at
        // (near) zero: an artificial absorbing real mass means the basis
        // does not actually satisfy its constraint row — e.g. a basis from
        // an LP where that row was redundant, warm-started on one where it
        // binds — and trusting it would return an infeasible "optimum".
        if (core.min_xb() >= -1e-7 && core.phase1_objective() <= 1e-6) {
          sol.warm_start = WarmStart::PrimalReuse;
          warm_ready = true;
        } else if (core.min_xb() < -1e-7 &&
                   core.phase1_objective() <= 1e-6) {
          const LpStatus st = core.dual_repair();
          if (st == LpStatus::Optimal && core.phase1_objective() <= 1e-6) {
            sol.warm_start = WarmStart::DualRepair;
            warm_ready = true;
          } else if (st == LpStatus::Infeasible) {
            // Dual unboundedness proves primal infeasibility outright.
            sol.status = LpStatus::Infeasible;
            sol.warm_start = WarmStart::DualRepair;
            sol.iterations = core.iterations();
            return sol;
          }
          // IterationLimit: repair budget exhausted — cold solve below.
        }
      }
    }
  }

  // --- cold start: slack/artificial crash basis + phase 1 ------------------
  if (!warm_ready) {
    std::vector<int> crash(p.m);
    for (std::size_t i = 0; i < p.m; ++i) {
      crash[i] = static_cast<int>(p.rel[i] == Relation::GreaterEq
                                      ? p.n + p.m + i   // artificial
                                      : p.n + i);       // slack or artificial
    }
    core.set_basis(crash);
    TOL_ENSURE(core.factorize(), "crash basis must be nonsingular");
    if (core.has_basic_artificial()) {
      // Phase 1 runs against the perturbed rhs: the all-zero flow rows of
      // the occupancy LP make every ratio test tie otherwise, and Dantzig
      // (or even Bland, once factorization noise enters the reduced costs)
      // cycles through degenerate pivots forever.
      core.set_perturbed(true);
      core.compute_xb();
      const LpStatus st = core.primal(/*phase1=*/true);
      if (st != LpStatus::Optimal) {
        // Phase 1 is bounded below by 0; Unbounded here is numerical noise.
        sol.status = st == LpStatus::Unbounded ? LpStatus::IterationLimit : st;
        sol.iterations = core.iterations();
        return sol;
      }
      // Judge feasibility — and run phase 2 — against the true rhs.
      core.set_perturbed(false);
      core.refresh_if_stale();
      core.compute_xb();
      // Slightly looser than the textbook 1e-7: the perturbed phase 1
      // can park tolerance-level mass (~ the injected perturbation, 1e-7
      // sized) on an artificial of a feasible LP; genuinely infeasible
      // LPs overshoot this by orders of magnitude.
      if (core.phase1_objective() > 1e-6) {
        sol.status = LpStatus::Infeasible;
        sol.iterations = core.iterations();
        return sol;
      }
      // Remaining basic artificials sit at zero on redundant rows; the
      // ratio-test guard pins them there through phase 2.
    } else {
      core.set_perturbed(false);
      core.compute_xb();
    }
  }

  const LpStatus st = core.primal(/*phase1=*/false);
  sol.status = st;
  sol.iterations = core.iterations();
  sol.eta_nnz = core.eta_nnz();
  if (st != LpStatus::Optimal) return sol;

  core.refresh_if_stale();  // crisp x_B for extraction
  sol.eta_nnz = core.eta_nnz();
  sol.x.assign(p.n, 0.0);
  const std::vector<int>& basis = core.basis();
  {
    // Recompute x_B once more on the fresh factorization.
    std::vector<double> xb = p.rhs;
    core.apply_etas_ftran(xb);
    for (std::size_t r = 0; r < p.m; ++r) {
      const auto j = static_cast<std::size_t>(basis[r]);
      if (j < p.n) sol.x[j] = std::max(0.0, xb[r]);
    }
  }
  sol.objective = 0.0;
  for (std::size_t j = 0; j < p.n; ++j) {
    sol.objective += p.objective[j] * sol.x[j];
  }
  sol.basis.basic = basis;
  return sol;
}

}  // namespace tolerance::lp
