#include "tolerance/oracles/dense_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tolerance/util/ensure.hpp"

namespace tolerance::oracles {
namespace {

using lp::LinearProgram;
using lp::LpSolution;
using lp::LpStatus;
using lp::Relation;

constexpr long kMaxIterations = 200000;
constexpr double kEps = 1e-9;  // pivot / feasibility tolerance

// Dense tableau with rows = constraints, plus one cost row.  Column layout:
// [original vars | slack/surplus | artificials | rhs].
struct Tableau {
  std::size_t rows = 0;    // number of constraints
  std::size_t cols = 0;    // total columns including rhs
  std::size_t active = 0;  // pivots update columns [0, active) + rhs only
  std::vector<double> t;   // (rows + 1) x cols, cost row last
  std::vector<int> basis;  // basis variable per row

  double& at(std::size_t r, std::size_t c) { return t[r * cols + c]; }
  double at(std::size_t r, std::size_t c) const { return t[r * cols + c]; }
  double* row(std::size_t r) { return t.data() + r * cols; }

  std::size_t cost_row() const { return rows; }
  std::size_t rhs_col() const { return cols - 1; }

  // Once phase 1 retires the artificial block, `active` shrinks so pivots
  // stop sweeping those dead columns (they are never read again: phase-2
  // pricing, ratio tests and extraction all stay below `active`).
  void pivot(std::size_t prow, std::size_t pcol) {
    double* pr = row(prow);
    const double inv = 1.0 / pr[pcol];
    for (std::size_t c = 0; c < active; ++c) pr[c] *= inv;
    pr[rhs_col()] *= inv;
    pr[pcol] = 1.0;  // kill round-off on the pivot element
    for (std::size_t r = 0; r <= rows; ++r) {
      if (r == prow) continue;
      double* rr = row(r);
      const double factor = rr[pcol];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < active; ++c) rr[c] -= factor * pr[c];
      rr[rhs_col()] -= factor * pr[rhs_col()];
      rr[pcol] = 0.0;
    }
    basis[prow] = static_cast<int>(pcol);
  }
};

}  // namespace

LpSolution dense_simplex(const LinearProgram& lp,
                         const lp::SimplexSolver::Options& options) {
  TOL_ENSURE(lp.num_vars > 0, "LP must have at least one variable");
  TOL_ENSURE(static_cast<int>(lp.objective.size()) == lp.num_vars,
             "objective size mismatch");
  const std::size_t m = lp.constraints.size();
  const std::size_t n = static_cast<std::size_t>(lp.num_vars);

  // Count auxiliary columns.  Rows are normalized to have rhs >= 0 first.
  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  std::vector<int> sign(m, 1);  // +1 keep, -1 negate row
  std::vector<Relation> rel(m);
  for (std::size_t i = 0; i < m; ++i) {
    rel[i] = lp.constraints[i].relation;
    if (lp.constraints[i].rhs < 0.0) {
      sign[i] = -1;
      if (rel[i] == Relation::LessEq) {
        rel[i] = Relation::GreaterEq;
      } else if (rel[i] == Relation::GreaterEq) {
        rel[i] = Relation::LessEq;
      }
    }
    if (rel[i] != Relation::Eq) ++num_slack;
    if (rel[i] != Relation::LessEq) ++num_artificial;
  }

  Tableau tab;
  tab.rows = m;
  tab.cols = n + num_slack + num_artificial + 1;
  tab.active = tab.cols - 1;
  tab.t.assign((m + 1) * tab.cols, 0.0);
  tab.basis.assign(m, -1);

  const std::size_t slack_base = n;
  const std::size_t art_base = n + num_slack;
  std::size_t next_slack = 0;
  std::size_t next_art = 0;
  // Internal (packed) auxiliary column -> constraint row, for the
  // shape-stable basis export.
  std::vector<std::size_t> col_row(tab.cols, 0);

  for (std::size_t i = 0; i < m; ++i) {
    const auto& con = lp.constraints[i];
    double* r = tab.row(i);
    for (const auto& [var, coeff] : con.terms) {
      TOL_ENSURE(var >= 0 && var < lp.num_vars, "constraint variable index");
      r[static_cast<std::size_t>(var)] += sign[i] * coeff;
    }
    r[tab.rhs_col()] = sign[i] * con.rhs;
    switch (rel[i]) {
      case Relation::LessEq: {
        const std::size_t sc = slack_base + next_slack++;
        r[sc] = 1.0;
        col_row[sc] = i;
        tab.basis[i] = static_cast<int>(sc);
        break;
      }
      case Relation::GreaterEq: {
        const std::size_t sc = slack_base + next_slack++;
        r[sc] = -1.0;  // surplus
        col_row[sc] = i;
        const std::size_t ac = art_base + next_art++;
        r[ac] = 1.0;
        col_row[ac] = i;
        tab.basis[i] = static_cast<int>(ac);
        break;
      }
      case Relation::Eq: {
        const std::size_t ac = art_base + next_art++;
        r[ac] = 1.0;
        col_row[ac] = i;
        tab.basis[i] = static_cast<int>(ac);
        break;
      }
    }
  }

  LpSolution sol;
  long iterations = 0;

  auto run_simplex = [&](std::size_t num_cols_active) -> LpStatus {
    long stall = 0;
    while (true) {
      if (iterations >= kMaxIterations) {
        return LpStatus::IterationLimit;
      }
      const double* cost = tab.row(tab.cost_row());
      // Entering column: Dantzig rule, or Bland's rule when stalling.
      std::size_t enter = num_cols_active;
      const bool bland = stall > options.bland_stall_threshold;
      double best = -kEps;
      for (std::size_t c = 0; c < num_cols_active; ++c) {
        if (cost[c] < -kEps) {
          if (bland) {
            enter = c;
            break;
          }
          if (cost[c] < best) {
            best = cost[c];
            enter = c;
          }
        }
      }
      if (enter == num_cols_active) return LpStatus::Optimal;
      // Ratio test.
      std::size_t leave = m;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m; ++r) {
        const double a = tab.at(r, enter);
        if (a > kEps) {
          const double ratio = tab.at(r, tab.rhs_col()) / a;
          if (ratio < best_ratio - 1e-12 ||
              (std::fabs(ratio - best_ratio) <= 1e-12 && leave < m &&
               tab.basis[r] < tab.basis[leave])) {
            best_ratio = ratio;
            leave = r;
          }
        }
      }
      if (leave == m) return LpStatus::Unbounded;
      if (best_ratio <= 1e-12) {
        ++stall;  // degenerate pivot
      } else {
        stall = 0;
      }
      tab.pivot(leave, enter);
      ++iterations;
    }
  };

  // Phase 1: minimize the sum of artificial variables.
  if (num_artificial > 0) {
    double* cost = tab.row(tab.cost_row());
    for (std::size_t c = art_base; c < art_base + num_artificial; ++c) {
      cost[c] = 1.0;
    }
    // Make the cost row consistent with the (artificial) basis.
    for (std::size_t r = 0; r < m; ++r) {
      const int b = tab.basis[r];
      if (b >= static_cast<int>(art_base)) {
        const double* rr = tab.row(r);
        for (std::size_t c = 0; c < tab.cols; ++c) cost[c] -= rr[c];
      }
    }
    const LpStatus st = run_simplex(tab.cols - 1);
    if (st != LpStatus::Optimal) {
      sol.status = st;
      sol.iterations = iterations;
      return sol;
    }
    const double phase1 = -tab.at(tab.cost_row(), tab.rhs_col());
    if (phase1 > 1e-7) {
      sol.status = LpStatus::Infeasible;
      sol.iterations = iterations;
      return sol;
    }
    // The artificial block is dead from here on: phase-2 pricing stays
    // below art_base, so shrink the pivots' active width instead of
    // zeroing the columns (the old code paid O(m * num_artificial) per
    // phase-2 pivot re-sweeping them).
    tab.active = art_base;
    // Drive remaining artificials out of the basis where possible.
    for (std::size_t r = 0; r < m; ++r) {
      if (tab.basis[r] >= static_cast<int>(art_base)) {
        std::size_t enter = art_base;
        for (std::size_t c = 0; c < art_base; ++c) {
          if (std::fabs(tab.at(r, c)) > kEps) {
            enter = c;
            break;
          }
        }
        if (enter < art_base) {
          tab.pivot(r, enter);
          ++iterations;
        }
        // Otherwise the row is redundant; the artificial stays basic at 0.
      }
    }
  }

  // Phase 2: restore the real objective expressed in the current basis.
  {
    double* cost = tab.row(tab.cost_row());
    std::fill(cost, cost + tab.cols, 0.0);
    for (std::size_t c = 0; c < n; ++c) cost[c] = lp.objective[c];
    for (std::size_t r = 0; r < m; ++r) {
      const int b = tab.basis[r];
      if (b >= 0 && b < static_cast<int>(n)) {
        const double cb = lp.objective[static_cast<std::size_t>(b)];
        if (cb == 0.0) continue;
        const double* rr = tab.row(r);
        for (std::size_t c = 0; c < tab.active; ++c) cost[c] -= cb * rr[c];
        cost[tab.rhs_col()] -= cb * rr[tab.rhs_col()];
      }
    }
    const LpStatus st = run_simplex(art_base);  // artificials excluded
    sol.status = st;
    sol.iterations = iterations;
    if (st != LpStatus::Optimal) return sol;
  }

  sol.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const int b = tab.basis[r];
    if (b >= 0 && b < static_cast<int>(n)) {
      sol.x[static_cast<std::size_t>(b)] = tab.at(r, tab.rhs_col());
    }
  }
  sol.objective = 0.0;
  for (std::size_t c = 0; c < n; ++c) sol.objective += lp.objective[c] * sol.x[c];
  // Export the basis in the shape-stable encoding of lp::SimplexBasis:
  // structural as-is, slack/surplus -> n + row, artificial -> n + row for
  // Eq rows (their only auxiliary) or n + m + row for GreaterEq rows.
  sol.basis.basic.resize(m);
  for (std::size_t r = 0; r < m; ++r) {
    const auto b = static_cast<std::size_t>(tab.basis[r]);
    if (b < n) {
      sol.basis.basic[r] = static_cast<int>(b);
    } else if (b < art_base) {
      sol.basis.basic[r] = static_cast<int>(n + col_row[b]);
    } else {
      const std::size_t row = col_row[b];
      sol.basis.basic[r] = static_cast<int>(
          rel[row] == Relation::Eq ? n + row : n + m + row);
    }
  }
  return sol;
}

}  // namespace tolerance::oracles
