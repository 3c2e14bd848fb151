#include <gtest/gtest.h>

#include <cmath>

#include "tolerance/lp/simplex.hpp"
#include "tolerance/oracles/dense_simplex.hpp"
#include "tolerance/util/rng.hpp"

namespace tolerance::lp {
namespace {

TEST(Simplex, SimpleMaximizationAsMinimization) {
  // max x0 + x1 s.t. x0 + 2 x1 <= 4, x0 <= 3  => x = (3, 0.5), obj = 3.5.
  LinearProgram lp(2);
  lp.objective = {-1.0, -1.0};
  lp.add_constraint({{0, 1.0}, {1, 2.0}}, Relation::LessEq, 4.0);
  lp.add_constraint({{0, 1.0}}, Relation::LessEq, 3.0);
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, -3.5, 1e-9);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 0.5, 1e-9);
}

TEST(Simplex, EqualityConstraints) {
  // min x0 + 2 x1 s.t. x0 + x1 = 1  => x = (1, 0), obj = 1.
  LinearProgram lp(2);
  lp.objective = {1.0, 2.0};
  lp.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::Eq, 1.0);
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-9);
}

TEST(Simplex, GreaterEqualConstraints) {
  // min 2 x0 + 3 x1 s.t. x0 + x1 >= 4, x0 - x1 <= 2.
  // Optimum at x = (4, 0)? check: x0 - x1 = 4 > 2 violates. So x0 = 3, x1 = 1,
  // obj = 9.
  LinearProgram lp(2);
  lp.objective = {2.0, 3.0};
  lp.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::GreaterEq, 4.0);
  lp.add_constraint({{0, 1.0}, {1, -1.0}}, Relation::LessEq, 2.0);
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 9.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  LinearProgram lp(1);
  lp.objective = {1.0};
  lp.add_constraint({{0, 1.0}}, Relation::LessEq, 1.0);
  lp.add_constraint({{0, 1.0}}, Relation::GreaterEq, 2.0);
  const auto sol = SimplexSolver().solve(lp);
  EXPECT_EQ(sol.status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram lp(1);
  lp.objective = {-1.0};  // maximize x, no upper bound
  lp.add_constraint({{0, 1.0}}, Relation::GreaterEq, 0.0);
  const auto sol = SimplexSolver().solve(lp);
  EXPECT_EQ(sol.status, LpStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x0 s.t. -x0 <= -2  (i.e. x0 >= 2).
  LinearProgram lp(1);
  lp.objective = {1.0};
  lp.add_constraint({{0, -1.0}}, Relation::LessEq, -2.0);
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
}

TEST(Simplex, DegenerateLpStillTerminates) {
  // Classic degenerate LP (multiple constraints active at the optimum).
  LinearProgram lp(2);
  lp.objective = {-1.0, -1.0};
  lp.add_constraint({{0, 1.0}}, Relation::LessEq, 1.0);
  lp.add_constraint({{0, 1.0}, {1, 0.0}}, Relation::LessEq, 1.0);
  lp.add_constraint({{1, 1.0}}, Relation::LessEq, 1.0);
  lp.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::LessEq, 2.0);
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, -2.0, 1e-9);
}

TEST(Simplex, ProbabilitySimplexProjection) {
  // min c^T x over the probability simplex picks the smallest coefficient.
  LinearProgram lp(4);
  lp.objective = {3.0, 1.0, 2.0, 5.0};
  std::vector<std::pair<int, double>> all;
  for (int j = 0; j < 4; ++j) all.push_back({j, 1.0});
  lp.add_constraint(all, Relation::Eq, 1.0);
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-9);
}

TEST(Simplex, RandomLpsSatisfyConstraints) {
  // Property test: on random feasible-by-construction LPs the returned point
  // satisfies every constraint.
  tolerance::Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 3 + rng.uniform_int(4);
    const int m = 2 + rng.uniform_int(4);
    LinearProgram lp(n);
    for (int j = 0; j < n; ++j) lp.objective[j] = rng.uniform(-1.0, 1.0);
    // Constraints a^T x <= b with a >= 0 and b > 0 keep the origin feasible
    // and the feasible set bounded via a final sum constraint.
    for (int i = 0; i < m; ++i) {
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < n; ++j) terms.push_back({j, rng.uniform(0.0, 1.0)});
      lp.add_constraint(std::move(terms), Relation::LessEq,
                        rng.uniform(0.5, 2.0));
    }
    std::vector<std::pair<int, double>> sum_terms;
    for (int j = 0; j < n; ++j) sum_terms.push_back({j, 1.0});
    lp.add_constraint(std::move(sum_terms), Relation::LessEq, 10.0);

    const auto sol = SimplexSolver().solve(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal) << "trial " << trial;
    for (const auto& con : lp.constraints) {
      double lhs = 0.0;
      for (const auto& [v, c] : con.terms) lhs += c * sol.x[v];
      EXPECT_LE(lhs, con.rhs + 1e-7);
    }
    for (double xv : sol.x) EXPECT_GE(xv, -1e-9);
  }
}

// ---------------------------------------------------------------------------
// Differential suite: sparse revised simplex vs the dense tableau oracle
// ---------------------------------------------------------------------------

using oracles::dense_simplex;

/// Solve with both solvers and cross-check: identical status, and on Optimal
/// identical objectives (1e-8), a feasible point, and a warm re-solve from
/// the revised core's own basis reproducing the optimum.
void differential_check(const LinearProgram& lp, const char* tag, int trial) {
  const auto revised = SimplexSolver().solve(lp);
  const auto dense = dense_simplex(lp);
  ASSERT_EQ(revised.status, dense.status) << tag << " trial " << trial;
  if (revised.status != LpStatus::Optimal) return;
  const double scale = 1.0 + std::fabs(dense.objective);
  EXPECT_NEAR(revised.objective, dense.objective, 1e-8 * scale)
      << tag << " trial " << trial;
  for (const auto& con : lp.constraints) {
    double lhs = 0.0;
    for (const auto& [v, c] : con.terms) {
      lhs += c * revised.x[static_cast<std::size_t>(v)];
    }
    switch (con.relation) {
      case Relation::LessEq: EXPECT_LE(lhs, con.rhs + 1e-6) << tag; break;
      case Relation::GreaterEq: EXPECT_GE(lhs, con.rhs - 1e-6) << tag; break;
      case Relation::Eq: EXPECT_NEAR(lhs, con.rhs, 1e-6) << tag; break;
    }
  }
  for (double xv : revised.x) EXPECT_GE(xv, -1e-9) << tag;
  // Warm start from the optimal basis must reproduce the optimum (and skip
  // phase 1: observed as a handful of pivots at most).
  ASSERT_FALSE(revised.basis.empty()) << tag;
  const auto warm = SimplexSolver().solve(lp, revised.basis);
  ASSERT_EQ(warm.status, LpStatus::Optimal) << tag << " trial " << trial;
  EXPECT_NEAR(warm.objective, dense.objective, 1e-8 * scale) << tag;
  EXPECT_NE(warm.warm_start, WarmStart::None) << tag;
  EXPECT_LE(warm.iterations, 3) << tag << " trial " << trial;
}

TEST(SimplexDifferential, RandomFeasibleBoundedLps) {
  tolerance::Rng rng(7101);
  for (int trial = 0; trial < 80; ++trial) {
    const int n = 2 + rng.uniform_int(6);
    const int m = 1 + rng.uniform_int(6);
    LinearProgram lp(n);
    for (int j = 0; j < n; ++j) lp.objective[j] = rng.uniform(-2.0, 2.0);
    for (int i = 0; i < m; ++i) {
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < n; ++j) {
        if (rng.bernoulli(0.7)) terms.push_back({j, rng.uniform(0.0, 1.0)});
      }
      if (terms.empty()) terms.push_back({rng.uniform_int(n), 1.0});
      lp.add_constraint(std::move(terms), Relation::LessEq,
                        rng.uniform(0.2, 3.0));
    }
    // Bound the feasible set so negative objectives stay bounded.
    std::vector<std::pair<int, double>> box;
    for (int j = 0; j < n; ++j) box.push_back({j, 1.0});
    lp.add_constraint(std::move(box), Relation::LessEq, 10.0);
    differential_check(lp, "feasible", trial);
  }
}

TEST(SimplexDifferential, RandomEqualityFlowLps) {
  // Equality-heavy instances in the shape of the occupancy LP: probability
  // mass balance plus coupling rows, including rhs-0 rows (the degenerate
  // family that historically cycles).
  tolerance::Rng rng(7102);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 4 + rng.uniform_int(6);
    LinearProgram lp(n);
    for (int j = 0; j < n; ++j) lp.objective[j] = rng.uniform(0.0, 3.0);
    std::vector<std::pair<int, double>> norm;
    for (int j = 0; j < n; ++j) norm.push_back({j, 1.0});
    lp.add_constraint(std::move(norm), Relation::Eq, 1.0);
    const int pairs = 1 + rng.uniform_int(3);
    for (int k = 0; k < pairs; ++k) {
      const int a = rng.uniform_int(n);
      int b = rng.uniform_int(n);
      if (b == a) b = (b + 1) % n;
      lp.add_constraint({{a, 1.0}, {b, -rng.uniform(0.5, 2.0)}}, Relation::Eq,
                        0.0);
    }
    differential_check(lp, "equality-flow", trial);
  }
}

TEST(SimplexDifferential, RandomInfeasibleLps) {
  tolerance::Rng rng(7103);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + rng.uniform_int(5);
    LinearProgram lp(n);
    for (int j = 0; j < n; ++j) lp.objective[j] = rng.uniform(-1.0, 1.0);
    // Macroscopically contradictory pair on a random variable, plus noise.
    const int v = rng.uniform_int(n);
    const double c = rng.uniform(0.5, 2.0);
    lp.add_constraint({{v, 1.0}}, Relation::LessEq, c);
    lp.add_constraint({{v, 1.0}}, Relation::GreaterEq, c + 1.0 + rng.uniform());
    const int extra = rng.uniform_int(3);
    for (int i = 0; i < extra; ++i) {
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < n; ++j) terms.push_back({j, rng.uniform(0.0, 1.0)});
      lp.add_constraint(std::move(terms), Relation::LessEq,
                        rng.uniform(1.0, 5.0));
    }
    differential_check(lp, "infeasible", trial);
  }
}

TEST(SimplexDifferential, RandomUnboundedLps) {
  tolerance::Rng rng(7104);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + rng.uniform_int(4);
    LinearProgram lp(n);
    // Variable `free` has negative cost and appears in no <= row: the
    // objective is unbounded below.
    const int free = rng.uniform_int(n);
    for (int j = 0; j < n; ++j) lp.objective[j] = rng.uniform(0.1, 1.0);
    lp.objective[free] = -rng.uniform(0.1, 1.0);
    for (int j = 0; j < n; ++j) {
      if (j == free) continue;
      lp.add_constraint({{j, 1.0}}, Relation::LessEq, rng.uniform(0.5, 2.0));
    }
    lp.add_constraint({{free, 1.0}}, Relation::GreaterEq, rng.uniform(0.0, 1.0));
    differential_check(lp, "unbounded", trial);
  }
}

TEST(SimplexWarmStart, PerturbedRhsReoptimizesViaDualSimplex) {
  // Shrinking a bound after the optimum leaned on it forces a genuine
  // dual-simplex repair (the old basis stays dual feasible, loses primal
  // feasibility); the reoptimized solution must match a cold solve.
  tolerance::Rng rng(7105);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 2 + rng.uniform_int(4);
    LinearProgram lp(n);
    for (int j = 0; j < n; ++j) lp.objective[j] = rng.uniform(-2.0, -0.1);
    for (int j = 0; j < n; ++j) {
      lp.add_constraint({{j, 1.0}}, Relation::LessEq, rng.uniform(1.0, 2.0));
    }
    std::vector<std::pair<int, double>> sum;
    for (int j = 0; j < n; ++j) sum.push_back({j, 1.0});
    lp.add_constraint(std::move(sum), Relation::LessEq, rng.uniform(1.0, 3.0));
    const auto first = SimplexSolver().solve(lp);
    ASSERT_EQ(first.status, LpStatus::Optimal);
    // Tighten every bound: the old optimal vertex becomes infeasible.
    LinearProgram tightened = lp;
    for (auto& con : tightened.constraints) con.rhs *= 0.8;
    const auto warm = SimplexSolver().solve(tightened, first.basis);
    const auto cold = dense_simplex(tightened);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    ASSERT_EQ(warm.status, LpStatus::Optimal);
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-8 * (1.0 + std::fabs(cold.objective)))
        << "trial " << trial;
  }
}

TEST(SimplexWarmStart, ArtificialCarryingMassRejectedWhenRowBecomesBinding) {
  // Regression: a basis exported from an LP with a redundant row keeps that
  // row's artificial basic (at zero).  Warm-starting a same-shaped LP where
  // the row now binds must NOT trust the basis — the artificial would
  // silently absorb the constraint violation and the "optimum" would be
  // infeasible.
  LinearProgram duplicated(2);
  duplicated.objective = {1.0, 0.0};
  duplicated.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::Eq, 1.0);
  duplicated.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::Eq, 1.0);
  const auto first = SimplexSolver().solve(duplicated);
  ASSERT_EQ(first.status, LpStatus::Optimal);
  EXPECT_NEAR(first.objective, 0.0, 1e-9);

  LinearProgram binding(2);
  binding.objective = {1.0, 0.0};
  binding.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::Eq, 1.0);
  binding.add_constraint({{0, 1.0}, {1, -1.0}}, Relation::Eq, 0.5);
  const auto warm = SimplexSolver().solve(binding, first.basis);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_NEAR(warm.objective, 0.75, 1e-8);
  EXPECT_NEAR(warm.x[0], 0.75, 1e-8);
  EXPECT_NEAR(warm.x[1], 0.25, 1e-8);
}

TEST(SimplexWarmStart, GarbageBasisDegradesToColdSolve) {
  LinearProgram lp(2);
  lp.objective = {1.0, 2.0};
  lp.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::Eq, 1.0);
  SimplexBasis garbage;
  garbage.basic = {99};  // out of range
  const auto sol = SimplexSolver().solve(lp, garbage);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-9);
  EXPECT_EQ(sol.warm_start, WarmStart::Rejected);
  SimplexBasis duplicate;
  duplicate.basic = {0};
  duplicate.basic.push_back(0);  // duplicated column, wrong size too
  const auto sol2 = SimplexSolver().solve(lp, duplicate);
  ASSERT_EQ(sol2.status, LpStatus::Optimal);
  EXPECT_EQ(sol2.warm_start, WarmStart::Rejected);
}

TEST(SimplexWarmStart, DenseBasisExportSeedsRevisedCore) {
  // The dense oracle exports the shape-stable encoding: its basis must be
  // directly consumable as a revised-simplex warm start.
  LinearProgram lp(3);
  lp.objective = {2.0, 3.0, 1.0};
  lp.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::GreaterEq, 4.0);
  lp.add_constraint({{0, 1.0}, {1, -1.0}}, Relation::LessEq, 2.0);
  lp.add_constraint({{2, 1.0}, {0, 0.5}}, Relation::Eq, 3.0);
  const auto dense = dense_simplex(lp);
  ASSERT_EQ(dense.status, LpStatus::Optimal);
  ASSERT_FALSE(dense.basis.empty());
  const auto warm = SimplexSolver().solve(lp, dense.basis);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_NEAR(warm.objective, dense.objective, 1e-9);
  EXPECT_NE(warm.warm_start, WarmStart::Rejected);
}

TEST(SimplexOptions, BlandStallThresholdIsConfigurable) {
  // A tiny threshold forces Bland's rule almost immediately; the degenerate
  // LP must still solve to the same optimum.
  SimplexSolver::Options o;
  o.bland_stall_threshold = 1;
  LinearProgram lp(2);
  lp.objective = {-1.0, -1.0};
  lp.add_constraint({{0, 1.0}}, Relation::LessEq, 1.0);
  lp.add_constraint({{0, 1.0}, {1, 0.0}}, Relation::LessEq, 1.0);
  lp.add_constraint({{1, 1.0}}, Relation::LessEq, 1.0);
  lp.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::LessEq, 2.0);
  for (bool dense : {false, true}) {
    const auto sol = dense ? dense_simplex(lp, o) : SimplexSolver(o).solve(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal) << "dense=" << dense;
    EXPECT_NEAR(sol.objective, -2.0, 1e-9) << "dense=" << dense;
  }
}

TEST(Simplex, MediumSizedStructuredLp) {
  // Transportation-like LP with equality structure, 40 vars.
  const int k = 20;
  LinearProgram lp(2 * k);
  for (int j = 0; j < 2 * k; ++j) lp.objective[j] = (j % 3) + 1.0;
  std::vector<std::pair<int, double>> norm;
  for (int j = 0; j < 2 * k; ++j) norm.push_back({j, 1.0});
  lp.add_constraint(norm, Relation::Eq, 1.0);
  for (int i = 0; i < k; ++i) {
    lp.add_constraint({{2 * i, 1.0}, {2 * i + 1, -1.0}}, Relation::Eq, 0.0);
  }
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  double total = 0.0;
  for (double xv : sol.x) total += xv;
  EXPECT_NEAR(total, 1.0, 1e-8);
}

}  // namespace
}  // namespace tolerance::lp
