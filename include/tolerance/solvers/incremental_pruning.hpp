// Incremental Pruning [Cassandra, Littman & Zhang 1997]: exact dynamic
// programming for the node POMDP (Prob. 1).
//
// The hidden belief state lives on [0, 1] (two non-crash states), so every
// value function is the lower envelope of lines ("alpha vectors", Fig. 4):
//   V(b) = min_g [ (1 - b) g_H + b g_C ].
// Backups cross-sum per-observation alpha sets and prune dominated lines
// after every cross-sum step, which is exactly the IP scheme.  Because the
// belief space is one-dimensional, the pruned cross-sum of two already
// pruned sets is computed directly by merging their hull breakpoints —
// min over independent choices distributes over the pointwise sum, so
// env(A (+) B) = env(A) + env(B) — instead of enumerating |A|*|B| sums and
// re-pruning.  Inside the backups a set whose envelope has more than 64
// segments is capped by prune()'s bounded-error grid pruning.  Crashes are
// handled through the full 3-state kernel (2): a crashed node yields no
// future cost (it is evicted and replaced — its value is 0).
//
// Used as the "optimal" reference in Table 2 and to draw Figs. 4 and 15.
#pragma once

#include <vector>

#include "tolerance/pomdp/node_model.hpp"
#include "tolerance/pomdp/observation_model.hpp"

namespace tolerance::solvers {

struct AlphaVector {
  double v_healthy = 0.0;
  double v_compromised = 0.0;
  pomdp::NodeAction action = pomdp::NodeAction::Wait;

  double value(double belief) const {
    return (1.0 - belief) * v_healthy + belief * v_compromised;
  }
};

/// Lower envelope of a set of alpha vectors.
double envelope_value(const std::vector<AlphaVector>& alphas, double belief);

/// Minimizing action at a belief point.
pomdp::NodeAction envelope_action(const std::vector<AlphaVector>& alphas,
                                  double belief);

/// Remove lines that never attain the lower envelope on [0, 1].  Sets whose
/// exact envelope has more than `max_alpha` segments are capped by
/// bounded-error grid pruning (keep the argmin line at each of
/// 2 * max_alpha + 1 grid points), the standard refinement of practical
/// POMDP solvers.
std::vector<AlphaVector> prune(std::vector<AlphaVector> alphas,
                               double eps = 1e-12, int max_alpha = 64);

class IncrementalPruning {
 public:
  struct Result {
    /// value_functions[t] holds V_{t+1} (t = 0 is the first cycle step); for
    /// the discounted solve only index 0 is populated.
    std::vector<std::vector<AlphaVector>> value_functions;
    bool converged = true;
    int iterations = 0;
    /// Cycle-average (finite DeltaR) or (1-gamma)-scaled discounted cost at
    /// the initial belief b_1 = pA — comparable to J_i (5).
    double average_cost = 0.0;
  };

  /// Solve the DeltaR-cycle problem (16): horizon DeltaR with a forced
  /// recovery at the final step; exact, undiscounted.
  static Result solve_cycle(const pomdp::NodeModel& model,
                            const pomdp::ObservationModel& obs, int delta_r);

  /// Discounted infinite-horizon solve (the DeltaR = inf case), by value
  /// iteration with pruning until the max alpha change drops below tol.
  static Result solve_discounted(const pomdp::NodeModel& model,
                                 const pomdp::ObservationModel& obs,
                                 double discount = 0.99, double tol = 1e-6,
                                 int max_iterations = 10000);

  /// Smallest belief at which the envelope's action switches to Recover;
  /// returns 1.0 if it never does (Thm. 1 / Fig. 15).  Reads the switch off
  /// the envelope's own breakpoints (the hull sweep), replacing the old
  /// 4096-point scan + bisection.
  static double recovery_threshold(const std::vector<AlphaVector>& alphas);
};

}  // namespace tolerance::solvers
