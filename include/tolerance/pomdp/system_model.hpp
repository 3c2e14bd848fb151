// The global control level: system CMDP of §V-B (Prob. 2), an instance of
// the inventory-replenishment problem.
//
// State s_t in {0,...,smax} is the expected number of healthy nodes; the
// action a_t in {0,1} adds a node.  The kernel f_S (8) can be built
// parametrically (healthy nodes survive independently, compromised nodes are
// recovered by the local level with some per-step probability) or estimated
// from simulations of Prob. 1, which is what the paper does (Appendix E,
// Fig. 16).  The objective (9)-(10) minimizes the average number of nodes
// subject to the availability constraint E[T(A)] >= epsilon_A.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tolerance/la/matrix.hpp"
#include "tolerance/pomdp/node_simulator.hpp"
#include "tolerance/util/rng.hpp"

namespace tolerance::pomdp {

class SystemCmdp {
 public:
  /// One kernel row f_S(. | s, a) in its stored form: every next state
  /// carries `floor`, and next states lo .. lo + bump.size() - 1 carry
  /// bump[next - lo] on top of it.  The floor is the row minimum (the
  /// parametric `mix` share, the Laplace smoothing of an estimate); the
  /// bump is the rest, a short window around the row's mass for a
  /// parametric kernel.  replication_lp reads this form directly.
  struct Row {
    double floor = 0.0;
    int lo = 0;
    std::span<const double> bump;
  };

  /// `kernel_wait` / `kernel_add` are (smax+1)x(smax+1) row-stochastic
  /// matrices for a = 0 and a = 1.  Each row is split at its minimum: the
  /// floor is the row minimum, the bump the whole row's excess over it.
  SystemCmdp(int smax, int f, double epsilon_a, const la::Matrix& kernel_wait,
             const la::Matrix& kernel_add);

  /// Parametric kernel: from state s, each of the s healthy nodes stays
  /// healthy w.p. `q_healthy`; each of the (smax - s) unhealthy/vacant slots
  /// turns healthy w.p. `q_recover` (local recoveries / node replacements);
  /// action a = 1 adds one healthy node.  Each row is mixed with `mix`
  /// uniform mass so assumption B of Thm. 2 (full support) holds.  The
  /// bump is the convolution of the two binomial pmfs, each cut where it
  /// falls below kPmfCutoff of its mode; rows are split at their minimum as
  /// in the dense constructor, which off the bump is the `mix` share.
  static SystemCmdp parametric(int smax, int f, double epsilon_a,
                               double q_healthy, double q_recover,
                               double mix = 1e-4);

  /// Kernel estimated from Monte-Carlo simulation of Prob. 1 (the paper's
  /// route): runs `episodes` trajectories of `smax` nodes under `policy` and
  /// counts healthy-count transitions; rows are Laplace-smoothed so the
  /// kernel has full support.
  static SystemCmdp estimate_from_node_simulation(
      int smax, int f, double epsilon_a, const NodeModel& model,
      const ObservationModel& obs, const NodePolicy& policy, int episodes,
      int horizon, Rng& rng, double smoothing = 0.1);

  /// Binomial pmf entries below this fraction of the pmf's mode are left
  /// out of the parametric bumps: far below replication_lp's drop
  /// tolerance (1e-12), so the LP keeps every entry it kept before.
  static constexpr double kPmfCutoff = 1e-20;

  int smax() const { return smax_; }
  int f() const { return f_; }
  double epsilon_a() const { return epsilon_a_; }
  int num_states() const { return smax_ + 1; }

  /// f_S(next | s, a), eq. (8).
  double trans(int s, int a, int next) const;
  /// Row f_S(. | s, a) as floor plus bump; the span lives as long as this.
  Row row(int s, int a) const;

  /// Immediate cost (9): the number of nodes.
  double cost(int s) const { return static_cast<double>(s); }

  /// Availability indicator [s >= f+1] (Prop. 1 / eq. (9)).
  bool available(int s) const { return s >= f_ + 1; }

  int step(int s, int a, Rng& rng) const;

 private:
  struct RowSlot {
    double floor = 0.0;
    int lo = 0;
    int len = 0;
    std::size_t offset = 0;  ///< into bumps_[a]
  };

  SystemCmdp(int smax, int f, double epsilon_a);
  /// Append row s of action a (rows are appended in order of s).
  void push_row(int a, double floor, int lo, std::span<const double> bump);
  const RowSlot& slot(int s, int a) const;
  /// f_S(next | s, a) for the row r of action a.
  double entry(const RowSlot& r, int a, int next) const;

  int smax_;
  int f_;
  double epsilon_a_;
  std::vector<RowSlot> rows_[2];
  std::vector<double> bumps_[2];
};

}  // namespace tolerance::pomdp
