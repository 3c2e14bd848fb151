// Parametric discrete distributions used by the node observation model (3)
// and the emulation workload generators.
//
// The paper instantiates the observation channel Z(.|s) as Beta-Binomial
// distributions (Table 8): Z(.|H) = BetaBin(n=10, a=0.7, b=3) and
// Z(.|C) = BetaBin(n=10, a=1, b=0.7).
#pragma once

#include <vector>

#include "tolerance/util/rng.hpp"

namespace tolerance::stats {

/// Beta-Binomial distribution on {0, ..., n}.
class BetaBinomial {
 public:
  BetaBinomial(int n, double alpha, double beta);

  int n() const { return n_; }
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }

  double pmf(int k) const;
  double log_pmf(int k) const;
  double mean() const;

  /// Full pmf vector over {0, ..., n}.
  std::vector<double> pmf_vector() const;

  int sample(Rng& rng) const;

 private:
  int n_;
  double alpha_;
  double beta_;
};

/// Poisson distribution (workload arrivals, §VIII-A uses lambda = 20).
class PoissonDist {
 public:
  explicit PoissonDist(double mean);
  double mean() const { return mean_; }
  double pmf(int k) const;
  int sample(Rng& rng) const;

 private:
  double mean_;
};

/// Geometric distribution on {1, 2, ...}: number of trials to first success.
/// The node failure time under kernel (2) is geometric (§V-A, Fig. 5).
class GeometricDist {
 public:
  explicit GeometricDist(double p);
  double p() const { return p_; }
  double pmf(int k) const;         // P[X = k], k >= 1
  double cdf(int k) const;         // P[X <= k]
  double mean() const { return 1.0 / p_; }
  int sample(Rng& rng) const;

 private:
  double p_;
};

/// Binomial distribution on {0, ..., n}; used by the parametric system
/// kernel fS (8) where healthy nodes survive independently.
class BinomialDist {
 public:
  BinomialDist(int n, double p);
  double pmf(int k) const;
  /// Full pmf vector over {0, ..., n}: pmf_window(0.0, ...), zero-filled.
  std::vector<double> pmf_vector() const;
  /// The pmf on the window of k around the mode where it stays above
  /// `cutoff` times the pmf at the mode: one closed-form evaluation at the
  /// mode, then the ratio recurrence pmf(k+1) / pmf(k) = (n-k) p /
  /// ((k+1)(1-p)) outward in both directions.  Appends pmf(lo), pmf(lo+1),
  /// ... to `out` and returns lo.  Every k outside the window has a smaller
  /// pmf (the pmf is unimodal); cutoff = 0 stops only where the recurrence
  /// underflows.
  int pmf_window(double cutoff, std::vector<double>& out) const;
  int sample(Rng& rng) const;

 private:
  int n_;
  double p_;
};

}  // namespace tolerance::stats
