// Dense parametric system kernel: the reference SystemCmdp::parametric is
// differentially tested and benchmarked against.
//
// Builds f_S (8) as two dense (smax+1) x (smax+1) matrices the direct way:
// every binomial pmf entry from its closed form (BinomialDist::pmf), the
// full O(smax^3) convolution of survivals and recoveries, `mix` uniform mass
// and row normalisation.  SystemCmdp(smax, f, epsilon_a, k[0], k[1]) turns
// the result into a CMDP whose LP the sparse build must reproduce.
#pragma once

#include <array>

#include "tolerance/la/matrix.hpp"

namespace tolerance::oracles {

/// Kernels for a = 0 and a = 1, with the arguments of
/// SystemCmdp::parametric.
std::array<la::Matrix, 2> dense_parametric_kernel(int smax, double q_healthy,
                                                  double q_recover,
                                                  double mix = 1e-4);

}  // namespace tolerance::oracles
