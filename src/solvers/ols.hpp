#pragma once
// Ordinary least squares, the model-estimation solver of UoI (Algorithm 1
// line 18 / Algorithm 2 line 24): normal equations + Cholesky, with a tiny
// ridge jitter retry when the Gram matrix is singular (e.g. bootstrap
// samples with duplicated rows). Distributed estimation either solves the
// task group's allreduced Gram with ols_from_gram or, on the consensus
// path, runs the paper's lambda = 0 LASSO-ADMM formulation (§II-C); see
// core/uoi_lasso_distributed.
//
// The support-restricted form computes the estimate over the selected
// columns and scatters it back into a full-length, zero-padded
// coefficient vector.

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace uoi::solvers {

/// OLS over all columns via normal equations.
[[nodiscard]] uoi::linalg::Vector ols_direct(uoi::linalg::ConstMatrixView x,
                                             std::span<const double> y);

/// OLS from the normal equations G beta = X'y, given the Gram G = X'X:
/// a Cholesky solve, retried with a ridge jitter of 1e-10, 1e-8 and then
/// 1e-6 times G's largest diagonal entry (at least 1) while G is
/// numerically singular — duplicated bootstrap rows, or duplicated or
/// collinear columns. Throws ConvergenceError when three jitters do not
/// help.
[[nodiscard]] uoi::linalg::Vector ols_from_gram(
    const uoi::linalg::Matrix& gram, std::span<const double> xty);

/// OLS restricted to `support` (sorted column indices); the result has
/// x.cols() entries with zeros off-support.
[[nodiscard]] uoi::linalg::Vector ols_direct_on_support(
    uoi::linalg::ConstMatrixView x, std::span<const double> y,
    std::span<const std::size_t> support);

/// Mean squared prediction error of `beta` on (x, y).
[[nodiscard]] double mean_squared_error(uoi::linalg::ConstMatrixView x,
                                        std::span<const double> y,
                                        std::span<const double> beta);

/// Coefficient of determination R^2 of `beta` on (x, y).
[[nodiscard]] double r_squared(uoi::linalg::ConstMatrixView x,
                               std::span<const double> y,
                               std::span<const double> beta);

}  // namespace uoi::solvers
