#pragma once
// Coordinate-descent LASSO with K-fold cross-validation — the classical
// baseline the UoI papers compare selection/estimation accuracy against
// (paper §I: "state of the art feature selection ... compared with many
// regression algorithms (e.g., LASSO, SCAD and Ridge)").
//
// Also serves as an independent reference implementation for testing the
// ADMM solvers: both must minimize the same objective.

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace uoi::solvers {

struct CdLassoOptions {
  double tolerance = 1e-8;       ///< max coefficient change per sweep
  std::size_t max_sweeps = 10000;
};

struct CdLassoResult {
  uoi::linalg::Vector beta;
  std::size_t sweeps = 0;
  bool converged = false;
};

/// Minimizes (1/2)||y - X beta||^2 + lambda ||beta||_1 by cyclic coordinate
/// descent with an active-set strategy, from `warm_start` when it has p
/// entries and from zero otherwise.
[[nodiscard]] CdLassoResult cd_lasso(uoi::linalg::ConstMatrixView x,
                                     std::span<const double> y, double lambda,
                                     const CdLassoOptions& options = {},
                                     std::span<const double> warm_start = {});

/// K-fold cross-validated LASSO: fits the full lambda path per fold (warm
/// starts down the path), picks the lambda with the lowest mean validation
/// MSE, and refits on all data.
struct CvLassoResult {
  uoi::linalg::Vector beta;          ///< refit at the chosen lambda
  double best_lambda = 0.0;
  std::vector<double> lambda_path;   ///< descending
  std::vector<double> cv_mse;        ///< mean validation MSE per lambda
};
[[nodiscard]] CvLassoResult cv_lasso(uoi::linalg::ConstMatrixView x,
                                     std::span<const double> y,
                                     std::size_t n_lambdas = 50,
                                     std::size_t n_folds = 5,
                                     std::uint64_t seed = 7,
                                     const CdLassoOptions& options = {});

}  // namespace uoi::solvers
