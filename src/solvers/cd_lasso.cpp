#include "solvers/cd_lasso.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/ols.hpp"
#include "solvers/prox.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace uoi::solvers {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

namespace {

/// One full sweep over the given coordinates; returns the largest
/// coefficient change. `residual` is kept equal to y - X beta throughout.
double cd_sweep(ConstMatrixView x, std::span<const std::size_t> coords,
                double lambda, std::span<const double> col_sq_norms,
                Vector& beta, Vector& residual) {
  double max_change = 0.0;
  for (const std::size_t j : coords) {
    const double norm_sq = col_sq_norms[j];
    if (norm_sq == 0.0) continue;
    // rho_j = x_j' residual + beta_j * ||x_j||^2
    double rho = 0.0;
    for (std::size_t r = 0; r < x.rows(); ++r) rho += x(r, j) * residual[r];
    rho += beta[j] * norm_sq;
    const double new_beta = soft_threshold(rho, lambda) / norm_sq;
    const double delta = new_beta - beta[j];
    if (delta != 0.0) {
      for (std::size_t r = 0; r < x.rows(); ++r) residual[r] -= delta * x(r, j);
      beta[j] = new_beta;
    }
    max_change = std::max(max_change, std::abs(delta));
  }
  return max_change;
}

}  // namespace

CdLassoResult cd_lasso(ConstMatrixView x, std::span<const double> y,
                       double lambda, const CdLassoOptions& options,
                       std::span<const double> warm_start) {
  UOI_CHECK_DIMS(x.rows() == y.size(), "cd_lasso: X rows != y size");
  UOI_CHECK(lambda >= 0.0, "lambda must be non-negative");
  const std::size_t p = x.cols();

  Vector col_sq_norms(p, 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    for (std::size_t j = 0; j < p; ++j) col_sq_norms[j] += row[j] * row[j];
  }

  std::vector<std::size_t> all_coords(p);
  for (std::size_t j = 0; j < p; ++j) all_coords[j] = j;

  CdLassoResult result;
  result.beta.assign(p, 0.0);
  Vector residual(y.begin(), y.end());
  if (warm_start.size() == p) {
    result.beta.assign(warm_start.begin(), warm_start.end());
    uoi::linalg::gemv(-1.0, x, result.beta, 1.0, residual);
  }

  // Active-set strategy: full sweeps establish the active set, then inner
  // sweeps iterate only over nonzero coordinates until stable.
  for (std::size_t sweep = 0; sweep < options.max_sweeps; ++sweep) {
    const double full_change = cd_sweep(x, all_coords, lambda, col_sq_norms,
                                        result.beta, residual);
    ++result.sweeps;
    if (full_change <= options.tolerance) {
      result.converged = true;
      break;
    }
    std::vector<std::size_t> active;
    for (std::size_t j = 0; j < p; ++j) {
      if (result.beta[j] != 0.0) active.push_back(j);
    }
    while (result.sweeps < options.max_sweeps) {
      const double change = cd_sweep(x, active, lambda, col_sq_norms,
                                     result.beta, residual);
      ++result.sweeps;
      if (change <= options.tolerance) break;
    }
  }
  return result;
}

CvLassoResult cv_lasso(ConstMatrixView x, std::span<const double> y,
                       std::size_t n_lambdas, std::size_t n_folds,
                       std::uint64_t seed, const CdLassoOptions& options) {
  UOI_CHECK(n_folds >= 2, "cross-validation needs at least two folds");
  UOI_CHECK_DIMS(x.rows() == y.size(), "cv_lasso: X rows != y size");
  const std::size_t n = x.rows();
  UOI_CHECK(n >= n_folds, "more folds than samples");

  CvLassoResult result;
  result.lambda_path = lambda_grid_for(x, y, n_lambdas);
  result.cv_mse.assign(n_lambdas, 0.0);

  // Assign samples to folds by random permutation.
  auto rng = uoi::support::Xoshiro256::for_task(seed, 0x5ccf01d);
  const auto perm = uoi::support::random_permutation(rng, n);

  const Matrix x_owned = Matrix::from_view(x);
  for (std::size_t fold = 0; fold < n_folds; ++fold) {
    std::vector<std::size_t> train_idx, valid_idx;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % n_folds == fold) {
        valid_idx.push_back(perm[i]);
      } else {
        train_idx.push_back(perm[i]);
      }
    }
    const Matrix x_train = x_owned.gather_rows(train_idx);
    const Matrix x_valid = x_owned.gather_rows(valid_idx);
    Vector y_train(train_idx.size()), y_valid(valid_idx.size());
    for (std::size_t i = 0; i < train_idx.size(); ++i)
      y_train[i] = y[train_idx[i]];
    for (std::size_t i = 0; i < valid_idx.size(); ++i)
      y_valid[i] = y[valid_idx[i]];

    // Warm-start down the (descending) path.
    Vector warm(x.cols(), 0.0);
    for (std::size_t li = 0; li < result.lambda_path.size(); ++li) {
      CdLassoResult fit =
          cd_lasso(x_train, y_train, result.lambda_path[li], options, warm);
      warm = fit.beta;
      result.cv_mse[li] +=
          mean_squared_error(x_valid, y_valid, fit.beta) /
          static_cast<double>(n_folds);
    }
  }

  const auto best = std::min_element(result.cv_mse.begin(), result.cv_mse.end());
  const auto best_index =
      static_cast<std::size_t>(best - result.cv_mse.begin());
  result.best_lambda = result.lambda_path[best_index];
  result.beta = cd_lasso(x, y, result.best_lambda, options).beta;
  return result;
}

}  // namespace uoi::solvers
