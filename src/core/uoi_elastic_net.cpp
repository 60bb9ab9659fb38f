#include "core/uoi_elastic_net.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "solvers/lambda_grid.hpp"
#include "solvers/ols.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace uoi::core {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

namespace {

/// The elastic-net resampling reuses the UoI_LASSO streams so that, with
/// matching seeds, l1_ratios = {1.0} reproduces UoI_LASSO's bootstraps.
UoiLassoOptions as_lasso_options(const UoiElasticNetOptions& options) {
  UoiLassoOptions out;
  out.n_selection_bootstraps = options.n_selection_bootstraps;
  out.n_estimation_bootstraps = options.n_estimation_bootstraps;
  out.estimation_train_fraction = options.estimation_train_fraction;
  out.intersection_fraction = options.intersection_fraction;
  out.seed = options.seed;
  return out;
}

Vector gather(std::span<const double> y, std::span<const std::size_t> idx) {
  Vector out(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) out[i] = y[idx[i]];
  return out;
}

}  // namespace

UoiElasticNet::UoiElasticNet(UoiElasticNetOptions options)
    : options_(std::move(options)) {
  UOI_CHECK(options_.n_selection_bootstraps >= 1, "B1 must be >= 1");
  UOI_CHECK(options_.n_estimation_bootstraps >= 1, "B2 must be >= 1");
  UOI_CHECK(!options_.l1_ratios.empty(), "need at least one l1 ratio");
  for (const double r : options_.l1_ratios) {
    UOI_CHECK(r > 0.0 && r <= 1.0, "l1 ratios must be in (0, 1]");
  }
}

UoiElasticNetResult UoiElasticNet::fit(ConstMatrixView x,
                                       std::span<const double> y) const {
  UOI_CHECK_DIMS(x.rows() == y.size(), "UoI_ElasticNet: X rows != y size");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  const Matrix x_owned = Matrix::from_view(x);
  const UoiLassoOptions lasso_options = as_lasso_options(options_);

  UoiElasticNetResult result;
  result.l1_ratios = options_.l1_ratios;
  result.lambdas = uoi::solvers::lambda_grid_for(
      x, y, options_.n_lambdas, options_.lambda_min_ratio);
  const std::size_t q = result.lambdas.size();
  const std::size_t n_ratios = result.l1_ratios.size();
  const std::size_t n_cells = q * n_ratios;

  // ---- selection over the (l1_ratio, lambda) grid ----
  Matrix counts(n_cells, p, 0.0);
  for (std::size_t k = 0; k < options_.n_selection_bootstraps; ++k) {
    const auto idx = selection_bootstrap_indices(lasso_options, n, k);
    const Matrix x_boot = x_owned.gather_rows(idx);
    const Vector y_boot = gather(y, idx);
    for (std::size_t r = 0; r < n_ratios; ++r) {
      const double ratio = result.l1_ratios[r];
      // One screened chain per (bootstrap, ratio): each ratio traverses
      // its own descending lambda1 path (screening.hpp).
      uoi::solvers::ScreenedLassoChain chain(x_boot, y_boot, options_.admm,
                                             options_.screen);
      for (std::size_t j = 0; j < q; ++j) {
        const double lambda1 = result.lambdas[j] * ratio;
        const double lambda2 = result.lambdas[j] * (1.0 - ratio);
        const auto fit = chain.solve(lambda1, lambda2);
        auto row = counts.row(r * q + j);
        for (std::size_t i = 0; i < p; ++i) {
          if (std::abs(fit.beta[i]) > options_.support_tolerance) {
            row[i] += 1.0;
          }
        }
      }
    }
  }
  result.candidate_supports.reserve(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    result.candidate_supports.push_back(intersect_counts(
        counts.row(cell), options_.intersection_fraction,
        static_cast<double>(options_.n_selection_bootstraps)));
  }

  // ---- estimation (identical to UoI_LASSO over the larger family) ----
  const std::size_t b2 = options_.n_estimation_bootstraps;
  result.chosen_support_per_bootstrap.assign(b2, 0);
  result.best_loss_per_bootstrap.assign(
      b2, std::numeric_limits<double>::infinity());
  std::vector<Vector> winners;
  winners.reserve(b2);

  for (std::size_t k = 0; k < b2; ++k) {
    const auto split = estimation_split(lasso_options, n, k);
    const Matrix x_train = x_owned.gather_rows(split.train);
    const Matrix x_eval = x_owned.gather_rows(split.eval);
    const Vector y_train = gather(y, split.train);
    const Vector y_eval = gather(y, split.eval);

    Vector best_beta(p, 0.0);
    for (std::size_t cell = 0; cell < n_cells; ++cell) {
      const auto& support = result.candidate_supports[cell].indices();
      const Vector beta =
          uoi::solvers::ols_direct_on_support(x_train, y_train, support);
      const double mse =
          uoi::solvers::mean_squared_error(x_eval, y_eval, beta);
      const double loss =
          estimation_score(options_.criterion, mse,
                           static_cast<double>(y_eval.size()), support.size());
      if (loss < result.best_loss_per_bootstrap[k]) {
        result.best_loss_per_bootstrap[k] = loss;
        result.chosen_support_per_bootstrap[k] = cell;
        best_beta = beta;
      }
    }
    winners.push_back(std::move(best_beta));
  }

  result.beta = aggregate_estimates(winners, options_.aggregation);
  result.support =
      SupportSet::from_beta(result.beta, options_.support_tolerance);
  return result;
}

}  // namespace uoi::core
