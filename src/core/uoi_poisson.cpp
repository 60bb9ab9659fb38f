#include "core/uoi_poisson.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "solvers/lambda_grid.hpp"
#include "support/error.hpp"

namespace uoi::core {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

namespace {

UoiLassoOptions resample_options(const UoiPoissonOptions& options) {
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

UoiPoisson::UoiPoisson(UoiPoissonOptions options)
    : options_(std::move(options)) {
  UOI_CHECK(options_.n_selection_bootstraps >= 1, "B1 must be >= 1");
  UOI_CHECK(options_.n_estimation_bootstraps >= 1, "B2 must be >= 1");
}

UoiPoissonResult UoiPoisson::fit(ConstMatrixView x,
                                 std::span<const double> y) const {
  UOI_CHECK_DIMS(x.rows() == y.size(), "UoI_Poisson: X rows != y size");
  for (const double v : y) {
    UOI_CHECK(v >= 0.0, "Poisson responses must be non-negative counts");
  }
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  const Matrix x_owned = Matrix::from_view(x);
  const UoiLassoOptions resampling = resample_options(options_);

  UoiPoissonResult result;
  const double hi = uoi::solvers::poisson_lambda_max(x, y);
  UOI_CHECK(hi > 0.0, "degenerate counts: lambda_max is zero");
  result.lambdas = uoi::solvers::log_spaced_lambdas(
      hi, options_.lambda_min_ratio, options_.n_lambdas);
  const std::size_t q = result.lambdas.size();

  // ---- selection ----
  Matrix counts(q, p, 0.0);
  for (std::size_t k = 0; k < options_.n_selection_bootstraps; ++k) {
    const auto idx = selection_bootstrap_indices(resampling, n, k);
    const Matrix x_boot = x_owned.gather_rows(idx);
    const Vector y_boot = gather(y, idx);
    for (std::size_t j = 0; j < q; ++j) {
      const auto fit = uoi::solvers::poisson_lasso(
          x_boot, y_boot, result.lambdas[j], options_.solver);
      auto row = counts.row(j);
      for (std::size_t i = 0; i < p; ++i) {
        if (std::abs(fit.beta[i]) > options_.support_tolerance) row[i] += 1.0;
      }
    }
  }
  result.candidate_supports.reserve(q);
  for (std::size_t j = 0; j < q; ++j) {
    result.candidate_supports.push_back(intersect_counts(
        counts.row(j), options_.intersection_fraction,
        static_cast<double>(options_.n_selection_bootstraps)));
  }

  // ---- estimation: IRLS refits scored by held-out deviance ----
  const std::size_t b2 = options_.n_estimation_bootstraps;
  result.chosen_support_per_bootstrap.assign(b2, 0);
  result.best_loss_per_bootstrap.assign(
      b2, std::numeric_limits<double>::infinity());
  std::vector<Vector> winners;
  winners.reserve(b2);
  double intercept_sum = 0.0;

  for (std::size_t k = 0; k < b2; ++k) {
    const auto split = estimation_split(resampling, n, k);
    const Matrix x_train = x_owned.gather_rows(split.train);
    const Matrix x_eval = x_owned.gather_rows(split.eval);
    const Vector y_train = gather(y, split.train);
    const Vector y_eval = gather(y, split.eval);

    Vector best_beta(p, 0.0);
    double best_intercept = 0.0;
    for (std::size_t j = 0; j < q; ++j) {
      const auto& support = result.candidate_supports[j].indices();
      const auto fit = uoi::solvers::poisson_irls_on_support(
          x_train, y_train, support, options_.solver);
      const double loss = uoi::solvers::poisson_deviance(
          x_eval, y_eval, fit.beta, fit.intercept);
      if (loss < result.best_loss_per_bootstrap[k]) {
        result.best_loss_per_bootstrap[k] = loss;
        result.chosen_support_per_bootstrap[k] = j;
        best_beta = fit.beta;
        best_intercept = fit.intercept;
      }
    }
    winners.push_back(std::move(best_beta));
    intercept_sum += best_intercept;
  }

  result.beta = aggregate_estimates(winners, options_.aggregation);
  result.intercept = intercept_sum / static_cast<double>(b2);
  result.support =
      SupportSet::from_beta(result.beta, options_.support_tolerance);
  return result;
}

}  // namespace uoi::core
