#include "core/uoi_logistic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "solvers/lambda_grid.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace uoi::core {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

namespace {

UoiLassoOptions as_lasso_options(const UoiLogisticOptions& options) {
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

UoiLogistic::UoiLogistic(UoiLogisticOptions options)
    : options_(std::move(options)) {
  UOI_CHECK(options_.n_selection_bootstraps >= 1, "B1 must be >= 1");
  UOI_CHECK(options_.n_estimation_bootstraps >= 1, "B2 must be >= 1");
}

UoiLogisticResult UoiLogistic::fit(ConstMatrixView x,
                                   std::span<const double> y) const {
  UOI_CHECK_DIMS(x.rows() == y.size(), "UoI_Logistic: X rows != y size");
  for (const double v : y) {
    UOI_CHECK(v == 0.0 || v == 1.0, "labels must be 0 or 1");
  }
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  const Matrix x_owned = Matrix::from_view(x);
  const UoiLassoOptions lasso_options = as_lasso_options(options_);

  UoiLogisticResult result;
  const double hi = uoi::solvers::logistic_lambda_max(x, y);
  UOI_CHECK(hi > 0.0, "degenerate labels: lambda_max is zero");
  result.lambdas = uoi::solvers::log_spaced_lambdas(
      hi, options_.lambda_min_ratio, options_.n_lambdas);
  const std::size_t q = result.lambdas.size();

  // ---- selection ----
  Matrix counts(q, p, 0.0);
  for (std::size_t k = 0; k < options_.n_selection_bootstraps; ++k) {
    const auto idx = selection_bootstrap_indices(lasso_options, n, k);
    const Matrix x_boot = x_owned.gather_rows(idx);
    const Vector y_boot = gather(y, idx);
    for (std::size_t j = 0; j < q; ++j) {
      const auto fit = uoi::solvers::logistic_lasso(
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

  // ---- estimation ----
  const std::size_t b2 = options_.n_estimation_bootstraps;
  result.chosen_support_per_bootstrap.assign(b2, 0);
  result.best_loss_per_bootstrap.assign(
      b2, std::numeric_limits<double>::infinity());
  std::vector<Vector> winners;
  winners.reserve(b2);
  Vector intercepts;
  intercepts.reserve(b2);

  for (std::size_t k = 0; k < b2; ++k) {
    const auto split = estimation_split(lasso_options, n, k);
    const Matrix x_train = x_owned.gather_rows(split.train);
    const Matrix x_eval = x_owned.gather_rows(split.eval);
    const Vector y_train = gather(y, split.train);
    const Vector y_eval = gather(y, split.eval);

    Vector best_beta(p, 0.0);
    double best_intercept = 0.0;
    for (std::size_t j = 0; j < q; ++j) {
      const auto& support = result.candidate_supports[j].indices();
      const auto fit = uoi::solvers::logistic_irls_on_support(
          x_train, y_train, support, options_.solver);
      const double loss = uoi::solvers::logistic_log_loss(
          x_eval, y_eval, fit.beta, fit.intercept);
      if (loss < result.best_loss_per_bootstrap[k]) {
        result.best_loss_per_bootstrap[k] = loss;
        result.chosen_support_per_bootstrap[k] = j;
        best_beta = fit.beta;
        best_intercept = fit.intercept;
      }
    }
    winners.push_back(std::move(best_beta));
    intercepts.push_back(best_intercept);
  }

  result.beta = aggregate_estimates(winners, options_.aggregation);
  for (const double b : intercepts) result.intercept += b;
  result.intercept /= static_cast<double>(b2);
  result.support =
      SupportSet::from_beta(result.beta, options_.support_tolerance);
  return result;
}

}  // namespace uoi::core
