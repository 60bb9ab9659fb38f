#include "core/uoi_poisson.hpp"

#include <algorithm>
#include <utility>

#include "core/uoi_engine.hpp"
#include "solvers/lambda_grid.hpp"
#include "support/error.hpp"

namespace uoi::core {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

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
  UoiLassoOptions resampling;
  resampling.n_selection_bootstraps = options_.n_selection_bootstraps;
  resampling.n_estimation_bootstraps = options_.n_estimation_bootstraps;
  resampling.estimation_train_fraction = options_.estimation_train_fraction;
  resampling.seed = options_.seed;

  UoiPoissonResult result;
  const double hi = uoi::solvers::poisson_lambda_max(x, y);
  UOI_CHECK(hi > 0.0, "degenerate counts: lambda_max is zero");
  result.lambdas = uoi::solvers::log_spaced_lambdas(
      hi, options_.lambda_min_ratio, options_.n_lambdas);

  UoiEngineSpec spec;
  spec.name = "UoI_Poisson";
  spec.computation_span = "uoi-poisson-computation";
  spec.n_selection_bootstraps = options_.n_selection_bootstraps;
  spec.n_estimation_bootstraps = options_.n_estimation_bootstraps;
  spec.cell_lambdas = result.lambdas;
  spec.selection_width = p;
  spec.winner_width = p + 1;  // beta, then the intercept
  spec.seed = options_.seed;
  spec.intersection_fraction = options_.intersection_fraction;

  // Selection: l1-penalized Poisson fits on each bootstrap.
  const auto select = [&](UoiSelectionTask& task) {
    const auto idx = selection_bootstrap_indices(resampling, n, task.bootstrap);
    Matrix x_boot;
    Vector y_boot;
    detail::gather_local_block(x, y, idx, {0, idx.size()}, x_boot, y_boot);
    for (std::size_t m = 0; m < task.cells.size(); ++m) {
      const auto fit = uoi::solvers::poisson_lasso(
          x_boot, y_boot, result.lambdas[task.cells[m]], options_.solver);
      task.counters.add(fit);
      task.mark_selected(m, fit.beta, options_.support_tolerance);
    }
  };
  // Estimation: IRLS refits scored by held-out deviance.
  const auto estimate = [&](UoiEstimationTask& task) {
    const auto split = estimation_split(resampling, n, task.bootstrap);
    Matrix x_train, x_eval;
    Vector y_train, y_eval;
    detail::gather_local_block(x, y, split.train, {0, split.train.size()},
                               x_train, y_train);
    detail::gather_local_block(x, y, split.eval, {0, split.eval.size()},
                               x_eval, y_eval);
    for (const std::size_t j : task.cells) {
      const auto fit = uoi::solvers::poisson_irls_on_support(
          x_train, y_train, task.supports[j].indices(), options_.solver);
      Vector packed(p + 1);
      std::copy(fit.beta.begin(), fit.beta.end(), packed.begin());
      packed[p] = fit.intercept;
      task.record(j,
                  uoi::solvers::poisson_deviance(x_eval, y_eval, fit.beta,
                                                 fit.intercept),
                  std::move(packed));
    }
  };
  auto run = run_on_local_rank([&](uoi::sim::Comm& comm) {
    return run_uoi_engine(comm, spec, select, estimate);
  });

  result.candidate_supports = std::move(run.candidate_supports);
  result.chosen_support_per_bootstrap =
      std::move(run.chosen_support_per_bootstrap);
  result.best_loss_per_bootstrap = std::move(run.best_loss_per_bootstrap);
  const std::size_t b2 = run.winners.rows();
  result.beta = aggregate_estimates(
      ConstMatrixView(run.winners.data(), b2, p, p + 1),
      options_.aggregation);
  for (std::size_t k = 0; k < b2; ++k) result.intercept += run.winners(k, p);
  result.intercept /= static_cast<double>(b2);
  result.support =
      SupportSet::from_beta(result.beta, options_.support_tolerance);
  return result;
}

}  // namespace uoi::core
