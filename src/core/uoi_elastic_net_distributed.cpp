#include "core/uoi_elastic_net_distributed.hpp"

#include <utility>
#include <vector>

#include "sched/cost_model.hpp"
#include "solvers/lambda_grid.hpp"
#include "support/error.hpp"

namespace uoi::core {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Vector;
using uoi::sim::Comm;

UoiElasticNetDistributedResult uoi_elastic_net_distributed(
    Comm& comm, ConstMatrixView x, std::span<const double> y,
    const UoiElasticNetOptions& options, const UoiParallelLayout& layout) {
  UOI_CHECK_DIMS(x.rows() == y.size(), "UoI_ElasticNet: X rows != y size");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();

  UoiElasticNetDistributedResult out;
  UoiElasticNetResult& model = out.model;
  model.l1_ratios = options.l1_ratios;
  model.lambdas = uoi::solvers::lambda_grid_for(
      x, y, options.n_lambdas, options.lambda_min_ratio);
  const std::size_t q = model.lambdas.size();
  const std::size_t n_cells = q * model.l1_ratios.size();

  // The lasso family over the flattened (ratio, lambda) grid: cell
  // c = r * q + j fits penalties (lambda_j * ratio_r, lambda_j *
  // (1 - ratio_r)), and its scheduling cost is keyed by lambda_j.
  UoiLassoOptions linear;
  linear.n_selection_bootstraps = options.n_selection_bootstraps;
  linear.n_estimation_bootstraps = options.n_estimation_bootstraps;
  linear.estimation_train_fraction = options.estimation_train_fraction;
  linear.seed = options.seed;
  linear.support_tolerance = options.support_tolerance;
  linear.criterion = options.criterion;
  linear.admm = options.admm;
  linear.screen = options.screen;
  std::vector<double> cell_lambdas(n_cells);
  std::vector<double> lambda1(n_cells);
  std::vector<double> lambda2(n_cells);
  for (std::size_t c = 0; c < n_cells; ++c) {
    const double lambda = model.lambdas[c % q];
    const double ratio = model.l1_ratios[c / q];
    cell_lambdas[c] = lambda;
    lambda1[c] = lambda * ratio;
    lambda2[c] = lambda * (1.0 - ratio);
  }

  UoiEngineSpec spec;
  spec.name = "UoI_ElasticNet";
  spec.computation_span = "uoi-elastic-net-computation";
  spec.n_selection_bootstraps = options.n_selection_bootstraps;
  spec.n_estimation_bootstraps = options.n_estimation_bootstraps;
  spec.cell_lambdas = std::move(cell_lambdas);
  spec.selection_width = p;
  spec.winner_width = p;
  spec.pass_seconds_seed = sched::lasso_pass_seconds_estimate(
      n, p, spec.n_selection_bootstraps, spec.n_estimation_bootstraps,
      n_cells, options.admm.max_iterations, comm.size());
  spec.seed = options.seed;
  spec.intersection_fraction = options.intersection_fraction;
  spec.schedule = options.schedule;
  spec.solver_cache_mb = options.solver_cache_mb;
  spec.layout = layout;
  spec.consensus_interval = options.admm.consensus_interval;
  spec.screen_mode = uoi::solvers::resolve_screen_mode(options.screen.mode);

  const auto hooks =
      detail::linear_family_hooks(x, y, linear, lambda1, lambda2);
  auto run = run_uoi_engine(comm, spec, hooks.select, hooks.estimate);

  model.candidate_supports = std::move(run.candidate_supports);
  model.chosen_support_per_bootstrap =
      std::move(run.chosen_support_per_bootstrap);
  model.best_loss_per_bootstrap = std::move(run.best_loss_per_bootstrap);
  std::vector<Vector> winner_rows;
  winner_rows.reserve(run.winners.rows());
  for (std::size_t k = 0; k < run.winners.rows(); ++k) {
    const auto row = run.winners.row(k);
    winner_rows.emplace_back(row.begin(), row.end());
  }
  model.beta = aggregate_estimates(winner_rows, options.aggregation);
  model.support = SupportSet::from_beta(model.beta, options.support_tolerance);
  out.breakdown = run.breakdown;
  return out;
}

}  // namespace uoi::core
