#include "core/uoi_elastic_net.hpp"

#include <utility>
#include <vector>

#include "core/uoi_elastic_net_distributed.hpp"
#include "sched/cost_model.hpp"
#include "solvers/lambda_grid.hpp"
#include "support/error.hpp"

namespace uoi::core {

using uoi::linalg::ConstMatrixView;
using uoi::sim::Comm;

namespace {

/// The driver body behind both entry points: the lasso family over the
/// flattened (ratio, lambda) grid. Cell c = r * q + j fits penalties
/// (lambda_j * ratio_r, lambda_j * (1 - ratio_r)), and its scheduling
/// cost is keyed by lambda_j. The resampling reuses the UoI_LASSO
/// streams, so l1_ratios = {1.0} reproduces UoI_LASSO's bootstraps.
UoiElasticNetDistributedResult fit_elastic_net(
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

  UoiLassoOptions linear;
  linear.n_selection_bootstraps = options.n_selection_bootstraps;
  linear.n_estimation_bootstraps = options.n_estimation_bootstraps;
  linear.estimation_train_fraction = options.estimation_train_fraction;
  linear.seed = options.seed;
  linear.support_tolerance = options.support_tolerance;
  linear.criterion = options.criterion;
  linear.admm = options.admm;
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

  // Each ratio walks its own descending lambda1 path from a fresh chain.
  const auto hooks = detail::linear_family_hooks(
      x, y, linear, lambda1, lambda2, q,
      detail::linear_family_path(comm, x, layout));
  auto run = run_uoi_engine(comm, spec, hooks.select, hooks.estimate);

  model.candidate_supports = std::move(run.candidate_supports);
  model.chosen_support_per_bootstrap =
      std::move(run.chosen_support_per_bootstrap);
  model.best_loss_per_bootstrap = std::move(run.best_loss_per_bootstrap);
  model.beta = aggregate_estimates(run.winners, options.aggregation);
  model.support = SupportSet::from_beta(model.beta, options.support_tolerance);
  out.breakdown = run.breakdown;
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
  return run_on_local_rank([&](Comm& comm) {
           return fit_elastic_net(comm, x, y, options_, {});
         })
      .model;
}

UoiElasticNetDistributedResult uoi_elastic_net_distributed(
    Comm& comm, ConstMatrixView x, std::span<const double> y,
    const UoiElasticNetOptions& options, const UoiParallelLayout& layout) {
  return fit_elastic_net(comm, x, y, options, layout);
}

}  // namespace uoi::core
