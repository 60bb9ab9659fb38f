#include "core/uoi_logistic_distributed.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sched/cost_model.hpp"
#include "solvers/distributed_logistic.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/logistic.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace uoi::core {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;
using uoi::sim::Comm;
using uoi::sim::ReduceOp;

namespace {

using detail::block_slice;
using detail::gather_local_block;

// Gather-only cache entries (IRLS has no reusable factorization). As in
// the other families, `bytes()` depends only on the global shape so every
// group rank makes the same hit/miss/evict decisions.
struct LogisticSelectionEntry {
  Matrix x_local;
  Vector y_local;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

struct LogisticEstimationEntry {
  Matrix x_train, x_eval_local;
  Vector y_train, y_eval_local;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

}  // namespace

UoiLogisticDistributedResult uoi_logistic_distributed(
    Comm& comm, ConstMatrixView x, std::span<const double> y,
    const UoiLogisticOptions& options, const UoiParallelLayout& layout) {
  UOI_CHECK_DIMS(x.rows() == y.size(), "UoI_Logistic: X rows != y size");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  const Matrix x_owned = Matrix::from_view(x);
  UoiLassoOptions resampling;
  resampling.n_selection_bootstraps = options.n_selection_bootstraps;
  resampling.n_estimation_bootstraps = options.n_estimation_bootstraps;
  resampling.estimation_train_fraction = options.estimation_train_fraction;
  resampling.seed = options.seed;

  UoiLogisticDistributedResult out;
  UoiLogisticResult& model = out.model;
  const double hi = uoi::solvers::logistic_lambda_max(x, y);
  UOI_CHECK(hi > 0.0, "degenerate labels: lambda_max is zero");
  model.lambdas = uoi::solvers::log_spaced_lambdas(
      hi, options.lambda_min_ratio, options.n_lambdas);
  const std::size_t q = model.lambdas.size();

  uoi::solvers::AdmmOptions admm;
  admm.eps_abs = 1e-7;
  admm.eps_rel = 1e-5;
  admm.max_iterations = 2000;
  admm.consensus_interval = options.consensus_interval;

  UoiEngineSpec spec;
  spec.name = "UoI_Logistic";
  spec.computation_span = "uoi-logistic-computation";
  spec.n_selection_bootstraps = options.n_selection_bootstraps;
  spec.n_estimation_bootstraps = options.n_estimation_bootstraps;
  spec.cell_lambdas = model.lambdas;
  spec.selection_width = p;
  spec.winner_width = p + 1;  // beta, then the intercept
  spec.pass_seconds_seed = sched::lasso_pass_seconds_estimate(
      n, p, spec.n_selection_bootstraps, spec.n_estimation_bootstraps, q,
      admm.max_iterations, comm.size());
  spec.seed = options.seed;
  spec.intersection_fraction = options.intersection_fraction;
  spec.schedule = options.schedule;
  spec.solver_cache_mb = options.solver_cache_mb;
  spec.layout = layout;
  spec.consensus_interval = options.consensus_interval;

  const auto select = [&](UoiSelectionTask& task) {
    const auto& tl = task.layout;
    const std::size_t k = task.bootstrap;
    const auto entry = task.cache.get_or_build<LogisticSelectionEntry>(
        uoi::solvers::kSelectionPass, k, [&] {
          auto fresh = std::make_shared<LogisticSelectionEntry>();
          support::TraceScope distr_span(
              "selection-gather", support::TraceCategory::kDistribution,
              task.task_comm.global_rank());
          const auto idx = selection_bootstrap_indices(resampling, n, k);
          gather_local_block(
              x, y, idx, block_slice(idx.size(), tl.c_ranks, tl.task_rank),
              fresh->x_local, fresh->y_local);
          fresh->bytes_estimate = n * (p + 1) * sizeof(double);
          return fresh;
        });
    for (std::size_t m = 0; m < task.cells.size(); ++m) {
      const auto fit = uoi::solvers::distributed_logistic_lasso(
          task.task_comm, entry->x_local, entry->y_local,
          model.lambdas[task.cells[m]], admm);
      task.counters.add(fit);
      task.mark_selected(m, fit.beta, options.support_tolerance);
    }
  };

  // Each task group scores its (bootstrap, support) pairs with held-out
  // log loss; IRLS refits run on the full training split (they are cheap:
  // support columns only), evaluation rows are partitioned for the loss.
  const auto estimate = [&](UoiEstimationTask& task) {
    const auto& tl = task.layout;
    const std::size_t k = task.bootstrap;
    const auto entry = task.cache.get_or_build<LogisticEstimationEntry>(
        uoi::solvers::kEstimationPass, k, [&] {
          auto fresh = std::make_shared<LogisticEstimationEntry>();
          support::TraceScope distr_span(
              "estimation-gather", support::TraceCategory::kDistribution,
              task.task_comm.global_rank());
          const auto split = estimation_split(resampling, n, k);
          fresh->x_train = x_owned.gather_rows(split.train);
          fresh->y_train = Vector(split.train.size());
          for (std::size_t i = 0; i < split.train.size(); ++i) {
            fresh->y_train[i] = y[split.train[i]];
          }
          gather_local_block(
              x, y, split.eval,
              block_slice(split.eval.size(), tl.c_ranks, tl.task_rank),
              fresh->x_eval_local, fresh->y_eval_local);
          fresh->bytes_estimate = (split.train.size() + split.eval.size()) *
                                  (p + 1) * sizeof(double);
          return fresh;
        });
    const Matrix& x_eval_local = entry->x_eval_local;
    for (const std::size_t j : task.cells) {
      const auto fit = uoi::solvers::logistic_irls_on_support(
          entry->x_train, entry->y_train, task.supports[j].indices(),
          options.solver);
      // Distributed held-out log loss: local sums reduced over the group.
      double acc[2] = {0.0, static_cast<double>(x_eval_local.rows())};
      if (x_eval_local.rows() > 0) {
        acc[0] = uoi::solvers::logistic_log_loss(x_eval_local,
                                                 entry->y_eval_local,
                                                 fit.beta, fit.intercept) *
                 static_cast<double>(x_eval_local.rows());
      }
      task.task_comm.allreduce(std::span<double>(acc, 2), ReduceOp::kSum);
      task.losses[j] = acc[1] > 0.0 ? acc[0] / acc[1] : 0.0;
      if (tl.task_rank == 0) {
        Vector packed(p + 1);
        std::copy(fit.beta.begin(), fit.beta.end(), packed.begin());
        packed[p] = fit.intercept;
        task.shares[j] = std::move(packed);
      }
    }
  };

  auto run = run_uoi_engine(comm, spec, select, estimate);

  model.candidate_supports = std::move(run.candidate_supports);
  model.chosen_support_per_bootstrap =
      std::move(run.chosen_support_per_bootstrap);
  model.best_loss_per_bootstrap = std::move(run.best_loss_per_bootstrap);
  std::vector<Vector> winner_betas;
  winner_betas.reserve(run.winners.rows());
  double intercept_sum = 0.0;
  for (std::size_t k = 0; k < run.winners.rows(); ++k) {
    const auto row = run.winners.row(k);
    winner_betas.emplace_back(row.begin(), row.end() - 1);
    intercept_sum += row[p];
  }
  model.beta = aggregate_estimates(winner_betas, options.aggregation);
  model.intercept =
      intercept_sum / static_cast<double>(options.n_estimation_bootstraps);
  model.support = SupportSet::from_beta(model.beta, options.support_tolerance);
  out.breakdown = run.breakdown;
  return out;
}

}  // namespace uoi::core
