#include "core/uoi_logistic.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/uoi_logistic_distributed.hpp"
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

struct LogisticHooks {
  UoiSelectHook select;
  UoiEstimateHook estimate;
};

/// A winner row: beta, then the intercept.
Vector pack(const uoi::solvers::LogisticResult& fit) {
  Vector packed(fit.beta.size() + 1);
  std::copy(fit.beta.begin(), fit.beta.end(), packed.begin());
  packed.back() = fit.intercept;
  return packed;
}

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

/// Consensus l1-logistic selection over the task group's row blocks; IRLS
/// refits on the full training split (cheap: support columns only) scored
/// by held-out log loss over the group's evaluation row blocks.
LogisticHooks distributed_hooks(ConstMatrixView x, std::span<const double> y,
                                const UoiLogisticOptions& options,
                                const UoiLassoOptions& resampling,
                                std::span<const double> lambdas,
                                const uoi::solvers::AdmmOptions& admm) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();

  LogisticHooks hooks;
  hooks.select = [=, &options, &resampling](UoiSelectionTask& task) {
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
          lambdas[task.cells[m]], admm);
      task.counters.add(fit);
      task.mark_selected(m, fit.beta, options.support_tolerance);
    }
  };
  hooks.estimate = [=, &options, &resampling](UoiEstimationTask& task) {
    const auto& tl = task.layout;
    const std::size_t k = task.bootstrap;
    const auto entry = task.cache.get_or_build<LogisticEstimationEntry>(
        uoi::solvers::kEstimationPass, k, [&] {
          auto fresh = std::make_shared<LogisticEstimationEntry>();
          support::TraceScope distr_span(
              "estimation-gather", support::TraceCategory::kDistribution,
              task.task_comm.global_rank());
          const auto split = estimation_split(resampling, n, k);
          gather_local_block(x, y, split.train, {0, split.train.size()},
                             fresh->x_train, fresh->y_train);
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
      task.record(j, acc[1] > 0.0 ? acc[0] / acc[1] : 0.0,
                  tl.task_rank == 0 ? pack(fit) : Vector{});
    }
  };
  return hooks;
}

/// Serial l1-logistic selection fits and IRLS refits scored by held-out
/// log loss, for a one-rank engine run.
LogisticHooks serial_hooks(ConstMatrixView x, std::span<const double> y,
                           const UoiLogisticOptions& options,
                           const UoiLassoOptions& resampling,
                           std::span<const double> lambdas) {
  const std::size_t n = x.rows();
  LogisticHooks hooks;
  hooks.select = [=, &options, &resampling](UoiSelectionTask& task) {
    const auto idx = selection_bootstrap_indices(resampling, n, task.bootstrap);
    Matrix x_boot;
    Vector y_boot;
    gather_local_block(x, y, idx, {0, idx.size()}, x_boot, y_boot);
    for (std::size_t m = 0; m < task.cells.size(); ++m) {
      const auto fit = uoi::solvers::logistic_lasso(
          x_boot, y_boot, lambdas[task.cells[m]], options.solver);
      task.counters.add(fit);
      task.mark_selected(m, fit.beta, options.support_tolerance);
    }
  };
  hooks.estimate = [=, &options, &resampling](UoiEstimationTask& task) {
    const auto split = estimation_split(resampling, n, task.bootstrap);
    Matrix x_train, x_eval;
    Vector y_train, y_eval;
    gather_local_block(x, y, split.train, {0, split.train.size()}, x_train,
                       y_train);
    gather_local_block(x, y, split.eval, {0, split.eval.size()}, x_eval,
                       y_eval);
    for (const std::size_t j : task.cells) {
      const auto fit = uoi::solvers::logistic_irls_on_support(
          x_train, y_train, task.supports[j].indices(), options.solver);
      task.record(j,
                  uoi::solvers::logistic_log_loss(x_eval, y_eval, fit.beta,
                                                  fit.intercept),
                  pack(fit));
    }
  };
  return hooks;
}

/// The driver body behind both entry points.
UoiLogisticDistributedResult fit_logistic(Comm& comm, ConstMatrixView x,
                                          std::span<const double> y,
                                          const UoiLogisticOptions& options,
                                          const UoiParallelLayout& layout,
                                          bool serial) {
  UOI_CHECK_DIMS(x.rows() == y.size(), "UoI_Logistic: X rows != y size");
  for (const double v : y) {
    UOI_CHECK(v == 0.0 || v == 1.0, "labels must be 0 or 1");
  }
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
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

  const auto hooks =
      serial ? serial_hooks(x, y, options, resampling, model.lambdas)
             : distributed_hooks(x, y, options, resampling, model.lambdas,
                                 admm);
  auto run = run_uoi_engine(comm, spec, hooks.select, hooks.estimate);

  model.candidate_supports = std::move(run.candidate_supports);
  model.chosen_support_per_bootstrap =
      std::move(run.chosen_support_per_bootstrap);
  model.best_loss_per_bootstrap = std::move(run.best_loss_per_bootstrap);
  const std::size_t b2 = run.winners.rows();
  model.beta = aggregate_estimates(
      ConstMatrixView(run.winners.data(), b2, p, p + 1), options.aggregation);
  for (std::size_t k = 0; k < b2; ++k) model.intercept += run.winners(k, p);
  model.intercept /= static_cast<double>(b2);
  model.support = SupportSet::from_beta(model.beta, options.support_tolerance);
  out.breakdown = run.breakdown;
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
  return run_on_local_rank([&](Comm& comm) {
           return fit_logistic(comm, x, y, options_, {}, /*serial=*/true);
         })
      .model;
}

UoiLogisticDistributedResult uoi_logistic_distributed(
    Comm& comm, ConstMatrixView x, std::span<const double> y,
    const UoiLogisticOptions& options, const UoiParallelLayout& layout) {
  return fit_logistic(comm, x, y, options, layout, /*serial=*/false);
}

}  // namespace uoi::core
