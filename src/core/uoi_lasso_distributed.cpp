#include "core/uoi_lasso_distributed.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"
#include "sched/cost_model.hpp"
#include "solvers/distributed_admm.hpp"
#include "solvers/ols.hpp"
#include "solvers/screening.hpp"
#include "solvers/solver_cache.hpp"
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

/// Distributed evaluation over a task group: each rank scores its own
/// evaluation rows, (sq_err, count) is sum-reduced, and the MSE plus the
/// global evaluation count come back identical on every group rank.
struct DistributedEvaluation {
  double mse;
  double n_eval;
};
DistributedEvaluation distributed_mse(Comm& task_comm,
                                      ConstMatrixView x_local,
                                      std::span<const double> y_local,
                                      std::span<const double> beta) {
  double acc[2] = {0.0, static_cast<double>(x_local.rows())};
  for (std::size_t r = 0; r < x_local.rows(); ++r) {
    double pred = 0.0;
    const auto row = x_local.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) pred += row[c] * beta[c];
    const double err = pred - y_local[r];
    acc[0] += err * err;
  }
  task_comm.allreduce(std::span<double>(acc, 2), ReduceOp::kSum);
  return {acc[1] > 0.0 ? acc[0] / acc[1] : 0.0, acc[1]};
}

// Cached per-bootstrap state. `bytes()` must be a deterministic function of
// the GLOBAL problem shape (never this rank's local row count): cache
// misses run collective code (the solver constructor Allreduces A'b), so a
// hit/miss or eviction decision that diverged across a task group's ranks
// would deadlock the group.
struct LinearSelectionEntry {
  Matrix x_local;
  Vector y_local;
  /// Replicated screening quantities (A'b, column norms, lambda_max);
  /// built collectively once per bootstrap, shared by every chain.
  uoi::solvers::ScreenInputs screen_inputs;
  /// Full-p factorization; built only in off mode (screened chains build
  /// reduced factorizations per lambda instead).
  std::optional<uoi::solvers::DistributedLassoAdmmSolver> solver;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

struct LinearEstimationEntry {
  Matrix x_train, x_eval;
  Vector y_train, y_eval;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

}  // namespace

namespace detail {

LinearFamilyHooks linear_family_hooks(ConstMatrixView x,
                                      std::span<const double> y,
                                      const UoiLassoOptions& options,
                                      std::span<const double> lambda1,
                                      std::span<const double> lambda2) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  // Screening mode is resolved once up front: the cache entry's shape
  // (full solver or not) and bytes_estimate must be identical on every
  // rank, and all ranks see the same environment in-process.
  uoi::solvers::ScreenOptions screen_opts = options.screen;
  screen_opts.mode = uoi::solvers::resolve_screen_mode(options.screen.mode);
  const bool screening_on =
      screen_opts.mode != uoi::solvers::ScreenMode::kOff;

  LinearFamilyHooks hooks;
  hooks.select = [=, &options](UoiSelectionTask& task) {
    const int trace_rank = task.task_comm.global_rank();
    const auto& tl = task.layout;
    const std::size_t k = task.bootstrap;
    // All chains of bootstrap k share one gather + one Gram/Cholesky
    // setup: the factorization depends on (X_k, rho) only, not lambda.
    const std::uint64_t hits_before = task.cache.stats().hits;
    const auto entry = task.cache.get_or_build<LinearSelectionEntry>(
        uoi::solvers::kSelectionPass, k, [&] {
          auto fresh = std::make_shared<LinearSelectionEntry>();
          {
            support::TraceScope distr_span(
                "selection-gather", support::TraceCategory::kDistribution,
                trace_rank);
            const auto idx = selection_bootstrap_indices(options, n, k);
            gather_local_block(
                x, y, idx, block_slice(idx.size(), tl.c_ranks, tl.task_rank),
                fresh->x_local, fresh->y_local);
          }
          {
            support::TraceScope gram_span("selection-gram",
                                          support::TraceCategory::kGram,
                                          trace_rank);
            fresh->screen_inputs = uoi::solvers::build_screen_inputs(
                task.task_comm, fresh->x_local, fresh->y_local);
            if (!screening_on) {
              // Only off mode pays the full-p Gram/Cholesky up front;
              // screened chains factorize the survivors per lambda.
              // Refined options: cached full solvers must match the
              // chain's internal stopping rules.
              fresh->solver.emplace(
                  task.task_comm, fresh->x_local, fresh->y_local,
                  uoi::solvers::detail::refined_admm_options(options.admm,
                                                             screen_opts));
            }
          }
          fresh->bytes_estimate =
              (n * (p + 1) + (screening_on ? 0 : p * p) + 2 * p + 1) *
              sizeof(double);
          return fresh;
        });
    if (entry->solver.has_value()) {
      if (task.cache.stats().hits > hits_before) {
        task.counters.setup_flops_amortized += entry->solver->setup_flops();
      } else {
        task.counters.setup_flops_charged += entry->solver->setup_flops();
      }
    }
    // The screened chain owns the warm start: every rank derives the
    // identical working set from the replicated screen inputs, so the
    // reduced consensus payload is (|W|+3) doubles instead of (p+3).
    // lambda1 descends within a chain and jumps up at elastic-net ratio
    // boundaries, which resets the chain's screening state.
    uoi::solvers::DistributedScreenedLassoChain screened(
        task.task_comm, entry->x_local, entry->y_local, entry->screen_inputs,
        options.admm, screen_opts,
        entry->solver.has_value() ? &*entry->solver : nullptr);
    for (std::size_t m = 0; m < task.cells.size(); ++m) {
      const std::size_t c = task.cells[m];
      const auto fit = screened.solve(lambda1[c], lambda2[c]);
      task.counters.add(fit);
      task.mark_selected(m, fit.beta, options.support_tolerance);
    }
    task.counters.screen += screened.stats();
  };

  hooks.estimate = [=, &options](UoiEstimationTask& task) {
    const auto& tl = task.layout;
    const std::size_t k = task.bootstrap;
    // The gather is per bootstrap; the cache lets a group revisiting a
    // resample — several chains, or interleaved work-stolen cells — gather
    // once.
    const auto entry = task.cache.get_or_build<LinearEstimationEntry>(
        uoi::solvers::kEstimationPass, k, [&] {
          auto fresh = std::make_shared<LinearEstimationEntry>();
          support::TraceScope distr_span(
              "estimation-gather", support::TraceCategory::kDistribution,
              task.task_comm.global_rank());
          const auto split = estimation_split(options, n, k);
          gather_local_block(
              x, y, split.train,
              block_slice(split.train.size(), tl.c_ranks, tl.task_rank),
              fresh->x_train, fresh->y_train);
          gather_local_block(
              x, y, split.eval,
              block_slice(split.eval.size(), tl.c_ranks, tl.task_rank),
              fresh->x_eval, fresh->y_eval);
          fresh->bytes_estimate = (split.train.size() + split.eval.size()) *
                                  (p + 1) * sizeof(double);
          return fresh;
        });
    for (const std::size_t c : task.cells) {
      const auto& support = task.supports[c].indices();
      Vector beta(p, 0.0);
      if (!support.empty()) {
        // Distributed OLS: consensus ADMM with lambda = 0 on the support
        // columns (paper §II-C), row-distributed over the task group.
        const Matrix x_train_s = entry->x_train.gather_cols(support);
        const auto fit = uoi::solvers::distributed_lasso_admm(
            task.task_comm, x_train_s, entry->y_train, /*lambda=*/0.0,
            options.admm);
        task.counters.add(fit);
        for (std::size_t i = 0; i < support.size(); ++i) {
          beta[support[i]] = fit.beta[i];
        }
      }
      const auto eval =
          distributed_mse(task.task_comm, entry->x_eval, entry->y_eval, beta);
      // The group's ranks hold the same beta; rank 0 deposits it.
      task.record(c,
                  estimation_score(options.criterion, eval.mse, eval.n_eval,
                                   support.size()),
                  tl.task_rank == 0 ? std::move(beta) : Vector{});
    }
  };
  return hooks;
}

LinearFamilyHooks serial_linear_hooks(ConstMatrixView x,
                                      std::span<const double> y,
                                      const UoiLassoOptions& options,
                                      std::span<const double> lambda1,
                                      std::span<const double> lambda2,
                                      std::size_t chain_length) {
  const std::size_t n = x.rows();
  LinearFamilyHooks hooks;
  hooks.select = [=, &options](UoiSelectionTask& task) {
    const auto idx = selection_bootstrap_indices(options, n, task.bootstrap);
    Matrix x_boot;
    Vector y_boot;
    gather_local_block(x, y, idx, {0, idx.size()}, x_boot, y_boot);
    // Screened chains warm-start down each descending lambda path, one
    // fresh chain per chain_length-cell segment of the grid.
    std::optional<uoi::solvers::ScreenedLassoChain> chain;
    const auto retire = [&] {
      if (chain) task.counters.screen += chain->stats();
    };
    for (std::size_t m = 0; m < task.cells.size(); ++m) {
      const std::size_t c = task.cells[m];
      if (m == 0 || c % chain_length == 0) {
        retire();
        chain.emplace(x_boot, y_boot, options.admm, options.screen);
      }
      const auto fit = chain->solve(lambda1[c], lambda2[c]);
      task.counters.add(fit);
      task.mark_selected(m, fit.beta, options.support_tolerance);
    }
    retire();
  };
  hooks.estimate = [=, &options](UoiEstimationTask& task) {
    const auto split = estimation_split(options, n, task.bootstrap);
    Matrix x_train, x_eval;
    Vector y_train, y_eval;
    gather_local_block(x, y, split.train, {0, split.train.size()}, x_train,
                       y_train);
    gather_local_block(x, y, split.eval, {0, split.eval.size()}, x_eval,
                       y_eval);
    for (const std::size_t c : task.cells) {
      const auto& support = task.supports[c].indices();
      Vector beta =
          uoi::solvers::ols_direct_on_support(x_train, y_train, support);
      const double mse =
          uoi::solvers::mean_squared_error(x_eval, y_eval, beta);
      task.record(c,
                  estimation_score(options.criterion, mse,
                                   static_cast<double>(y_eval.size()),
                                   support.size()),
                  std::move(beta));
    }
  };
  return hooks;
}

UoiLassoDistributedResult fit_lasso(Comm& comm, ConstMatrixView x_view,
                                    std::span<const double> y_view,
                                    const UoiLassoOptions& options,
                                    const UoiParallelLayout& layout,
                                    bool serial) {
  UOI_CHECK_DIMS(x_view.rows() == y_view.size(),
                 "UoI_LASSO: X rows != y size");
  const std::size_t n = x_view.rows();
  const std::size_t p = x_view.cols();

  // Optional intercept: center X's columns and y (replicated on every
  // rank); the intercept is refit from the means at the end.
  Matrix x_owned = Matrix::from_view(x_view);
  Vector y_owned(y_view.begin(), y_view.end());
  Vector x_means(p, 0.0);
  double y_mean = 0.0;
  if (options.fit_intercept) {
    for (std::size_t r = 0; r < n; ++r) {
      const auto row = x_owned.row(r);
      for (std::size_t c = 0; c < p; ++c) x_means[c] += row[c];
      y_mean += y_owned[r];
    }
    for (auto& m : x_means) m /= static_cast<double>(n);
    y_mean /= static_cast<double>(n);
    for (std::size_t r = 0; r < n; ++r) {
      auto row = x_owned.row(r);
      for (std::size_t c = 0; c < p; ++c) row[c] -= x_means[c];
      y_owned[r] -= y_mean;
    }
  }

  UoiLassoDistributedResult out;
  UoiLassoResult& model = out.model;
  model.lambdas = resolve_lambda_grid(options, x_owned, y_owned);
  const std::size_t q = model.lambdas.size();

  UoiEngineSpec spec;
  spec.name = "UoI_LASSO";
  spec.computation_span = "uoi-lasso-computation";
  spec.n_selection_bootstraps = options.n_selection_bootstraps;
  spec.n_estimation_bootstraps = options.n_estimation_bootstraps;
  spec.cell_lambdas = model.lambdas;
  spec.selection_width = p;
  spec.winner_width = p;
  spec.pass_seconds_seed = sched::lasso_pass_seconds_estimate(
      n, p, spec.n_selection_bootstraps, spec.n_estimation_bootstraps, q,
      options.admm.max_iterations, comm.size());
  spec.seed = options.seed;
  spec.intersection_fraction = options.intersection_fraction;
  spec.schedule = options.schedule;
  spec.solver_cache_mb = options.solver_cache_mb;
  spec.layout = layout;
  spec.recovery = options.recovery;
  spec.fingerprint =
      UoiLasso(options).selection_fingerprint(n, p, model.lambdas);
  spec.consensus_interval = options.admm.consensus_interval;
  spec.screen_mode = uoi::solvers::resolve_screen_mode(options.screen.mode);

  const std::vector<double> no_l2(q, 0.0);
  const auto hooks =
      serial ? serial_linear_hooks(x_owned, y_owned, options, model.lambdas,
                                   no_l2, q)
             : linear_family_hooks(x_owned, y_owned, options, model.lambdas,
                                   no_l2);
  auto run = run_uoi_engine(comm, spec, hooks.select, hooks.estimate);

  model.candidate_supports = std::move(run.candidate_supports);
  model.chosen_support_per_bootstrap =
      std::move(run.chosen_support_per_bootstrap);
  model.best_loss_per_bootstrap = std::move(run.best_loss_per_bootstrap);
  model.total_flops = run.total_flops;
  model.beta = aggregate_estimates(run.winners, options.aggregation);
  model.support = SupportSet::from_beta(model.beta, options.support_tolerance);
  if (options.fit_intercept) {
    // Each entry point keeps its pinned bytes: the serial fit has always
    // used the SIMD dot, the distributed fit a sequential sum.
    model.intercept =
        y_mean - (serial ? uoi::linalg::dot(x_means, model.beta)
                         : std::inner_product(x_means.begin(), x_means.end(),
                                              model.beta.begin(), 0.0));
  }
  out.breakdown = run.breakdown;
  out.selection_counts = std::move(run.selection_counts);
  out.degraded = run.degraded;
  out.achieved_quorum = run.achieved_quorum;
  out.lost_cells = std::move(run.lost_cells);
  return out;
}

}  // namespace detail

UoiLassoDistributedResult uoi_lasso_distributed(
    Comm& comm, ConstMatrixView x, std::span<const double> y,
    const UoiLassoOptions& options, const UoiParallelLayout& layout) {
  return detail::fit_lasso(comm, x, y, options, layout, /*serial=*/false);
}

}  // namespace uoi::core
