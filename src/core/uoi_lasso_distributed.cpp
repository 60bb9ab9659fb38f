#include "core/uoi_lasso_distributed.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
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

/// Distributed evaluation of a task's betas over its group: each rank
/// scores its own evaluation rows, and one allreduce sums every beta's
/// (sq_err, count) pair, so the MSEs plus the global evaluation count come
/// back identical on every group rank. Each pair sums in rank order, as
/// one allreduce per beta would.
struct DistributedEvaluation {
  double mse;
  double n_eval;
};
std::vector<DistributedEvaluation> distributed_mse(
    Comm& task_comm, ConstMatrixView x_local, std::span<const double> y_local,
    const std::vector<Vector>& betas) {
  std::vector<double> acc(2 * betas.size(), 0.0);
  for (std::size_t b = 0; b < betas.size(); ++b) {
    acc[2 * b + 1] = static_cast<double>(x_local.rows());
    for (std::size_t r = 0; r < x_local.rows(); ++r) {
      double pred = 0.0;
      const auto row = x_local.row(r);
      for (std::size_t c = 0; c < row.size(); ++c) pred += row[c] * betas[b][c];
      const double err = pred - y_local[r];
      acc[2 * b] += err * err;
    }
  }
  task_comm.allreduce(std::span<double>(acc), ReduceOp::kSum);
  std::vector<DistributedEvaluation> out(betas.size());
  for (std::size_t b = 0; b < betas.size(); ++b) {
    const double n_eval = acc[2 * b + 1];
    out[b] = {n_eval > 0.0 ? acc[2 * b] / n_eval : 0.0, n_eval};
  }
  return out;
}

/// Collective over the task group: sums the group's row blocks into one
/// GramProblem with a single allreduce, charged to `counters`. The local
/// pass is traced as `span` (Gram bucket), the allreduce by the
/// communicator (communication bucket), so the two never overlap.
uoi::solvers::GramProblem reduce_gram(Comm& task_comm, ConstMatrixView x_local,
                                      std::span<const double> y_local,
                                      const char* span,
                                      UoiFitCounters& counters) {
  Vector sums;
  {
    support::TraceScope gram_span(span, support::TraceCategory::kGram,
                                  task_comm.global_rank());
    sums = uoi::solvers::gram_sums(x_local, y_local);
  }
  task_comm.allreduce(std::span<double>(sums), ReduceOp::kSum);
  counters.local_flops +=
      uoi::solvers::gram_sums_flops(x_local.rows(), x_local.cols());
  counters.allreduce_calls += 1;
  counters.allreduce_bytes += sums.size() * sizeof(double);
  return uoi::solvers::gram_problem_from_sums(sums, x_local.cols());
}

// Cached per-bootstrap state. `bytes()` must be a deterministic function of
// the GLOBAL problem shape (never this rank's local row count): cache
// misses run collective code (the Gram reduction, or the solver
// constructor's A'b allreduce), so a hit/miss or eviction decision that
// diverged across a task group's ranks would deadlock the group.
struct LinearSelectionEntry {
  /// Consensus path: this rank's rows of the bootstrap.
  Matrix x_local;
  Vector y_local;
  /// Replicated screening quantities (A'b, column norms, lambda_max);
  /// built collectively once per bootstrap, shared by every chain.
  uoi::solvers::ScreenInputs screen_inputs;
  /// Full-p factorization; built only in off mode (screened chains build
  /// reduced factorizations per lambda instead).
  std::optional<uoi::solvers::DistributedLassoAdmmSolver> solver;
  /// Gram path: the group's summed Gram (and its screening inputs).
  uoi::solvers::GramProblem gram;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

struct LinearEstimationEntry {
  /// Consensus path: this rank's training rows. Gram path: their Gram.
  Matrix x_train;
  Vector y_train;
  uoi::solvers::GramProblem train_gram;
  /// This rank's evaluation rows (both paths).
  Matrix x_eval;
  Vector y_eval;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

}  // namespace

namespace detail {

LinearFamilyHooks linear_family_hooks(ConstMatrixView x,
                                      std::span<const double> y,
                                      const UoiLassoOptions& options,
                                      std::span<const double> lambda1,
                                      std::span<const double> lambda2,
                                      sched::LinearPath path) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  // Screening mode is resolved once up front: the cache entry's shape
  // (full solver or not) and bytes_estimate must be identical on every
  // rank, and all ranks see the same environment in-process.
  uoi::solvers::ScreenOptions screen_opts = options.screen;
  screen_opts.mode = uoi::solvers::resolve_screen_mode(options.screen.mode);
  const bool screening_on =
      screen_opts.mode != uoi::solvers::ScreenMode::kOff;

  const bool gram_path = path == sched::LinearPath::kGram;
  // (p*p + p + 1) Gram sums plus the screening inputs' column norms.
  const std::size_t gram_bytes = (p * p + 2 * p + 1) * sizeof(double);

  LinearFamilyHooks hooks;
  hooks.select = [=, &options](UoiSelectionTask& task) {
    const int trace_rank = task.task_comm.global_rank();
    const auto& tl = task.layout;
    const std::size_t k = task.bootstrap;
    // All chains of bootstrap k share one gather and one Gram setup: on
    // the Gram path one reduction of the group's Gram, on the consensus
    // path the screening inputs (and in off mode the full factorization,
    // which depends on (X_k, rho) only, not lambda).
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
          if (gram_path) {
            fresh->gram =
                reduce_gram(task.task_comm, fresh->x_local, fresh->y_local,
                            "selection-gram", task.counters);
            fresh->x_local = Matrix();
            fresh->y_local = Vector();
            fresh->bytes_estimate = gram_bytes;
            return fresh;
          }
          support::TraceScope gram_span(
              "selection-gram", support::TraceCategory::kGram, trace_rank);
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
    // Both chains own the warm start along descending lambda1, which jumps
    // up at elastic-net ratio boundaries and resets the chain's screening
    // state.
    const auto walk = [&](auto& chain) {
      for (std::size_t m = 0; m < task.cells.size(); ++m) {
        const std::size_t c = task.cells[m];
        const auto fit = chain.solve(lambda1[c], lambda2[c]);
        task.counters.add(fit);
        task.mark_selected(m, fit.beta, options.support_tolerance);
      }
      task.counters.screen += chain.stats();
    };
    if (gram_path) {
      // Every group rank walks the same chain on the same Gram: no
      // collectives until the next bootstrap.
      uoi::solvers::GramLassoChain chain(entry->gram, options.admm,
                                         screen_opts);
      walk(chain);
      return;
    }
    // Every rank derives the identical working set from the replicated
    // screen inputs, so the reduced consensus payload is (|W|+3) doubles
    // instead of (p+3).
    uoi::solvers::DistributedScreenedLassoChain chain(
        task.task_comm, entry->x_local, entry->y_local, entry->screen_inputs,
        options.admm, screen_opts,
        entry->solver.has_value() ? &*entry->solver : nullptr);
    walk(chain);
  };

  hooks.estimate = [=, &options](UoiEstimationTask& task) {
    const auto& tl = task.layout;
    const std::size_t k = task.bootstrap;
    const int trace_rank = task.task_comm.global_rank();
    // The gather (and on the Gram path the training Gram) is per
    // bootstrap; the cache lets a group revisiting a resample — several
    // chains, or interleaved work-stolen cells — build it once.
    const auto entry = task.cache.get_or_build<LinearEstimationEntry>(
        uoi::solvers::kEstimationPass, k, [&] {
          auto fresh = std::make_shared<LinearEstimationEntry>();
          const auto split = estimation_split(options, n, k);
          {
            support::TraceScope distr_span(
                "estimation-gather", support::TraceCategory::kDistribution,
                trace_rank);
            gather_local_block(
                x, y, split.train,
                block_slice(split.train.size(), tl.c_ranks, tl.task_rank),
                fresh->x_train, fresh->y_train);
            gather_local_block(
                x, y, split.eval,
                block_slice(split.eval.size(), tl.c_ranks, tl.task_rank),
                fresh->x_eval, fresh->y_eval);
          }
          const std::size_t eval_bytes =
              split.eval.size() * (p + 1) * sizeof(double);
          if (gram_path) {
            fresh->train_gram =
                reduce_gram(task.task_comm, fresh->x_train, fresh->y_train,
                            "estimation-gram", task.counters);
            fresh->x_train = Matrix();
            fresh->y_train = Vector();
            fresh->bytes_estimate = gram_bytes + eval_bytes;
          } else {
            fresh->bytes_estimate =
                split.train.size() * (p + 1) * sizeof(double) + eval_bytes;
          }
          return fresh;
        });
    std::vector<Vector> betas;
    betas.reserve(task.cells.size());
    for (const std::size_t c : task.cells) {
      const auto& support = task.supports[c].indices();
      Vector& beta = betas.emplace_back(p, 0.0);
      if (support.empty()) continue;
      Vector sub;
      if (gram_path) {
        // Direct OLS on the support's Gram block, replicated on every
        // group rank.
        const auto& train = entry->train_gram;
        sub = uoi::solvers::ols_from_gram(
            uoi::solvers::detail::gather_submatrix(train.gram->gram(),
                                                   support),
            uoi::solvers::detail::gather_vector(train.inputs.atb, support));
        task.counters.local_flops +=
            uoi::linalg::cholesky_flops(support.size()) +
            2 * uoi::linalg::trsv_flops(support.size());
      } else {
        // Consensus ADMM with lambda = 0 on the support columns (paper
        // §II-C), row-distributed over the task group.
        const Matrix x_train_s = entry->x_train.gather_cols(support);
        auto fit = uoi::solvers::distributed_lasso_admm(
            task.task_comm, x_train_s, entry->y_train, /*lambda=*/0.0,
            options.admm);
        task.counters.add(fit);
        sub = std::move(fit.beta);
      }
      for (std::size_t i = 0; i < support.size(); ++i) {
        beta[support[i]] = sub[i];
      }
    }
    const auto evals =
        distributed_mse(task.task_comm, entry->x_eval, entry->y_eval, betas);
    for (std::size_t m = 0; m < task.cells.size(); ++m) {
      const std::size_t c = task.cells[m];
      // The group's ranks hold the same beta; rank 0 deposits it.
      task.record(c,
                  estimation_score(options.criterion, evals[m].mse,
                                   evals[m].n_eval,
                                   task.supports[c].indices().size()),
                  tl.task_rank == 0 ? std::move(betas[m]) : Vector{});
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

sched::LinearPath linear_family_path(const Comm& comm, ConstMatrixView x,
                                     const UoiLassoOptions& options,
                                     const UoiParallelLayout& layout) {
  const int groups =
      std::max(1, layout.bootstrap_groups * layout.lambda_groups);
  const int widest = (comm.size() + groups - 1) / groups;
  return sched::choose_linear_path(selection_bootstrap_size(options, x.rows()),
                                   x.cols(), static_cast<std::size_t>(widest));
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

  const sched::LinearPath path =
      linear_family_path(comm, x_owned, options, layout);
  if (!serial && path == sched::LinearPath::kGram) {
    // A checkpoint written by the consensus path restarts instead of
    // mixing paths.
    spec.fingerprint = FingerprintBuilder()
                           .add(spec.fingerprint)
                           .add(static_cast<std::uint64_t>(path))
                           .value();
  }

  const std::vector<double> no_l2(q, 0.0);
  const auto hooks =
      serial ? serial_linear_hooks(x_owned, y_owned, options, model.lambdas,
                                   no_l2, q)
             : linear_family_hooks(x_owned, y_owned, options, model.lambdas,
                                   no_l2, path);
  auto run = run_uoi_engine(comm, spec, hooks.select, hooks.estimate);

  model.candidate_supports = std::move(run.candidate_supports);
  model.chosen_support_per_bootstrap =
      std::move(run.chosen_support_per_bootstrap);
  model.best_loss_per_bootstrap = std::move(run.best_loss_per_bootstrap);
  model.total_flops = run.total_flops;
  model.beta = aggregate_estimates(run.winners, options.aggregation);
  model.support = SupportSet::from_beta(model.beta, options.support_tolerance);
  if (options.fit_intercept) {
    model.intercept = y_mean - uoi::linalg::dot(x_means, model.beta);
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
