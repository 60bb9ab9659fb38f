#pragma once
// Distributed UoI_LASSO (paper §III, Fig. 1) on the uoi::sim runtime.
//
// Three-level parallelism, exactly the paper's decomposition:
//
//   P = P_B x P_lambda x C ranks
//   - P_B     bootstrap groups   (selection bootstraps spread over them)
//   - P_lambda lambda groups     (one warm-start chain of lambdas each)
//   - C       "ADMM cores" per task group: the bootstrap sample is
//             row-block-distributed over them and solved by the distributed
//             consensus LASSO-ADMM.
//
// For p << n the lasso depends on the data only through X'X and X'y, and
// one allreduce of the group's [X'X | X'y] per bootstrap replaces
// the consensus allreduce per ADMM iteration; every group rank then runs
// the whole lambda chain (and each estimation OLS) locally. Which path a
// fit takes is a pure function of its global shape
// (sched::choose_linear_path: Gram while p is at most a rank's bootstrap
// rows), picked once per fit and identical on every rank; paper-scale
// fits (fig4, p = 20,101) stay on consensus ADMM.
//
// The skeleton runs on the shared engine (core/uoi_engine.hpp), which maps
// the paper's Reduce steps onto collectives:
//   - selection intersection (eq. 3): each fit marks its support as a 0/1
//     indicator row; the rows are Sum-reduced over the global communicator
//     into per-lambda selection counts, and a feature survives where its
//     count reaches ceil(intersection_fraction * B1);
//   - estimation: per-(bootstrap, support) evaluation losses are min-reduced
//     globally, every rank then knows each bootstrap's winner, and the
//     winning OLS estimates are sum-reduced and averaged (eq. 4's union).
//
// Given the same options/seed, the result matches the serial UoiLasso up to
// solver tolerance (identical resamples by construction). The serial
// UoiLasso::fit is this driver on one rank, so a layout of one-rank groups
// reproduces it byte for byte.

#include <span>
#include <utility>
#include <vector>

#include "core/uoi_engine.hpp"  // UoiParallelLayout, breakdown
#include "core/uoi_lasso.hpp"
#include "sched/cost_model.hpp"
#include "simcluster/comm.hpp"

namespace uoi::core {

struct UoiLassoDistributedResult {
  UoiLassoResult model;                 ///< same contents as the serial result
  UoiDistributedBreakdown breakdown;    ///< this rank's timing
  /// Final merged q x p selection-count matrix (bootstraps that selected
  /// feature i at lambda_j). Replicated; exposed so fault-injection tests
  /// can assert bit-identical counts against a fault-free run.
  uoi::linalg::Matrix selection_counts;
  /// Quorum-degraded completion record (see UoiRecoveryOptions::
  /// min_bootstrap_quorum). When `degraded` is set, the run exhausted its
  /// recovery budget during selection and finished on a partial bootstrap
  /// set: `achieved_quorum` is the smallest per-lambda completed fraction,
  /// and `lost_cells` lists the abandoned (bootstrap, lambda) pairs whose
  /// selection counts are missing from `selection_counts`. Candidate
  /// supports were thresholded against the achieved per-lambda denominator
  /// instead of B1.
  bool degraded = false;
  double achieved_quorum = 1.0;
  std::vector<std::pair<std::size_t, std::size_t>> lost_cells;
};

/// Runs distributed UoI_LASSO. Collective: every rank of `comm` must call it
/// with identical options/layout and the same (replicated) data views.
/// `x`/`y` are the full dataset; each task group's ranks extract only their
/// own row blocks of each bootstrap sample (in the paper the randomized
/// HDF5 distribution delivers those blocks; see uoi::io for that path).
///
/// Fault tolerance (options.recovery): when a rank dies mid-run, survivors
/// detect the failure at their next synchronization point, shrink the
/// communicator, merge every survivor's accumulated selection counts, and
/// resume — recomputing only the (bootstrap, lambda) cells the dead rank's
/// group had not committed. Warm-start chains are committed atomically per
/// (bootstrap, lambda-group), so recomputed cells replay the exact ADMM
/// trajectories of a fault-free run and the final selection counts are
/// bit-identical. With `recovery.checkpoint_path` set, merged selection
/// progress also persists to disk (atomic, fsync'd) and a compatible
/// checkpoint is resumed on startup. After `max_recovery_attempts`
/// failures the RankFailedError propagates to the caller.
[[nodiscard]] UoiLassoDistributedResult uoi_lasso_distributed(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView x,
    std::span<const double> y, const UoiLassoOptions& options = {},
    const UoiParallelLayout& layout = {});

namespace detail {

/// The squared-loss family's hooks, behind every lasso and elastic-net
/// fit, serial or distributed. Selection walks one screened chain per
/// `chain_length`-cell segment of a (bootstrap, chain) task's cells — one
/// segment per elastic-net ratio — grid cell c at penalties
/// (lambda1[c], lambda2[c]); estimation refits OLS on each candidate
/// support and scores it with `options.criterion`, summing every cell's
/// evaluation error in one allreduce per task. `path` and the task
/// group's width C pick the solvers:
///   kGram               one allreduce of the group's [X'X | X'y] per
///                       selection bootstrap, then a local
///                       solvers::GramLassoChain (coordinate descent, not
///                       screened) on every group rank; one allreduce of
///                       the training rows' [X'X | X'y] per estimation
///                       bootstrap, then a local solvers::ols_from_gram per
///                       support;
///   kConsensus, C >= 2  a solvers::DistributedScreenedLassoChain, and
///                       consensus ADMM at lambda 0 per support (paper
///                       §II-C);
///   kConsensus, C = 1   the serial solvers::ScreenedLassoChain over the
///                       bootstrap rows, and solvers::ols_direct_on_support
///                       per support: no collective until the evaluation.
/// A serial fit is a one-rank run, so it lands on the Gram path while p
/// fits its bootstrap rows and on the one-rank consensus case otherwise.
/// Each Gram reduction is charged to the fit's admm.allreduce_* counters.
/// Resamples and solver options come from `options`. Every
/// argument must outlive the engine run.
struct LinearFamilyHooks {
  UoiSelectHook select;
  UoiEstimateHook estimate;
};
[[nodiscard]] LinearFamilyHooks linear_family_hooks(
    uoi::linalg::ConstMatrixView x, std::span<const double> y,
    const UoiLassoOptions& options, std::span<const double> lambda1,
    std::span<const double> lambda2, std::size_t chain_length,
    sched::LinearPath path);

/// The family's path for a fit on `comm` under `layout`: the
/// sched::choose_linear_path rule at the global shape (x.rows(), which
/// every selection bootstrap draws, x.cols(), the widest task group's
/// width). The same on every rank.
[[nodiscard]] sched::LinearPath linear_family_path(
    const uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView x,
    const UoiParallelLayout& layout);

/// The lasso driver body behind UoiLasso::fit (one rank) and
/// uoi_lasso_distributed: intercept centering, lambda grid, engine run
/// and model assembly, all on linear_family_hooks.
[[nodiscard]] UoiLassoDistributedResult fit_lasso(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView x,
    std::span<const double> y, const UoiLassoOptions& options,
    const UoiParallelLayout& layout);

}  // namespace detail

}  // namespace uoi::core
