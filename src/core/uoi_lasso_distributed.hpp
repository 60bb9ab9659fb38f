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
// UoiLasso::fit runs the same driver body on one rank with serial hooks.

#include <span>
#include <utility>
#include <vector>

#include "core/uoi_engine.hpp"  // UoiParallelLayout, breakdown
#include "core/uoi_lasso.hpp"
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

/// The squared-loss family's hooks, shared by the lasso and elastic-net
/// drivers. Selection fits one screened consensus chain per (bootstrap,
/// chain), grid cell c at penalties (lambda1[c], lambda2[c]); estimation
/// refits OLS on each candidate support by consensus ADMM at lambda 0 and
/// scores it with `options.criterion`. Resamples, solver and screening
/// options come from `options`. Every argument must outlive the engine
/// run.
struct LinearFamilyHooks {
  UoiSelectHook select;
  UoiEstimateHook estimate;
};
[[nodiscard]] LinearFamilyHooks linear_family_hooks(
    uoi::linalg::ConstMatrixView x, std::span<const double> y,
    const UoiLassoOptions& options, std::span<const double> lambda1,
    std::span<const double> lambda2);

/// The same family's serial hooks, for a one-rank engine run: selection
/// walks a fresh screened serial chain (solvers::ScreenedLassoChain) over
/// each `chain_length`-cell segment of the grid — one segment per
/// elastic-net ratio — and estimation refits by direct OLS
/// (solvers::ols_direct_on_support) scored on the evaluation split.
[[nodiscard]] LinearFamilyHooks serial_linear_hooks(
    uoi::linalg::ConstMatrixView x, std::span<const double> y,
    const UoiLassoOptions& options, std::span<const double> lambda1,
    std::span<const double> lambda2, std::size_t chain_length);

/// The lasso driver body behind UoiLasso::fit (one rank, serial hooks)
/// and uoi_lasso_distributed: intercept centering, lambda grid, engine
/// run and model assembly.
[[nodiscard]] UoiLassoDistributedResult fit_lasso(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView x,
    std::span<const double> y, const UoiLassoOptions& options,
    const UoiParallelLayout& layout, bool serial);

}  // namespace detail

}  // namespace uoi::core
