#pragma once
// Serial UoI_VAR (paper Algorithm 2): UoI model selection + estimation on
// the vectorized VAR regression vec Y = (I (x) X) vec B + vec E. The fit
// is the distributed driver (var_distributed.hpp) on a one-rank
// communicator, whose lone task group walks one Gram lasso chain per
// equation: (I (x) X)'(I (x) X) = I (x) X'X, so the vectorized lasso
// splits exactly into p lassos that share one d p x d p Gram.
//
// Differences from UoI_LASSO, exactly as the paper lists them:
//   * block bootstrap instead of iid row resampling (temporal dependence);
//   * the lag-matrix construction (eqs. 7-8) per resample;
//   * the Kronecker/vectorization rearrangement (eq. 9) before solving.
//
// The paper's two solver backends over I (x) X itself remain public
// solvers (solvers/admm_lasso_sparse.hpp) that the fit no longer calls:
//   * kSparse      — materializes I (x) X as CSR and runs the sparse
//                    LASSO-ADMM (the paper's Sparse Eigen C++ path);
//   * kStructured  — matrix-free I (x) X with a single shared dp x dp
//                    factorization (the communication-avoiding variant the
//                    paper's Discussion proposes; used as the ablation).
//
// Estimation solves the support-restricted OLS per equation: the block-
// diagonal design makes the vectorized OLS decompose exactly, so this is
// the same estimator at a fraction of the cost.

#include <cstdint>
#include <vector>

#include "core/support_set.hpp"
#include "core/uoi_lasso.hpp"
#include "solvers/admm_lasso.hpp"
#include "var/block_bootstrap.hpp"
#include "var/granger.hpp"
#include "var/var_model.hpp"

namespace uoi::var {

enum class VarSolverBackend { kSparse, kStructured };

struct UoiVarOptions {
  std::size_t order = 1;                     ///< d
  std::size_t n_selection_bootstraps = 20;   ///< B1
  std::size_t n_estimation_bootstraps = 10;  ///< B2
  std::size_t n_lambdas = 16;                ///< q (ignored if lambdas set)
  std::vector<double> lambdas;               ///< explicit grid (optional)
  double lambda_min_ratio = 1e-3;
  std::size_t block_length = 0;              ///< 0 -> n^(1/3) heuristic
  /// Soft intersection: a coefficient enters S_j when selected in at
  /// least this fraction of the B1 block-bootstraps (1.0 = eq. 3's strict
  /// intersection).
  double intersection_fraction = 1.0;
  double support_tolerance = 1e-7;
  /// Not read: every fit selects through the per-equation Gram chains
  /// (see the header comment). Kept because the benchmark harness sets
  /// it; it goes with the benchmark cleanup of ROADMAP item 3.
  VarSolverBackend backend = VarSolverBackend::kStructured;
  /// How candidate supports are scored on the evaluation resample:
  /// held-out MSE (the paper) or size-penalized AIC/BIC.
  uoi::core::EstimationCriterion criterion =
      uoi::core::EstimationCriterion::kMse;
  /// Center the series (estimate the intercept mu through the sample mean).
  bool center = true;
  std::uint64_t seed = 20200518;
  /// Solver options of each selection lambda chain (see
  /// core::UoiLassoOptions::admm).
  uoi::solvers::AdmmOptions admm;
  /// Fault tolerance: shrink-and-resume on rank failure, retry budget for
  /// transient one-sided faults, and optional selection checkpointing,
  /// which serial fits honor too (see core::UoiRecoveryOptions).
  uoi::core::UoiRecoveryOptions recovery;
  /// Distributed-driver task placement (see core::UoiLassoOptions::schedule).
  uoi::sched::SchedulePolicy schedule = uoi::sched::SchedulePolicy::kAuto;
  /// Per-rank solver/gather cache budget in MB for the distributed driver.
  /// < 0 defers to UOI_SOLVER_CACHE_MB (default 256); 0 disables. A fit on
  /// one rank visits each bootstrap once per pass and caches nothing.
  long solver_cache_mb = -1;
};

struct UoiVarResult {
  VarModel model;                        ///< estimated (A_1..A_d, mu)
  uoi::linalg::Vector vec_beta;          ///< vec B* (final averaged estimate)
  uoi::core::SupportSet support;         ///< nonzeros of vec_beta
  std::vector<double> lambdas;
  std::vector<uoi::core::SupportSet> candidate_supports;
  std::vector<std::size_t> chosen_support_per_bootstrap;
  std::vector<double> best_loss_per_bootstrap;
  std::uint64_t total_flops = 0;
  double design_sparsity = 0.0;          ///< sparsity of I (x) X, = 1 - 1/p
  /// Per-coefficient stability: the fraction of the B2 estimation winners
  /// that included the coefficient. 1.0 = unanimously selected; values
  /// below ~0.5 flag edges whose weight comes from a minority of
  /// bootstraps (useful as an edge-confidence score for Fig. 11-style
  /// network plots).
  uoi::linalg::Vector selection_frequency;

  /// Stability of the (target i <- source j) edge: the maximum
  /// selection frequency across the d lag coefficients.
  [[nodiscard]] double edge_stability(std::size_t target,
                                      std::size_t source) const;
};

class UoiVar {
 public:
  explicit UoiVar(UoiVarOptions options = {});

  /// Fits a VAR(order) model to an N x p series (row = time, ascending).
  [[nodiscard]] UoiVarResult fit(uoi::linalg::ConstMatrixView series) const;

  [[nodiscard]] const UoiVarOptions& options() const noexcept {
    return options_;
  }

 private:
  UoiVarOptions options_;
};

/// The block-bootstrap streams of a fit: one draw per (stage, bootstrap).
enum class VarBootstrapStage : std::size_t {
  kSelection = 0,
  kEstimationTrain = 1,
  kEstimationEval = 2,
};

/// Deterministic per-task block-bootstrap options of bootstrap k's draw in
/// `stage`.
[[nodiscard]] BlockBootstrapOptions var_bootstrap_options(
    const UoiVarOptions& options, VarBootstrapStage stage, std::size_t k);

/// Data-driven lambda grid for the vectorized problem:
/// lambda_max = max_e ||X' y_e||_inf without materializing I (x) X.
[[nodiscard]] std::vector<double> resolve_var_lambda_grid(
    const UoiVarOptions& options, const uoi::linalg::Matrix& y,
    const uoi::linalg::Matrix& x);

}  // namespace uoi::var
