#pragma once
// Per-cell cost estimates for the task grid.
//
// Initial placement is seeded analytically: the perfmodel cost models
// (perfmodel/lasso_cost, perfmodel/var_cost) give a pass-level seconds
// estimate, and a per-lambda weight captures the dominant within-grid skew —
// smaller lambda means a weaker prox contraction and therefore more
// ADMM iterations. Between passes the estimates are calibrated against the
// measured per-cell seconds of the previous pass (replicated across ranks
// with an Allreduce-max by the caller), yielding per-chain multipliers and
// the placement-vs-actual error surfaced through MetricsRegistry.
//
// Costs are inputs to placement only; they can be arbitrarily wrong without
// affecting results (placement never enters the numerics).

#include <cstddef>
#include <span>
#include <vector>

#include "sched/task_grid.hpp"

namespace uoi::sched {

/// Relative per-lambda iteration weight, normalized to mean 1:
/// w(lambda) ~ 1 + log(lambda_max / lambda). Degenerate grids (empty,
/// non-positive entries) fall back to uniform weights.
[[nodiscard]] std::vector<double> lambda_weights(
    std::span<const double> lambdas);

/// Seeds per-cell costs: cell (k, c) costs the sum of its chain's lambda
/// weights, scaled so the whole grid sums to `pass_seconds_estimate`.
[[nodiscard]] std::vector<double> seeded_costs(const TaskGrid& grid,
                                               std::span<const double> lambdas,
                                               double pass_seconds_estimate);

/// Analytic pass-seconds seed for the LASSO / elastic-net / logistic grids
/// from perfmodel/lasso_cost (selection + estimation share the same scale;
/// only relative cell weights matter for placement).
[[nodiscard]] double lasso_pass_seconds_estimate(
    std::size_t n_samples, std::size_t n_features, std::size_t b1,
    std::size_t b2, std::size_t q, std::size_t admm_iterations, int cores);

/// Analytic pass-seconds seed for the VAR grid from perfmodel/var_cost.
[[nodiscard]] double var_pass_seconds_estimate(
    std::size_t n_features, std::size_t n_samples, std::size_t order,
    std::size_t b1, std::size_t b2, std::size_t q,
    std::size_t admm_iterations, int cores);

/// How the distributed squared-loss drivers (lasso, elastic net) solve a
/// task group's problems. Consensus runs the paper's consensus ADMM, one
/// allreduce per iteration; Gram allreduces [X'X | X'y | y'y] once per
/// bootstrap and lets every rank of the group solve locally.
enum class LinearPath { kConsensus, kGram };

[[nodiscard]] const char* linear_path_name(LinearPath path);

/// The path for a bootstrap sample of `n_boot` rows and `p` features whose
/// task groups are at most `c_ranks` ranks wide: Gram while the p x p Gram
/// that every group rank holds is no larger than the rank's row block of
/// the sample (p <= floor(n_boot / c_ranks)), consensus otherwise. At the
/// paper's scale (fig4: p = 20,101 against a few hundred rows per core)
/// the Gram would be 3.2 GB per rank, so those fits stay on consensus. A
/// pure function of the global shape, so every rank picks the same path.
[[nodiscard]] LinearPath choose_linear_path(std::size_t n_boot, std::size_t p,
                                            std::size_t c_ranks);

/// Online refinement computed from one finished pass.
struct Calibration {
  double scale = 1.0;                    ///< sum(measured) / sum(predicted)
  double mean_abs_rel_error = 0.0;       ///< |scale*pred - meas| / meas, mean
  std::vector<double> chain_multiplier;  ///< per chain; 1.0 when unmeasured
};

/// Compares predicted costs against measured per-cell seconds (entries <= 0
/// mean "not measured"; callers replicate measurements across ranks first so
/// every rank computes the identical calibration).
[[nodiscard]] Calibration calibrate(const TaskGrid& grid,
                                    std::span<const double> predicted,
                                    std::span<const double> measured);

/// Applies the per-chain multipliers in place to a cost vector laid out on
/// `grid` (typically the next pass's seeded costs).
void apply_calibration(const TaskGrid& grid, const Calibration& calibration,
                       std::span<double> costs);

/// Reweights per-cell costs by the per-lambda survivor counts the screened
/// selection pass measured: the estimation pass solves problems restricted
/// to the selected columns, so a chain whose lambdas kept few survivors is
/// proportionally cheaper than the analytic seed (which assumes all p
/// columns) predicts. Each chain's weight is 1 + the mean survivor count
/// over its measured lambdas, normalized to mean 1 across measured chains
/// and clamped to [0.1, 10]; entries < 0 mean "not measured" and chains
/// with no measured lambda keep weight 1. Placement-only, like every cost
/// input.
void apply_survivor_weights(const TaskGrid& grid,
                            std::span<const double> survivors_per_lambda,
                            std::span<double> costs);

}  // namespace uoi::sched
