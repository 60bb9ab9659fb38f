#pragma once
// UoI_ElasticNet: the UoI framework over the elastic-net estimator
// (PyUoI's UoI_ElasticNet; the natural extension of Algorithm 1 to
// correlated designs, where the pure LASSO arbitrarily drops members of
// correlated groups).
//
// Selection sweeps a 2-D grid: q lambda values x the given l1_ratio
// values; for each pair, the penalty is
//   lambda * l1_ratio * ||z||_1 + lambda * (1 - l1_ratio) / 2 * ||z||_2^2.
// Supports are intersected across bootstraps per (lambda, l1_ratio) cell;
// estimation is the usual prediction-scored OLS + union averaging, reusing
// the UoI_LASSO machinery.

#include "core/uoi_lasso.hpp"

namespace uoi::core {

struct UoiElasticNetOptions {
  std::size_t n_selection_bootstraps = 20;   ///< B1
  std::size_t n_estimation_bootstraps = 10;  ///< B2
  std::size_t n_lambdas = 12;                ///< q
  std::vector<double> l1_ratios = {1.0, 0.75, 0.5};  ///< alpha mix values
  double lambda_min_ratio = 1e-3;
  double estimation_train_fraction = 0.75;
  double intersection_fraction = 1.0;
  double support_tolerance = 1e-7;
  EstimationAggregation aggregation = EstimationAggregation::kMean;
  EstimationCriterion criterion = EstimationCriterion::kMse;
  std::uint64_t seed = 20200518;
  /// Solver options of each (bootstrap, l1_ratio) lambda chain (see
  /// UoiLassoOptions::admm).
  uoi::solvers::AdmmOptions admm;
  /// Distributed-driver task placement (see UoiLassoOptions::schedule).
  uoi::sched::SchedulePolicy schedule = uoi::sched::SchedulePolicy::kAuto;
  /// Per-rank solver/gather cache budget in MB for the distributed driver.
  /// < 0 defers to UOI_SOLVER_CACHE_MB (default 256); 0 disables.
  long solver_cache_mb = -1;
};

struct UoiElasticNetResult {
  uoi::linalg::Vector beta;
  SupportSet support;
  std::vector<double> lambdas;              ///< descending
  std::vector<double> l1_ratios;
  /// candidate_supports[r * lambdas.size() + j] is the intersected
  /// support for (l1_ratios[r], lambdas[j]).
  std::vector<SupportSet> candidate_supports;
  std::vector<std::size_t> chosen_support_per_bootstrap;
  std::vector<double> best_loss_per_bootstrap;
};

class UoiElasticNet {
 public:
  explicit UoiElasticNet(UoiElasticNetOptions options = {});

  [[nodiscard]] UoiElasticNetResult fit(uoi::linalg::ConstMatrixView x,
                                        std::span<const double> y) const;

 private:
  UoiElasticNetOptions options_;
};

}  // namespace uoi::core
