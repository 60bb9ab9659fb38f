#pragma once
// UoI_Logistic: the UoI framework over L1-regularized logistic regression
// (PyUoI's UoI_Logistic). Same two-pass structure as Algorithm 1:
// bootstrapped l1-logistic fits intersected per lambda, then unpenalized
// IRLS refits on candidate supports scored by held-out log loss, and a
// union-by-aggregation of the winners.

#include "core/uoi_lasso.hpp"
#include "solvers/logistic.hpp"

namespace uoi::core {

struct UoiLogisticOptions {
  std::size_t n_selection_bootstraps = 20;   ///< B1
  std::size_t n_estimation_bootstraps = 10;  ///< B2
  std::size_t n_lambdas = 16;                ///< q
  double lambda_min_ratio = 1e-3;
  double estimation_train_fraction = 0.75;
  double intersection_fraction = 1.0;
  double support_tolerance = 1e-7;
  EstimationAggregation aggregation = EstimationAggregation::kMean;
  std::uint64_t seed = 20200518;
  uoi::solvers::LogisticOptions solver;
  /// Distributed-driver task placement (see UoiLassoOptions::schedule).
  uoi::sched::SchedulePolicy schedule = uoi::sched::SchedulePolicy::kAuto;
  /// Per-rank gather cache budget in MB for the distributed driver.
  /// < 0 defers to UOI_SOLVER_CACHE_MB (default 256); 0 disables.
  long solver_cache_mb = -1;
};

struct UoiLogisticResult {
  uoi::linalg::Vector beta;
  double intercept = 0.0;
  SupportSet support;
  std::vector<double> lambdas;  ///< descending
  std::vector<SupportSet> candidate_supports;
  std::vector<std::size_t> chosen_support_per_bootstrap;
  std::vector<double> best_loss_per_bootstrap;  ///< held-out log loss
};

class UoiLogistic {
 public:
  explicit UoiLogistic(UoiLogisticOptions options = {});

  /// Fits y in {0, 1} ~ Bernoulli(sigmoid(X beta + b)).
  [[nodiscard]] UoiLogisticResult fit(uoi::linalg::ConstMatrixView x,
                                      std::span<const double> y) const;

 private:
  UoiLogisticOptions options_;
};

}  // namespace uoi::core
