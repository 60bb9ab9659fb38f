#pragma once
// Serial UoI_LASSO (paper Algorithm 1).
//
// Model selection: B1 bootstrap resamples x q lambda values of LASSO-ADMM;
// per-lambda supports are intersected across bootstraps (eq. 3), producing a
// family of candidate supports of decreasing size.
//
// Model estimation: B2 train/evaluation resamples; each candidate support is
// refit by OLS on the training part and scored on the evaluation part; the
// best support per resample wins, and the winners' OLS estimates are
// averaged (the union operation, eq. 4).
//
// The serial driver runs the distributed driver's body (see
// uoi_lasso_distributed.hpp) on a one-rank communicator with serial hooks:
// screened serial ADMM chains for selection, direct OLS for estimation.

#include <cstdint>
#include <string>
#include <vector>

#include "core/support_set.hpp"
#include "linalg/matrix.hpp"
#include "sched/schedule_policy.hpp"
#include "simcluster/fault.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/screening.hpp"

namespace uoi::core {

/// How the winning per-bootstrap estimates are combined (eq. 4's union).
enum class EstimationAggregation {
  kMean,    ///< the paper's averaging (Algorithm 1 line 24)
  kMedian,  ///< elementwise median: robust to occasional bad winners
};

/// How a candidate support is scored on the held-out evaluation split
/// (Algorithm 1 line 19). MSE is the paper's choice; the information
/// criteria additionally penalize support size, trading a little
/// prediction accuracy for parsimony.
enum class EstimationCriterion {
  kMse,  ///< held-out mean squared error (the paper)
  kAic,  ///< n ln(mse) + 2 k
  kBic,  ///< n ln(mse) + k ln(n)
};

/// Scores one (support, evaluation) pair under the chosen criterion.
[[nodiscard]] double estimation_score(EstimationCriterion criterion,
                                      double mse, double n_eval,
                                      std::size_t support_size);

/// Fault-tolerance knobs of the UoI engine. Defaults are conservative: no
/// checkpointing, one shrink-and-resume attempt, and a small bounded retry
/// budget for transient one-sided failures. A serial fit (one rank) only
/// uses the checkpoint fields.
struct UoiRecoveryOptions {
  /// How many times a driver may shrink the communicator and resume after
  /// a rank failure before giving up and rethrowing RankFailedError.
  int max_recovery_attempts = 1;
  /// Retry budget for transient one-sided (window) failures; forwarded to
  /// uoi::sim::retry_onesided around Tier-2 distribution and Kronecker
  /// assembly traffic.
  int onesided_max_attempts = 4;
  double onesided_base_backoff_seconds = 50e-6;
  double onesided_backoff_multiplier = 2.0;
  double onesided_backoff_budget_seconds = 0.25;
  /// Decorrelated jitter on the one-sided retry backoff (seeded,
  /// deterministic; off by default so the backoff schedule is unchanged).
  bool onesided_jitter = false;
  std::uint64_t onesided_jitter_seed = 0x6a177e5ULL;
  /// When non-empty, selection progress is persisted here (atomic, fsync'd
  /// rewrite) every `checkpoint_interval` bootstraps and on recovery, and a
  /// compatible checkpoint is resumed from at startup.
  std::string checkpoint_path;
  std::size_t checkpoint_interval = 1;
  /// Quorum-degraded completion: once the recovery-attempt budget is
  /// exhausted during *selection*, the drivers may finish anyway if at
  /// least this fraction of the B1 selection bootstraps completed at every
  /// lambda. Selection-count thresholds are renormalized per lambda to the
  /// achieved denominator, and the result carries a `degraded` record.
  /// 1.0 (the default) disables degraded completion: any unrecoverable
  /// failure rethrows RankFailedError, the seed behavior.
  double min_bootstrap_quorum = 1.0;

  [[nodiscard]] uoi::sim::RetryOptions retry_options() const {
    uoi::sim::RetryOptions retry;
    retry.max_attempts = onesided_max_attempts;
    retry.base_backoff_seconds = onesided_base_backoff_seconds;
    retry.backoff_multiplier = onesided_backoff_multiplier;
    retry.backoff_budget_seconds = onesided_backoff_budget_seconds;
    retry.jitter = onesided_jitter;
    retry.jitter_seed = onesided_jitter_seed;
    return retry;
  }
};

struct UoiLassoOptions {
  std::size_t n_selection_bootstraps = 20;   ///< B1
  std::size_t n_estimation_bootstraps = 10;  ///< B2
  std::size_t n_lambdas = 16;                ///< q (ignored if lambdas set)
  std::vector<double> lambdas;               ///< explicit grid (optional)
  double lambda_min_ratio = 1e-3;            ///< grid spans this * lambda_max
  /// Fraction of each selection bootstrap drawn (with replacement).
  double selection_fraction = 1.0;
  /// Fraction of samples used for training in each estimation resample.
  double estimation_train_fraction = 0.75;
  /// Soft intersection: a feature enters S_j when selected in at least
  /// this fraction of the B1 bootstraps. 1.0 is the paper's strict
  /// intersection (eq. 3); lower values trade false negatives for false
  /// positives on noisy data (PyUoI's `selection_frac`).
  double intersection_fraction = 1.0;
  /// |beta_i| above this counts as selected.
  double support_tolerance = 1e-7;
  /// Estimate an intercept by centering X and y before fitting; the
  /// returned intercept is y_bar - x_bar' beta.
  bool fit_intercept = false;
  EstimationAggregation aggregation = EstimationAggregation::kMean;
  EstimationCriterion criterion = EstimationCriterion::kMse;
  std::uint64_t seed = 20200518;  ///< master seed for all resampling
  uoi::solvers::AdmmOptions admm;
  /// SAFE / strong-rule screening along each selection lambda chain.
  /// kAuto resolves $UOI_SCREEN (default: strong); every mode produces
  /// byte-identical models (screening.hpp's canonical two-stage contract).
  uoi::solvers::ScreenOptions screen;
  /// Fault tolerance: shrink-and-resume on rank failure and selection
  /// checkpointing. Serial fits honor the checkpoint fields as well.
  UoiRecoveryOptions recovery;
  /// Task placement for the engine's (bootstrap x lambda-chain) grid.
  /// kAuto resolves $UOI_SCHED_POLICY and defaults to cost_lpt; every
  /// policy produces bit-identical models on identical seeds (a serial fit
  /// has one task group, so the policy only orders its cells).
  uoi::sched::SchedulePolicy schedule = uoi::sched::SchedulePolicy::kAuto;
  /// Per-rank solver/gather cache budget in MB for the distributed driver.
  /// < 0 defers to UOI_SOLVER_CACHE_MB (default 256); 0 disables.
  long solver_cache_mb = -1;
};

struct UoiLassoResult {
  uoi::linalg::Vector beta;                ///< final aggregated estimate
  double intercept = 0.0;                  ///< 0 unless fit_intercept
  SupportSet support;                      ///< nonzeros of beta
  std::vector<double> lambdas;             ///< the grid used (descending)
  std::vector<SupportSet> candidate_supports;  ///< S_j per lambda (eq. 3)
  /// Index into candidate_supports chosen by each estimation bootstrap.
  std::vector<std::size_t> chosen_support_per_bootstrap;
  /// Evaluation loss of the winning model per estimation bootstrap.
  std::vector<double> best_loss_per_bootstrap;
  std::uint64_t total_flops = 0;           ///< aggregate solver FLOPs
};

class UoiLasso {
 public:
  explicit UoiLasso(UoiLassoOptions options = {});

  /// Fits y ~ X beta. X is n x p, y has n entries. With
  /// `options.recovery.checkpoint_path` set, selection progress persists
  /// there every `checkpoint_interval` bootstraps (atomic rewrite) and a
  /// compatible checkpoint — same options, data shape, and lambda grid —
  /// is resumed from; the result is identical to an uninterrupted fit.
  [[nodiscard]] UoiLassoResult fit(uoi::linalg::ConstMatrixView x,
                                   std::span<const double> y) const;

  /// Fingerprint of everything that influences the selection counts for
  /// this (options, data-shape) pair; exposed for checkpoint tooling.
  [[nodiscard]] std::uint64_t selection_fingerprint(
      std::size_t n, std::size_t p, std::span<const double> lambdas) const;

  [[nodiscard]] const UoiLassoOptions& options() const noexcept {
    return options_;
  }

 private:
  UoiLassoOptions options_;
};

/// Deterministic per-task bootstrap index sets; shared with the distributed
/// driver so both produce identical resamples from the same seed.
/// Selection bootstrap k draws selection_bootstrap_size(options, n)
/// indices with replacement.
[[nodiscard]] std::vector<std::size_t> selection_bootstrap_indices(
    const UoiLassoOptions& options, std::size_t n, std::size_t k);

/// Rows of every selection bootstrap of an n-row dataset:
/// max(1, floor(n * options.selection_fraction)).
[[nodiscard]] std::size_t selection_bootstrap_size(
    const UoiLassoOptions& options, std::size_t n);

/// Estimation resample k: a disjoint train/evaluation split of [0, n).
struct EstimationSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> eval;
};
[[nodiscard]] EstimationSplit estimation_split(const UoiLassoOptions& options,
                                               std::size_t n, std::size_t k);

/// The lambda grid the drivers use (explicit grid or data-driven).
[[nodiscard]] std::vector<double> resolve_lambda_grid(
    const UoiLassoOptions& options, uoi::linalg::ConstMatrixView x,
    std::span<const double> y);

/// Minimum number of bootstraps that must select a feature for it to enter
/// a candidate support (ceil(intersection_fraction * B1), at least 1).
[[nodiscard]] std::size_t intersection_count_threshold(
    const UoiLassoOptions& options);

/// Combines the winning per-bootstrap estimates, one per row (mean or
/// elementwise median).
[[nodiscard]] uoi::linalg::Vector aggregate_estimates(
    uoi::linalg::ConstMatrixView winners, EstimationAggregation aggregation);

}  // namespace uoi::core
