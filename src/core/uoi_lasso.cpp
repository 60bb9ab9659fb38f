#include "core/uoi_lasso.hpp"

#include <algorithm>
#include <cmath>

#include "core/checkpoint.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "sched/cost_model.hpp"
#include "solvers/lambda_grid.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace uoi::core {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Vector;

namespace {

// Distinct stream tags for the two resampling stages, mixed into the RNG
// task coordinates so selection and estimation draws never collide.
constexpr std::uint64_t kSelectionStream = 0x5e1ec7;
constexpr std::uint64_t kEstimationStream = 0xe571a7e;

}  // namespace

std::vector<std::size_t> selection_bootstrap_indices(
    const UoiLassoOptions& options, std::size_t n, std::size_t k) {
  auto rng =
      uoi::support::Xoshiro256::for_task(options.seed, kSelectionStream, k);
  return uoi::support::bootstrap_indices(rng, n, n);
}

EstimationSplit estimation_split(const UoiLassoOptions& options,
                                 std::size_t n, std::size_t k) {
  auto rng =
      uoi::support::Xoshiro256::for_task(options.seed, kEstimationStream, k);
  const auto split = uoi::support::train_test_split(
      rng, n, 1.0 - options.estimation_train_fraction);
  return {split.train, split.test};
}

std::vector<double> resolve_lambda_grid(const UoiLassoOptions& options,
                                        ConstMatrixView x,
                                        std::span<const double> y) {
  if (!options.lambdas.empty()) {
    auto grid = options.lambdas;
    std::sort(grid.rbegin(), grid.rend());  // descending for warm starts
    return grid;
  }
  return uoi::solvers::lambda_grid_for(x, y, options.n_lambdas,
                                       options.lambda_min_ratio);
}

double estimation_score(EstimationCriterion criterion, double mse,
                        double n_eval, std::size_t support_size) {
  if (criterion == EstimationCriterion::kMse) return mse;
  // Guard the log: a perfect fit on the evaluation split.
  const double log_mse = std::log(std::max(mse, 1e-300));
  const double k = static_cast<double>(support_size);
  if (criterion == EstimationCriterion::kAic) {
    return n_eval * log_mse + 2.0 * k;
  }
  return n_eval * log_mse + k * std::log(std::max(n_eval, 2.0));
}

std::size_t intersection_count_threshold(const UoiLassoOptions& options) {
  return static_cast<std::size_t>(intersection_threshold(
      options.intersection_fraction,
      static_cast<double>(options.n_selection_bootstraps)));
}

Vector aggregate_estimates(ConstMatrixView winners,
                           EstimationAggregation aggregation) {
  UOI_CHECK(winners.rows() > 0, "no estimates to aggregate");
  const std::size_t p = winners.cols();
  Vector out(p, 0.0);
  if (aggregation == EstimationAggregation::kMean) {
    for (std::size_t k = 0; k < winners.rows(); ++k) {
      const auto w = winners.row(k);
      for (std::size_t i = 0; i < p; ++i) out[i] += w[i];
    }
    const double inv = 1.0 / static_cast<double>(winners.rows());
    for (auto& v : out) v *= inv;
    return out;
  }
  // Elementwise median.
  Vector column(winners.rows());
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t k = 0; k < winners.rows(); ++k) column[k] = winners(k, i);
    const auto mid = column.begin() +
                     static_cast<std::ptrdiff_t>(column.size() / 2);
    std::nth_element(column.begin(), mid, column.end());
    if (column.size() % 2 == 1) {
      out[i] = *mid;
    } else {
      const double hi = *mid;
      const double lo = *std::max_element(column.begin(), mid);
      out[i] = 0.5 * (lo + hi);
    }
  }
  return out;
}

UoiLasso::UoiLasso(UoiLassoOptions options) : options_(std::move(options)) {
  UOI_CHECK(options_.n_selection_bootstraps >= 1, "B1 must be >= 1");
  UOI_CHECK(options_.n_estimation_bootstraps >= 1, "B2 must be >= 1");
  UOI_CHECK(options_.estimation_train_fraction > 0.0 &&
                options_.estimation_train_fraction < 1.0,
            "train fraction must be in (0, 1)");
  UOI_CHECK(options_.intersection_fraction > 0.0 &&
                options_.intersection_fraction <= 1.0,
            "intersection fraction must be in (0, 1]");
}

UoiLassoResult UoiLasso::fit(ConstMatrixView x,
                             std::span<const double> y) const {
  return run_on_local_rank([&](uoi::sim::Comm& comm) {
           return detail::fit_lasso(comm, x, y, options_, {});
         })
      .model;
}

std::uint64_t UoiLasso::selection_fingerprint(
    std::size_t n, std::size_t p, std::span<const double> lambdas) const {
  FingerprintBuilder fp;
  fp.add(options_.seed)
      .add(static_cast<std::uint64_t>(options_.n_selection_bootstraps))
      .add(static_cast<std::uint64_t>(n))
      .add(static_cast<std::uint64_t>(p))
      .add(options_.support_tolerance)
      .add(static_cast<std::uint64_t>(options_.fit_intercept ? 1 : 0))
      .add(options_.admm.rho)
      .add(options_.admm.eps_abs)
      .add(options_.admm.eps_rel)
      .add(static_cast<std::uint64_t>(options_.admm.max_iterations))
      .add(kStrongRuleFingerprintTag);
  for (const double l : lambdas) fp.add(l);
  if (sched::choose_linear_path(n, p, 1) == sched::LinearPath::kGram) {
    fp.add(kGramCdFingerprintTag);
  }
  return fp.value();
}

}  // namespace uoi::core
