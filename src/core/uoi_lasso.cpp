#include "core/uoi_lasso.hpp"

#include "core/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/blas.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/ols.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace uoi::core {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

namespace {

// Distinct stream tags for the two resampling stages, mixed into the RNG
// task coordinates so selection and estimation draws never collide.
constexpr std::uint64_t kSelectionStream = 0x5e1ec7;
constexpr std::uint64_t kEstimationStream = 0xe571a7e;

Vector gather(std::span<const double> y, std::span<const std::size_t> idx) {
  Vector out(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) out[i] = y[idx[i]];
  return out;
}

}  // namespace

std::vector<std::size_t> selection_bootstrap_indices(
    const UoiLassoOptions& options, std::size_t n, std::size_t k) {
  auto rng =
      uoi::support::Xoshiro256::for_task(options.seed, kSelectionStream, k);
  const auto draw = static_cast<std::size_t>(std::max(
      1.0, std::floor(options.selection_fraction * static_cast<double>(n))));
  return uoi::support::bootstrap_indices(rng, n, draw);
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

Vector aggregate_estimates(const std::vector<Vector>& winners,
                           EstimationAggregation aggregation) {
  UOI_CHECK(!winners.empty(), "no estimates to aggregate");
  const std::size_t p = winners.front().size();
  Vector out(p, 0.0);
  if (aggregation == EstimationAggregation::kMean) {
    for (const auto& w : winners) {
      for (std::size_t i = 0; i < p; ++i) out[i] += w[i];
    }
    const double inv = 1.0 / static_cast<double>(winners.size());
    for (auto& v : out) v *= inv;
    return out;
  }
  // Elementwise median.
  Vector column(winners.size());
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t k = 0; k < winners.size(); ++k) column[k] = winners[k][i];
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
  UOI_CHECK(options_.selection_fraction > 0.0 &&
                options_.selection_fraction <= 1.0,
            "selection fraction must be in (0, 1]");
  UOI_CHECK(options_.intersection_fraction > 0.0 &&
                options_.intersection_fraction <= 1.0,
            "intersection fraction must be in (0, 1]");
}

UoiLassoResult UoiLasso::fit(ConstMatrixView x_view,
                             std::span<const double> y_view) const {
  return fit_impl(x_view, y_view, nullptr);
}

UoiLassoResult UoiLasso::fit_with_checkpoint(
    ConstMatrixView x_view, std::span<const double> y_view,
    const std::string& checkpoint_path) const {
  return fit_impl(x_view, y_view, &checkpoint_path);
}

std::uint64_t UoiLasso::selection_fingerprint(
    std::size_t n, std::size_t p, std::span<const double> lambdas) const {
  FingerprintBuilder fp;
  fp.add(options_.seed)
      .add(static_cast<std::uint64_t>(options_.n_selection_bootstraps))
      .add(static_cast<std::uint64_t>(n))
      .add(static_cast<std::uint64_t>(p))
      .add(options_.selection_fraction)
      .add(options_.support_tolerance)
      .add(static_cast<std::uint64_t>(options_.fit_intercept ? 1 : 0))
      .add(options_.admm.rho)
      .add(options_.admm.eps_abs)
      .add(options_.admm.eps_rel)
      .add(static_cast<std::uint64_t>(options_.admm.max_iterations))
      .add(static_cast<std::uint64_t>(
          uoi::solvers::resolve_screen_mode(options_.screen.mode)));
  for (const double l : lambdas) fp.add(l);
  return fp.value();
}

UoiLassoResult UoiLasso::fit_impl(ConstMatrixView x_view,
                                  std::span<const double> y_view,
                                  const std::string* checkpoint_path) const {
  UOI_CHECK_DIMS(x_view.rows() == y_view.size(),
                 "UoI_LASSO: X rows != y size");
  const std::size_t n = x_view.rows();
  const std::size_t p = x_view.cols();

  // Optional intercept handling: center X's columns and y; refit the
  // intercept from the means at the end.
  Matrix x_owned = Matrix::from_view(x_view);
  Vector y_owned(y_view.begin(), y_view.end());
  Vector x_means(p, 0.0);
  double y_mean = 0.0;
  if (options_.fit_intercept) {
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
  const ConstMatrixView x = x_owned;
  const std::span<const double> y = y_owned;

  UoiLassoResult result;
  result.lambdas = resolve_lambda_grid(options_, x, y);
  const std::size_t q = result.lambdas.size();

  // ---- Model selection (Algorithm 1, lines 1-11) ----
  // counts(j, i): how many bootstraps selected feature i at lambda_j.
  Matrix counts(q, p, 0.0);
  std::size_t k_begin = 0;
  const std::uint64_t fingerprint =
      selection_fingerprint(n, p, result.lambdas);
  if (checkpoint_path != nullptr) {
    if (auto restored = try_load_checkpoint(*checkpoint_path, fingerprint)) {
      if (restored->lambdas == result.lambdas &&
          restored->counts.rows() == q && restored->counts.cols() == p &&
          restored->completed_bootstraps <=
              options_.n_selection_bootstraps &&
          restored->is_prefix_consistent()) {
        counts = std::move(restored->counts);
        k_begin = restored->completed_bootstraps;
      }
    }
  }
  for (std::size_t k = k_begin; k < options_.n_selection_bootstraps; ++k) {
    const auto idx = selection_bootstrap_indices(options_, n, k);
    const Matrix x_boot = x_owned.gather_rows(idx);
    const Vector y_boot = gather(y, idx);
    // Screened chain: warm starts down the descending lambda path and
    // solves over the surviving columns only (screening.hpp).
    uoi::solvers::ScreenedLassoChain chain(x_boot, y_boot, options_.admm,
                                           options_.screen);
    for (std::size_t j = 0; j < q; ++j) {
      const auto fit = chain.solve(result.lambdas[j]);
      result.total_flops += fit.flops;
      auto row = counts.row(j);
      for (std::size_t i = 0; i < p; ++i) {
        if (std::abs(fit.beta[i]) > options_.support_tolerance) row[i] += 1.0;
      }
    }
    if (checkpoint_path != nullptr) {
      SelectionCheckpoint checkpoint;
      checkpoint.fingerprint = fingerprint;
      checkpoint.completed_bootstraps = k + 1;
      checkpoint.lambdas = result.lambdas;
      checkpoint.counts = counts;
      save_checkpoint(*checkpoint_path, checkpoint);
    }
  }
  result.candidate_supports.reserve(q);
  for (std::size_t j = 0; j < q; ++j) {
    result.candidate_supports.push_back(intersect_counts(
        counts.row(j), options_.intersection_fraction,
        static_cast<double>(options_.n_selection_bootstraps)));
  }

  // ---- Model estimation (Algorithm 1, lines 12-24) ----
  const std::size_t b2 = options_.n_estimation_bootstraps;
  result.chosen_support_per_bootstrap.assign(b2, 0);
  result.best_loss_per_bootstrap.assign(
      b2, std::numeric_limits<double>::infinity());
  std::vector<Vector> winners;
  winners.reserve(b2);

  for (std::size_t k = 0; k < b2; ++k) {
    const auto split = estimation_split(options_, n, k);
    const Matrix x_train = x_owned.gather_rows(split.train);
    const Matrix x_eval = x_owned.gather_rows(split.eval);
    const Vector y_train = gather(y, split.train);
    const Vector y_eval = gather(y, split.eval);

    Vector best_beta(p, 0.0);
    for (std::size_t j = 0; j < q; ++j) {
      const auto& support = result.candidate_supports[j].indices();
      const Vector beta =
          uoi::solvers::ols_direct_on_support(x_train, y_train, support);
      const double mse =
          uoi::solvers::mean_squared_error(x_eval, y_eval, beta);
      const double loss =
          estimation_score(options_.criterion, mse,
                           static_cast<double>(y_eval.size()), support.size());
      if (loss < result.best_loss_per_bootstrap[k]) {
        result.best_loss_per_bootstrap[k] = loss;
        result.chosen_support_per_bootstrap[k] = j;
        best_beta = beta;
      }
    }
    winners.push_back(std::move(best_beta));
  }

  result.beta = aggregate_estimates(winners, options_.aggregation);
  result.support =
      SupportSet::from_beta(result.beta, options_.support_tolerance);
  if (options_.fit_intercept) {
    result.intercept = y_mean - uoi::linalg::dot(x_means, result.beta);
  }
  return result;
}

}  // namespace uoi::core
