// Tests for the library extensions beyond the paper's minimal algorithms:
// intercept fitting, soft intersection, median aggregation, VAR order
// selection, and the complex-eigenvalue-robust stability check.

#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.hpp"
#include "core/uoi_lasso.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "linalg/blas.hpp"
#include "simcluster/cluster.hpp"
#include "var/order_selection.hpp"
#include "var/uoi_var.hpp"
#include "var/var_distributed.hpp"
#include "var/var_model.hpp"

namespace {

using uoi::core::UoiLasso;
using uoi::core::UoiLassoOptions;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

UoiLassoOptions base_options() {
  UoiLassoOptions options;
  options.n_selection_bootstraps = 10;
  options.n_estimation_bootstraps = 6;
  options.n_lambdas = 10;
  options.seed = 808;
  return options;
}

TEST(Intercept, RecoveredOnShiftedData) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 250;
  spec.n_features = 20;
  spec.support_size = 4;
  spec.noise_stddev = 0.2;
  spec.seed = 3;
  const auto data = uoi::data::make_regression(spec);

  // Shift the response: y' = y + 7.5.
  Vector shifted(data.y);
  for (auto& v : shifted) v += 7.5;

  auto options = base_options();
  options.fit_intercept = true;
  const auto fit = UoiLasso(options).fit(data.x, shifted);
  // X columns are ~zero-mean, so the intercept absorbs the shift.
  EXPECT_NEAR(fit.intercept, 7.5, 0.2);
  const auto est = uoi::core::estimation_accuracy(fit.beta, data.beta_true);
  EXPECT_LT(est.relative_l2, 0.1);
}

TEST(Intercept, ZeroWithoutOption) {
  const auto data = uoi::data::make_regression({});
  const auto fit = UoiLasso(base_options()).fit(data.x, data.y);
  EXPECT_EQ(fit.intercept, 0.0);
}

TEST(Intercept, DistributedMatchesSerial) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 120;
  spec.n_features = 16;
  spec.support_size = 4;
  spec.seed = 5;
  const auto data = uoi::data::make_regression(spec);
  Vector shifted(data.y);
  for (auto& v : shifted) v += 3.0;

  auto options = base_options();
  options.fit_intercept = true;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 6;
  const auto serial = UoiLasso(options).fit(data.x, shifted);
  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const auto distributed = uoi::core::uoi_lasso_distributed(
        comm, data.x, shifted, options, {2, 2});
    EXPECT_NEAR(distributed.model.intercept, serial.intercept, 1e-3);
    EXPECT_LT(
        uoi::linalg::max_abs_diff(distributed.model.beta, serial.beta), 2e-3);
  });
}

TEST(SoftIntersection, ThresholdArithmetic) {
  UoiLassoOptions options;
  options.n_selection_bootstraps = 10;
  options.intersection_fraction = 1.0;
  EXPECT_EQ(uoi::core::intersection_count_threshold(options), 10u);
  options.intersection_fraction = 0.75;
  EXPECT_EQ(uoi::core::intersection_count_threshold(options), 8u);
  options.intersection_fraction = 0.05;
  EXPECT_EQ(uoi::core::intersection_count_threshold(options), 1u);
}

TEST(SoftIntersection, LoosensSupports) {
  // A lower intersection fraction can only grow the candidate supports.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 120;
  spec.n_features = 30;
  spec.support_size = 6;
  spec.noise_stddev = 0.8;
  spec.seed = 7;
  const auto data = uoi::data::make_regression(spec);

  auto strict = base_options();
  strict.intersection_fraction = 1.0;
  const auto strict_fit = UoiLasso(strict).fit(data.x, data.y);

  auto soft = base_options();
  soft.intersection_fraction = 0.6;
  const auto soft_fit = UoiLasso(soft).fit(data.x, data.y);

  ASSERT_EQ(strict_fit.candidate_supports.size(),
            soft_fit.candidate_supports.size());
  for (std::size_t j = 0; j < strict_fit.candidate_supports.size(); ++j) {
    EXPECT_TRUE(strict_fit.candidate_supports[j].is_subset_of(
        soft_fit.candidate_supports[j]))
        << "strict support not contained in soft support at " << j;
  }
}

TEST(SoftIntersection, DistributedMatchesSerial) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 100;
  spec.n_features = 16;
  spec.support_size = 4;
  spec.noise_stddev = 0.6;
  spec.seed = 11;
  const auto data = uoi::data::make_regression(spec);
  auto options = base_options();
  options.intersection_fraction = 0.7;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;
  const auto serial = UoiLasso(options).fit(data.x, data.y);
  uoi::sim::Cluster::run(6, [&](uoi::sim::Comm& comm) {
    const auto distributed =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options, {3, 2});
    for (std::size_t j = 0; j < serial.candidate_supports.size(); ++j) {
      EXPECT_EQ(distributed.model.candidate_supports[j],
                serial.candidate_supports[j]);
    }
  });
}

TEST(Aggregation, MedianMatchesHandComputed) {
  using uoi::core::aggregate_estimates;
  using uoi::core::EstimationAggregation;
  const Matrix winners{{1.0, 10.0}, {2.0, 20.0}, {9.0, 0.0}};
  const Vector mean =
      aggregate_estimates(winners, EstimationAggregation::kMean);
  EXPECT_DOUBLE_EQ(mean[0], 4.0);
  EXPECT_DOUBLE_EQ(mean[1], 10.0);
  const Vector median =
      aggregate_estimates(winners, EstimationAggregation::kMedian);
  EXPECT_DOUBLE_EQ(median[0], 2.0);
  EXPECT_DOUBLE_EQ(median[1], 10.0);
}

TEST(Aggregation, EvenCountMedianAverages) {
  using uoi::core::aggregate_estimates;
  using uoi::core::EstimationAggregation;
  const Matrix winners{{1.0}, {3.0}, {100.0}, {2.0}};
  const Vector median =
      aggregate_estimates(winners, EstimationAggregation::kMedian);
  EXPECT_DOUBLE_EQ(median[0], 2.5);
}

TEST(Aggregation, MedianIsRobustToOneBadBootstrap) {
  // Mean is pulled by an outlier winner; median is not.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 200;
  spec.n_features = 12;
  spec.support_size = 3;
  spec.seed = 13;
  const auto data = uoi::data::make_regression(spec);

  auto options = base_options();
  options.aggregation = uoi::core::EstimationAggregation::kMedian;
  const auto median_fit = UoiLasso(options).fit(data.x, data.y);
  options.aggregation = uoi::core::EstimationAggregation::kMean;
  const auto mean_fit = UoiLasso(options).fit(data.x, data.y);
  // Both recover; median at least as well on the support.
  const auto em = uoi::core::estimation_accuracy(median_fit.beta,
                                                 data.beta_true);
  const auto ea =
      uoi::core::estimation_accuracy(mean_fit.beta, data.beta_true);
  EXPECT_LT(em.relative_l2, 0.15);
  EXPECT_LT(ea.relative_l2, 0.15);
}

TEST(Aggregation, DistributedMedianMatchesSerial) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 100;
  spec.n_features = 14;
  spec.support_size = 3;
  spec.seed = 17;
  const auto data = uoi::data::make_regression(spec);
  auto options = base_options();
  options.aggregation = uoi::core::EstimationAggregation::kMedian;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 5;
  options.n_lambdas = 6;
  const auto serial = UoiLasso(options).fit(data.x, data.y);
  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const auto distributed =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options, {2, 1});
    EXPECT_LT(
        uoi::linalg::max_abs_diff(distributed.model.beta, serial.beta), 2e-3);
  });
}

TEST(OrderSelection, RecoversTrueOrderVar1) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.order = 1;
  spec.seed = 19;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 800;
  sim.seed = 20;
  const auto series = uoi::var::simulate(truth, sim);
  const auto result = uoi::var::select_var_order(series, 4);
  EXPECT_EQ(result.best_order, 1u);
  ASSERT_EQ(result.bic.size(), 4u);
  // BIC penalizes extra lags: order 1 strictly best.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(result.bic[i], result.bic[0]);
  }
}

TEST(OrderSelection, RecoversTrueOrderVar2) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 5;
  spec.order = 2;
  spec.edges_per_node = 1.5;
  spec.seed = 21;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 1500;
  sim.seed = 22;
  const auto series = uoi::var::simulate(truth, sim);
  const auto result = uoi::var::select_var_order(series, 4);
  EXPECT_EQ(result.best_order, 2u);
}

TEST(OrderSelection, CriteriaDisagreeConsistently) {
  // AIC penalizes less than BIC, so AIC's pick is never smaller.
  uoi::data::VarSpec spec;
  spec.n_nodes = 4;
  spec.seed = 23;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 400;
  sim.seed = 24;
  const auto series = uoi::var::simulate(truth, sim);
  const auto bic = uoi::var::select_var_order(
      series, 3, uoi::var::OrderCriterion::kBic);
  const auto aic = uoi::var::select_var_order(
      series, 3, uoi::var::OrderCriterion::kAic);
  EXPECT_GE(aic.best_order, bic.best_order);
}

TEST(OrderSelection, RejectsShortSeries) {
  Matrix tiny(6, 4);
  EXPECT_THROW((void)uoi::var::select_var_order(tiny, 3),
               uoi::support::InvalidArgument);
}

TEST(SpectralRadius, ComplexDominantPairIsHandled) {
  // Rotation-scaled system: eigenvalues 0.9 e^{+-i pi/4} — complex pair
  // with |lambda| = 0.9 exactly; a naive last-ratio power iteration
  // oscillates on this case.
  const double r = 0.9;
  const double c = r * std::cos(M_PI / 4.0);
  const double s = r * std::sin(M_PI / 4.0);
  Matrix a{{c, -s}, {s, c}};
  const uoi::var::VarModel model({a});
  EXPECT_NEAR(model.companion_spectral_radius(), 0.9, 0.01);
  EXPECT_TRUE(model.is_stable());
}

TEST(SpectralRadius, ComplexPairAboveOneDetected) {
  const double r = 1.1;
  const double c = r * std::cos(1.0);
  const double s = r * std::sin(1.0);
  Matrix a{{c, -s}, {s, c}};
  const uoi::var::VarModel model({a});
  EXPECT_NEAR(model.companion_spectral_radius(), 1.1, 0.02);
  EXPECT_FALSE(model.is_stable());
}

TEST(UoiVarSoftIntersection, LoosensSupports) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 8;
  spec.seed = 25;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 300;
  sim.seed = 26;
  const auto series = uoi::var::simulate(truth, sim);

  uoi::var::UoiVarOptions strict;
  strict.n_selection_bootstraps = 8;
  strict.n_estimation_bootstraps = 4;
  strict.n_lambdas = 8;
  auto soft = strict;
  soft.intersection_fraction = 0.5;

  const auto strict_fit = uoi::var::UoiVar(strict).fit(series);
  const auto soft_fit = uoi::var::UoiVar(soft).fit(series);
  for (std::size_t j = 0; j < strict_fit.candidate_supports.size(); ++j) {
    EXPECT_TRUE(strict_fit.candidate_supports[j].is_subset_of(
        soft_fit.candidate_supports[j]));
  }
}

}  // namespace

namespace stability_tests {

TEST(EdgeStability, UnanimousEdgesScoreOne) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 8;
  spec.edges_per_node = 1.5;
  spec.seed = 41;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 600;
  sim.seed = 42;
  const auto series = uoi::var::simulate(truth, sim);

  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 10;
  options.n_estimation_bootstraps = 6;
  options.n_lambdas = 10;
  const auto fit = uoi::var::UoiVar(options).fit(series);

  ASSERT_EQ(fit.selection_frequency.size(), fit.vec_beta.size());
  for (const double f : fit.selection_frequency) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  // Strong true edges should be selected by (nearly) every winner.
  const auto& a = truth.coefficient(0);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (std::abs(a(i, j)) > 0.3) {
        EXPECT_GE(fit.edge_stability(i, j), 0.8)
            << "strong edge " << j << "->" << i << " unstable";
      }
    }
  }
}

TEST(EdgeStability, DistributedMatchesSerial) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.seed = 43;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 200;
  sim.seed = 44;
  const auto series = uoi::var::simulate(truth, sim);

  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 5;
  const auto serial = uoi::var::UoiVar(options).fit(series);
  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const auto distributed =
        uoi::var::uoi_var_distributed(comm, series, options, {2, 1}, 2);
    ASSERT_EQ(distributed.model.selection_frequency.size(),
              serial.selection_frequency.size());
    EXPECT_LT(uoi::linalg::max_abs_diff(
                  distributed.model.selection_frequency,
                  serial.selection_frequency),
              1e-12);
  });
}

}  // namespace stability_tests

namespace var_criterion_tests {

TEST(UoiVarCriterion, BicWinnersNeverLargerThanMse) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 8;
  spec.seed = 61;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 300;
  sim.seed = 62;
  const auto series = uoi::var::simulate(truth, sim);

  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 8;
  options.n_estimation_bootstraps = 5;
  options.n_lambdas = 8;
  const auto mse_fit = uoi::var::UoiVar(options).fit(series);
  options.criterion = uoi::core::EstimationCriterion::kBic;
  const auto bic_fit = uoi::var::UoiVar(options).fit(series);

  for (std::size_t k = 0; k < options.n_estimation_bootstraps; ++k) {
    EXPECT_LE(
        bic_fit.candidate_supports[bic_fit.chosen_support_per_bootstrap[k]]
            .size(),
        mse_fit.candidate_supports[mse_fit.chosen_support_per_bootstrap[k]]
            .size())
        << "bootstrap " << k;
  }
}

}  // namespace var_criterion_tests
