// Tests for the elastic-net solver path and UoI_ElasticNet, plus the
// estimation information criteria.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>

#include "core/metrics.hpp"
#include "core/uoi_elastic_net.hpp"
#include "core/uoi_elastic_net_distributed.hpp"
#include "simcluster/cluster.hpp"
#include "core/uoi_lasso.hpp"
#include "data/synthetic_regression.hpp"
#include "linalg/blas.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/prox.hpp"
#include "solvers/ridge.hpp"
#include "solvers/screening.hpp"
#include "support/trace.hpp"

namespace {

using uoi::core::EstimationCriterion;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

TEST(ElasticNetProx, ReducesToSoftThresholdAtZeroL2) {
  for (const double v : {-3.0, -0.4, 0.0, 0.7, 5.0}) {
    EXPECT_DOUBLE_EQ(uoi::solvers::elastic_net_prox(v, 1.0, 0.0, 2.0),
                     uoi::solvers::soft_threshold(v, 0.5));
  }
}

TEST(ElasticNetProx, ShrinksMoreWithL2) {
  const double plain = uoi::solvers::elastic_net_prox(2.0, 1.0, 0.0, 1.0);
  const double with_l2 = uoi::solvers::elastic_net_prox(2.0, 1.0, 3.0, 1.0);
  EXPECT_GT(plain, with_l2);
  EXPECT_GT(with_l2, 0.0);
}

double elastic_net_objective(uoi::linalg::ConstMatrixView x,
                             std::span<const double> y,
                             std::span<const double> beta, double lambda1,
                             double lambda2) {
  double rss = 0.0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double err = uoi::linalg::dot(x.row(r), beta) - y[r];
    rss += err * err;
  }
  return 0.5 * rss + lambda1 * uoi::linalg::nrm1(beta) +
         0.5 * lambda2 * uoi::linalg::nrm2_squared(beta);
}

TEST(ElasticNetSolver, PureL2MatchesRidge) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 60;
  spec.n_features = 12;
  spec.support_size = 12;
  spec.seed = 3;
  const auto data = uoi::data::make_regression(spec);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-11;
  options.eps_rel = 1e-9;
  options.max_iterations = 50000;
  const uoi::solvers::LassoAdmmSolver solver(data.x, data.y, options);
  const double lambda2 = 4.0;
  const auto fit = solver.solve_elastic_net(0.0, lambda2);
  const Vector ridge_beta = uoi::solvers::ridge(data.x, data.y, lambda2);
  EXPECT_LT(uoi::linalg::max_abs_diff(fit.beta, ridge_beta), 1e-5);
}

class ElasticNetOptimalityParam
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ElasticNetOptimalityParam, BeatsPerturbationsOfItself) {
  const auto [lambda1, lambda2] = GetParam();
  uoi::data::RegressionSpec spec;
  spec.n_samples = 50;
  spec.n_features = 10;
  spec.support_size = 4;
  spec.seed = 5;
  const auto data = uoi::data::make_regression(spec);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-10;
  options.eps_rel = 1e-8;
  options.max_iterations = 50000;
  const uoi::solvers::LassoAdmmSolver solver(data.x, data.y, options);
  const auto fit = solver.solve_elastic_net(lambda1, lambda2);
  const double base = elastic_net_objective(data.x, data.y, fit.beta,
                                            lambda1, lambda2);
  // Coordinate perturbations must not improve the objective.
  Vector probe = fit.beta;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    for (const double delta : {1e-4, -1e-4}) {
      probe[i] = fit.beta[i] + delta;
      EXPECT_GE(elastic_net_objective(data.x, data.y, probe, lambda1,
                                      lambda2),
                base - 1e-9);
      probe[i] = fit.beta[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Penalties, ElasticNetOptimalityParam,
    ::testing::Values(std::make_tuple(2.0, 0.0), std::make_tuple(2.0, 1.0),
                      std::make_tuple(0.5, 5.0), std::make_tuple(10.0, 10.0)));

TEST(UoiElasticNet, RecoversOnCorrelatedDesign) {
  // The motivating case: strongly correlated features, where the pure
  // LASSO's support is unstable across bootstraps.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 250;
  spec.n_features = 30;
  spec.support_size = 6;
  spec.feature_correlation = 0.7;
  spec.noise_stddev = 0.4;
  spec.seed = 7;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiElasticNetOptions options;
  options.n_selection_bootstraps = 12;
  options.n_estimation_bootstraps = 6;
  options.n_lambdas = 10;
  options.l1_ratios = {1.0, 0.5};
  const auto fit = uoi::core::UoiElasticNet(options).fit(data.x, data.y);

  const auto truth = uoi::core::SupportSet::from_beta(data.beta_true);
  const auto support = uoi::core::SupportSet::from_beta(fit.beta, 0.05);
  const auto acc =
      uoi::core::selection_accuracy(support, truth, spec.n_features);
  EXPECT_EQ(acc.false_negatives, 0u);
  EXPECT_LE(acc.false_positives, 2u);
}

TEST(UoiElasticNet, SerialFitExportsItsSelectionIterations) {
  // A serial fit publishes the engine's admm.* metrics: the exported
  // iterations equal the sweeps of one Gram chain (90 rows over 14
  // columns take the Gram path) per (bootstrap, l1 ratio). The grid
  // includes a ratio boundary where lambda1 does not ascend (0.1
  // lambda_max with ratio 1.0, then 0.05 lambda_max with ratio 0.05).
  uoi::data::RegressionSpec spec;
  spec.n_samples = 90;
  spec.n_features = 14;
  spec.support_size = 4;
  spec.feature_correlation = 0.5;
  spec.seed = 31;
  const auto data = uoi::data::make_regression(spec);
  uoi::core::UoiElasticNetOptions options;
  options.n_selection_bootstraps = 3;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 5;
  options.lambda_min_ratio = 0.1;
  options.l1_ratios = {1.0, 0.05, 0.5};
  options.seed = 19;

  auto& metrics = uoi::support::MetricsRegistry::instance();
  metrics.clear();
  (void)uoi::core::UoiElasticNet(options).fit(data.x, data.y);
  const double exported = metrics.value(
      uoi::support::Tracer::thread_rank(), "admm.iterations");

  uoi::core::UoiLassoOptions resampling;
  resampling.n_selection_bootstraps = options.n_selection_bootstraps;
  resampling.seed = options.seed;
  const auto lambdas = uoi::solvers::lambda_grid_for(
      data.x, data.y, options.n_lambdas, options.lambda_min_ratio);
  std::uint64_t iterations = 0;
  for (std::size_t k = 0; k < options.n_selection_bootstraps; ++k) {
    const auto idx = uoi::core::selection_bootstrap_indices(
        resampling, data.x.rows(), k);
    const Matrix x_boot = data.x.gather_rows(idx);
    Vector y_boot(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) y_boot[i] = data.y[idx[i]];
    const auto problem =
        uoi::solvers::gram_problems_from_sums(
            uoi::solvers::gram_sums(
                x_boot, uoi::linalg::ConstMatrixView(y_boot.data(),
                                                     y_boot.size(), 1, 1)),
            x_boot.cols())
            .front();
    for (const double ratio : options.l1_ratios) {
      uoi::solvers::GramLassoChain chain(problem, options.admm);
      for (const double lambda : lambdas) {
        iterations +=
            chain.solve(lambda * ratio, lambda * (1.0 - ratio)).iterations;
      }
    }
  }
  EXPECT_EQ(exported, static_cast<double>(iterations));
}

TEST(UoiElasticNet, PureL1MatchesUoiLassoSupports) {
  // With l1_ratios = {1.0} and matching hyperparameters/seeds, the
  // candidate supports coincide with UoI_LASSO's.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 120;
  spec.n_features = 15;
  spec.support_size = 4;
  spec.seed = 9;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiElasticNetOptions en_options;
  en_options.n_selection_bootstraps = 8;
  en_options.n_estimation_bootstraps = 4;
  en_options.n_lambdas = 8;
  en_options.l1_ratios = {1.0};
  en_options.seed = 404;
  const auto en = uoi::core::UoiElasticNet(en_options).fit(data.x, data.y);

  uoi::core::UoiLassoOptions lasso_options;
  lasso_options.n_selection_bootstraps = 8;
  lasso_options.n_estimation_bootstraps = 4;
  lasso_options.n_lambdas = 8;
  lasso_options.seed = 404;
  const auto lasso = uoi::core::UoiLasso(lasso_options).fit(data.x, data.y);

  ASSERT_EQ(en.candidate_supports.size(), lasso.candidate_supports.size());
  for (std::size_t j = 0; j < en.candidate_supports.size(); ++j) {
    EXPECT_EQ(en.candidate_supports[j], lasso.candidate_supports[j]);
  }
  EXPECT_LT(uoi::linalg::max_abs_diff(en.beta, lasso.beta), 1e-12);
}

TEST(UoiElasticNet, RejectsBadRatios) {
  uoi::core::UoiElasticNetOptions options;
  options.l1_ratios = {0.0};
  EXPECT_THROW(uoi::core::UoiElasticNet en(options),
               uoi::support::InvalidArgument);
  options.l1_ratios = {};
  EXPECT_THROW(uoi::core::UoiElasticNet en2(options),
               uoi::support::InvalidArgument);
}

// ---- estimation criteria ----

TEST(EstimationCriterion, ScoresOrderParsimonyCorrectly) {
  // Same MSE, bigger support -> worse AIC/BIC; MSE ignores size.
  const double mse = 0.5;
  EXPECT_EQ(uoi::core::estimation_score(EstimationCriterion::kMse, mse, 100,
                                        3),
            uoi::core::estimation_score(EstimationCriterion::kMse, mse, 100,
                                        30));
  EXPECT_LT(uoi::core::estimation_score(EstimationCriterion::kAic, mse, 100,
                                        3),
            uoi::core::estimation_score(EstimationCriterion::kAic, mse, 100,
                                        30));
  EXPECT_LT(uoi::core::estimation_score(EstimationCriterion::kBic, mse, 100,
                                        3),
            uoi::core::estimation_score(EstimationCriterion::kBic, mse, 100,
                                        30));
  // BIC penalizes harder than AIC for n >= 8.
  const double aic_gap =
      uoi::core::estimation_score(EstimationCriterion::kAic, mse, 100, 30) -
      uoi::core::estimation_score(EstimationCriterion::kAic, mse, 100, 3);
  const double bic_gap =
      uoi::core::estimation_score(EstimationCriterion::kBic, mse, 100, 30) -
      uoi::core::estimation_score(EstimationCriterion::kBic, mse, 100, 3);
  EXPECT_GT(bic_gap, aic_gap);
}

TEST(EstimationCriterion, BicNeverSelectsMoreThanMse) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 150;
  spec.n_features = 25;
  spec.support_size = 5;
  spec.noise_stddev = 0.6;
  spec.seed = 11;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 10;
  options.n_estimation_bootstraps = 6;
  options.n_lambdas = 10;
  options.criterion = EstimationCriterion::kMse;
  const auto mse_fit = uoi::core::UoiLasso(options).fit(data.x, data.y);
  options.criterion = EstimationCriterion::kBic;
  const auto bic_fit = uoi::core::UoiLasso(options).fit(data.x, data.y);

  // BIC's per-bootstrap winners are never larger supports than MSE's.
  for (std::size_t k = 0; k < options.n_estimation_bootstraps; ++k) {
    const auto mse_size =
        mse_fit.candidate_supports[mse_fit.chosen_support_per_bootstrap[k]]
            .size();
    const auto bic_size =
        bic_fit.candidate_supports[bic_fit.chosen_support_per_bootstrap[k]]
            .size();
    EXPECT_LE(bic_size, mse_size) << "bootstrap " << k;
  }
}

}  // namespace

namespace elastic_net_distributed_tests {

using uoi::linalg::Matrix;

class UoiEnDistParam
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(UoiEnDistParam, MatchesSerialDriver) {
  const auto [ranks, pb, pl] = GetParam();
  uoi::data::RegressionSpec spec;
  spec.n_samples = 140;
  spec.n_features = 16;
  spec.support_size = 4;
  spec.feature_correlation = 0.5;
  spec.seed = 91;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiElasticNetOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 5;
  options.l1_ratios = {1.0, 0.5};
  options.seed = 92;
  options.admm.eps_abs = 1e-9;
  options.admm.eps_rel = 1e-7;
  options.admm.max_iterations = 20000;
  options.support_tolerance = 1e-5;
  const auto serial = uoi::core::UoiElasticNet(options).fit(data.x, data.y);

  uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
    const auto distributed = uoi::core::uoi_elastic_net_distributed(
        comm, data.x, data.y, options, {pb, pl});
    ASSERT_EQ(distributed.model.candidate_supports.size(),
              serial.candidate_supports.size());
    for (std::size_t c = 0; c < serial.candidate_supports.size(); ++c) {
      EXPECT_EQ(distributed.model.candidate_supports[c],
                serial.candidate_supports[c])
          << "cell " << c;
    }
    EXPECT_EQ(distributed.model.chosen_support_per_bootstrap,
              serial.chosen_support_per_bootstrap);
    EXPECT_LT(uoi::linalg::max_abs_diff(distributed.model.beta, serial.beta),
              2e-3);
  });
}

/// FNV-1a over the bytes of a coefficient vector.
std::uint64_t beta_bytes_hash(std::span<const double> beta) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(beta.data());
  for (std::size_t i = 0; i < beta.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

// Byte pins of the distributed fit. Every layout splits its ranks into
// groups of equal width C, so a cell computes the same bytes in any group
// and the bytes depend on C alone: the LPT schedule must not move them.
TEST_P(UoiEnDistParam, PinnedBetaBytes) {
  const auto [ranks, pb, pl] = GetParam();
  uoi::data::RegressionSpec spec;
  spec.n_samples = 140;
  spec.n_features = 16;
  spec.support_size = 4;
  spec.feature_correlation = 0.5;
  spec.seed = 91;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiElasticNetOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 5;
  options.l1_ratios = {1.0, 0.5};
  options.seed = 92;
  options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
  const std::uint64_t expected = ranks / (pb * pl) == 1
                                     ? 8507453976650170746ULL
                                     : 10274560591685466658ULL;
  uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
    const auto fit = uoi::core::uoi_elastic_net_distributed(
        comm, data.x, data.y, options, {pb, pl});
    if (comm.rank() == 0) {
      EXPECT_EQ(beta_bytes_hash(fit.model.beta), expected);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Layouts, UoiEnDistParam,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 1, 1),
                                           std::make_tuple(4, 2, 1),
                                           std::make_tuple(4, 1, 2),
                                           std::make_tuple(6, 2, 3)));

}  // namespace elastic_net_distributed_tests
