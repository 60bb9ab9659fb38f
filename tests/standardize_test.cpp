// Tests for the Standardizer and the distributed logistic solver.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>

#include "core/standardize.hpp"
#include "data/synthetic_regression.hpp"
#include "linalg/blas.hpp"
#include "simcluster/cluster.hpp"
#include "core/metrics.hpp"
#include "core/uoi_logistic_distributed.hpp"
#include "solvers/distributed_logistic.hpp"
#include "solvers/logistic.hpp"
#include "support/rng.hpp"

namespace {

using uoi::core::Standardizer;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

TEST(Standardizer, TransformedColumnsAreZScored) {
  uoi::support::Xoshiro256 rng(3);
  Matrix x(200, 4);
  for (std::size_t r = 0; r < 200; ++r) {
    x(r, 0) = 100.0 + 5.0 * rng.normal();
    x(r, 1) = -2.0 + 0.01 * rng.normal();
    x(r, 2) = rng.normal();
    x(r, 3) = 7.0;  // constant column
  }
  const auto scaler = Standardizer::fit(x);
  const Matrix z = scaler.transform(x);
  for (std::size_t c = 0; c < 4; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t r = 0; r < 200; ++r) mean += z(r, c);
    mean /= 200.0;
    for (std::size_t r = 0; r < 200; ++r) {
      var += (z(r, c) - mean) * (z(r, c) - mean);
    }
    var /= 200.0;
    EXPECT_NEAR(mean, 0.0, 1e-10) << "column " << c;
    if (c < 3) {
      EXPECT_NEAR(var, 1.0, 1e-10) << "column " << c;
    } else {
      EXPECT_NEAR(var, 0.0, 1e-12);  // constant column maps to zeros
    }
  }
}

TEST(Standardizer, CoefficientBackTransformPreservesPredictions) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 80;
  spec.n_features = 6;
  spec.support_size = 3;
  spec.seed = 5;
  auto data = uoi::data::make_regression(spec);
  // Give the columns wildly different scales.
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    data.x(r, 0) *= 1000.0;
    data.x(r, 1) *= 0.001;
  }
  const auto scaler = Standardizer::fit(data.x);
  const Matrix z = scaler.transform(data.x);

  // Any (beta_std, b_std) pair must predict identically after mapping.
  uoi::support::Xoshiro256 rng(6);
  Vector beta_std(6);
  for (auto& v : beta_std) v = rng.normal();
  const double b_std = rng.normal();
  const Vector beta = scaler.coefficients_to_original(beta_std);
  const double b = scaler.intercept_to_original(beta_std, b_std);

  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    const double pred_std =
        uoi::linalg::dot(z.row(r), beta_std) + b_std;
    const double pred_orig =
        uoi::linalg::dot(data.x.row(r), beta) + b;
    EXPECT_NEAR(pred_std, pred_orig, 1e-8);
  }
}

TEST(Standardizer, WidthMismatchThrows) {
  Matrix x(10, 3, 1.0);
  x(0, 0) = 2.0;  // avoid an all-constant fit edge
  const auto scaler = Standardizer::fit(x);
  Matrix wrong(5, 2);
  EXPECT_THROW((void)scaler.transform(wrong),
               uoi::support::DimensionMismatch);
}

// ---- distributed logistic ----

class DistLogisticParam : public ::testing::TestWithParam<int> {};

TEST_P(DistLogisticParam, MatchesSerialFistaAcrossRankCounts) {
  const int ranks = GetParam();
  uoi::data::ClassificationSpec spec;
  spec.n_samples = 240;
  spec.n_features = 10;
  spec.support_size = 3;
  spec.seed = 7;
  const auto data = uoi::data::make_classification(spec);
  const double lambda =
      0.05 * uoi::solvers::logistic_lambda_max(data.x, data.y);

  uoi::solvers::LogisticOptions serial_options;
  serial_options.tolerance = 1e-10;
  serial_options.max_iterations = 100000;
  const auto serial =
      uoi::solvers::logistic_lasso(data.x, data.y, lambda, serial_options);

  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-8;
  options.eps_rel = 1e-6;
  options.max_iterations = 5000;
  uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
    const std::size_t n = data.x.rows();
    const std::size_t begin = n * comm.rank() / comm.size();
    const std::size_t end = n * (comm.rank() + 1) / comm.size();
    const auto fit = uoi::solvers::distributed_logistic_lasso(
        comm, data.x.row_block(begin, end - begin),
        std::span<const double>(data.y).subspan(begin, end - begin), lambda,
        options);
    EXPECT_TRUE(fit.converged);
    EXPECT_LT(uoi::linalg::max_abs_diff(fit.beta, serial.beta), 5e-3);
    EXPECT_NEAR(fit.intercept, serial.intercept, 5e-3);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistLogisticParam,
                         ::testing::Values(1, 2, 4, 6));

TEST(DistLogistic, InterceptIsNotPenalized) {
  // A strong base rate with no informative features: lambda should zero
  // the coefficients but leave the intercept free to match the base rate.
  uoi::data::ClassificationSpec spec;
  spec.n_samples = 400;
  spec.n_features = 5;
  spec.support_size = 0;
  spec.intercept = 1.5;
  spec.seed = 9;
  const auto data = uoi::data::make_classification(spec);
  const double lambda =
      2.0 * uoi::solvers::logistic_lambda_max(data.x, data.y);
  uoi::sim::Cluster::run(2, [&](uoi::sim::Comm& comm) {
    const std::size_t n = data.x.rows();
    const std::size_t begin = n * comm.rank() / comm.size();
    const std::size_t end = n * (comm.rank() + 1) / comm.size();
    const auto fit = uoi::solvers::distributed_logistic_lasso(
        comm, data.x.row_block(begin, end - begin),
        std::span<const double>(data.y).subspan(begin, end - begin), lambda);
    for (const double b : fit.beta) EXPECT_NEAR(b, 0.0, 1e-6);
    double rate = 0.0;
    for (const double v : data.y) rate += v;
    rate /= static_cast<double>(data.y.size());
    EXPECT_NEAR(uoi::solvers::sigmoid(fit.intercept), rate, 0.02);
  });
}

}  // namespace

namespace uoi_logistic_distributed_tests {

using uoi::linalg::Matrix;
using uoi::linalg::Vector;

class UoiLogisticDistParam
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(UoiLogisticDistParam, AgreesWithSerialDriver) {
  const auto [ranks, pb, pl] = GetParam();
  uoi::data::ClassificationSpec spec;
  spec.n_samples = 300;
  spec.n_features = 12;
  spec.support_size = 3;
  spec.seed = 21;
  const auto data = uoi::data::make_classification(spec);

  uoi::core::UoiLogisticOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 6;
  options.seed = 31;
  const auto serial = uoi::core::UoiLogistic(options).fit(data.x, data.y);

  uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
    const auto distributed = uoi::core::uoi_logistic_distributed(
        comm, data.x, data.y, options, {pb, pl});
    // The selection solvers differ (FISTA serial vs consensus ADMM
    // distributed), so assert statistical agreement rather than identical
    // iterates: same strong features, close coefficients.
    const auto serial_support =
        uoi::core::SupportSet::from_beta(serial.beta, 0.15);
    const auto dist_support =
        uoi::core::SupportSet::from_beta(distributed.model.beta, 0.15);
    EXPECT_EQ(serial_support, dist_support);
    EXPECT_LT(uoi::linalg::max_abs_diff(distributed.model.beta, serial.beta),
              0.3);
    EXPECT_NEAR(distributed.model.intercept, serial.intercept, 0.2);
    // Both recover the truth's strong features.
    const auto truth = uoi::core::SupportSet::from_beta(data.beta_true);
    const auto acc = uoi::core::selection_accuracy(dist_support, truth,
                                                   spec.n_features);
    EXPECT_EQ(acc.false_negatives, 0u);
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

// Byte pins of the distributed fit (intercept appended). Every layout
// splits its ranks into groups of equal width, so a cell computes the
// same bytes in any group and the LPT schedule must not move them; the
// IRLS refits land every width here on the same bytes.
TEST_P(UoiLogisticDistParam, PinnedBetaBytes) {
  const auto [ranks, pb, pl] = GetParam();
  uoi::data::ClassificationSpec spec;
  spec.n_samples = 300;
  spec.n_features = 12;
  spec.support_size = 3;
  spec.seed = 21;
  const auto data = uoi::data::make_classification(spec);

  uoi::core::UoiLogisticOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 6;
  options.seed = 31;
  options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
  options.consensus_interval = 1;  // immune to UOI_CONSENSUS_INTERVAL
  uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
    const auto fit = uoi::core::uoi_logistic_distributed(comm, data.x, data.y,
                                                         options, {pb, pl});
    if (comm.rank() == 0) {
      auto bytes = fit.model.beta;
      bytes.push_back(fit.model.intercept);
      EXPECT_EQ(beta_bytes_hash(bytes), 3102928925143438307ULL);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Layouts, UoiLogisticDistParam,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 1, 1),
                                           std::make_tuple(4, 2, 1),
                                           std::make_tuple(4, 1, 2),
                                           std::make_tuple(6, 3, 2)));

}  // namespace uoi_logistic_distributed_tests
