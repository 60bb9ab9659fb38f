// Tests for uoi::core: support-set algebra, metrics, the serial UoI_LASSO
// driver's statistical behaviour, and serial == distributed agreement
// across P_B x P_lambda x C layouts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "core/metrics.hpp"
#include "core/support_set.hpp"
#include "core/uoi_lasso.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "linalg/blas.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/screening.hpp"

namespace {

using uoi::core::SupportSet;
using uoi::core::UoiLasso;
using uoi::core::UoiLassoOptions;

TEST(SupportSet, ConstructionSortsAndDedupes) {
  const SupportSet s({5, 1, 3, 1, 5});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.indices(), (std::vector<std::size_t>{1, 3, 5}));
}

TEST(SupportSet, FromBetaWithTolerance) {
  const std::vector<double> beta{0.0, 1e-9, -0.5, 2.0, 1e-5};
  const SupportSet s = SupportSet::from_beta(beta, 1e-6);
  EXPECT_EQ(s.indices(), (std::vector<std::size_t>{2, 3, 4}));
}

TEST(SupportSet, IntersectAndUnite) {
  const SupportSet a({1, 2, 3, 4});
  const SupportSet b({3, 4, 5});
  EXPECT_EQ(a.intersect(b).indices(), (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(a.unite(b).indices(), (std::vector<std::size_t>{1, 2, 3, 4, 5}));
}

TEST(SupportSet, IntersectionIsSubsetOfOperands) {
  // The defining property of the selection Reduce (eq. 3).
  const SupportSet a({1, 4, 7, 9});
  const SupportSet b({1, 2, 7});
  const SupportSet i = a.intersect(b);
  EXPECT_TRUE(i.is_subset_of(a));
  EXPECT_TRUE(i.is_subset_of(b));
  EXPECT_TRUE(i.is_subset_of(a.unite(b)));
}

TEST(SupportSet, IntersectAllEmptyFamilyIsFull) {
  const auto full = uoi::core::intersect_all({}, 4);
  EXPECT_EQ(full.size(), 4u);
}

TEST(SupportSet, UniteAllEmptyFamilyIsEmpty) {
  EXPECT_TRUE(uoi::core::unite_all({}).empty());
}

TEST(SupportSet, IndicatorRoundTrip) {
  const SupportSet s({0, 3});
  const auto ind = s.indicator(5);
  EXPECT_EQ(ind, (std::vector<double>{1, 0, 0, 1, 0}));
  EXPECT_EQ(SupportSet::from_indicator(ind), s);
}

TEST(SupportSet, DedupePreservesOrder) {
  std::vector<SupportSet> family{SupportSet({1}), SupportSet({2}),
                                 SupportSet({1}), SupportSet{}};
  const auto unique = uoi::core::dedupe_supports(std::move(family));
  ASSERT_EQ(unique.size(), 3u);
  EXPECT_EQ(unique[0], SupportSet({1}));
  EXPECT_EQ(unique[1], SupportSet({2}));
  EXPECT_TRUE(unique[2].empty());
}

TEST(Metrics, ConfusionCountsAndScores) {
  const SupportSet truth({0, 1, 2});
  const SupportSet estimate({1, 2, 3, 4});
  const auto acc = uoi::core::selection_accuracy(estimate, truth, 6);
  EXPECT_EQ(acc.true_positives, 2u);
  EXPECT_EQ(acc.false_positives, 2u);
  EXPECT_EQ(acc.false_negatives, 1u);
  EXPECT_EQ(acc.true_negatives, 1u);
  EXPECT_DOUBLE_EQ(acc.precision(), 0.5);
  EXPECT_NEAR(acc.recall(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(acc.f1(), 2 * 0.5 * (2.0 / 3.0) / (0.5 + 2.0 / 3.0), 1e-12);
}

TEST(Metrics, PerfectSelection) {
  const SupportSet truth({2, 4});
  const auto acc = uoi::core::selection_accuracy(truth, truth, 8);
  EXPECT_DOUBLE_EQ(acc.f1(), 1.0);
  EXPECT_DOUBLE_EQ(acc.mcc(), 1.0);
}

TEST(Metrics, EstimationAccuracy) {
  const std::vector<double> truth{1.0, 0.0, -2.0};
  const std::vector<double> est{1.1, 0.0, -2.1};
  const auto acc = uoi::core::estimation_accuracy(est, truth);
  EXPECT_NEAR(acc.l2_error, std::sqrt(0.01 + 0.01), 1e-12);
  EXPECT_NEAR(acc.max_abs_error, 0.1, 1e-12);
  EXPECT_NEAR(acc.bias_on_support, 0.0, 1e-12);  // +0.1 and -0.1 cancel
}

UoiLassoOptions fast_options() {
  UoiLassoOptions options;
  options.n_selection_bootstraps = 10;
  options.n_estimation_bootstraps = 6;
  options.n_lambdas = 10;
  options.seed = 404;
  options.admm.eps_abs = 1e-8;
  options.admm.eps_rel = 1e-6;
  options.admm.max_iterations = 5000;
  return options;
}

TEST(UoiLasso, RecoversSparseSupport) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 300;
  spec.n_features = 30;
  spec.support_size = 6;
  spec.noise_stddev = 0.3;
  spec.seed = 77;
  const auto data = uoi::data::make_regression(spec);

  const UoiLasso uoi(fast_options());
  const auto result = uoi.fit(data.x, data.y);

  const SupportSet truth = SupportSet::from_beta(data.beta_true);
  // No true feature may be missed (low false negatives)...
  const auto raw =
      uoi::core::selection_accuracy(result.support, truth, spec.n_features);
  EXPECT_EQ(raw.false_negatives, 0u) << "UoI missed true features";
  // ...and any admitted spurious feature must carry negligible weight:
  // above a small magnitude threshold the support is exact (the estimation
  // average dilutes features that win only a minority of bootstraps).
  const SupportSet thresholded = SupportSet::from_beta(result.beta, 0.05);
  const auto acc =
      uoi::core::selection_accuracy(thresholded, truth, spec.n_features);
  EXPECT_EQ(acc.false_negatives, 0u);
  EXPECT_EQ(acc.false_positives, 0u);
  EXPECT_DOUBLE_EQ(acc.f1(), 1.0);
  // Estimation: coefficients close to truth (low bias — the UoI claim).
  const auto est = uoi::core::estimation_accuracy(result.beta, data.beta_true);
  EXPECT_LT(est.relative_l2, 0.05);
  EXPECT_LT(std::abs(est.bias_on_support), 0.05);
}

TEST(UoiLasso, SelectionIntersectionFindsExactSupportOnPath) {
  // The paper's selection claim in isolation: some lambda's intersected
  // support equals the ground truth exactly.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 300;
  spec.n_features = 30;
  spec.support_size = 6;
  spec.noise_stddev = 0.3;
  spec.seed = 77;
  const auto data = uoi::data::make_regression(spec);
  const auto result = UoiLasso(fast_options()).fit(data.x, data.y);
  const SupportSet truth = SupportSet::from_beta(data.beta_true);
  bool found_exact = false;
  for (const auto& s : result.candidate_supports) {
    if (s == truth) found_exact = true;
  }
  EXPECT_TRUE(found_exact)
      << "no candidate support matches the ground truth exactly";
}

TEST(UoiLasso, CandidateSupportsShrinkWithLambda) {
  // Larger lambda -> smaller (or equal) intersected support, monotone on
  // a well-behaved problem.
  const auto data = uoi::data::make_regression({});
  const UoiLasso uoi(fast_options());
  const auto result = uoi.fit(data.x, data.y);
  ASSERT_EQ(result.candidate_supports.size(), result.lambdas.size());
  // lambdas descend, so supports should (weakly) grow along the path.
  for (std::size_t j = 1; j < result.candidate_supports.size(); ++j) {
    EXPECT_GE(result.candidate_supports[j].size() + 2,
              result.candidate_supports[j - 1].size())
        << "support family is wildly non-monotone at " << j;
  }
}

TEST(UoiLasso, DeterministicAcrossRuns) {
  const auto data = uoi::data::make_regression({});
  const UoiLasso uoi(fast_options());
  const auto a = uoi.fit(data.x, data.y);
  const auto b = uoi.fit(data.x, data.y);
  EXPECT_EQ(uoi::linalg::max_abs_diff(a.beta, b.beta), 0.0);
  EXPECT_EQ(a.chosen_support_per_bootstrap, b.chosen_support_per_bootstrap);
}

TEST(UoiLasso, SeedChangesResamples) {
  auto options = fast_options();
  const auto idx_a = uoi::core::selection_bootstrap_indices(options, 100, 0);
  options.seed += 1;
  const auto idx_b = uoi::core::selection_bootstrap_indices(options, 100, 0);
  EXPECT_NE(idx_a, idx_b);
}

TEST(UoiLasso, EstimationSplitIsPartition) {
  const auto options = fast_options();
  const auto split = uoi::core::estimation_split(options, 40, 3);
  std::vector<bool> seen(40, false);
  for (const auto i : split.train) seen[i] = true;
  for (const auto i : split.eval) {
    EXPECT_FALSE(seen[i]) << "train/eval overlap at " << i;
    seen[i] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(UoiLasso, ExplicitLambdaGridIsUsedDescending) {
  auto options = fast_options();
  options.lambdas = {0.1, 10.0, 1.0};
  const auto data = uoi::data::make_regression({});
  const auto grid =
      uoi::core::resolve_lambda_grid(options, data.x, data.y);
  EXPECT_EQ(grid, (std::vector<double>{10.0, 1.0, 0.1}));
}

struct LayoutCase {
  int ranks;
  int pb;
  int pl;
};

class DistributedUoiParam : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(DistributedUoiParam, MatchesSerialResult) {
  const auto layout_case = GetParam();
  uoi::data::RegressionSpec spec;
  spec.n_samples = 120;
  spec.n_features = 24;
  spec.support_size = 5;
  spec.noise_stddev = 0.3;
  spec.seed = 55;
  const auto data = uoi::data::make_regression(spec);

  auto options = fast_options();
  options.n_selection_bootstraps = 8;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 8;
  const auto serial = UoiLasso(options).fit(data.x, data.y);

  uoi::sim::Cluster::run(layout_case.ranks, [&](uoi::sim::Comm& comm) {
    const auto distributed = uoi::core::uoi_lasso_distributed(
        comm, data.x, data.y, options,
        {layout_case.pb, layout_case.pl});
    // Same candidate supports (both intersect the same resampled fits).
    ASSERT_EQ(distributed.model.candidate_supports.size(),
              serial.candidate_supports.size());
    for (std::size_t j = 0; j < serial.candidate_supports.size(); ++j) {
      EXPECT_EQ(distributed.model.candidate_supports[j],
                serial.candidate_supports[j])
          << "candidate support mismatch at lambda index " << j;
    }
    EXPECT_EQ(distributed.model.chosen_support_per_bootstrap,
              serial.chosen_support_per_bootstrap);
    EXPECT_LT(
        uoi::linalg::max_abs_diff(distributed.model.beta, serial.beta),
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

// Byte pins of the distributed fit (intercept appended). Every layout
// here splits its ranks into groups of equal width C, so a cell computes
// the same bytes in any group and the bytes depend on C alone: the LPT
// schedule must not move them.
TEST_P(DistributedUoiParam, PinnedBetaBytes) {
  const auto layout_case = GetParam();
  uoi::data::RegressionSpec spec;
  spec.n_samples = 120;
  spec.n_features = 24;
  spec.support_size = 5;
  spec.noise_stddev = 0.3;
  spec.seed = 55;
  const auto data = uoi::data::make_regression(spec);

  auto options = fast_options();
  options.n_selection_bootstraps = 8;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 8;
  options.fit_intercept = true;
  options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
  const int width = layout_case.ranks / (layout_case.pb * layout_case.pl);
  const std::uint64_t expected =
      width == 1 ? 2688091113442739932ULL : 13148764769372768661ULL;
  uoi::sim::Cluster::run(layout_case.ranks, [&](uoi::sim::Comm& comm) {
    const auto fit = uoi::core::uoi_lasso_distributed(
        comm, data.x, data.y, options, {layout_case.pb, layout_case.pl});
    if (comm.rank() == 0) {
      auto bytes = fit.model.beta;
      bytes.push_back(fit.model.intercept);
      EXPECT_EQ(beta_bytes_hash(bytes), expected);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, DistributedUoiParam,
    ::testing::Values(LayoutCase{1, 1, 1}, LayoutCase{2, 1, 1},
                      LayoutCase{4, 2, 1}, LayoutCase{4, 1, 2},
                      LayoutCase{8, 2, 2}, LayoutCase{8, 4, 1},
                      LayoutCase{6, 3, 2}));

// Byte pins of a fit the path rule sends to the consensus side (24 rows
// against 32 features). Layout {1, 1} runs one group of five on consensus
// ADMM, recorded before the Gram path existed: it must keep its bytes,
// its per-task batched evaluation allreduce included. Layout {5, 1} runs
// one-rank groups, which walk the serial chain: its pin is the serial
// fit's bytes at this shape.
TEST(DistributedUoi, ConsensusPathPinnedBetaBytes) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 24;
  spec.n_features = 32;
  spec.support_size = 4;
  spec.noise_stddev = 0.3;
  spec.seed = 44;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiLassoOptions options;
  options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
  options.n_selection_bootstraps = 5;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 5;
  options.seed = 909;
  options.admm.eps_abs = 1e-8;
  options.admm.eps_rel = 1e-6;
  options.admm.max_iterations = 5000;
  const std::pair<uoi::core::UoiParallelLayout, std::uint64_t> cases[] = {
      {{5, 1}, 1988844621794226602ULL}, {{1, 1}, 10864911876871551795ULL}};
  for (const auto& [layout, expected] : cases) {
    uoi::sim::Cluster::run(5, [&](uoi::sim::Comm& comm) {
      ASSERT_EQ(uoi::core::detail::linear_family_path(comm, data.x, layout),
                uoi::sched::LinearPath::kConsensus);
      const auto fit = uoi::core::uoi_lasso_distributed(comm, data.x, data.y,
                                                        options, layout);
      if (comm.rank() == 0) {
        EXPECT_EQ(beta_bytes_hash(fit.model.beta), expected)
            << "P_B " << layout.bootstrap_groups;
      }
    });
  }
}

TEST(DistributedUoi, RejectsLayoutLargerThanCommunicator) {
  const auto data = uoi::data::make_regression({});
  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    EXPECT_THROW((void)uoi::core::uoi_lasso_distributed(
                     comm, data.x, data.y, fast_options(), {5, 1}),
                 uoi::support::InvalidArgument);
  });
}

// Indivisible layouts are legal since the remainder-tolerant group split:
// 4 ranks under {3, 1} run as three groups of widths {2, 1, 1} and must
// agree with the serial reference exactly like any even layout.
TEST(DistributedUoi, AcceptsIndivisibleLayout) {
  const auto data = uoi::data::make_regression({});
  const auto serial = uoi::core::UoiLasso(fast_options()).fit(data.x, data.y);
  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const auto result = uoi::core::uoi_lasso_distributed(
        comm, data.x, data.y, fast_options(), {3, 1});
    EXPECT_EQ(result.model.support.indices(), serial.support.indices());
  });
}

TEST(DistributedUoi, BreakdownBucketsAreNonNegative) {
  const auto data = uoi::data::make_regression({});
  auto options = fast_options();
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 4;
  uoi::sim::Cluster::run(2, [&](uoi::sim::Comm& comm) {
    const auto result =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options);
    EXPECT_GE(result.breakdown.communication_seconds, 0.0);
    EXPECT_GE(result.breakdown.distribution_seconds, 0.0);
  });
}

}  // namespace
