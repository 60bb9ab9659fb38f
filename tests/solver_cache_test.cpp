// Factorization-reuse tests: the BootstrapCache LRU, the RidgeGram /
// factor-stage split, the diagonal-shift Cholesky, and the end-to-end
// guarantee that the driver-level solver cache never changes a model —
// cached and cold runs must be bit-identical under every schedule policy
// and across a mid-selection rank failure.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/ridge_system.hpp"
#include "solvers/solver_cache.hpp"
#include "support/rng.hpp"
#include "var/var_distributed.hpp"

namespace {

using uoi::linalg::Matrix;
using uoi::linalg::Vector;
using uoi::sched::SchedulePolicy;
using uoi::solvers::BootstrapCache;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  uoi::support::Xoshiro256 rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  }
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  uoi::support::Xoshiro256 rng(seed);
  Vector v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

// ---- BootstrapCache unit tests ----

struct FakeEntry {
  std::size_t size = 0;
  int tag = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return size; }
};

TEST(BootstrapCache, HitReturnsSameObjectAndCountsStats) {
  BootstrapCache cache(1 << 20);
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::make_shared<FakeEntry>(FakeEntry{128, builds});
  };
  const auto first = cache.get_or_build<FakeEntry>(0, 7, build);
  const auto second = cache.get_or_build<FakeEntry>(0, 7, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.bytes_in_use(), 128u);
}

TEST(BootstrapCache, PassIsPartOfTheKey) {
  BootstrapCache cache(1 << 20);
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::make_shared<FakeEntry>(FakeEntry{64, builds});
  };
  const auto selection = cache.get_or_build<FakeEntry>(
      uoi::solvers::kSelectionPass, 3, build);
  const auto estimation = cache.get_or_build<FakeEntry>(
      uoi::solvers::kEstimationPass, 3, build);
  EXPECT_EQ(builds, 2);
  EXPECT_NE(selection.get(), estimation.get());
}

TEST(BootstrapCache, ZeroBudgetDisablesStorage) {
  BootstrapCache cache(0);
  EXPECT_FALSE(cache.enabled());
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::make_shared<FakeEntry>(FakeEntry{64, builds});
  };
  (void)cache.get_or_build<FakeEntry>(0, 1, build);
  (void)cache.get_or_build<FakeEntry>(0, 1, build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.bytes_in_use(), 0u);
}

TEST(BootstrapCache, OversizedEntryIsReturnedButNotStored) {
  BootstrapCache cache(100);
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::make_shared<FakeEntry>(FakeEntry{1000, builds});
  };
  const auto entry = cache.get_or_build<FakeEntry>(0, 1, build);
  EXPECT_EQ(entry->size, 1000u);
  EXPECT_EQ(cache.bytes_in_use(), 0u);
  (void)cache.get_or_build<FakeEntry>(0, 1, build);
  EXPECT_EQ(builds, 2);  // never cached, so rebuilt
}

TEST(BootstrapCache, EvictsLeastRecentlyUsedWithinBudget) {
  BootstrapCache cache(256);  // room for two 100-byte entries, not three
  const auto sized = [](std::size_t s) {
    return [s] { return std::make_shared<FakeEntry>(FakeEntry{s, 0}); };
  };
  (void)cache.get_or_build<FakeEntry>(0, 1, sized(100));
  (void)cache.get_or_build<FakeEntry>(0, 2, sized(100));
  (void)cache.get_or_build<FakeEntry>(0, 1, sized(100));  // touch 1
  (void)cache.get_or_build<FakeEntry>(0, 3, sized(100));  // evicts 2
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.bytes_in_use(), 200u);
  (void)cache.get_or_build<FakeEntry>(0, 1, sized(100));  // still resident
  EXPECT_EQ(cache.stats().hits, 2u);
  (void)cache.get_or_build<FakeEntry>(0, 2, sized(100));  // was evicted
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(BootstrapCache, KeepsAtLeastOneEntryEvenOverBudget) {
  BootstrapCache cache(150);
  const auto sized = [](std::size_t s) {
    return [s] { return std::make_shared<FakeEntry>(FakeEntry{s, 0}); };
  };
  (void)cache.get_or_build<FakeEntry>(0, 1, sized(100));
  // 140 fits the budget alone but not alongside key 1: key 1 is evicted,
  // the newcomer stays resident (never evict down to an empty cache).
  (void)cache.get_or_build<FakeEntry>(0, 2, sized(140));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.bytes_in_use(), 140u);
  (void)cache.get_or_build<FakeEntry>(0, 2, sized(140));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SolverCacheBudget, OptionWinsOverEnvironment) {
  ::setenv("UOI_SOLVER_CACHE_MB", "64", 1);
  EXPECT_EQ(uoi::solvers::resolve_solver_cache_bytes(8),
            std::size_t{8} << 20);
  EXPECT_EQ(uoi::solvers::resolve_solver_cache_bytes(0), 0u);
  EXPECT_EQ(uoi::solvers::resolve_solver_cache_bytes(-1),
            std::size_t{64} << 20);
  ::unsetenv("UOI_SOLVER_CACHE_MB");
  EXPECT_EQ(uoi::solvers::resolve_solver_cache_bytes(-1),
            std::size_t{256} << 20);
}

// ---- diagonal-shift Cholesky ----

TEST(CholeskyShift, MatchesExplicitlyShiftedMatrixBitwise) {
  for (const std::size_t n : {3u, 40u, 150u}) {
    const Matrix a = random_matrix(n + 5, n, 100 + n);
    Matrix gram(n, n);
    uoi::linalg::syrk_at_a(1.0, a, 0.0, gram);

    Matrix shifted = gram;
    const double rho = 1.75;
    for (std::size_t i = 0; i < n; ++i) shifted(i, i) += rho;

    const uoi::linalg::CholeskyFactor via_shift(gram, rho);
    const uoi::linalg::CholeskyFactor explicit_shift(shifted);
    // Same blocked algorithm on identical values: bitwise equal.
    EXPECT_EQ(uoi::linalg::max_abs_diff(via_shift.lower(),
                                        explicit_shift.lower()),
              0.0)
        << "n = " << n;
  }
}

TEST(CholeskyShift, ReadsOnlyTheLowerTriangle) {
  const std::size_t n = 70;
  const Matrix a = random_matrix(n + 5, n, 300);
  Matrix gram(n, n);
  uoi::linalg::syrk_at_a(1.0, a, 0.0, gram);
  Matrix clean = gram;
  for (std::size_t i = 0; i < n; ++i) clean(i, i) += 0.5;

  // Poison the strict upper triangle; the shift constructor must not care.
  Matrix poisoned = gram;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) poisoned(i, j) = 1e30;
  }
  const uoi::linalg::CholeskyFactor from_poisoned(poisoned, 0.5);
  const uoi::linalg::CholeskyFactor reference(clean);
  EXPECT_EQ(uoi::linalg::max_abs_diff(from_poisoned.lower(),
                                      reference.lower()),
            0.0);
}

// ---- RidgeGram / factor-stage reuse ----

TEST(RidgeSystem, FactorStageMatchesColdStartBitwise) {
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{90, 30},
                                  {20, 60} /* Woodbury: rows < cols */}) {
    const Matrix a = random_matrix(rows, cols, 500 + rows);
    const Vector q = random_vector(cols, 600 + rows);
    const double rho = 2.5;

    const uoi::solvers::RidgeSystemSolver cold(a, rho);
    const uoi::solvers::RidgeSystemSolver reused(a, rho, cold.gram());

    Vector x_cold(cols), x_reused(cols);
    cold.solve(q, x_cold);
    reused.solve(q, x_reused);
    EXPECT_EQ(uoi::linalg::max_abs_diff(x_cold, x_reused), 0.0)
        << rows << "x" << cols;
    EXPECT_EQ(cold.uses_woodbury(), rows < cols);
  }
}

TEST(RidgeSystem, SetupFlopsSplitIntoChargedAndAmortized) {
  const Matrix a = random_matrix(80, 24, 700);
  const uoi::solvers::RidgeSystemSolver cold(a, 1.0);
  EXPECT_GT(cold.setup_flops(), 0u);
  EXPECT_EQ(cold.amortized_setup_flops(), 0u);

  // The factor stage charges only the refactorization; the Gram flops move
  // to the amortized column. Together they equal a cold start.
  const uoi::solvers::RidgeSystemSolver reused(a, 3.0, cold.gram());
  EXPECT_LT(reused.setup_flops(), cold.setup_flops());
  EXPECT_EQ(reused.amortized_setup_flops(), cold.gram()->gram_flops());
  EXPECT_EQ(reused.setup_flops() + reused.amortized_setup_flops(),
            cold.setup_flops());
}

TEST(RidgeSystem, RhoChangeOnSharedGramMatchesColdStartAtNewRho) {
  const Matrix a = random_matrix(64, 20, 800);
  const Vector q = random_vector(20, 801);
  const uoi::solvers::RidgeSystemSolver first(a, 1.0);
  const uoi::solvers::RidgeSystemSolver refactored(a, 4.0, first.gram());
  const uoi::solvers::RidgeSystemSolver cold_at_4(a, 4.0);
  Vector x_refactored(20), x_cold(20);
  refactored.solve(q, x_refactored);
  cold_at_4.solve(q, x_cold);
  EXPECT_EQ(uoi::linalg::max_abs_diff(x_refactored, x_cold), 0.0);
}

// ---- end-to-end: cache on/off is bit-identical, all policies ----

TEST(SolverCacheInvariance, LassoCachedAndColdBitIdenticalAcrossPolicies) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 60;
  spec.n_features = 12;
  spec.support_size = 4;
  spec.seed = 21;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 8;  // 8 lambdas over P_lambda = 2: multi-chain reuse
  options.seed = 2025;

  std::vector<Vector> betas;
  for (const SchedulePolicy policy :
       {SchedulePolicy::kStatic, SchedulePolicy::kCostLpt,
        SchedulePolicy::kWorkSteal}) {
    for (const long cache_mb : {64L, 0L}) {
      options.schedule = policy;
      options.solver_cache_mb = cache_mb;
      uoi::sim::Cluster::run(8, [&](uoi::sim::Comm& comm) {
        const auto result = uoi::core::uoi_lasso_distributed(
            comm, data.x, data.y, options, {2, 2});
        if (comm.rank() == 0) betas.push_back(result.model.beta);
      });
    }
  }
  ASSERT_EQ(betas.size(), 6u);
  for (std::size_t i = 1; i < betas.size(); ++i) {
    EXPECT_EQ(uoi::linalg::max_abs_diff(betas[0], betas[i]), 0.0)
        << "variant " << i;
  }
}

TEST(SolverCacheInvariance, VarCachedAndColdBitIdenticalAcrossPolicies) {
  // Groups of two on both wide-group paths: 5 nodes over 59 lag rows sum
  // a Gram; 8 nodes at order 4 over 7 lag rows (d = 4 against 3 rows per
  // rank) run Kron+vec and consensus ADMM.
  struct Shape {
    std::size_t nodes, order, samples;
    uoi::sched::LinearPath path;
  };
  for (const Shape shape :
       {Shape{5, 1, 60, uoi::sched::LinearPath::kGram},
        Shape{8, 4, 11, uoi::sched::LinearPath::kConsensus}}) {
    uoi::data::VarSpec spec;
    spec.n_nodes = shape.nodes;
    spec.order = shape.order;
    spec.seed = 11;
    const auto truth = uoi::data::make_sparse_var(spec);
    uoi::var::SimulateOptions sim;
    sim.n_samples = shape.samples;
    sim.seed = 12;
    const auto series = uoi::var::simulate(truth, sim);

    uoi::var::UoiVarOptions options;
    options.order = shape.order;
    options.n_selection_bootstraps = 5;
    options.n_estimation_bootstraps = 3;
    options.n_lambdas = 6;
    options.seed = 77;

    std::vector<Vector> betas;
    for (const SchedulePolicy policy :
         {SchedulePolicy::kStatic, SchedulePolicy::kCostLpt,
          SchedulePolicy::kWorkSteal}) {
      for (const long cache_mb : {64L, 0L}) {
        options.schedule = policy;
        options.solver_cache_mb = cache_mb;
        uoi::sim::Cluster::run(8, [&](uoi::sim::Comm& comm) {
          EXPECT_EQ(uoi::var::detail::var_linear_path(comm, series, options,
                                                      {2, 2}),
                    shape.path);
          const auto result = uoi::var::uoi_var_distributed(
              comm, series, options, {2, 2}, 2);
          if (comm.rank() == 0) betas.push_back(result.model.vec_beta);
        });
      }
    }
    ASSERT_EQ(betas.size(), 6u);
    for (std::size_t i = 1; i < betas.size(); ++i) {
      EXPECT_EQ(uoi::linalg::max_abs_diff(betas[0], betas[i]), 0.0)
          << "path " << uoi::sched::linear_path_name(shape.path)
          << ", variant " << i;
    }
  }
}

// ---- fault replay with the cache enabled ----

TEST(SolverCacheInvariance, KillMidChainWithCacheEnabledIsBitIdentical) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 80;
  spec.n_features = 16;
  spec.support_size = 4;
  spec.noise_stddev = 0.3;
  spec.seed = 44;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiLassoOptions options;
  // Deterministic schedule: the kill point counts a clean run's
  // collectives, which work stealing would make timing-dependent.
  options.schedule = SchedulePolicy::kCostLpt;
  options.n_selection_bootstraps = 5;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 8;  // several chains per bootstrap -> cache hits
  options.seed = 909;
  options.solver_cache_mb = 64;  // explicitly enabled

  std::vector<uoi::core::UoiLassoDistributedResult> clean(5);
  uoi::sim::Cluster::run(5, [&](uoi::sim::Comm& comm) {
    clean[static_cast<std::size_t>(comm.rank())] =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options,
                                         {5, 1});
  });

  // This shape runs the Gram path. Kill rank 2 at collective #1, its one
  // selection Gram reduction (#0 is the task-group split): the survivors
  // have cached their own bootstraps' Grams by the time they detect the
  // failure at the selection merge. Recovery must discard the pass's
  // caches and replay the lost bootstrap bit-identically.
  auto plan = std::make_shared<uoi::sim::FaultPlan>();
  plan->kills.push_back({2, 1});
  std::vector<uoi::core::UoiLassoDistributedResult> faulty(5);
  const auto faulty_reports =
      uoi::sim::Cluster::run_collect_reports(5, [&](uoi::sim::Comm& comm) {
        comm.set_fault_plan(plan);
        faulty[static_cast<std::size_t>(comm.rank())] =
            uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options,
                                             {5, 1});
      });

  for (const int r : {0, 1, 3, 4}) {
    const auto& result = faulty[static_cast<std::size_t>(r)];
    EXPECT_EQ(uoi::linalg::max_abs_diff(result.selection_counts,
                                        clean[0].selection_counts),
              0.0)
        << "rank " << r;
    EXPECT_EQ(result.model.support, clean[0].model.support) << "rank " << r;
    EXPECT_EQ(uoi::linalg::max_abs_diff(result.model.beta,
                                        clean[0].model.beta),
              0.0)
        << "rank " << r;
    EXPECT_GE(faulty_reports[static_cast<std::size_t>(r)].recovery.shrinks,
              1u)
        << "rank " << r;
  }
  std::uint64_t recovered = 0;
  for (const auto& report : faulty_reports) {
    recovered += report.recovery.cells_recovered;
  }
  EXPECT_GE(recovered, 1u);
}

}  // namespace
