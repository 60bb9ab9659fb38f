// Tests for uoi::solvers: LASSO-ADMM optimality (KKT), agreement between
// independent solver implementations (ADMM vs coordinate descent; dense vs
// sparse vs structured vs distributed), OLS correctness, lambda grids.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "data/synthetic_regression.hpp"
#include "linalg/blas.hpp"
#include "linalg/kron.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/admm_lasso_sparse.hpp"
#include "solvers/cd_lasso.hpp"
#include "solvers/distributed_admm.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/ols.hpp"
#include "solvers/prox.hpp"
#include "solvers/ridge.hpp"
#include "solvers/ridge_system.hpp"
#include "support/rng.hpp"

namespace {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

double lasso_objective(ConstMatrixView x, std::span<const double> y,
                       std::span<const double> beta, double lambda) {
  double rss = 0.0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double err = uoi::linalg::dot(x.row(r), beta) - y[r];
    rss += err * err;
  }
  return 0.5 * rss + lambda * uoi::linalg::nrm1(beta);
}

/// KKT check for the LASSO: |x_j'(y - X beta)| <= lambda (+tol) everywhere,
/// with equality (sign-matched) on the support.
void expect_kkt(ConstMatrixView x, std::span<const double> y,
                std::span<const double> beta, double lambda, double tol) {
  Vector residual(y.begin(), y.end());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    residual[r] -= uoi::linalg::dot(x.row(r), beta);
  }
  Vector grad(x.cols(), 0.0);
  uoi::linalg::gemv_transposed(1.0, x, residual, 0.0, grad);
  for (std::size_t j = 0; j < x.cols(); ++j) {
    EXPECT_LE(std::abs(grad[j]), lambda + tol) << "coordinate " << j;
    if (std::abs(beta[j]) > 1e-6) {
      EXPECT_NEAR(grad[j], lambda * (beta[j] > 0 ? 1.0 : -1.0), tol)
          << "support coordinate " << j;
    }
  }
}

uoi::data::RegressionDataset small_problem(std::uint64_t seed = 3,
                                           std::size_t n = 60,
                                           std::size_t p = 20) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = n;
  spec.n_features = p;
  spec.support_size = 5;
  spec.noise_stddev = 0.3;
  spec.seed = seed;
  return uoi::data::make_regression(spec);
}

TEST(Prox, SoftThreshold) {
  EXPECT_DOUBLE_EQ(uoi::solvers::soft_threshold(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(uoi::solvers::soft_threshold(-3.0, 1.0), -2.0);
  EXPECT_DOUBLE_EQ(uoi::solvers::soft_threshold(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(uoi::solvers::soft_threshold(-0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(uoi::solvers::soft_threshold(2.0, 0.0), 2.0);
}

TEST(LambdaGrid, LambdaMaxZeroesTheSolution) {
  const auto data = small_problem();
  const double hi = uoi::solvers::lambda_max(data.x, data.y);
  const auto fit = uoi::solvers::lasso_admm(data.x, data.y, hi * 1.001);
  for (const double b : fit.beta) EXPECT_NEAR(b, 0.0, 1e-6);
}

TEST(LambdaGrid, LogSpacedEndpointsAndMonotone) {
  const auto grid = uoi::solvers::log_spaced_lambdas(10.0, 0.01, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 10.0);
  EXPECT_NEAR(grid.back(), 0.1, 1e-12);
  for (std::size_t i = 1; i < grid.size(); ++i) EXPECT_LT(grid[i], grid[i - 1]);
}

TEST(LambdaGrid, SingleValueGrid) {
  const auto grid = uoi::solvers::log_spaced_lambdas(5.0, 0.1, 1);
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_DOUBLE_EQ(grid[0], 5.0);
}

class AdmmKktParam
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(AdmmKktParam, SatisfiesKktConditions) {
  const auto [seed, lambda_fraction] = GetParam();
  const auto data = small_problem(seed);
  const double lambda =
      lambda_fraction * uoi::solvers::lambda_max(data.x, data.y);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-9;
  options.eps_rel = 1e-7;
  options.max_iterations = 20000;
  const auto fit = uoi::solvers::lasso_admm(data.x, data.y, lambda, options);
  EXPECT_TRUE(fit.converged);
  expect_kkt(data.x, data.y, fit.beta, lambda, 1e-3 * lambda + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Instances, AdmmKktParam,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0.5, 0.1, 0.01)));

TEST(Admm, MatchesCoordinateDescent) {
  const auto data = small_problem(7);
  const double lambda = 0.1 * uoi::solvers::lambda_max(data.x, data.y);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-10;
  options.eps_rel = 1e-8;
  options.max_iterations = 50000;
  const auto admm = uoi::solvers::lasso_admm(data.x, data.y, lambda, options);
  uoi::solvers::CdLassoOptions cd_options;
  cd_options.tolerance = 1e-12;
  const auto cd = uoi::solvers::cd_lasso(data.x, data.y, lambda, cd_options);
  EXPECT_TRUE(admm.converged);
  EXPECT_TRUE(cd.converged);
  // Both minimize the same strictly convex-on-support objective.
  const double obj_admm = lasso_objective(data.x, data.y, admm.beta, lambda);
  const double obj_cd = lasso_objective(data.x, data.y, cd.beta, lambda);
  EXPECT_NEAR(obj_admm, obj_cd, 1e-5 * std::abs(obj_cd));
  EXPECT_LT(uoi::linalg::max_abs_diff(admm.beta, cd.beta), 1e-3);
}

TEST(Admm, WoodburyPathWhenWide) {
  // n < p exercises the matrix-inversion-lemma branch.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 30;
  spec.n_features = 80;
  spec.support_size = 4;
  spec.noise_stddev = 0.1;
  spec.seed = 9;
  const auto data = uoi::data::make_regression(spec);
  const double lambda = 0.05 * uoi::solvers::lambda_max(data.x, data.y);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-9;
  options.eps_rel = 1e-7;
  options.max_iterations = 20000;
  const auto fit = uoi::solvers::lasso_admm(data.x, data.y, lambda, options);
  EXPECT_TRUE(fit.converged);
  expect_kkt(data.x, data.y, fit.beta, lambda, 1e-3 * lambda + 1e-6);
}

TEST(Admm, WarmStartReducesIterations) {
  const auto data = small_problem(11);
  const double hi = uoi::solvers::lambda_max(data.x, data.y);
  const uoi::solvers::LassoAdmmSolver solver(data.x, data.y);
  const auto cold = solver.solve(0.09 * hi);
  const auto path_point = solver.solve(0.1 * hi);
  const auto warm = solver.solve(0.09 * hi, &path_point);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_LT(uoi::linalg::max_abs_diff(warm.beta, cold.beta), 1e-3);
}

TEST(Admm, LambdaZeroIsOls) {
  const auto data = small_problem(13, 80, 10);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-11;
  options.eps_rel = 1e-9;
  options.max_iterations = 50000;
  const auto admm = uoi::solvers::lasso_admm(data.x, data.y, 0.0, options);
  const Vector ols = uoi::solvers::ols_direct(data.x, data.y);
  EXPECT_LT(uoi::linalg::max_abs_diff(admm.beta, ols), 1e-5);
}

TEST(Admm, RejectsNegativeLambda) {
  const auto data = small_problem();
  EXPECT_THROW((void)uoi::solvers::lasso_admm(data.x, data.y, -1.0),
               uoi::support::InvalidArgument);
}

TEST(Admm, FlopAccountingIsPositive) {
  const auto data = small_problem();
  const auto fit = uoi::solvers::lasso_admm(data.x, data.y, 0.1);
  EXPECT_GT(fit.flops, 0u);
}

TEST(RidgeSystem, SolvesBothBranches) {
  uoi::support::Xoshiro256 rng(15);
  for (const auto& [n, p] :
       {std::pair<std::size_t, std::size_t>{40, 12}, {12, 40}}) {
    Matrix a(n, p);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < p; ++c) a(r, c) = rng.normal();
    }
    const double rho = 2.5;
    const uoi::solvers::RidgeSystemSolver system(a, rho);
    EXPECT_EQ(system.uses_woodbury(), n < p);
    Vector q(p), x(p);
    for (auto& v : q) v = rng.normal();
    system.solve(q, x);
    // Verify (A'A + rho I) x == q.
    Vector ax(n, 0.0), atax(p, 0.0);
    uoi::linalg::gemv(1.0, a, x, 0.0, ax);
    uoi::linalg::gemv_transposed(1.0, a, ax, 0.0, atax);
    for (std::size_t i = 0; i < p; ++i) atax[i] += rho * x[i];
    EXPECT_LT(uoi::linalg::max_abs_diff(atax, q), 1e-8);
  }
}

Matrix random_matrix(std::size_t rows, std::size_t cols,
                     uoi::support::Xoshiro256& rng) {
  Matrix a(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) a(r, c) = rng.normal();
  }
  return a;
}

TEST(BlockRidgeSolver, MatchesPerBlockRidgeSystemsBitwise) {
  // Tall blocks of several widths share the lane-packed batch; the two
  // wide ones (rows < cols) take the Woodbury path. Slices are listed out
  // of order with a gap, which must stay untouched.
  uoi::support::Xoshiro256 rng(41);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {30, 9}, {6, 11}, {40, 17}, {25, 1}, {3, 5}, {50, 8},
      {33, 12}, {20, 20}, {60, 3}, {45, 16}};
  std::vector<Matrix> data;
  std::vector<uoi::solvers::BlockRidgeSolver::Block> blocks;
  std::size_t length = 0;
  for (const auto& [rows, cols] : shapes) {
    data.push_back(random_matrix(rows, cols, rng));
  }
  for (std::size_t k = data.size(); k > 0; --k) {
    blocks.push_back({data[k - 1], length});
    length += data[k - 1].cols() + 1;
  }
  Vector q(length);
  for (auto& v : q) v = rng.normal();

  for (const double rho : {0.5, 8.0}) {
    const uoi::solvers::BlockRidgeSolver cold(blocks, 1.0);
    const uoi::solvers::BlockRidgeSolver refactored(cold, rho);
    const uoi::solvers::BlockRidgeSolver direct(blocks, rho);
    Vector expected(length, 7.0);
    std::uint64_t solve_flops = 0;
    std::uint64_t refactor_flops = 0;
    for (const auto& block : blocks) {
      const uoi::solvers::RidgeSystemSolver alone(block.a, rho);
      const std::size_t w = block.a.cols();
      alone.solve(std::span<const double>(q).subspan(block.offset, w),
                  std::span<double>(expected).subspan(block.offset, w));
      solve_flops += alone.solve_flops();
      refactor_flops += uoi::linalg::cholesky_flops(
          std::min(block.a.rows(), block.a.cols()));
    }
    for (const auto* solver : {&refactored, &direct}) {
      Vector x(length, 7.0);
      solver->solve(q, x);
      EXPECT_EQ(0, std::memcmp(x.data(), expected.data(),
                               length * sizeof(double)))
          << "rho " << rho;
      EXPECT_EQ(solver->solve_flops(), solve_flops);
    }
    // The factor stage charges one refactorization per block, nothing else.
    EXPECT_EQ(refactored.setup_flops(), refactor_flops);
    EXPECT_GT(direct.setup_flops(), refactor_flops);
  }
}

// Adaptive rho refactors each factored system from its cached Gram, and
// that work is charged: a solve's flops are its setup, one x-update per
// iteration, and cholesky_flops(dim) per factored system per rho update.
TEST(AdaptiveRho, RefactorFlopsAreChargedPerSystemPerUpdate) {
  uoi::support::Xoshiro256 rng(43);
  const Matrix x = random_matrix(30, 6, rng);
  const std::size_t n_blocks = 4;
  const uoi::linalg::KroneckerIdentityOp op(x, n_blocks);
  Vector y(op.rows());
  for (auto& v : y) v = rng.normal();
  const auto csr = uoi::linalg::kron_identity_sparse(x, n_blocks);
  const double lambda = 0.5;

  uoi::solvers::AdmmOptions adaptive;
  adaptive.rho = 500.0;  // far from balanced: residual balancing rescales
  adaptive.rho_update_interval = 2;
  auto fixed = adaptive;
  fixed.adaptive_rho = false;

  const auto expect_charged = [&](const auto& make, const char* name,
                                  std::uint64_t per_iteration,
                                  std::uint64_t per_update) {
    const auto base = make(fixed).solve(lambda);
    const std::uint64_t setup = base.flops - base.iterations * per_iteration;
    const auto fit = make(adaptive).solve(lambda);
    EXPECT_GT(fit.rho_updates, 0u) << name;
    EXPECT_EQ(fit.flops, setup + fit.iterations * per_iteration +
                             fit.rho_updates * per_update)
        << name;
  };
  const std::size_t m = x.cols();
  const std::size_t p = m * n_blocks;
  // One dp x dp factor serves every block of the Kronecker design.
  expect_charged(
      [&](const uoi::solvers::AdmmOptions& o) {
        return uoi::solvers::KronLassoAdmmSolver(op, y, o);
      },
      "kron", n_blocks * 2 * uoi::linalg::trsv_flops(m),
      uoi::linalg::cholesky_flops(m));
  expect_charged(
      [&](const uoi::solvers::AdmmOptions& o) {
        return uoi::solvers::SparseLassoAdmmSolver(csr, y, o);
      },
      "sparse", 2 * uoi::linalg::trsv_flops(p),
      uoi::linalg::cholesky_flops(p));
  const Matrix dense = csr.to_dense();
  expect_charged(
      [&](const uoi::solvers::AdmmOptions& o) {
        return uoi::solvers::LassoAdmmSolver(dense, y, o);
      },
      "dense", 2 * uoi::linalg::trsv_flops(p),
      uoi::linalg::cholesky_flops(p));
}

TEST(SparseAdmm, MatchesDenseOnSameProblem) {
  const auto data = small_problem(17);
  const double lambda = 0.1 * uoi::solvers::lambda_max(data.x, data.y);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-9;
  options.eps_rel = 1e-7;
  options.max_iterations = 20000;
  const auto dense = uoi::solvers::lasso_admm(data.x, data.y, lambda, options);
  const auto csr = uoi::linalg::SparseMatrix::from_dense(data.x);
  const uoi::solvers::SparseLassoAdmmSolver sparse(csr, data.y, options);
  const auto sparse_fit = sparse.solve(lambda);
  EXPECT_LT(uoi::linalg::max_abs_diff(dense.beta, sparse_fit.beta), 1e-5);
}

TEST(SparseAdmm, CgFallbackMatchesCholesky) {
  const auto data = small_problem(19);
  const double lambda = 0.1 * uoi::solvers::lambda_max(data.x, data.y);
  const auto csr = uoi::linalg::SparseMatrix::from_dense(data.x);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-9;
  options.eps_rel = 1e-7;
  options.max_iterations = 20000;
  const uoi::solvers::SparseLassoAdmmSolver with_chol(csr, data.y, options);
  const uoi::solvers::SparseLassoAdmmSolver with_cg(csr, data.y, options,
                                                    /*dense_gram_max_cols=*/0);
  EXPECT_LT(uoi::linalg::max_abs_diff(with_chol.solve(lambda).beta,
                                      with_cg.solve(lambda).beta),
            1e-4);
}

TEST(KronAdmm, MatchesSparseOnBlockDiagonalProblem) {
  // Build a small I (x) X problem directly.
  uoi::support::Xoshiro256 rng(21);
  Matrix x(12, 4);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) = rng.normal();
  }
  const std::size_t blocks = 5;
  const uoi::linalg::KroneckerIdentityOp op(x, blocks);
  Vector y(op.rows());
  for (auto& v : y) v = rng.normal();

  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-9;
  options.eps_rel = 1e-7;
  options.max_iterations = 20000;
  const uoi::solvers::KronLassoAdmmSolver structured(op, y, options);
  const auto csr = uoi::linalg::kron_identity_sparse(x, blocks);
  const uoi::solvers::SparseLassoAdmmSolver sparse(csr, y, options);

  const double lambda = 0.5;
  EXPECT_LT(uoi::linalg::max_abs_diff(structured.solve(lambda).beta,
                                      sparse.solve(lambda).beta),
            1e-5);
}

class DistributedAdmmParam : public ::testing::TestWithParam<int> {};

TEST_P(DistributedAdmmParam, MatchesSerialAcrossRankCounts) {
  const int ranks = GetParam();
  const auto data = small_problem(23, 64, 16);
  const double lambda = 0.1 * uoi::solvers::lambda_max(data.x, data.y);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-9;
  options.eps_rel = 1e-7;
  options.max_iterations = 30000;
  const auto serial = uoi::solvers::lasso_admm(data.x, data.y, lambda, options);

  uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
    const std::size_t n = data.x.rows();
    const std::size_t begin = n * comm.rank() / comm.size();
    const std::size_t end = n * (comm.rank() + 1) / comm.size();
    const auto local_x = data.x.row_block(begin, end - begin);
    const std::span<const double> local_y =
        std::span<const double>(data.y).subspan(begin, end - begin);
    const auto fit = uoi::solvers::distributed_lasso_admm(
        comm, local_x, local_y, lambda, options);
    EXPECT_TRUE(fit.converged);
    EXPECT_LT(uoi::linalg::max_abs_diff(fit.beta, serial.beta), 2e-3);
    EXPECT_GT(fit.allreduce_calls, 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedAdmmParam,
                         ::testing::Values(1, 2, 4, 8));

TEST(DistributedAdmm, OlsModeMatchesDirect) {
  const auto data = small_problem(29, 100, 12);
  const Vector ols = uoi::solvers::ols_direct(data.x, data.y);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-10;
  options.eps_rel = 1e-8;
  options.max_iterations = 50000;
  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const std::size_t n = data.x.rows();
    const std::size_t begin = n * comm.rank() / comm.size();
    const std::size_t end = n * (comm.rank() + 1) / comm.size();
    const auto fit = uoi::solvers::distributed_lasso_admm(
        comm, data.x.row_block(begin, end - begin),
        std::span<const double>(data.y).subspan(begin, end - begin),
        /*lambda=*/0.0, options);
    EXPECT_LT(uoi::linalg::max_abs_diff(fit.beta, ols), 1e-4);
  });
}

TEST(Ols, RecoversExactCoefficientsWithoutNoise) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 50;
  spec.n_features = 8;
  spec.support_size = 8;
  spec.noise_stddev = 0.0;
  spec.seed = 31;
  const auto data = uoi::data::make_regression(spec);
  const Vector beta = uoi::solvers::ols_direct(data.x, data.y);
  EXPECT_LT(uoi::linalg::max_abs_diff(beta, data.beta_true), 1e-8);
}

TEST(Ols, SupportRestrictionZeroPadsOffSupport) {
  const auto data = small_problem(33);
  const std::vector<std::size_t> support{1, 5, 7};
  const Vector beta =
      uoi::solvers::ols_direct_on_support(data.x, data.y, support);
  ASSERT_EQ(beta.size(), data.x.cols());
  for (std::size_t j = 0; j < beta.size(); ++j) {
    const bool on_support =
        std::find(support.begin(), support.end(), j) != support.end();
    if (!on_support) {
      EXPECT_DOUBLE_EQ(beta[j], 0.0);
    }
  }
}

TEST(Ols, EmptySupportIsZeroModel) {
  const auto data = small_problem(34);
  const Vector beta = uoi::solvers::ols_direct_on_support(data.x, data.y, {});
  for (const double b : beta) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(Ols, MseAndRSquared) {
  Matrix x{{1.0}, {2.0}, {3.0}};
  const Vector y{2.0, 4.0, 6.0};
  const Vector perfect{2.0};
  EXPECT_NEAR(uoi::solvers::mean_squared_error(x, y, perfect), 0.0, 1e-15);
  EXPECT_NEAR(uoi::solvers::r_squared(x, y, perfect), 1.0, 1e-15);
  const Vector zero{0.0};
  EXPECT_LT(uoi::solvers::r_squared(x, y, zero), 0.0 + 1e-12);
}

TEST(CdLasso, CvPicksReasonableLambdaAndRecovers) {
  const auto data = small_problem(37, 120, 15);
  const auto cv = uoi::solvers::cv_lasso(data.x, data.y, 30, 4);
  EXPECT_GT(cv.best_lambda, 0.0);
  ASSERT_EQ(cv.cv_mse.size(), cv.lambda_path.size());
  // The fit should recover the true support (possibly with extras — LASSO's
  // known false-positive tendency, the paper's motivation for UoI).
  for (std::size_t j = 0; j < data.beta_true.size(); ++j) {
    if (data.beta_true[j] != 0.0) {
      EXPECT_GT(std::abs(cv.beta[j]), 1e-4) << "missed true feature " << j;
    }
  }
}

TEST(Ridge, ShrinksTowardZero) {
  const auto data = small_problem(39);
  const Vector small_penalty = uoi::solvers::ridge(data.x, data.y, 1e-6);
  const Vector big_penalty = uoi::solvers::ridge(data.x, data.y, 1e6);
  EXPECT_GT(uoi::linalg::nrm2(small_penalty), uoi::linalg::nrm2(big_penalty));
  EXPECT_LT(uoi::linalg::nrm2(big_penalty), 1e-2);
  // Tiny penalty approximates OLS.
  const Vector ols = uoi::solvers::ols_direct(data.x, data.y);
  EXPECT_LT(uoi::linalg::max_abs_diff(small_penalty, ols), 1e-4);
}

}  // namespace
