// Tests for uoi::var: model/stability machinery, lag construction against
// the paper's eqs. 7-8, block bootstrap invariants, Granger extraction,
// serial UoI_VAR recovery, and the distributed Kronecker/vectorization +
// distributed driver against the serial reference.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/metrics.hpp"
#include "data/synthetic_var.hpp"
#include "linalg/blas.hpp"
#include "solvers/admm_lasso_sparse.hpp"
#include "solvers/screening.hpp"
#include "simcluster/cluster.hpp"
#include "support/trace.hpp"
#include "var/block_bootstrap.hpp"
#include "var/granger.hpp"
#include "var/lag_matrix.hpp"
#include "var/uoi_var.hpp"
#include "var/var_distributed.hpp"
#include "var/var_model.hpp"

namespace {

using uoi::linalg::Matrix;
using uoi::linalg::Vector;
using uoi::var::VarModel;

TEST(VarModel, CompanionOfVar1IsA1) {
  Matrix a{{0.5, 0.1}, {0.0, 0.3}};
  const VarModel model({a});
  const Matrix c = model.companion();
  EXPECT_EQ(uoi::linalg::max_abs_diff(c, a), 0.0);
}

TEST(VarModel, CompanionShapeForVar2) {
  Matrix a1{{0.5, 0.0}, {0.0, 0.5}};
  Matrix a2{{0.1, 0.0}, {0.0, 0.1}};
  const VarModel model({a1, a2});
  const Matrix c = model.companion();
  ASSERT_EQ(c.rows(), 4u);
  EXPECT_DOUBLE_EQ(c(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(c(0, 2), 0.1);
  EXPECT_DOUBLE_EQ(c(2, 0), 1.0);  // shift block
  EXPECT_DOUBLE_EQ(c(3, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(2, 2), 0.0);
}

TEST(VarModel, SpectralRadiusOfDiagonalSystem) {
  Matrix a{{0.7, 0.0}, {0.0, 0.4}};
  const VarModel model({a});
  EXPECT_NEAR(model.companion_spectral_radius(), 0.7, 1e-6);
  EXPECT_TRUE(model.is_stable());
}

TEST(VarModel, UnstableSystemDetected) {
  Matrix a{{1.05, 0.0}, {0.0, 0.4}};
  const VarModel model({a});
  EXPECT_FALSE(model.is_stable());
}

TEST(VarModel, Var2StabilityThroughCompanion) {
  // x_t = 0.5 x_{t-1} + 0.6 x_{t-2}: roots of z^2 - 0.5 z - 0.6 ->
  // max |root| = (0.5 + sqrt(0.25 + 2.4)) / 2 ~ 1.064 -> unstable.
  Matrix a1{{0.5}};
  Matrix a2{{0.6}};
  const VarModel model({a1, a2});
  EXPECT_GT(model.companion_spectral_radius(), 1.0);
}

TEST(VarModel, VecBRoundTrip) {
  Matrix a1{{0.5, 0.1}, {-0.2, 0.3}};
  Matrix a2{{0.0, 0.05}, {0.07, 0.0}};
  const VarModel model({a1, a2});
  const Vector v = model.vec_b();
  ASSERT_EQ(v.size(), 8u);
  const VarModel back = VarModel::from_vec_b(v, 2, 2);
  EXPECT_EQ(uoi::linalg::max_abs_diff(back.coefficient(0), a1), 0.0);
  EXPECT_EQ(uoi::linalg::max_abs_diff(back.coefficient(1), a2), 0.0);
}

TEST(VarModel, SimulateIsDeterministicAndSized) {
  const auto model = uoi::data::make_sparse_var({});
  uoi::var::SimulateOptions sim;
  sim.n_samples = 100;
  sim.seed = 5;
  const Matrix a = uoi::var::simulate(model, sim);
  const Matrix b = uoi::var::simulate(model, sim);
  EXPECT_EQ(a.rows(), 100u);
  EXPECT_EQ(a.cols(), model.dim());
  EXPECT_EQ(uoi::linalg::max_abs_diff(a, b), 0.0);
}

class StableVarParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StableVarParam, RandomSystemsAreStableAndStationaryish) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 12;
  spec.order = 1 + GetParam() % 2;
  spec.seed = GetParam();
  const auto model = uoi::data::make_sparse_var(spec);
  EXPECT_TRUE(model.is_stable());
  EXPECT_NEAR(model.companion_spectral_radius(), spec.spectral_radius, 0.02);

  // Stationarity smoke test: late-sample variance is bounded (no blow-up).
  uoi::var::SimulateOptions sim;
  sim.n_samples = 500;
  sim.seed = GetParam() * 7 + 1;
  const Matrix series = uoi::var::simulate(model, sim);
  double max_abs = 0.0;
  for (std::size_t t = 400; t < 500; ++t) {
    for (std::size_t c = 0; c < series.cols(); ++c) {
      max_abs = std::max(max_abs, std::abs(series(t, c)));
    }
  }
  EXPECT_LT(max_abs, 50.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StableVarParam,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(LagMatrix, MatchesPaperEquations78) {
  // 4 samples, p = 2, d = 1: Y rows must be X_4, X_3, X_2 (descending),
  // X rows their one-step lags.
  Matrix series{{1, 2}, {3, 4}, {5, 6}, {7, 8}};  // rows are X_1..X_4
  const auto lag = uoi::var::build_lag_regression(series, 1);
  ASSERT_EQ(lag.y.rows(), 3u);
  EXPECT_DOUBLE_EQ(lag.y(0, 0), 7.0);  // X_4
  EXPECT_DOUBLE_EQ(lag.y(1, 0), 5.0);  // X_3
  EXPECT_DOUBLE_EQ(lag.y(2, 1), 4.0);  // X_2
  EXPECT_DOUBLE_EQ(lag.x(0, 0), 5.0);  // X_3 lags X_4
  EXPECT_DOUBLE_EQ(lag.x(2, 1), 2.0);  // X_1 lags X_2
}

TEST(LagMatrix, SecondOrderBlocks) {
  Matrix series{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}};
  const auto lag = uoi::var::build_lag_regression(series, 2);
  ASSERT_EQ(lag.y.rows(), 3u);
  ASSERT_EQ(lag.x.cols(), 4u);
  // Row 0: response X_5; lags [X_4', X_3'].
  EXPECT_DOUBLE_EQ(lag.y(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(lag.x(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(lag.x(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(lag.x(0, 3), 30.0);
}

TEST(LagMatrix, NoiselessSystemSolvesExactly) {
  // With zero noise, vec Y = (I (x) X) vec B exactly; verify the
  // vectorization identity end to end.
  uoi::data::VarSpec spec;
  spec.n_nodes = 4;
  spec.seed = 11;
  const auto model = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 50;
  sim.noise_stddev = 0.0;
  sim.seed = 12;
  // Seed rows are noise, so simulate with noise then zero... instead use
  // the recursion directly from a noisy start:
  const Matrix series = uoi::var::simulate(model, sim);
  // With noise_stddev == 0 the first d rows are zero too; the recursion
  // makes the whole series zero. Use a tiny-noise series instead and check
  // the residual of the true parameters is tiny.
  uoi::var::SimulateOptions sim2 = sim;
  sim2.noise_stddev = 1.0;
  const Matrix noisy = uoi::var::simulate(model, sim2);
  const auto lag = uoi::var::build_lag_regression(noisy, model.order());
  const auto problem = uoi::var::vectorize(lag);
  const Vector vb = model.vec_b();
  Vector predicted(problem.design.rows(), 0.0);
  problem.design.gemv(1.0, vb, 0.0, predicted);
  // Residual = noise; with unit noise the mean squared residual ~ 1.
  double mse = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double e = predicted[i] - problem.vec_y[i];
    mse += e * e;
  }
  mse /= static_cast<double>(predicted.size());
  EXPECT_NEAR(mse, 1.0, 0.35);
  (void)series;
}

TEST(BlockBootstrap, IndicesAreBlocksOfConsecutiveTimes) {
  uoi::var::BlockBootstrapOptions options;
  options.block_length = 5;
  options.seed = 3;
  const auto idx = uoi::var::block_bootstrap_indices(40, options);
  ASSERT_EQ(idx.size(), 40u);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_LT(idx[i], 40u);
    if (i % 5 != 0) {
      EXPECT_EQ(idx[i], idx[i - 1] + 1) << "discontinuity inside a block";
    }
  }
}

TEST(BlockBootstrap, DeterministicPerTask) {
  uoi::var::BlockBootstrapOptions options;
  options.seed = 9;
  options.task_a = 1;
  options.task_b = 2;
  const auto a = uoi::var::block_bootstrap_indices(50, options);
  const auto b = uoi::var::block_bootstrap_indices(50, options);
  EXPECT_EQ(a, b);
  options.task_b = 3;
  EXPECT_NE(uoi::var::block_bootstrap_indices(50, options), a);
}

TEST(BlockBootstrap, DefaultBlockLengthHeuristic) {
  EXPECT_EQ(uoi::var::default_block_length(8), 2u);
  EXPECT_EQ(uoi::var::default_block_length(1000), 10u);
}

TEST(Granger, ExtractsEdgesAboveTolerance) {
  Matrix a{{0.5, 0.0, 0.2}, {0.001, 0.4, 0.0}, {0.0, -0.3, 0.6}};
  const VarModel model({a});
  const auto net =
      uoi::var::GrangerNetwork::from_model(model, /*tolerance=*/0.01);
  // Edges (j -> i): 2->0 (0.2), 1->2 (-0.3); 0->1 is below tolerance;
  // self loops dropped.
  EXPECT_EQ(net.edge_count(), 2u);
  const auto in_deg = net.in_degrees();
  EXPECT_EQ(in_deg[0], 1u);
  EXPECT_EQ(in_deg[2], 1u);
  EXPECT_NEAR(net.density(), 2.0 / 6.0, 1e-12);
}

TEST(Granger, SelfLoopsOptional) {
  Matrix a{{0.5, 0.0}, {0.0, 0.4}};
  const VarModel model({a});
  EXPECT_EQ(uoi::var::GrangerNetwork::from_model(model).edge_count(), 0u);
  EXPECT_EQ(uoi::var::GrangerNetwork::from_model(model, 0.0, true).edge_count(),
            2u);
}

TEST(Granger, DotAndEdgeListRender) {
  Matrix a{{0.0, 0.3}, {0.0, 0.0}};
  const VarModel model({a});
  const auto net = uoi::var::GrangerNetwork::from_model(model);
  const auto dot = net.to_dot({"AAA", "BBB"});
  EXPECT_NE(dot.find("\"BBB\" -> \"AAA\""), std::string::npos);
  EXPECT_NE(net.to_edge_list({"AAA", "BBB"}).find("BBB -> AAA"),
            std::string::npos);
}

uoi::var::UoiVarOptions fast_var_options() {
  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 8;
  options.n_estimation_bootstraps = 5;
  options.n_lambdas = 10;
  options.seed = 515;
  options.admm.eps_abs = 1e-8;
  options.admm.eps_rel = 1e-6;
  options.admm.max_iterations = 5000;
  return options;
}

TEST(UoiVar, RecoversSparseNetwork) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 10;
  spec.edges_per_node = 1.5;
  spec.seed = 21;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 600;
  sim.seed = 22;
  const Matrix series = uoi::var::simulate(truth, sim);

  const auto result = uoi::var::UoiVar(fast_var_options()).fit(series);
  EXPECT_NEAR(result.design_sparsity, 0.9, 1e-12);

  // Compare vec-B supports with a magnitude threshold (as in the LASSO
  // test, tiny diluted coefficients are not real selections).
  const auto est_support =
      uoi::core::SupportSet::from_beta(result.vec_beta, 0.05);
  const auto true_support = uoi::core::SupportSet::from_beta(truth.vec_b());
  const auto acc = uoi::core::selection_accuracy(
      est_support, true_support, result.vec_beta.size());
  EXPECT_EQ(acc.false_negatives, 0u) << "missed true edges";
  EXPECT_LE(acc.false_positives, 2u) << "spurious edges";

  // Coefficient accuracy on the true support.
  // Block-bootstrap resampling adds estimation variance relative to the
  // iid-regression case, so the tolerance is looser than UoI_LASSO's.
  const auto est =
      uoi::core::estimation_accuracy(result.vec_beta, truth.vec_b());
  EXPECT_LT(est.relative_l2, 0.3);
}

TEST(UoiVar, StructuredAndSparseBackendsAgree) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.seed = 23;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 200;
  sim.seed = 24;
  const Matrix series = uoi::var::simulate(truth, sim);

  auto options = fast_var_options();
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;
  options.backend = uoi::var::VarSolverBackend::kStructured;
  const auto structured = uoi::var::UoiVar(options).fit(series);
  options.backend = uoi::var::VarSolverBackend::kSparse;
  const auto sparse = uoi::var::UoiVar(options).fit(series);

  EXPECT_LT(
      uoi::linalg::max_abs_diff(structured.vec_beta, sparse.vec_beta), 1e-4);
  EXPECT_EQ(structured.support, sparse.support);
}

TEST(UoiVar, ScreeningModesAreByteIdenticalEndToEnd) {
  // The canonical two-stage chain contract: off / safe / strong must give
  // bit-for-bit the same VAR fit on both serial backends. Screening only
  // changes which columns get gathered, never the trajectory.
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.seed = 31;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 200;
  sim.seed = 32;
  const Matrix series = uoi::var::simulate(truth, sim);

  auto options = fast_var_options();
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;
  for (const auto backend : {uoi::var::VarSolverBackend::kStructured,
                             uoi::var::VarSolverBackend::kSparse}) {
    options.backend = backend;
    options.screen.mode = uoi::solvers::ScreenMode::kOff;
    const auto off = uoi::var::UoiVar(options).fit(series);
    for (const auto mode :
         {uoi::solvers::ScreenMode::kSafe, uoi::solvers::ScreenMode::kStrong}) {
      options.screen.mode = mode;
      const auto screened = uoi::var::UoiVar(options).fit(series);
      EXPECT_EQ(
          uoi::linalg::max_abs_diff(screened.vec_beta, off.vec_beta), 0.0)
          << "backend " << static_cast<int>(backend) << " mode "
          << uoi::solvers::screen_mode_name(mode);
      EXPECT_EQ(screened.support, off.support);
      EXPECT_EQ(screened.lambdas, off.lambdas);
    }
  }
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

// The VAR x-update solves its per-equation systems eight at a time across
// SIMD lanes (CholeskyBatch), which must not change one bit. The hashes
// below were recorded from the per-equation x-update it replaced, one
// CholeskyFactor::solve per equation. 10 equations fill one group of
// eight and part of a second; over 11 ranks, rank 9 holds only 9 of
// equation 9's 100 rows, and that system takes the Woodbury path.
Matrix pinned_var_series() {
  uoi::data::VarSpec spec;
  spec.n_nodes = 10;
  spec.seed = 61;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 101;
  sim.seed = 62;
  return uoi::var::simulate(truth, sim);
}
constexpr int kPinnedRanks = 11;

TEST(UoiVarPins, FitsReproducePerEquationModelBytes) {
  const Matrix series = pinned_var_series();
  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 3;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 5;
  options.seed = 63;
  // Estimation refits OLS on the selected supports, so every path that
  // selects the same supports lands on these same bytes.
  const std::uint64_t expected = 5330434975405816351ULL;
  for (const auto mode :
       {uoi::solvers::ScreenMode::kOff, uoi::solvers::ScreenMode::kStrong}) {
    options.screen.mode = mode;
    const char* name = uoi::solvers::screen_mode_name(mode);
    options.backend = uoi::var::VarSolverBackend::kStructured;
    EXPECT_EQ(beta_bytes_hash(uoi::var::UoiVar(options).fit(series).vec_beta),
              expected)
        << "serial structured, screen " << name;
    options.backend = uoi::var::VarSolverBackend::kSparse;
    EXPECT_EQ(beta_bytes_hash(uoi::var::UoiVar(options).fit(series).vec_beta),
              expected)
        << "serial sparse, screen " << name;
    uoi::sim::Cluster::run(kPinnedRanks, [&](uoi::sim::Comm& comm) {
      const auto fit =
          uoi::var::uoi_var_distributed(comm, series, options, {1, 1}, 2);
      if (comm.rank() == 0) {
        EXPECT_EQ(beta_bytes_hash(fit.model.vec_beta), expected)
            << "distributed, screen " << name;
      }
    });
  }
}

// The ADMM solves under those fits, whose bytes every x-update bit
// reaches: the structured full solve (one factor shared by all blocks),
// and the distributed full and reduced (gathered-column) solves, all
// with adaptive rho rebuilding the batch.
TEST(UoiVarPins, AdmmSolvesReproducePerEquationBytes) {
  const Matrix series = pinned_var_series();
  const auto lag = uoi::var::build_lag_regression(series, 1);
  const auto problem = uoi::var::vectorize(lag);
  uoi::solvers::AdmmOptions options;
  const auto grid = uoi::var::resolve_var_lambda_grid({}, lag.y, lag.x);
  const double lambda = grid[grid.size() / 2];

  const auto kron =
      uoi::solvers::KronLassoAdmmSolver(problem.design, problem.vec_y, options)
          .solve(lambda);
  EXPECT_GT(kron.rho_updates, 0u);
  EXPECT_EQ(beta_bytes_hash(kron.beta), 109274173788342030ULL)
      << "structured";

  std::vector<std::size_t> working;
  for (std::size_t g = 0; g < problem.design.cols(); ++g) {
    if (g % 3 != 1) working.push_back(g);
  }
  uoi::sim::Cluster::run(kPinnedRanks, [&](uoi::sim::Comm& comm) {
    const auto block = uoi::var::distributed_kron_vectorize(comm, lag, 2);
    const auto full =
        uoi::var::DistributedVarAdmmSolver(comm, block, options).solve(lambda);
    const auto reduced =
        uoi::var::DistributedVarAdmmSolver(comm, block, working, options)
            .solve(lambda);
    if (comm.rank() == 0) {
      EXPECT_GT(full.rho_updates, 0u);
      EXPECT_EQ(beta_bytes_hash(full.beta), 4974014255550199888ULL)
          << "distributed full";
      EXPECT_EQ(beta_bytes_hash(reduced.beta), 2815238057521925999ULL)
          << "distributed reduced";
    }
  });
}

TEST(UoiVar, EstimatedModelIsUsuallyStable) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 8;
  spec.seed = 25;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 500;
  sim.seed = 26;
  const auto result =
      uoi::var::UoiVar(fast_var_options()).fit(uoi::var::simulate(truth, sim));
  EXPECT_LT(result.model.companion_spectral_radius(), 1.05);
}

TEST(UoiVar, InterceptRecoveredWhenCentering) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 5;
  spec.seed = 27;
  auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 800;
  sim.seed = 28;
  Matrix series = uoi::var::simulate(truth, sim);
  // Shift the series: X'_t = X_t + c corresponds to mu = (I - sum A_j) c.
  const double shift = 5.0;
  for (std::size_t t = 0; t < series.rows(); ++t) {
    for (std::size_t c = 0; c < series.cols(); ++c) series(t, c) += shift;
  }
  const auto result = uoi::var::UoiVar(fast_var_options()).fit(series);
  Vector expected_mu(5, shift);
  const auto& a = result.model.coefficient(0);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) expected_mu[i] -= a(i, j) * shift;
  }
  EXPECT_LT(uoi::linalg::max_abs_diff(result.model.intercept(), expected_mu),
            0.4);
}

// ---- distributed paths ----

class KronDistParam : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(KronDistParam, AssemblyMatchesSerialVectorization) {
  const auto [ranks, readers] = GetParam();
  uoi::data::VarSpec spec;
  spec.n_nodes = 5;
  spec.seed = 31;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 40;
  sim.seed = 32;
  const Matrix series = uoi::var::simulate(truth, sim);
  const auto lag = uoi::var::build_lag_regression(series, 1);
  const auto problem = uoi::var::vectorize(lag);
  const auto dense_design =
      uoi::linalg::kron_identity_sparse(lag.x, series.cols()).to_dense();

  uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
    const auto block =
        uoi::var::distributed_kron_vectorize(comm, lag, readers);
    // Every local row must equal the corresponding global row of I (x) X
    // (nonzero payload at the equation's column offset) and of vec Y.
    for (std::size_t i = 0; i < block.y.size(); ++i) {
      const std::size_t global = block.global_row_begin + i;
      EXPECT_DOUBLE_EQ(block.y[i], problem.vec_y[global]);
      const std::size_t e = block.equation_of_row[i];
      for (std::size_t c = 0; c < block.dp; ++c) {
        EXPECT_DOUBLE_EQ(block.x_rows(i, c),
                         dense_design(global, e * block.dp + c));
      }
    }
    // Rows partition [0, total) contiguously.
    std::size_t total = block.y.size();
    std::vector<std::size_t> counts{total};
    std::vector<std::size_t> all(static_cast<std::size_t>(comm.size()));
    comm.allgather(std::span<const std::size_t>(counts),
                   std::span<std::size_t>(all));
    std::size_t sum = 0;
    for (const auto c : all) sum += c;
    EXPECT_EQ(sum, problem.vec_y.size());
  });
}

INSTANTIATE_TEST_SUITE_P(Layouts, KronDistParam,
                         ::testing::Values(std::pair<int, int>{1, 1},
                                           std::pair<int, int>{2, 1},
                                           std::pair<int, int>{4, 2},
                                           std::pair<int, int>{6, 3},
                                           std::pair<int, int>{8, 8}));

TEST(DistributedVarAdmm, MatchesStructuredSolver) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.seed = 33;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 80;
  sim.seed = 34;
  const Matrix series = uoi::var::simulate(truth, sim);
  const auto lag = uoi::var::build_lag_regression(series, 1);
  const auto problem = uoi::var::vectorize(lag);

  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-9;
  options.eps_rel = 1e-7;
  options.max_iterations = 30000;
  const double lambda = 5.0;
  const uoi::solvers::KronLassoAdmmSolver reference(problem.design,
                                                    problem.vec_y, options);
  const auto serial = reference.solve(lambda);

  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const auto block = uoi::var::distributed_kron_vectorize(comm, lag, 2);
    const uoi::var::DistributedVarAdmmSolver solver(comm, block, options);
    const auto fit = solver.solve(lambda);
    EXPECT_TRUE(fit.converged);
    EXPECT_LT(uoi::linalg::max_abs_diff(fit.beta, serial.beta), 2e-3);
  });
}

struct VarLayoutCase {
  int ranks;
  int pb;
  int pl;
  int readers;
};

/// Fits a 6-node series of `n_samples` samples at order `order` under
/// `layout`, checks the path of its groups wider than one rank (one-rank
/// groups always walk the serial chain) and compares the fit with the
/// serial driver's.
void expect_layout_matches_serial_driver(const VarLayoutCase& layout,
                                         std::size_t n_samples,
                                         uoi::sched::LinearPath path,
                                         std::size_t order = 1) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.order = order;
  spec.edges_per_node = 1.5;
  spec.seed = 35;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = n_samples;
  sim.seed = 36;
  const Matrix series = uoi::var::simulate(truth, sim);

  auto options = fast_var_options();
  options.order = order;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;
  const auto serial = uoi::var::UoiVar(options).fit(series);

  uoi::sim::Cluster::run(layout.ranks, [&](uoi::sim::Comm& comm) {
    EXPECT_EQ(uoi::var::detail::var_linear_path(comm, series, options,
                                                {layout.pb, layout.pl}),
              path);
    const auto distributed = uoi::var::uoi_var_distributed(
        comm, series, options, {layout.pb, layout.pl}, layout.readers);
    ASSERT_EQ(distributed.model.candidate_supports.size(),
              serial.candidate_supports.size());
    for (std::size_t j = 0; j < serial.candidate_supports.size(); ++j) {
      EXPECT_EQ(distributed.model.candidate_supports[j],
                serial.candidate_supports[j])
          << "candidate support mismatch at lambda " << j;
    }
    EXPECT_EQ(distributed.model.chosen_support_per_bootstrap,
              serial.chosen_support_per_bootstrap);
    EXPECT_LT(uoi::linalg::max_abs_diff(distributed.model.vec_beta,
                                        serial.vec_beta),
              2e-3);
    // Reconstructed coefficient matrices agree too.
    EXPECT_LT(uoi::linalg::max_abs_diff(
                  distributed.model.model.coefficient(0),
                  serial.model.coefficient(0)),
              2e-3);
  });
}

class DistributedUoiVarParam
    : public ::testing::TestWithParam<VarLayoutCase> {};

/// 149 lag rows: every group wider than one rank sums a Gram.
TEST_P(DistributedUoiVarParam, MatchesSerialDriver) {
  expect_layout_matches_serial_driver(GetParam(), 150,
                                      uoi::sched::LinearPath::kGram);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, DistributedUoiVarParam,
    ::testing::Values(VarLayoutCase{1, 1, 1, 1}, VarLayoutCase{2, 1, 1, 1},
                      VarLayoutCase{4, 2, 1, 2}, VarLayoutCase{4, 1, 2, 1},
                      VarLayoutCase{8, 2, 2, 2}, VarLayoutCase{6, 1, 1, 3}));

/// 15 lag rows at order 4 over one group of four: d = 4 exceeds a rank's
/// 3 rows, so the group runs the Kron+vec windows and consensus ADMM.
TEST(DistributedUoiVar, KronPathMatchesSerialDriver) {
  expect_layout_matches_serial_driver({4, 1, 1, 2}, 19,
                                      uoi::sched::LinearPath::kConsensus, 4);
}

/// Layout {2, 2} on four ranks is four one-rank groups. They walk the
/// Gram chains on their own rank's Gram with no selection collective, so
/// each rank's allreduce count is the one recorded from the joint serial
/// chain the Gram walk replaced, and their model bytes are the serial
/// fit's.
TEST(DistributedUoiVar, OneRankGroupsKeepTheirCollectivesAndSerialBytes) {
  const Matrix series = pinned_var_series();
  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 3;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 5;
  options.seed = 63;
  options.schedule = uoi::sched::SchedulePolicy::kStatic;
  const std::uint64_t serial =
      beta_bytes_hash(uoi::var::UoiVar(options).fit(series).vec_beta);
  std::vector<std::uint64_t> hashes(4);
  const auto stats =
      uoi::sim::Cluster::run_collect_stats(4, [&](uoi::sim::Comm& comm) {
        hashes[static_cast<std::size_t>(comm.rank())] = beta_bytes_hash(
            uoi::var::uoi_var_distributed(comm, series, options, {2, 2})
                .model.vec_beta);
      });
  const std::uint64_t expected_allreduces[] = {7, 6, 7, 6};
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(stats[r].of(uoi::sim::CommCategory::kAllreduce).calls,
              expected_allreduces[r])
        << "rank " << r;
    EXPECT_EQ(hashes[r], serial) << "rank " << r;
  }
}

/// Order 4 over 7 samples leaves 3 lag rows, fewer than d = 4: a wider
/// group would take the Kron+vec path, but a serial fit holds the whole
/// bootstrap and sums its Gram at any shape. Its bytes are the ones the
/// joint serial chain gave.
TEST(UoiVar, SerialFitBelowTheGramRuleWalksTheGramChains) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.edges_per_node = 1.5;
  spec.seed = 35;
  uoi::var::SimulateOptions sim;
  sim.n_samples = 7;
  sim.seed = 36;
  const Matrix series =
      uoi::var::simulate(uoi::data::make_sparse_var(spec), sim);
  auto options = fast_var_options();
  options.order = 4;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;
  uoi::sim::Cluster::run(1, [&](uoi::sim::Comm& comm) {
    EXPECT_EQ(uoi::var::detail::var_linear_path(comm, series, options, {}),
              uoi::sched::LinearPath::kConsensus);
  });
  auto& tracer = uoi::support::Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(true);
  const auto fit = uoi::var::UoiVar(options).fit(series);
  const auto events = tracer.events();
  tracer.set_capture_events(false);
  tracer.clear();
  std::size_t gram_spans = 0;
  for (const auto& event : events) {
    if (event.name == "var-selection-gram") ++gram_spans;
  }
  EXPECT_EQ(gram_spans, options.n_selection_bootstraps);
  EXPECT_EQ(beta_bytes_hash(fit.vec_beta), 15219374061044349315ULL);
}

}  // namespace

namespace var2_distributed_tests {

using uoi::linalg::Matrix;

TEST(DistributedUoiVar, SecondOrderMatchesSerial) {
  // d = 2 exercises the multi-lag block layout through the whole
  // distributed pipeline (kron assembly width dp = 2p).
  uoi::data::VarSpec spec;
  spec.n_nodes = 4;
  spec.order = 2;
  spec.edges_per_node = 1.0;
  spec.seed = 51;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 240;
  sim.seed = 52;
  const Matrix series = uoi::var::simulate(truth, sim);

  uoi::var::UoiVarOptions options;
  options.order = 2;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 5;
  options.admm.eps_abs = 1e-9;
  options.admm.eps_rel = 1e-7;
  options.admm.max_iterations = 20000;
  options.support_tolerance = 1e-5;
  const auto serial = uoi::var::UoiVar(options).fit(series);

  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const auto distributed =
        uoi::var::uoi_var_distributed(comm, series, options, {2, 1}, 2);
    EXPECT_LT(uoi::linalg::max_abs_diff(distributed.model.vec_beta,
                                        serial.vec_beta),
              2e-3);
    EXPECT_LT(uoi::linalg::max_abs_diff(
                  distributed.model.model.coefficient(1),
                  serial.model.coefficient(1)),
              2e-3);
  });
}

}  // namespace var2_distributed_tests
