// Tests for the SAFE / strong-rule screening layer: working-set rules,
// KKT re-admission on adversarial correlated designs, byte-identity of the
// canonical chain across screening modes (serial and distributed), and
// the reduced consensus payload accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "linalg/blas.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/ols.hpp"
#include "solvers/screening.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "var/uoi_var.hpp"
#include "var/var_distributed.hpp"
#include "var/var_model.hpp"

namespace {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;
using uoi::solvers::AdmmOptions;
using uoi::solvers::ScreenMode;
using uoi::solvers::ScreenOptions;
using uoi::solvers::ScreenedLassoChain;

uoi::data::RegressionDataset sparse_problem(std::uint64_t seed = 7,
                                            std::size_t n = 80,
                                            std::size_t p = 48,
                                            double correlation = 0.0) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = n;
  spec.n_features = p;
  spec.support_size = 5;
  spec.noise_stddev = 0.2;
  spec.feature_correlation = correlation;
  spec.seed = seed;
  return uoi::data::make_regression(spec);
}

std::vector<double> descending_grid(ConstMatrixView x,
                                    std::span<const double> y, std::size_t q,
                                    double min_ratio) {
  const double hi = uoi::solvers::lambda_max(x, y);
  return uoi::solvers::log_spaced_lambdas(hi, min_ratio, q);
}

/// |x_j'(y - X beta)| <= lambda (+tol) everywhere — optimality of the
/// final beta regardless of which columns were screened away.
void expect_kkt(ConstMatrixView x, std::span<const double> y,
                std::span<const double> beta, double lambda, double tol) {
  Vector residual(y.begin(), y.end());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    residual[r] -= uoi::linalg::dot(x.row(r), beta);
  }
  Vector grad(x.cols(), 0.0);
  uoi::linalg::gemv_transposed(1.0, x, residual, 0.0, grad);
  // The slack scales with lambda: ADMM's stopping test bounds the iterate
  // error, which enters the gradient proportionally to the data scale.
  const double slack = tol * std::max(1.0, lambda);
  for (std::size_t j = 0; j < x.cols(); ++j) {
    EXPECT_LE(std::abs(grad[j]), lambda + slack) << "coordinate " << j;
  }
}

constexpr ScreenMode kPinModes[] = {ScreenMode::kOff, ScreenMode::kSafe,
                                    ScreenMode::kStrong};

AdmmOptions tight_admm() {
  AdmmOptions options;
  options.eps_abs = 1e-9;
  options.eps_rel = 1e-7;
  options.max_iterations = 20000;
  return options;
}

ScreenOptions screen_with(ScreenMode mode) {
  ScreenOptions screen;
  screen.mode = mode;
  return screen;
}

TEST(ScreenMode, EnvResolution) {
  // Explicit modes win over the environment.
  setenv("UOI_SCREEN", "off", 1);
  EXPECT_EQ(uoi::solvers::resolve_screen_mode(ScreenMode::kSafe),
            ScreenMode::kSafe);
  EXPECT_EQ(uoi::solvers::resolve_screen_mode(ScreenMode::kAuto),
            ScreenMode::kOff);
  setenv("UOI_SCREEN", "safe", 1);
  EXPECT_EQ(uoi::solvers::resolve_screen_mode(ScreenMode::kAuto),
            ScreenMode::kSafe);
  setenv("UOI_SCREEN", "bogus", 1);
  EXPECT_EQ(uoi::solvers::resolve_screen_mode(ScreenMode::kAuto),
            ScreenMode::kStrong);
  unsetenv("UOI_SCREEN");
  EXPECT_EQ(uoi::solvers::resolve_screen_mode(ScreenMode::kAuto),
            ScreenMode::kStrong);
  EXPECT_STREQ(uoi::solvers::screen_mode_name(ScreenMode::kStrong), "strong");
}

TEST(Screening, WorkingSetRulesScreenInactiveColumns) {
  const auto data = sparse_problem();
  const auto lambdas = descending_grid(data.x, data.y, 8, 0.05);
  for (const ScreenMode mode : {ScreenMode::kSafe, ScreenMode::kStrong}) {
    ScreenedLassoChain chain(data.x, data.y, tight_admm(), screen_with(mode));
    for (const double lambda : lambdas) (void)chain.solve(lambda);
    const auto& stats = chain.stats();
    EXPECT_EQ(stats.lambdas, lambdas.size());
    EXPECT_EQ(stats.survivors + stats.gram_cols_saved, stats.total_columns);
    // On a clean sparse problem the strong rule must discard a large
    // fraction of the Gram columns (this is the entire point of the
    // layer); basic SAFE is certified but weak once lambda drops well
    // below lambda_max, so it only has to save something.
    if (mode == ScreenMode::kStrong) {
      EXPECT_GT(stats.gram_cols_saved, stats.total_columns / 4);
    } else {
      EXPECT_GT(stats.gram_cols_saved, 0u);
    }
  }
}

TEST(Screening, ModesAreByteIdenticalOnChain) {
  const auto data = sparse_problem();
  const auto lambdas = descending_grid(data.x, data.y, 6, 0.05);
  std::vector<std::vector<Vector>> betas;
  for (const ScreenMode mode :
       {ScreenMode::kOff, ScreenMode::kSafe, ScreenMode::kStrong}) {
    ScreenedLassoChain chain(data.x, data.y, tight_admm(), screen_with(mode));
    std::vector<Vector> path;
    for (const double lambda : lambdas) {
      auto fit = chain.solve(lambda);
      expect_kkt(data.x, data.y, fit.beta, lambda, 1e-5);
      path.push_back(std::move(fit.beta));
    }
    betas.push_back(std::move(path));
  }
  for (std::size_t m = 1; m < betas.size(); ++m) {
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      ASSERT_EQ(betas[0][i].size(), betas[m][i].size());
      for (std::size_t j = 0; j < betas[0][i].size(); ++j) {
        EXPECT_EQ(betas[0][i][j], betas[m][i][j])
            << "mode " << m << " lambda " << i << " coord " << j;
      }
    }
  }
}

TEST(Screening, ElasticNetByteIdenticalAcrossModes) {
  const auto data = sparse_problem(11);
  const auto lambdas = descending_grid(data.x, data.y, 5, 0.1);
  const double l1_ratio = 0.7;
  std::vector<std::vector<Vector>> betas;
  for (const ScreenMode mode : {ScreenMode::kOff, ScreenMode::kStrong}) {
    ScreenedLassoChain chain(data.x, data.y, tight_admm(), screen_with(mode));
    std::vector<Vector> path;
    for (const double lambda : lambdas) {
      auto fit = chain.solve(lambda * l1_ratio, lambda * (1.0 - l1_ratio));
      path.push_back(std::move(fit.beta));
    }
    betas.push_back(std::move(path));
  }
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    for (std::size_t j = 0; j < betas[0][i].size(); ++j) {
      EXPECT_EQ(betas[0][i][j], betas[1][i][j])
          << "lambda " << i << " coord " << j;
    }
  }
}

TEST(Screening, ChainResetsWhenLambdaJumpsUp) {
  // The elastic-net distributed grid walks (ratio, lambda) cells where
  // lambda jumps back up at each ratio boundary; the chain must restart
  // its sequential state instead of applying a bogus strong rule.
  const auto data = sparse_problem(13);
  const auto lambdas = descending_grid(data.x, data.y, 4, 0.1);
  ScreenedLassoChain chain(data.x, data.y, tight_admm(),
                           screen_with(ScreenMode::kStrong));
  for (const double lambda : lambdas) (void)chain.solve(lambda);
  // Jump back to the top of the grid: results must match a fresh chain.
  ScreenedLassoChain fresh(data.x, data.y, tight_admm(),
                           screen_with(ScreenMode::kStrong));
  for (const double lambda : lambdas) {
    const auto restarted = chain.solve(lambda);
    const auto cold = fresh.solve(lambda);
    for (std::size_t j = 0; j < cold.beta.size(); ++j) {
      EXPECT_EQ(restarted.beta[j], cold.beta[j]) << "coord " << j;
    }
  }
}

TEST(Screening, KktReAdmissionOnAdversarialCorrelatedDesign) {
  // Heavily correlated columns with a coarse lambda grid make the strong
  // rule discard active columns; the KKT loop must re-admit them and the
  // final beta must still satisfy optimality everywhere.
  const auto data = sparse_problem(17, 100, 64, /*correlation=*/0.95);
  const auto lambdas = descending_grid(data.x, data.y, 4, 0.01);
  ScreenedLassoChain chain(data.x, data.y, tight_admm(),
                           screen_with(ScreenMode::kStrong));
  for (const double lambda : lambdas) {
    const auto fit = chain.solve(lambda);
    expect_kkt(data.x, data.y, fit.beta, lambda, 1e-5);
  }
  const auto& stats = chain.stats();
  // Violations imply rounds, and both are bounded by the round cap.
  EXPECT_EQ(stats.kkt_violations == 0, stats.kkt_rounds == 0);
  EXPECT_LE(stats.kkt_rounds,
            stats.lambdas * ScreenOptions{}.max_kkt_rounds);
}

TEST(Screening, SafeRuleNeverViolatesKkt) {
  // SAFE is a certificate: discarded columns are provably inactive, so
  // the post-check must never find a violator.
  const auto data = sparse_problem(19, 100, 64, /*correlation=*/0.9);
  const auto lambdas = descending_grid(data.x, data.y, 6, 0.02);
  ScreenedLassoChain chain(data.x, data.y, tight_admm(),
                           screen_with(ScreenMode::kSafe));
  for (const double lambda : lambdas) (void)chain.solve(lambda);
  EXPECT_EQ(chain.stats().kkt_violations, 0u);
}

TEST(Screening, LambdaMaxGivesEmptySolution) {
  const auto data = sparse_problem(23);
  const double lambda = uoi::solvers::lambda_max(data.x, data.y);
  for (const ScreenMode mode :
       {ScreenMode::kOff, ScreenMode::kSafe, ScreenMode::kStrong}) {
    ScreenedLassoChain chain(data.x, data.y, tight_admm(), screen_with(mode));
    const auto fit = chain.solve(lambda * 1.0000001);
    for (const double v : fit.beta) EXPECT_EQ(v, 0.0);
  }
}

TEST(ScreeningDistributed, ModesAreByteIdenticalAndShrinkPayload) {
  const auto data = sparse_problem(29, 96, 64);
  const auto lambdas = descending_grid(data.x, data.y, 6, 0.05);
  const AdmmOptions admm = tight_admm();

  std::vector<std::vector<Vector>> betas;
  std::vector<std::uint64_t> bytes;
  for (const ScreenMode mode :
       {ScreenMode::kOff, ScreenMode::kStrong, ScreenMode::kSafe}) {
    std::vector<Vector> path;
    std::uint64_t mode_bytes = 0;
    uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
      const std::size_t n = data.x.rows();
      const std::size_t begin = n * comm.rank() / comm.size();
      const std::size_t end = n * (comm.rank() + 1) / comm.size();
      const auto local_x = data.x.row_block(begin, end - begin);
      const std::span<const double> local_y =
          std::span<const double>(data.y).subspan(begin, end - begin);
      const auto shared =
          uoi::solvers::build_screen_inputs(comm, local_x, local_y);
      uoi::solvers::DistributedScreenedLassoChain chain(
          comm, local_x, local_y, shared, admm, screen_with(mode));
      for (const double lambda : lambdas) {
        auto fit = chain.solve(lambda);
        EXPECT_TRUE(fit.converged);
        if (comm.rank() == 0) {
          mode_bytes += fit.allreduce_bytes;
          path.push_back(std::move(fit.beta));
        }
      }
    });
    betas.push_back(std::move(path));
    bytes.push_back(mode_bytes);
  }
  for (std::size_t m = 1; m < betas.size(); ++m) {
    ASSERT_EQ(betas[0].size(), betas[m].size());
    for (std::size_t i = 0; i < betas[0].size(); ++i) {
      for (std::size_t j = 0; j < betas[0][i].size(); ++j) {
        EXPECT_EQ(betas[0][i][j], betas[m][i][j])
            << "mode " << m << " lambda " << i << " coord " << j;
      }
    }
  }
  // Active-set consensus: screened payloads ((|W|+3) doubles per round,
  // plus the KKT checks) must move fewer bytes than the full-p chain.
  EXPECT_LT(bytes[1], bytes[0]);
}

TEST(ScreeningDistributed, SharedInputsMatchSerialQuantities) {
  const auto data = sparse_problem(31, 64, 32);
  uoi::sim::Cluster::run(3, [&](uoi::sim::Comm& comm) {
    const std::size_t n = data.x.rows();
    const std::size_t begin = n * comm.rank() / comm.size();
    const std::size_t end = n * (comm.rank() + 1) / comm.size();
    const auto shared = uoi::solvers::build_screen_inputs(
        comm, data.x.row_block(begin, end - begin),
        std::span<const double>(data.y).subspan(begin, end - begin));
    Vector atb(data.x.cols(), 0.0);
    uoi::linalg::gemv_transposed(1.0, data.x, data.y, 0.0, atb);
    for (std::size_t j = 0; j < atb.size(); ++j) {
      EXPECT_NEAR(shared.atb[j], atb[j], 1e-9);
    }
    EXPECT_NEAR(shared.b_norm_sq, uoi::linalg::nrm2_squared(data.y), 1e-9);
    EXPECT_NEAR(shared.lambda_max,
                uoi::solvers::lambda_max(data.x, data.y), 1e-9);
  });
}

// ---- Gram chain ---------------------------------------------------------

/// (x, y) compressed to its Gram in one pass.
uoi::solvers::GramProblem gram_of(ConstMatrixView x,
                                  std::span<const double> y) {
  return uoi::solvers::gram_problem_from_sums(uoi::solvers::gram_sums(x, y),
                                              x.cols());
}

std::vector<std::size_t> nonzeros(std::span<const double> beta) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < beta.size(); ++j) {
    if (beta[j] != 0.0) out.push_back(j);
  }
  return out;
}

TEST(ScreeningGram, SelectsTheSerialChainSupportsOnAdversarialDesign) {
  // The KktReAdmissionOnAdversarialCorrelatedDesign data: the Gram chain
  // solves the same problems from (X'X, X'y, y'y) alone.
  const auto data = sparse_problem(17, 100, 64, /*correlation=*/0.95);
  const auto lambdas = descending_grid(data.x, data.y, 4, 0.01);
  const auto problem = gram_of(data.x, data.y);
  ScreenedLassoChain serial(data.x, data.y, tight_admm(),
                            screen_with(ScreenMode::kStrong));
  uoi::solvers::GramLassoChain gram(problem, tight_admm(),
                                    screen_with(ScreenMode::kStrong));
  for (const double lambda : lambdas) {
    const auto expected = serial.solve(lambda);
    const auto fit = gram.solve(lambda);
    EXPECT_EQ(nonzeros(fit.beta), nonzeros(expected.beta))
        << "lambda " << lambda;
    expect_kkt(data.x, data.y, fit.beta, lambda, 1e-5);
  }
}

TEST(ScreeningGram, SingularGramSolvesInEveryModeWithIdenticalBytes) {
  // 20 rows, half of them duplicates, against 48 columns: X'X has rank
  // 10. The chain never factors G itself, only G_WW + rho I.
  const auto base = sparse_problem(37, 10, 48);
  Matrix x(20, 48);
  Vector y(20);
  for (std::size_t r = 0; r < 20; ++r) {
    const auto src = base.x.row(r % 10);
    std::copy(src.begin(), src.end(), x.row(r).begin());
    y[r] = base.y[r % 10];
  }
  const auto problem = gram_of(x, y);
  const auto lambdas = descending_grid(x, y, 5, 0.05);
  std::vector<std::vector<Vector>> paths;
  for (const ScreenMode mode : kPinModes) {
    uoi::solvers::GramLassoChain chain(problem, tight_admm(),
                                      screen_with(mode));
    std::vector<Vector> path;
    for (const double lambda : lambdas) {
      auto fit = chain.solve(lambda);
      for (const double v : fit.beta) ASSERT_TRUE(std::isfinite(v));
      expect_kkt(x, y, fit.beta, lambda, 1e-5);
      path.push_back(std::move(fit.beta));
    }
    paths.push_back(std::move(path));
  }
  for (std::size_t m = 1; m < paths.size(); ++m) {
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      EXPECT_EQ(paths[m][i], paths[0][i]) << "mode " << m << " lambda " << i;
    }
  }
}

TEST(GramEstimation, DuplicatedColumnGoesThroughTheJitterLadder) {
  // Column 2 duplicates column 1, so X'X is singular: a plain Cholesky
  // either fails or splits the pair's coefficient arbitrarily. The
  // jitter ladder returns the ridge limit, which splits it evenly (up to
  // the rounding a 1e-10 jitter amplifies).
  uoi::support::Xoshiro256 rng(11);
  Matrix x(60, 3);
  Vector y(60);
  for (std::size_t r = 0; r < 60; ++r) {
    x(r, 0) = rng.normal();
    x(r, 1) = rng.normal();
    x(r, 2) = x(r, 1);
    y[r] = 2.0 * x(r, 0) + 3.0 * x(r, 1) + 0.01 * rng.normal();
  }
  const auto problem = gram_of(x, y);
  const Vector beta =
      uoi::solvers::ols_from_gram(problem.gram->gram(), problem.inputs.atb);
  for (const double v : beta) ASSERT_TRUE(std::isfinite(v));
  EXPECT_NEAR(beta[0], 2.0, 1e-2);
  EXPECT_NEAR(beta[1] + beta[2], 3.0, 1e-2);
  EXPECT_NEAR(beta[1], beta[2], 1e-4);
}

TEST(GramEstimation, JitterLadderStaysSmallAgainstTheDiagonal) {
  // A slightly indefinite Gram (a duplicated column whose copy lost
  // 1e-6 of its norm to rounding): the 1e-10 and 1e-8 rungs leave a
  // negative pivot, so the ladder reaches its last rung, 1e-6 * D. The
  // jitter the solve used, read back from (G + jitter I) beta = X'y, must
  // stay far below the diagonal.
  const double d = 20.0;
  Matrix gram(2, 2);
  gram(0, 0) = d;
  gram(0, 1) = d;
  gram(1, 0) = d;
  gram(1, 1) = d * (1.0 - 1e-6);
  const Vector xty = {1.0, 2.0};
  const Vector beta = uoi::solvers::ols_from_gram(gram, xty);
  Vector residual(xty);  // X'y - G beta = jitter * beta
  uoi::linalg::gemv(-1.0, gram, beta, 1.0, residual);
  const double jitter =
      uoi::linalg::dot(residual, beta) / uoi::linalg::dot(beta, beta);
  EXPECT_GT(jitter, 1e-8 * d);
  EXPECT_LT(jitter, 1e-4 * d);
  EXPECT_NEAR(jitter, 1e-6 * d, 1e-9 * d);
}

TEST(GramEstimation, DistributedFitSplitsADuplicatedSupportColumn) {
  // The Gram path's estimation solves each candidate support with
  // ols_from_gram. A duplicated true column enters the supports as a
  // pair; the fit must stay finite and split its coefficient evenly.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 160;
  spec.n_features = 12;
  spec.support_size = 3;
  spec.noise_stddev = 0.1;
  spec.seed = 5;
  auto data = uoi::data::make_regression(spec);
  std::size_t active = 0;
  while (data.beta_true[active] == 0.0) ++active;
  const std::size_t twin = active == 0 ? 1 : 0;
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    data.x(r, twin) = data.x(r, active);
  }
  data.y.assign(data.x.rows(), 0.0);
  uoi::linalg::gemv(1.0, data.x, data.beta_true, 0.0, data.y);
  uoi::support::Xoshiro256 rng(6);
  for (double& v : data.y) v += 0.1 * rng.normal();

  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;
  options.seed = 8;
  uoi::sim::Cluster::run(2, [&](uoi::sim::Comm& comm) {
    ASSERT_EQ(uoi::core::detail::linear_family_path(comm, data.x, options, {}),
              uoi::sched::LinearPath::kGram);
    const auto fit =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options);
    for (const double v : fit.model.beta) ASSERT_TRUE(std::isfinite(v));
    EXPECT_NE(fit.model.beta[active], 0.0);
    EXPECT_NEAR(fit.model.beta[active], fit.model.beta[twin], 1e-6);
    EXPECT_NEAR(fit.model.beta[active] + fit.model.beta[twin],
                data.beta_true[active], 0.1);
  });
}

// ---- Chain pins ---------------------------------------------------------
// Each lambda's beta bytes and every counter of the four screened chains
// (serial and distributed lasso, serial and distributed VAR) in off, safe
// and strong mode. They pin each chain's arithmetic and its collective
// schedule: reordering a solve, a KKT residual or the strong-rule refresh
// moves a hash, and an extra or missing allreduce moves a count.

/// FNV-1a over the bytes of a coefficient vector.
std::uint64_t beta_bytes_hash(std::span<const double> beta) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(beta.data());
  for (std::size_t i = 0; i < beta.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

std::string stats_pin(const uoi::solvers::ScreenStats& s) {
  std::ostringstream out;
  out << "lambdas=" << s.lambdas << " survivors=" << s.survivors
      << " kkt_violations=" << s.kkt_violations
      << " kkt_rounds=" << s.kkt_rounds
      << " gram_cols_saved=" << s.gram_cols_saved
      << " canonical_solves=" << s.canonical_solves
      << " total_columns=" << s.total_columns;
  return out.str();
}

/// The correlated design of KktReAdmissionOnAdversarialCorrelatedDesign
/// at a seed where the strong rule discards an active column on the way
/// down an 8-point grid.
uoi::data::RegressionDataset pin_problem() {
  return sparse_problem(1, 100, 64, /*correlation=*/0.95);
}

/// The grid walked down, then back up to an elastic-net step (a chain
/// reset) and down again, skipping grid points: (lambda1, lambda2) pairs.
std::vector<std::pair<double, double>> pin_steps(
    const uoi::data::RegressionDataset& data) {
  const auto g = descending_grid(data.x, data.y, 8, 0.01);
  std::vector<std::pair<double, double>> steps;
  for (const double lambda : g) steps.emplace_back(lambda, 0.0);
  steps.emplace_back(0.7 * g[2], 0.3 * g[2]);
  steps.emplace_back(0.7 * g[5], 0.3 * g[5]);
  return steps;
}

/// The serial lasso chain's bytes on the pinned steps, in every mode.
const std::vector<std::uint64_t> kSerialChainBeta = {
    2413988172825303939ULL,  1013529790676325950ULL,
    2041249195639602175ULL,  15500714731462642449ULL,
    16343770980557097629ULL, 7687819125174719630ULL,
    5950982712663758359ULL,  9880008312662704709ULL,
    15044473781678979193ULL, 18363559401324657499ULL};

TEST(ScreenedChainPins, SerialLassoChain) {
  const auto data = pin_problem();
  const auto steps = pin_steps(data);
  // Every mode lands on the same bytes.
  const std::vector<std::uint64_t>& expected_beta = kSerialChainBeta;
  const std::string expected[] = {
      "lambdas=10 survivors=640 kkt_violations=0 kkt_rounds=0 "
      "gram_cols_saved=0 canonical_solves=10 total_columns=640 "
      "iterations=11024 rho_updates=59 flops=89748724",
      "lambdas=10 survivors=577 kkt_violations=0 kkt_rounds=0 "
      "gram_cols_saved=63 canonical_solves=10 total_columns=640 "
      "iterations=10979 rho_updates=54 flops=92031020",
      "lambdas=10 survivors=569 kkt_violations=1 kkt_rounds=1 "
      "gram_cols_saved=71 canonical_solves=10 total_columns=640 "
      "iterations=11895 rho_updates=56 flops=96919284",
  };
  uoi::solvers::ScreenStats strong;
  for (std::size_t m = 0; m < std::size(kPinModes); ++m) {
    ScreenedLassoChain chain(data.x, data.y, tight_admm(),
                             screen_with(kPinModes[m]));
    std::vector<std::uint64_t> hashes;
    uoi::solvers::AdmmResult totals;
    for (const auto& [l1, l2] : steps) {
      const auto fit = chain.solve(l1, l2);
      hashes.push_back(beta_bytes_hash(fit.beta));
      totals.iterations += fit.iterations;
      totals.rho_updates += fit.rho_updates;
      totals.flops += fit.flops;
    }
    const char* name = uoi::solvers::screen_mode_name(kPinModes[m]);
    EXPECT_EQ(hashes, expected_beta) << name;
    std::ostringstream pin;
    pin << stats_pin(chain.stats()) << " iterations=" << totals.iterations
        << " rho_updates=" << totals.rho_updates
        << " flops=" << totals.flops;
    EXPECT_EQ(pin.str(), expected[m]) << name;
    if (kPinModes[m] == ScreenMode::kStrong) strong = chain.stats();
  }
  // The design exercises both the KKT re-admission loop and the polish.
  EXPECT_GT(strong.kkt_rounds, 0u);
  EXPECT_GT(strong.canonical_solves, 0u);
}

TEST(ScreenedChainPins, GramLassoChain) {
  // The pin problem compressed to its Gram in one pass. It lands on the
  // serial chain's bytes, working sets and iterations: syrk computes each
  // entry of a gathered column block exactly as it computes that entry of
  // the full Gram, so G_WW is the serial subset solve's own Gram. Only
  // the flops differ (no data passes, a p x |W| KKT correlation).
  const auto data = pin_problem();
  const auto steps = pin_steps(data);
  const auto problem = gram_of(data.x, data.y);
  const std::vector<std::uint64_t>& expected_beta = kSerialChainBeta;
  const std::string expected[] = {
      "lambdas=10 survivors=640 kkt_violations=0 kkt_rounds=0 "
      "gram_cols_saved=0 canonical_solves=10 total_columns=640 "
      "iterations=11024 rho_updates=59 flops=89251324",
      "lambdas=10 survivors=577 kkt_violations=0 kkt_rounds=0 "
      "gram_cols_saved=63 canonical_solves=10 total_columns=640 "
      "iterations=10979 rho_updates=54 flops=87984576",
      "lambdas=10 survivors=569 kkt_violations=1 kkt_rounds=1 "
      "gram_cols_saved=71 canonical_solves=10 total_columns=640 "
      "iterations=11895 rho_updates=56 flops=92442312",
  };
  uoi::solvers::ScreenStats strong;
  for (std::size_t m = 0; m < std::size(kPinModes); ++m) {
    uoi::solvers::GramLassoChain chain(problem, tight_admm(),
                                       screen_with(kPinModes[m]));
    std::vector<std::uint64_t> hashes;
    uoi::solvers::AdmmResult totals;
    for (const auto& [l1, l2] : steps) {
      const auto fit = chain.solve(l1, l2);
      hashes.push_back(beta_bytes_hash(fit.beta));
      totals.iterations += fit.iterations;
      totals.rho_updates += fit.rho_updates;
      totals.flops += fit.flops;
    }
    const char* name = uoi::solvers::screen_mode_name(kPinModes[m]);
    EXPECT_EQ(hashes, expected_beta) << name;
    std::ostringstream pin;
    pin << stats_pin(chain.stats()) << " iterations=" << totals.iterations
        << " rho_updates=" << totals.rho_updates
        << " flops=" << totals.flops;
    EXPECT_EQ(pin.str(), expected[m]) << name;
    if (kPinModes[m] == ScreenMode::kStrong) strong = chain.stats();
  }
  EXPECT_GT(strong.kkt_rounds, 0u);
  EXPECT_GT(strong.canonical_solves, 0u);
}

struct DistributedLassoPins {
  std::vector<std::uint64_t> beta;
  std::string counters[3];  ///< off, safe, strong
};

/// Runs the pinned steps through the distributed chain on `ranks` even
/// row blocks and checks rank 0's betas and the chain's summed counters.
void expect_distributed_lasso_pins(int ranks,
                                   const DistributedLassoPins& want) {
  const auto data = pin_problem();
  const auto steps = pin_steps(data);
  AdmmOptions admm;
  admm.consensus_interval = 1;  // immune to UOI_CONSENSUS_INTERVAL
  for (std::size_t m = 0; m < std::size(kPinModes); ++m) {
    std::vector<std::uint64_t> hashes;
    std::string pin;
    uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
      const std::size_t n = data.x.rows();
      const std::size_t begin = n * comm.rank() / comm.size();
      const std::size_t end = n * (comm.rank() + 1) / comm.size();
      const auto local_x = data.x.row_block(begin, end - begin);
      const std::span<const double> local_y =
          std::span<const double>(data.y).subspan(begin, end - begin);
      const auto shared =
          uoi::solvers::build_screen_inputs(comm, local_x, local_y);
      uoi::solvers::DistributedScreenedLassoChain chain(
          comm, local_x, local_y, shared, admm, screen_with(kPinModes[m]));
      uoi::solvers::DistributedAdmmResult totals;
      for (const auto& [l1, l2] : steps) {
        const auto fit = chain.solve(l1, l2);
        if (comm.rank() == 0) hashes.push_back(beta_bytes_hash(fit.beta));
        totals.iterations += fit.iterations;
        totals.rho_updates += fit.rho_updates;
        totals.local_flops += fit.local_flops;
        totals.allreduce_calls += fit.allreduce_calls;
        totals.allreduce_bytes += fit.allreduce_bytes;
        totals.consensus_rounds += fit.consensus_rounds;
        totals.lazy_iterations += fit.lazy_iterations;
      }
      if (comm.rank() == 0) {
        std::ostringstream out;
        out << stats_pin(chain.stats()) << " iterations=" << totals.iterations
            << " rho_updates=" << totals.rho_updates
            << " local_flops=" << totals.local_flops
            << " allreduce_calls=" << totals.allreduce_calls
            << " allreduce_bytes=" << totals.allreduce_bytes
            << " consensus_rounds=" << totals.consensus_rounds
            << " lazy_iterations=" << totals.lazy_iterations;
        pin = out.str();
      }
    });
    const char* name = uoi::solvers::screen_mode_name(kPinModes[m]);
    EXPECT_EQ(hashes, want.beta) << ranks << " ranks, " << name;
    EXPECT_EQ(pin, want.counters[m]) << ranks << " ranks, " << name;
  }
}

TEST(ScreenedChainPins, DistributedLassoChainTwoRanks) {
  expect_distributed_lasso_pins(
      2, {{2413988172825303939ULL, 15665684790226294474ULL,
           12592686836362733912ULL, 8391169383722848999ULL,
           15644726100966555283ULL, 6026269011408710835ULL,
           14226100290348438682ULL, 10264835365086109086ULL,
           12107253054395840681ULL, 1045459674426302577ULL},
          {"lambdas=10 survivors=640 kkt_violations=0 kkt_rounds=0 "
           "gram_cols_saved=0 canonical_solves=10 total_columns=640 "
           "iterations=15958 rho_updates=68 local_flops=221247183 "
           "allreduce_calls=16045 allreduce_bytes=6929072 "
           "consensus_rounds=16045 lazy_iterations=0",
           "lambdas=10 survivors=577 kkt_violations=0 kkt_rounds=0 "
           "gram_cols_saved=63 canonical_solves=10 total_columns=640 "
           "iterations=15915 rho_updates=64 local_flops=220296997 "
           "allreduce_calls=16008 allreduce_bytes=6868176 "
           "consensus_rounds=15998 lazy_iterations=0",
           "lambdas=10 survivors=569 kkt_violations=1 kkt_rounds=1 "
           "gram_cols_saved=71 canonical_solves=10 total_columns=640 "
           "iterations=17390 rho_updates=67 local_flops=244036061 "
           "allreduce_calls=17498 allreduce_bytes=7547752 "
           "consensus_rounds=17477 lazy_iterations=0"}});
}

TEST(ScreenedChainPins, DistributedLassoChainThreeRanks) {
  expect_distributed_lasso_pins(
      3, {{2413988172825303939ULL, 5698284983849093098ULL,
           602507250586822448ULL, 13448333826630387709ULL,
           13631308643731438086ULL, 12587858286031141260ULL,
           8824756081617224600ULL, 12023614746826424718ULL,
           14155601138926180706ULL, 4816780512953932062ULL},
          {"lambdas=10 survivors=640 kkt_violations=0 kkt_rounds=0 "
           "gram_cols_saved=0 canonical_solves=10 total_columns=640 "
           "iterations=16521 rho_updates=62 local_flops=135992481 "
           "allreduce_calls=16602 allreduce_bytes=7156248 "
           "consensus_rounds=16602 lazy_iterations=0",
           "lambdas=10 survivors=577 kkt_violations=0 kkt_rounds=0 "
           "gram_cols_saved=63 canonical_solves=10 total_columns=640 "
           "iterations=16478 rho_updates=57 local_flops=135321477 "
           "allreduce_calls=16564 allreduce_bytes=7097840 "
           "consensus_rounds=16554 lazy_iterations=0",
           "lambdas=10 survivors=569 kkt_violations=1 kkt_rounds=1 "
           "gram_cols_saved=71 canonical_solves=10 total_columns=640 "
           "iterations=18505 rho_updates=59 local_flops=154513716 "
           "allreduce_calls=18605 allreduce_bytes=8038408 "
           "consensus_rounds=18584 lazy_iterations=0"}});
}

// The VAR chains are internal to UoiVar::fit and uoi_var_distributed, so
// they are pinned through the fits: estimation refits OLS on the selected supports, so the model
// bytes pin every chain's selections, and total_flops pins its solves.
// On this series the strong rule misses an active coefficient, so the
// distributed fit runs KKT re-admission rounds.
Matrix pin_var_series() {
  uoi::data::VarSpec spec;
  spec.n_nodes = 8;
  spec.seed = 75;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 90;
  sim.seed = 76;
  return uoi::var::simulate(truth, sim);
}

uoi::var::UoiVarOptions pin_var_options() {
  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 3;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 8;
  options.lambda_min_ratio = 1e-2;
  options.seed = 73;
  options.admm.consensus_interval = 1;  // immune to UOI_CONSENSUS_INTERVAL
  options.schedule = uoi::sched::SchedulePolicy::kStatic;
  options.solver_cache_mb = 256;
  return options;
}

TEST(ScreenedChainPins, SerialVarFit) {
  const Matrix series = pin_var_series();
  auto options = pin_var_options();
  const std::uint64_t expected_beta = 1495920722954990147ULL;
  const std::uint64_t expected_flops[] = {9398272, 10550548, 11159808};
  for (std::size_t m = 0; m < std::size(kPinModes); ++m) {
    options.screen.mode = kPinModes[m];
    const auto fit = uoi::var::UoiVar(options).fit(series);
    const char* name = uoi::solvers::screen_mode_name(kPinModes[m]);
    EXPECT_EQ(beta_bytes_hash(fit.vec_beta), expected_beta) << name;
    EXPECT_EQ(fit.total_flops, expected_flops[m]) << name;
  }
  // The sparse backend differs only in the off-mode full solve.
  options.backend = uoi::var::VarSolverBackend::kSparse;
  options.screen.mode = ScreenMode::kOff;
  const auto sparse = uoi::var::UoiVar(options).fit(series);
  EXPECT_EQ(beta_bytes_hash(sparse.vec_beta), expected_beta);
  EXPECT_EQ(sparse.total_flops, 74463959u);
}

TEST(ScreenedChainPins, DistributedVarFit) {
  const Matrix series = pin_var_series();
  auto options = pin_var_options();
  const std::uint64_t expected_beta = 1495920722954990147ULL;
  const std::uint64_t expected_flops[] = {13448173, 14340863, 14769929};
  // Sums over the ranks of the exported screen.* and admm.* metrics.
  const std::string expected_metrics[] = {
      "admm.iterations=28792 admm.rho_updates=450 admm.allreduce_calls=29334 "
      "admm.allreduce_bytes=13990688 admm.consensus_rounds=29334 "
      "admm.lazy_iterations=0 screen.lambdas=48 screen.survivors=3072 "
      "screen.kkt_violations=0 screen.kkt_rounds=0 screen.gram_cols_saved=0 "
      "screen.canonical_solves=48 screen.total_columns=3072 ",
      "admm.iterations=28210 admm.rho_updates=412 admm.allreduce_calls=28758 "
      "admm.allreduce_bytes=13545888 admm.consensus_rounds=28710 "
      "admm.lazy_iterations=0 screen.lambdas=48 screen.survivors=2692 "
      "screen.kkt_violations=0 screen.kkt_rounds=0 "
      "screen.gram_cols_saved=380 screen.canonical_solves=44 "
      "screen.total_columns=3072 ",
      "admm.iterations=28434 admm.rho_updates=404 admm.allreduce_calls=29022 "
      "admm.allreduce_bytes=13607424 admm.consensus_rounds=28928 "
      "admm.lazy_iterations=0 screen.lambdas=48 screen.survivors=2634 "
      "screen.kkt_violations=4 screen.kkt_rounds=4 "
      "screen.gram_cols_saved=438 screen.canonical_solves=42 "
      "screen.total_columns=3072 "};
  const char* const metric_names[] = {
      "admm.iterations",       "admm.rho_updates",
      "admm.allreduce_calls",  "admm.allreduce_bytes",
      "admm.consensus_rounds", "admm.lazy_iterations",
      "screen.lambdas",        "screen.survivors",
      "screen.kkt_violations", "screen.kkt_rounds",
      "screen.gram_cols_saved", "screen.canonical_solves",
      "screen.total_columns"};
  constexpr int kRanks = 4;
  auto& metrics = uoi::support::MetricsRegistry::instance();
  for (std::size_t m = 0; m < std::size(kPinModes); ++m) {
    options.screen.mode = kPinModes[m];
    metrics.clear();
    std::uint64_t hash = 0;
    std::uint64_t flops = 0;
    uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
      const auto fit =
          uoi::var::uoi_var_distributed(comm, series, options, {2, 1}, 2);
      if (comm.rank() == 0) {
        hash = beta_bytes_hash(fit.model.vec_beta);
        flops = fit.model.total_flops;
      }
    });
    std::ostringstream pin;
    for (const char* metric : metric_names) {
      double sum = 0.0;
      for (int r = 0; r < kRanks; ++r) sum += metrics.value(r, metric);
      pin << metric << "=" << static_cast<std::uint64_t>(sum) << " ";
    }
    const char* name = uoi::solvers::screen_mode_name(kPinModes[m]);
    EXPECT_EQ(hash, expected_beta) << name;
    EXPECT_EQ(flops, expected_flops[m]) << name;
    EXPECT_EQ(pin.str(), expected_metrics[m]) << name;
  }
}

}  // namespace
