// Tests for the strong-rule screening layer: the working-set rule, KKT
// re-admission on adversarial correlated designs, each screened chain
// against an unscreened solver down the same lambda path (serial,
// distributed and VAR), the reduced consensus payload, the coordinate-
// descent Gram chain, and byte pins of every chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/uoi_elastic_net_distributed.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "linalg/blas.hpp"
#include "linalg/simd.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/cd_lasso.hpp"
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

AdmmOptions tight_admm() {
  AdmmOptions options;
  options.eps_abs = 1e-9;
  options.eps_rel = 1e-7;
  options.max_iterations = 20000;
  return options;
}

TEST(Screening, WorkingSetRulesScreenInactiveColumns) {
  const auto data = sparse_problem();
  const auto lambdas = descending_grid(data.x, data.y, 8, 0.05);
  ScreenedLassoChain chain(data.x, data.y, tight_admm());
  for (const double lambda : lambdas) (void)chain.solve(lambda);
  const auto& stats = chain.stats();
  EXPECT_EQ(stats.lambdas, lambdas.size());
  EXPECT_EQ(stats.survivors + stats.gram_cols_saved, stats.total_columns);
  // On a clean sparse problem the strong rule must discard a large
  // fraction of the Gram columns (this is the entire point of the layer).
  EXPECT_GT(stats.gram_cols_saved, stats.total_columns / 4);
}

TEST(Screening, ChainResetsWhenLambdaJumpsUp) {
  // The elastic-net distributed grid walks (ratio, lambda) cells where
  // lambda jumps back up at each ratio boundary; the chain must restart
  // its sequential state instead of applying a bogus strong rule.
  const auto data = sparse_problem(13);
  const auto lambdas = descending_grid(data.x, data.y, 4, 0.1);
  ScreenedLassoChain chain(data.x, data.y, tight_admm());
  for (const double lambda : lambdas) (void)chain.solve(lambda);
  // Jump back to the top of the grid: results must match a fresh chain.
  ScreenedLassoChain fresh(data.x, data.y, tight_admm());
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
  ScreenedLassoChain chain(data.x, data.y, tight_admm());
  for (const double lambda : lambdas) {
    const auto fit = chain.solve(lambda);
    expect_kkt(data.x, data.y, fit.beta, lambda, 1e-5);
  }
  const auto& stats = chain.stats();
  // Violations imply rounds, and both are bounded by the round cap.
  EXPECT_EQ(stats.kkt_violations == 0, stats.kkt_rounds == 0);
  EXPECT_LE(stats.kkt_rounds,
            stats.lambdas * uoi::solvers::detail::kMaxKktRounds);
}

TEST(Screening, LambdaMaxGivesEmptySolution) {
  const auto data = sparse_problem(23);
  const double lambda = uoi::solvers::lambda_max(data.x, data.y);
  ScreenedLassoChain chain(data.x, data.y, tight_admm());
  const auto fit = chain.solve(lambda * 1.0000001);
  for (const double v : fit.beta) EXPECT_EQ(v, 0.0);
}

/// This rank's even share of the rows of (x, y) and the replicated
/// screening inputs they sum to. Collective over `comm`.
struct RowBlock {
  ConstMatrixView x;
  std::span<const double> y;
  uoi::solvers::ScreenInputs shared;
};
RowBlock row_block(uoi::sim::Comm& comm, const Matrix& x,
                   std::span<const double> y) {
  const std::size_t n = x.rows();
  const std::size_t begin = n * comm.rank() / comm.size();
  const std::size_t end = n * (comm.rank() + 1) / comm.size();
  RowBlock block{x.row_block(begin, end - begin),
                 y.subspan(begin, end - begin),
                 {}};
  Vector sums = uoi::solvers::screen_sums(block.x, block.y);
  comm.allreduce(std::span<double>(sums), uoi::sim::ReduceOp::kSum);
  block.shared = uoi::solvers::screen_inputs_from_sums(sums);
  return block;
}

TEST(ScreeningDistributed, ModesAreByteIdenticalAndShrinkPayload) {
  // The name predates the single screening rule; the test now checks the
  // chain alone. It converges at every lambda, screens columns out, and
  // moves fewer allreduce bytes than an unscreened solver walking the same
  // lambdas warm-started under the same refined options: its consensus
  // rounds carry (|W|+3) doubles against the solver's (p+3).
  const auto data = sparse_problem(29, 96, 64);
  const auto lambdas = descending_grid(data.x, data.y, 6, 0.05);
  const AdmmOptions admm = tight_admm();
  uoi::solvers::DistributedAdmmResult chain_total;
  uoi::solvers::DistributedAdmmResult full_total;
  std::size_t cols_saved = 0;
  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const auto block = row_block(comm, data.x, data.y);
    uoi::solvers::DistributedScreenedLassoChain chain(
        comm, block.x, block.y, block.shared, admm);
    const uoi::solvers::DistributedLassoAdmmSolver full(
        comm, block.x, block.y,
        uoi::solvers::detail::refined_admm_options(admm));
    uoi::solvers::DistributedAdmmResult warm;
    warm.beta.assign(data.x.cols(), 0.0);
    for (const double lambda : lambdas) {
      const auto fit = chain.solve(lambda);
      EXPECT_TRUE(fit.converged);
      auto unscreened = full.solve(lambda, &warm);
      EXPECT_TRUE(unscreened.converged);
      if (comm.rank() == 0) {
        uoi::solvers::detail::add_fit_counters(chain_total, fit);
        uoi::solvers::detail::add_fit_counters(full_total, unscreened);
      }
      warm.beta = std::move(unscreened.beta);
    }
    if (comm.rank() == 0) cols_saved = chain.stats().gram_cols_saved;
  });
  EXPECT_GT(cols_saved, 0u);
  EXPECT_LT(chain_total.allreduce_bytes, full_total.allreduce_bytes);
  std::printf("[ payload ] allreduce bytes: chain %llu in %llu calls, "
              "unscreened %llu in %llu calls\n",
              static_cast<unsigned long long>(chain_total.allreduce_bytes),
              static_cast<unsigned long long>(chain_total.allreduce_calls),
              static_cast<unsigned long long>(full_total.allreduce_bytes),
              static_cast<unsigned long long>(full_total.allreduce_calls));
}

TEST(ScreeningDistributed, SharedInputsMatchSerialQuantities) {
  const auto data = sparse_problem(31, 64, 32);
  uoi::sim::Cluster::run(3, [&](uoi::sim::Comm& comm) {
    const std::size_t n = data.x.rows();
    const std::size_t begin = n * comm.rank() / comm.size();
    const std::size_t end = n * (comm.rank() + 1) / comm.size();
    Vector sums = uoi::solvers::screen_sums(
        data.x.row_block(begin, end - begin),
        std::span<const double>(data.y).subspan(begin, end - begin));
    comm.allreduce(std::span<double>(sums), uoi::sim::ReduceOp::kSum);
    const auto shared = uoi::solvers::screen_inputs_from_sums(sums);
    Vector atb(data.x.cols(), 0.0);
    uoi::linalg::gemv_transposed(1.0, data.x, data.y, 0.0, atb);
    ASSERT_EQ(shared.atb.size(), atb.size());
    for (std::size_t j = 0; j < atb.size(); ++j) {
      EXPECT_NEAR(shared.atb[j], atb[j], 1e-9);
    }
    EXPECT_NEAR(shared.lambda_max,
                uoi::solvers::lambda_max(data.x, data.y), 1e-9);
  });
}

// ---- Gram chain ---------------------------------------------------------

/// (x, y) compressed to its Gram in one pass.
uoi::solvers::GramProblem gram_of(ConstMatrixView x,
                                  std::span<const double> y) {
  const ConstMatrixView b(y.data(), y.size(), 1, 1);
  return uoi::solvers::gram_problems_from_sums(uoi::solvers::gram_sums(x, b),
                                               x.cols())
      .front();
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
  // solves the same problems from (X'X, X'y) alone.
  const auto data = sparse_problem(17, 100, 64, /*correlation=*/0.95);
  const auto lambdas = descending_grid(data.x, data.y, 4, 0.01);
  const auto problem = gram_of(data.x, data.y);
  ScreenedLassoChain serial(data.x, data.y, tight_admm());
  uoi::solvers::GramLassoChain gram(problem, tight_admm());
  for (const double lambda : lambdas) {
    const auto expected = serial.solve(lambda);
    const auto fit = gram.solve(lambda);
    EXPECT_EQ(nonzeros(fit.beta), nonzeros(expected.beta))
        << "lambda " << lambda;
    expect_kkt(data.x, data.y, fit.beta, lambda, 1e-5);
  }
}

TEST(ScreeningGram, SingularGramSolvesInEveryModeWithIdenticalBytes) {
  // The name predates the single screening rule: the one chain must stay
  // finite and satisfy KKT at every lambda. 20 rows, half of them duplicates, against 48 columns: X'X has rank
  // 10. Coordinate descent never factors G.
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
  uoi::solvers::GramLassoChain chain(problem, tight_admm());
  for (const double lambda : lambdas) {
    const auto fit = chain.solve(lambda);
    for (const double v : fit.beta) ASSERT_TRUE(std::isfinite(v));
    expect_kkt(x, y, fit.beta, lambda, 1e-5);
  }
}

TEST(ScreeningGram, ManyRightHandSidesStackTheOneColumnSums) {
  // [A'A | A'B] for m columns holds, byte for byte, the one-column sums of
  // each column of B (here strided views), and unpacks into m problems
  // over one shared Gram.
  uoi::support::Xoshiro256 rng(12);
  constexpr std::size_t n = 37, p = 5, m = 3;
  Matrix a(n, p);
  Matrix b(n, m);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < p; ++c) a(r, c) = rng.normal();
    for (std::size_t j = 0; j < m; ++j) b(r, j) = rng.normal();
  }
  const Vector sums = uoi::solvers::gram_sums(a, b);
  ASSERT_EQ(sums.size(), p * p + m * p);
  const auto problems = uoi::solvers::gram_problems_from_sums(sums, p, m);
  ASSERT_EQ(problems.size(), m);
  const auto same_bytes = [](std::span<const double> x,
                             std::span<const double> y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  const std::span<const double> all(sums);
  for (std::size_t j = 0; j < m; ++j) {
    const ConstMatrixView column(b.data() + j, n, 1, m);
    const Vector one = uoi::solvers::gram_sums(a, column);
    const std::span<const double> single(one);
    EXPECT_TRUE(same_bytes(all.first(p * p), single.first(p * p)));
    EXPECT_TRUE(same_bytes(all.subspan(p * p + j * p, p),
                           single.subspan(p * p, p)));
    const auto& in = problems[j].inputs;
    EXPECT_EQ(problems[j].gram, problems[0].gram);
    EXPECT_TRUE(same_bytes(in.atb, single.subspan(p * p, p)));
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
  // The lasso's minimizers split a duplicated column's coefficient in any
  // proportion, and the Gram chain's coordinate descent gives all of it to
  // the lower index, so the pair enters through the elastic net, whose
  // strictly convex penalty splits it evenly; the lasso fit must still
  // recover the pair's sum.
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
  uoi::core::UoiElasticNetOptions en_options;
  en_options.n_selection_bootstraps = 4;
  en_options.n_estimation_bootstraps = 3;
  en_options.n_lambdas = 6;
  en_options.l1_ratios = {0.5};
  en_options.seed = 8;
  uoi::sim::Cluster::run(2, [&](uoi::sim::Comm& comm) {
    ASSERT_EQ(uoi::core::detail::linear_family_path(comm, data.x, {}),
              uoi::sched::LinearPath::kGram);
    const auto en =
        uoi::core::uoi_elastic_net_distributed(comm, data.x, data.y,
                                               en_options);
    for (const double v : en.model.beta) ASSERT_TRUE(std::isfinite(v));
    EXPECT_NE(en.model.beta[active], 0.0);
    EXPECT_NEAR(en.model.beta[active], en.model.beta[twin], 1e-6);
    EXPECT_NEAR(en.model.beta[active] + en.model.beta[twin],
                data.beta_true[active], 0.1);
    const auto fit =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options);
    for (const double v : fit.model.beta) ASSERT_TRUE(std::isfinite(v));
    EXPECT_NEAR(fit.model.beta[active] + fit.model.beta[twin],
                data.beta_true[active], 0.1);
  });
}

// ---- Chain pins ---------------------------------------------------------
// Each lambda's beta bytes and every counter of the screened and Gram
// chains (serial and distributed lasso, serial and distributed VAR). They
// pin each chain's arithmetic and its collective
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

/// The serial lasso chain's bytes on the pinned steps.
const std::vector<std::uint64_t> kSerialChainBeta = {
    2413988172825303939ULL,  1013529790676325950ULL,
    2041249195639602175ULL,  15500714731462642449ULL,
    16343770980557097629ULL, 7687819125174719630ULL,
    5950982712663758359ULL,  9880008312662704709ULL,
    15044473781678979193ULL, 18363559401324657499ULL};

TEST(ScreenedChainPins, SerialLassoChain) {
  const auto data = pin_problem();
  const auto steps = pin_steps(data);
  ScreenedLassoChain chain(data.x, data.y, tight_admm());
  std::vector<std::uint64_t> hashes;
  uoi::solvers::AdmmResult totals;
  for (const auto& [l1, l2] : steps) {
    const auto fit = chain.solve(l1, l2);
    hashes.push_back(beta_bytes_hash(fit.beta));
    totals.iterations += fit.iterations;
    totals.rho_updates += fit.rho_updates;
    totals.flops += fit.flops;
  }
  EXPECT_EQ(hashes, kSerialChainBeta);
  std::ostringstream pin;
  pin << stats_pin(chain.stats()) << " iterations=" << totals.iterations
      << " rho_updates=" << totals.rho_updates << " flops=" << totals.flops;
  EXPECT_EQ(pin.str(),
            "lambdas=10 survivors=569 kkt_violations=1 kkt_rounds=1 "
            "gram_cols_saved=71 canonical_solves=10 total_columns=640 "
            "iterations=11895 rho_updates=56 flops=96919284");
  // The design exercises both the KKT re-admission loop and the polish.
  EXPECT_GT(chain.stats().kkt_rounds, 0u);
  EXPECT_GT(chain.stats().canonical_solves, 0u);
}

TEST(ScreenedChainPins, GramLassoChain) {
  // The pin problem compressed to its Gram in one pass and solved by
  // coordinate descent. Each step selects the serial chain's support,
  // with betas within 1.3e-10 of its own.
  const auto data = pin_problem();
  const auto steps = pin_steps(data);
  const auto problem = gram_of(data.x, data.y);
  const std::vector<std::uint64_t> expected_beta = {
      2413988172825303939ULL,  17107429224143222039ULL,
      13436872567202593425ULL, 9279864552985606063ULL,
      16893432330578115445ULL, 3056315079121960482ULL,
      18061673787825603919ULL, 9715717562842990109ULL,
      18217396140186314647ULL, 1610260921944338381ULL};
  const std::string expected =
      "lambdas=10 survivors=273 kkt_violations=0 kkt_rounds=0 "
      "gram_cols_saved=0 canonical_solves=0 total_columns=640 "
      "iterations=2828 rho_updates=0 flops=3393240";
  ScreenedLassoChain serial(data.x, data.y, tight_admm());
  uoi::solvers::GramLassoChain chain(problem, tight_admm());
  std::vector<std::uint64_t> hashes;
  uoi::solvers::AdmmResult totals;
  for (const auto& [l1, l2] : steps) {
    const auto fit = chain.solve(l1, l2);
    const auto reference = serial.solve(l1, l2);
    EXPECT_EQ(nonzeros(fit.beta), nonzeros(reference.beta)) << l1;
    EXPECT_LE(uoi::linalg::max_abs_diff(fit.beta, reference.beta), 1.3e-10)
        << l1;
    hashes.push_back(beta_bytes_hash(fit.beta));
    totals.iterations += fit.iterations;
    totals.rho_updates += fit.rho_updates;
    totals.flops += fit.flops;
  }
  EXPECT_EQ(hashes, expected_beta);
  std::ostringstream pin;
  pin << stats_pin(chain.stats()) << " iterations=" << totals.iterations
      << " rho_updates=" << totals.rho_updates << " flops=" << totals.flops;
  EXPECT_EQ(pin.str(), expected);
}

// ---- Coordinate-descent Gram chain --------------------------------------

/// The chain's gradient g = G beta - A'b, recomputed from scratch.
Vector gram_gradient(const uoi::solvers::GramProblem& problem,
                     std::span<const double> beta) {
  const Matrix& gram = problem.gram->gram();
  Vector g(beta.size(), 0.0);
  uoi::linalg::gemv(1.0, gram, beta, 0.0, g);
  for (std::size_t j = 0; j < g.size(); ++j) g[j] -= problem.inputs.atb[j];
  return g;
}

/// The lasso / elastic-net KKT conditions at `beta`: |g_j| <= lambda1
/// (1 + 1e-7) off the support, g_j + lambda2 beta_j + lambda1 sign(beta_j)
/// within 1e-7 max(1, lambda1) of 0 on it.
void expect_gram_kkt(const uoi::solvers::GramProblem& problem,
                     std::span<const double> beta, double lambda1,
                     double lambda2) {
  const Vector g = gram_gradient(problem, beta);
  const double slack = 1e-7 * std::max(1.0, lambda1);
  for (std::size_t j = 0; j < beta.size(); ++j) {
    if (beta[j] == 0.0) {
      EXPECT_LE(std::abs(g[j]), lambda1 * (1.0 + 1e-7))
          << "coordinate " << j << " lambda " << lambda1;
    } else {
      const double sign = beta[j] > 0.0 ? 1.0 : -1.0;
      EXPECT_NEAR(g[j] + lambda2 * beta[j] + lambda1 * sign, 0.0, slack)
          << "coordinate " << j << " lambda " << lambda1;
    }
  }
}

bool same_bytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(GramCd, KktHoldsAtEveryFitOfAPath) {
  const auto data = sparse_problem(23, 120, 40, /*correlation=*/0.5);
  const auto problem = gram_of(data.x, data.y);
  const auto lambdas = descending_grid(data.x, data.y, 10, 1e-3);
  for (const double lambda2 : {0.0, 0.5}) {
    uoi::solvers::GramLassoChain chain(problem, tight_admm());
    for (const double lambda : lambdas) {
      const auto fit = chain.solve(lambda, lambda2 * lambda);
      EXPECT_TRUE(fit.converged) << "lambda " << lambda;
      EXPECT_EQ(fit.rho_updates, 0u);
      EXPECT_EQ(fit.dual_residual, 0.0);
      EXPECT_GT(fit.flops, 0u);
      expect_gram_kkt(problem, fit.beta, lambda, lambda2 * lambda);
    }
    const auto& stats = chain.stats();
    EXPECT_EQ(stats.lambdas, lambdas.size());
    EXPECT_EQ(stats.total_columns, lambdas.size() * data.x.cols());
    EXPECT_GT(stats.survivors, 0u);
    EXPECT_LT(stats.survivors, stats.total_columns);
    EXPECT_EQ(stats.kkt_rounds + stats.canonical_solves +
                  stats.gram_cols_saved + stats.kkt_violations,
              0u);
  }
}

TEST(GramCd, AgreesWithDataCoordinateDescentAndTightAdmm) {
  const auto data = sparse_problem(29, 90, 30);
  const auto problem = gram_of(data.x, data.y);
  const auto lambdas = descending_grid(data.x, data.y, 6, 1e-2);
  uoi::solvers::CdLassoOptions cd_options;
  cd_options.tolerance = 1e-13;
  AdmmOptions admm;
  admm.eps_abs = 1e-12;
  admm.eps_rel = 1e-10;
  admm.max_iterations = 200000;
  const uoi::solvers::LassoAdmmSolver reference(data.x, data.y, admm);
  for (const double lambda2 : {0.0, 2.0}) {
    uoi::solvers::GramLassoChain chain(problem, tight_admm());
    for (const double lambda : lambdas) {
      const auto fit = chain.solve(lambda, lambda2);
      if (lambda2 == 0.0) {
        const auto cd =
            uoi::solvers::cd_lasso(data.x, data.y, lambda, cd_options);
        ASSERT_TRUE(cd.converged);
        EXPECT_LE(uoi::linalg::max_abs_diff(fit.beta, cd.beta), 1e-6)
            << "lambda " << lambda;
      }
      const auto admm_fit = reference.solve_elastic_net(lambda, lambda2);
      ASSERT_TRUE(admm_fit.converged);
      EXPECT_LE(uoi::linalg::max_abs_diff(fit.beta, admm_fit.beta), 1e-6)
          << "lambda " << lambda << " l2 " << lambda2;
    }
  }
}

TEST(GramCd, SingularGramsAndAZeroColumn) {
  const auto base = sparse_problem(31, 12, 36);
  // Fewer rows than columns, duplicated rows, and column 5 zeroed.
  Matrix x(24, 36);
  Vector y(24);
  for (std::size_t r = 0; r < 24; ++r) {
    const auto src = base.x.row(r % 12);
    std::copy(src.begin(), src.end(), x.row(r).begin());
    x(r, 5) = 0.0;
    y[r] = base.y[r % 12];
  }
  const auto problem = gram_of(x, y);
  ASSERT_EQ(problem.gram->gram()(5, 5), 0.0);
  const auto lambdas = descending_grid(x, y, 8, 1e-3);
  for (const double lambda2 : {0.0, 0.25}) {
    uoi::solvers::GramLassoChain chain(problem, tight_admm());
    for (const double lambda : lambdas) {
      const auto fit = chain.solve(lambda, lambda2);
      EXPECT_TRUE(fit.converged) << "lambda " << lambda;
      for (const double v : fit.beta) ASSERT_TRUE(std::isfinite(v));
      EXPECT_EQ(fit.beta[5], 0.0);
      expect_gram_kkt(problem, fit.beta, lambda, lambda2);
    }
  }
}

TEST(GramCd, RisingLambdaStartsOverAsAFreshChain) {
  const auto data = sparse_problem(37, 80, 32);
  const auto problem = gram_of(data.x, data.y);
  const auto lambdas = descending_grid(data.x, data.y, 6, 1e-2);
  uoi::solvers::GramLassoChain walked(problem, AdmmOptions{});
  for (const double lambda : lambdas) (void)walked.solve(lambda);
  // Up to lambdas[1], then down to lambdas[3], with an elastic-net l2.
  uoi::solvers::GramLassoChain fresh(problem, AdmmOptions{});
  const auto up = walked.solve(lambdas[1], 0.3);
  const auto fresh_up = fresh.solve(lambdas[1], 0.3);
  EXPECT_TRUE(same_bytes(up.beta, fresh_up.beta));
  EXPECT_EQ(up.iterations, fresh_up.iterations);
  EXPECT_TRUE(same_bytes(walked.solve(lambdas[3], 0.3).beta,
                         fresh.solve(lambdas[3], 0.3).beta));
}

TEST(GramCd, BytesAreIdenticalUnderEveryKernelLevel) {
  namespace simd = uoi::linalg::simd;
  const auto data = sparse_problem(41, 100, 64, /*correlation=*/0.7);
  const auto problem = gram_of(data.x, data.y);
  const auto lambdas = descending_grid(data.x, data.y, 8, 1e-3);
  std::vector<Vector> expected;
  for (const simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2,
        simd::SimdLevel::kAvx512}) {
    uoi::solvers::GramLassoChain chain(problem, AdmmOptions{});
    for (std::size_t m = 0; m < lambdas.size(); ++m) {
      const auto fit = chain.solve(lambdas[m], 0.1 * static_cast<double>(m),
                                   simd::kernel_table(level));
      if (level == simd::SimdLevel::kScalar) {
        expected.push_back(fit.beta);
      } else {
        EXPECT_TRUE(same_bytes(fit.beta, expected[m]))
            << simd::simd_level_name(level) << " lambda " << m;
      }
    }
  }
  // The dispatched level too.
  uoi::solvers::GramLassoChain chain(problem, AdmmOptions{});
  for (std::size_t m = 0; m < lambdas.size(); ++m) {
    EXPECT_TRUE(same_bytes(
        chain.solve(lambdas[m], 0.1 * static_cast<double>(m)).beta,
        expected[m]));
  }
}

TEST(GramCd, SweepBudgetBoundsTheFit) {
  const auto data = sparse_problem(43, 80, 32, /*correlation=*/0.9);
  const auto problem = gram_of(data.x, data.y);
  const double lambda = 0.01 * uoi::solvers::lambda_max(data.x, data.y);
  // No budget: the warm start (zero) comes back unconverged.
  AdmmOptions none;
  none.max_iterations = 0;
  uoi::solvers::GramLassoChain idle(problem, none);
  const auto idle_fit = idle.solve(lambda);
  EXPECT_FALSE(idle_fit.converged);
  EXPECT_EQ(idle_fit.iterations, 0u);
  EXPECT_EQ(idle_fit.beta, Vector(data.x.cols(), 0.0));
  // Two sweeps (refined: 20) on a correlated design stop short, or throw
  // when asked to.
  AdmmOptions short_budget;
  short_budget.max_iterations = 2;
  uoi::solvers::GramLassoChain cut(problem, short_budget);
  const auto cut_fit = cut.solve(lambda);
  EXPECT_FALSE(cut_fit.converged);
  EXPECT_EQ(cut_fit.iterations, 20u);
  short_budget.throw_on_nonconvergence = true;
  uoi::solvers::GramLassoChain strict(problem, short_budget);
  EXPECT_THROW((void)strict.solve(lambda), uoi::support::ConvergenceError);
}

/// Runs the pinned steps through the distributed chain on `ranks` even
/// row blocks and checks rank 0's betas and the chain's summed counters.
void expect_distributed_lasso_pins(
    int ranks, const std::vector<std::uint64_t>& expected_beta,
    const std::string& expected_counters) {
  const auto data = pin_problem();
  const auto steps = pin_steps(data);
  std::vector<std::uint64_t> hashes;
  std::string pin;
  uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
    const auto block = row_block(comm, data.x, data.y);
    uoi::solvers::DistributedScreenedLassoChain chain(
        comm, block.x, block.y, block.shared, AdmmOptions{});
    uoi::solvers::DistributedAdmmResult totals;
    for (const auto& [l1, l2] : steps) {
      const auto fit = chain.solve(l1, l2);
      if (comm.rank() == 0) hashes.push_back(beta_bytes_hash(fit.beta));
      uoi::solvers::detail::add_fit_counters(totals, fit);
    }
    if (comm.rank() == 0) {
      std::ostringstream out;
      out << stats_pin(chain.stats()) << " iterations=" << totals.iterations
          << " rho_updates=" << totals.rho_updates
          << " local_flops=" << totals.local_flops
          << " allreduce_calls=" << totals.allreduce_calls
          << " allreduce_bytes=" << totals.allreduce_bytes
          << " consensus_rounds=" << totals.consensus_rounds;
      pin = out.str();
    }
  });
  EXPECT_EQ(hashes, expected_beta) << ranks << " ranks";
  EXPECT_EQ(pin, expected_counters) << ranks << " ranks";
}

TEST(ScreenedChainPins, DistributedLassoChainTwoRanks) {
  expect_distributed_lasso_pins(
      2,
      {2413988172825303939ULL, 15665684790226294474ULL,
       12592686836362733912ULL, 8391169383722848999ULL,
       15644726100966555283ULL, 6026269011408710835ULL,
       14226100290348438682ULL, 10264835365086109086ULL,
       12107253054395840681ULL, 1045459674426302577ULL},
      "lambdas=10 survivors=569 kkt_violations=1 kkt_rounds=1 "
      "gram_cols_saved=71 canonical_solves=10 total_columns=640 "
      "iterations=17390 rho_updates=67 local_flops=244036061 "
      "allreduce_calls=17498 allreduce_bytes=7547752 "
      "consensus_rounds=17477");
}

TEST(ScreenedChainPins, DistributedLassoChainThreeRanks) {
  expect_distributed_lasso_pins(
      3,
      {2413988172825303939ULL, 5698284983849093098ULL,
       602507250586822448ULL, 13448333826630387709ULL,
       13631308643731438086ULL, 12587858286031141260ULL,
       8824756081617224600ULL, 12023614746826424718ULL,
       14155601138926180706ULL, 4816780512953932062ULL},
      "lambdas=10 survivors=569 kkt_violations=1 kkt_rounds=1 "
      "gram_cols_saved=71 canonical_solves=10 total_columns=640 "
      "iterations=18505 rho_updates=59 local_flops=154513716 "
      "allreduce_calls=18605 allreduce_bytes=8038408 "
      "consensus_rounds=18584");
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
  options.schedule = uoi::sched::SchedulePolicy::kStatic;
  options.solver_cache_mb = 256;
  return options;
}

TEST(ScreenedChainPins, SerialVarFit) {
  const Matrix series = pin_var_series();
  auto options = pin_var_options();
  const std::uint64_t expected_beta = 1495920722954990147ULL;
  const auto fit = uoi::var::UoiVar(options).fit(series);
  EXPECT_EQ(beta_bytes_hash(fit.vec_beta), expected_beta);
  EXPECT_EQ(fit.total_flops, 576044u);
  // Fits no longer read the backend: the sparse one runs the same chains.
  options.backend = uoi::var::VarSolverBackend::kSparse;
  const auto sparse = uoi::var::UoiVar(options).fit(series);
  EXPECT_EQ(beta_bytes_hash(sparse.vec_beta), expected_beta);
  EXPECT_EQ(sparse.total_flops, 576044u);
}

/// Pins a four-rank distributed VAR fit on layout {2, 1} (two groups of
/// C = 2): the beta bytes, the FLOPs and the sums over the ranks of the
/// exported screen.* and admm.* metrics. Asserts the path first, so a pin
/// can never silently move to the other path.
void expect_distributed_var_pins(const Matrix& series,
                                 const uoi::var::UoiVarOptions& options,
                                 uoi::sched::LinearPath path,
                                 std::uint64_t expected_beta,
                                 std::uint64_t expected_flops,
                                 const std::string& expected_metrics) {
  const char* const metric_names[] = {
      "admm.iterations",         "admm.rho_updates",
      "admm.allreduce_calls",    "admm.allreduce_bytes",
      "admm.consensus_rounds",   "screen.lambdas",
      "screen.survivors",        "screen.kkt_violations",
      "screen.kkt_rounds",       "screen.gram_cols_saved",
      "screen.canonical_solves", "screen.total_columns"};
  constexpr int kRanks = 4;
  constexpr uoi::core::UoiParallelLayout kLayout{2, 1};
  uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
    EXPECT_EQ(uoi::var::detail::var_linear_path(comm, series, options,
                                                kLayout),
              path);
  });
  auto& metrics = uoi::support::MetricsRegistry::instance();
  metrics.clear();
  std::uint64_t hash = 0;
  std::uint64_t flops = 0;
  uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
    const auto fit =
        uoi::var::uoi_var_distributed(comm, series, options, kLayout, 2);
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
  EXPECT_EQ(hash, expected_beta);
  EXPECT_EQ(flops, expected_flops);
  EXPECT_EQ(pin.str(), expected_metrics);
}

/// pin_var_series() has 89 lag rows of 8 nodes: groups of two sum a Gram
/// and walk one Gram chain per equation, so admm.allreduce_* counts the
/// Gram reductions alone. The beta bytes are the serial fit's.
TEST(ScreenedChainPins, DistributedVarFit) {
  expect_distributed_var_pins(
      pin_var_series(), pin_var_options(), uoi::sched::LinearPath::kGram,
      1495920722954990147ULL, 576044,
      "admm.iterations=4588 admm.rho_updates=0 admm.allreduce_calls=6 "
      "admm.allreduce_bytes=6144 admm.consensus_rounds=0 "
      "screen.lambdas=192 screen.survivors=822 "
      "screen.kkt_violations=0 screen.kkt_rounds=0 screen.gram_cols_saved=0 "
      "screen.canonical_solves=0 screen.total_columns=1536 ");
}

/// 7 lag rows of 6 nodes at order 4: d = 4 exceeds a rank's 3 rows, so
/// groups of two run the Kron+vec windows and consensus ADMM, one
/// allreduce per iteration. The pins were recorded from the parent of the
/// change that added the Gram path, where every group wider than one rank
/// ran Kron+vec, so any later move of the Kron+vec path's arithmetic or
/// collectives shows here.
Matrix pin_var_kron_series() {
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.order = 4;
  spec.seed = 75;
  uoi::var::SimulateOptions sim;
  sim.n_samples = 11;
  sim.seed = 76;
  return uoi::var::simulate(uoi::data::make_sparse_var(spec), sim);
}

TEST(ScreenedChainPins, DistributedVarKronFit) {
  const Matrix series = pin_var_kron_series();
  auto options = pin_var_options();
  options.order = 4;
  expect_distributed_var_pins(series, options,
                              uoi::sched::LinearPath::kConsensus,
                              15939194839043441018ULL, 83804445,
                              "admm.iterations=41032 admm.rho_updates=200 "
                              "admm.allreduce_calls=41412 "
                              "admm.allreduce_bytes=43068928 "
                              "admm.consensus_rounds=41320 "
                              "screen.lambdas=48 "
                              "screen.survivors=5768 "
                              "screen.kkt_violations=0 screen.kkt_rounds=0 "
                              "screen.gram_cols_saved=1144 "
                              "screen.canonical_solves=44 "
                              "screen.total_columns=6912 ");
}

// ---- Unscreened references ----------------------------------------------
// Each screened chain walks the pinned steps beside an unscreened solver
// over every column, warm-started from the solver's own previous step
// (from zero where lambda1 rises, as the chain restarts) under the chain's
// refined options. The two reach the same minimizers by different
// iterations, so every step must select the same support at the fits'
// support tolerance, with betas within kReferenceBound of each other. Each
// test prints the largest gap it measured.

constexpr double kReferenceBound = 1e-6;

/// Checks one step of a chain against its reference; returns max |dbeta|.
double expect_matches_reference(std::span<const double> chain,
                                std::span<const double> reference,
                                double lambda1) {
  const double tolerance = uoi::core::UoiLassoOptions{}.support_tolerance;
  const auto support = [&](std::span<const double> beta) {
    std::vector<std::size_t> out;
    for (std::size_t j = 0; j < beta.size(); ++j) {
      if (std::abs(beta[j]) > tolerance) out.push_back(j);
    }
    return out;
  };
  EXPECT_EQ(support(chain), support(reference)) << "lambda1 " << lambda1;
  const double gap = uoi::linalg::max_abs_diff(chain, reference);
  EXPECT_LE(gap, kReferenceBound) << "lambda1 " << lambda1;
  return gap;
}

/// The reference's warm start for the next step: its previous beta while
/// lambda1 descends, zero where lambda1 rises.
struct ReferenceWarmStart {
  explicit ReferenceWarmStart(std::size_t p) : beta(p, 0.0) {}
  template <class Fit>
  Fit at(double lambda1) {
    if (lambda1 > lambda_prev) std::fill(beta.begin(), beta.end(), 0.0);
    lambda_prev = lambda1;
    Fit warm;
    warm.beta = beta;
    return warm;
  }
  Vector beta;
  double lambda_prev = std::numeric_limits<double>::infinity();
};

void report_gap(const char* backend, double gap) {
  std::printf("[ reference ] %s: max |dbeta| = %.3g\n", backend, gap);
  testing::Test::RecordProperty("max_abs_dbeta", std::to_string(gap));
}

TEST(ScreenedChainReference, SerialLassoBackend) {
  // The pinned steps include two elastic-net steps (lambda2 > 0).
  const auto data = pin_problem();
  const AdmmOptions admm = tight_admm();
  ScreenedLassoChain chain(data.x, data.y, admm);
  const uoi::solvers::LassoAdmmSolver reference(
      data.x, data.y, uoi::solvers::detail::refined_admm_options(admm));
  ReferenceWarmStart warm(data.x.cols());
  double worst = 0.0;
  for (const auto& [l1, l2] : pin_steps(data)) {
    const auto fit = chain.solve(l1, l2);
    const auto start = warm.at<uoi::solvers::AdmmResult>(l1);
    const auto want = reference.solve_elastic_net(l1, l2, &start);
    ASSERT_TRUE(want.converged) << l1;
    worst = std::max(worst, expect_matches_reference(fit.beta, want.beta, l1));
    warm.beta = want.beta;
  }
  report_gap("serial lasso", worst);
}

TEST(ScreenedChainReference, DistributedLassoBackend) {
  const auto data = pin_problem();
  const AdmmOptions admm = tight_admm();
  double worst = 0.0;
  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const auto block = row_block(comm, data.x, data.y);
    uoi::solvers::DistributedScreenedLassoChain chain(
        comm, block.x, block.y, block.shared, admm);
    const uoi::solvers::DistributedLassoAdmmSolver reference(
        comm, block.x, block.y,
        uoi::solvers::detail::refined_admm_options(admm));
    ReferenceWarmStart warm(data.x.cols());
    for (const auto& [l1, l2] : pin_steps(data)) {
      const auto fit = chain.solve(l1, l2);
      const auto start = warm.at<uoi::solvers::DistributedAdmmResult>(l1);
      const auto want = reference.solve_elastic_net(l1, l2, &start);
      warm.beta = want.beta;
      if (comm.rank() != 0) continue;
      EXPECT_TRUE(want.converged) << l1;
      worst =
          std::max(worst, expect_matches_reference(fit.beta, want.beta, l1));
    }
  });
  report_gap("distributed lasso, 4 ranks", worst);
}

TEST(ScreenedChainReference, DistributedVarBackend) {
  // The DistributedVarKronFit series (6 nodes, order 4, 7 lag rows) on
  // one group of two ranks, both readers, down an 8-point grid.
  const Matrix series = pin_var_kron_series();
  const auto lag = uoi::var::build_lag_regression(series, 4);
  const AdmmOptions admm = tight_admm();
  double worst = 0.0;
  uoi::sim::Cluster::run(2, [&](uoi::sim::Comm& comm) {
    const auto block = uoi::var::distributed_kron_vectorize(comm, lag, 2);
    Vector sums = uoi::var::detail::var_screen_sums(block);
    comm.allreduce(std::span<double>(sums), uoi::sim::ReduceOp::kSum);
    const auto shared = uoi::solvers::screen_inputs_from_sums(sums);
    uoi::solvers::detail::ScreenedChain<uoi::var::detail::DistributedVarBackend>
        chain(admm, comm, block, shared);
    const uoi::var::DistributedVarAdmmSolver reference(
        comm, block, uoi::solvers::detail::refined_admm_options(admm));
    ReferenceWarmStart warm(block.n_coefficients());
    for (const double lambda :
         uoi::solvers::log_spaced_lambdas(shared.lambda_max, 1e-2, 8)) {
      const auto fit = chain.solve(lambda);
      const auto start = warm.at<uoi::solvers::DistributedAdmmResult>(lambda);
      const auto want = reference.solve(lambda, &start);
      warm.beta = want.beta;
      if (comm.rank() != 0) continue;
      EXPECT_TRUE(want.converged) << lambda;
      worst =
          std::max(worst, expect_matches_reference(fit.beta, want.beta, lambda));
    }
  });
  report_gap("distributed VAR, 2 ranks", worst);
}

}  // namespace
