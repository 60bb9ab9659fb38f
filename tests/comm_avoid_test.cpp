// Communication-avoiding consensus ADMM: fused residual reductions,
// k-step lazy consensus, hierarchical allreduce, and the unified
// iterations/accounting conventions across the blocking and fused
// stopping-test paths.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "linalg/matrix.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/distributed_admm.hpp"
#include "solvers/lambda_grid.hpp"
#include "var/lag_matrix.hpp"
#include "var/var_distributed.hpp"

using uoi::linalg::Matrix;
using uoi::sim::Cluster;
using uoi::sim::Comm;

namespace {

struct LocalBlock {
  uoi::linalg::ConstMatrixView x;
  std::span<const double> y;
};

LocalBlock local_block(const uoi::data::RegressionDataset& data, const Comm& comm) {
  const std::size_t n = data.x.rows();
  const std::size_t begin = n * comm.rank() / comm.size();
  const std::size_t end = n * (comm.rank() + 1) / comm.size();
  return {data.x.row_block(begin, end - begin),
          std::span<const double>(data.y).subspan(begin, end - begin)};
}

uoi::data::RegressionDataset make_data(std::uint64_t seed = 11,
                                    std::size_t n = 96, std::size_t p = 12) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = n;
  spec.n_features = p;
  spec.support_size = 3;
  spec.seed = seed;
  return uoi::data::make_regression(spec);
}

// An ill-scaled variant that triggers many §3.4.1 rho rescales: the
// residual-balancing path is where fused staleness could diverge from the
// blocking loop if the redo-on-rescale replay were wrong.
uoi::data::RegressionDataset make_rescale_heavy_data() {
  auto data = make_data(29, 64, 10);
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    auto row = data.x.row(r);
    for (std::size_t c = 0; c < data.x.cols(); ++c) {
      row[c] *= (c % 2 == 0) ? 40.0 : 0.05;
    }
    data.y[r] *= 25.0;
  }
  return data;
}

}  // namespace

TEST(FusedReduction, BitwiseIdenticalToBlockingLoop) {
  const auto data = make_data();
  const double lambda = 0.1 * uoi::solvers::lambda_max(data.x, data.y);

  uoi::solvers::AdmmOptions blocking;
  blocking.fused_residual_reduction = false;
  blocking.consensus_interval = 1;
  auto fused = blocking;
  fused.fused_residual_reduction = true;

  Cluster::run(4, [&](Comm& comm) {
    const auto block = local_block(data, comm);
    const auto a = uoi::solvers::distributed_lasso_admm(comm, block.x,
                                                        block.y, lambda,
                                                        blocking);
    const auto b = uoi::solvers::distributed_lasso_admm(comm, block.x,
                                                        block.y, lambda,
                                                        fused);
    EXPECT_EQ(uoi::linalg::max_abs_diff(a.beta, b.beta), 0.0);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.rho_updates, b.rho_updates);
    EXPECT_EQ(a.primal_residual, b.primal_residual);
    EXPECT_EQ(a.dual_residual, b.dual_residual);
  });
}

TEST(FusedReduction, BitwiseIdenticalUnderHeavyRhoRescaling) {
  const auto data = make_rescale_heavy_data();
  const double lambda = 0.05 * uoi::solvers::lambda_max(data.x, data.y);

  uoi::solvers::AdmmOptions blocking;
  blocking.fused_residual_reduction = false;
  blocking.consensus_interval = 1;
  blocking.rho_update_interval = 2;  // rescale as often as possible
  blocking.eps_abs = 1e-9;
  blocking.eps_rel = 1e-7;
  blocking.max_iterations = 20000;
  auto fused = blocking;
  fused.fused_residual_reduction = true;

  Cluster::run(3, [&](Comm& comm) {
    const auto block = local_block(data, comm);
    const auto a = uoi::solvers::distributed_lasso_admm(comm, block.x,
                                                        block.y, lambda,
                                                        blocking);
    const auto b = uoi::solvers::distributed_lasso_admm(comm, block.x,
                                                        block.y, lambda,
                                                        fused);
    EXPECT_GT(a.rho_updates, 0u);  // the scenario must actually rescale
    EXPECT_EQ(uoi::linalg::max_abs_diff(a.beta, b.beta), 0.0);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.rho_updates, b.rho_updates);
  });
}

TEST(IterationsConvention, AgreesAcrossBlockingAndFused) {
  // result.iterations counts the completed ADMM iterations covered by the
  // reported verdict; the stale fused stopping test evaluates the same
  // residual sums as the blocking loop, so the first passing verdict —
  // and with it the count — must agree in both modes.
  const auto data = make_data(17);
  const double lambda = 0.1 * uoi::solvers::lambda_max(data.x, data.y);

  uoi::solvers::AdmmOptions blocking;
  blocking.fused_residual_reduction = false;
  blocking.consensus_interval = 1;
  auto fused = blocking;
  fused.fused_residual_reduction = true;

  Cluster::run(4, [&](Comm& comm) {
    const auto block = local_block(data, comm);
    const auto a = uoi::solvers::distributed_lasso_admm(comm, block.x,
                                                        block.y, lambda,
                                                        blocking);
    const auto b = uoi::solvers::distributed_lasso_admm(comm, block.x,
                                                        block.y, lambda,
                                                        fused);
    ASSERT_TRUE(a.converged);
    ASSERT_TRUE(b.converged);
    EXPECT_EQ(a.iterations, b.iterations);
  });
}

TEST(Accounting, PinsBytesAndCallsPerIteration) {
  // p = 5, 2 ranks, exactly M = 7 iterations (zero tolerances never
  // converge), no rho adaptation:
  //   blocking : per iteration one p-double + one 3-double reduction
  //              -> 14 calls, 7 * (40 + 24) = 448 bytes
  //   fused    : 7 fused (p+3)-double reductions + the 3-double flush
  //              -> 8 calls, 7 * 64 + 24 = 472 bytes
  const auto data = make_data(5, 32, 5);

  uoi::solvers::AdmmOptions base;
  base.eps_abs = 0.0;
  base.eps_rel = 0.0;
  base.adaptive_rho = false;
  base.max_iterations = 7;
  base.consensus_interval = 1;

  auto blocking = base;
  blocking.fused_residual_reduction = false;
  auto fused = base;
  fused.fused_residual_reduction = true;

  Cluster::run(2, [&](Comm& comm) {
    const auto block = local_block(data, comm);
    const auto run = [&](const uoi::solvers::AdmmOptions& options) {
      return uoi::solvers::distributed_lasso_admm(comm, block.x, block.y,
                                                  0.5, options);
    };
    const auto a = run(blocking);
    EXPECT_EQ(a.allreduce_calls, 14u);
    EXPECT_EQ(a.allreduce_bytes, 448u);
    EXPECT_EQ(a.consensus_rounds, 7u);
    EXPECT_EQ(a.lazy_iterations, 0u);

    const auto b = run(fused);
    EXPECT_EQ(b.allreduce_calls, 8u);
    EXPECT_EQ(b.allreduce_bytes, 472u);
    EXPECT_EQ(b.consensus_rounds, 7u);

    // Fusion halves the reduction rounds (t + 2 vs 2(t + 1)).
    EXPECT_LE(static_cast<double>(b.allreduce_calls),
              0.6 * static_cast<double>(a.allreduce_calls));
  });
}

TEST(Accounting, LazyConsensusSkipsRounds) {
  const auto data = make_data(7, 48, 6);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 0.0;
  options.eps_rel = 0.0;
  options.adaptive_rho = false;
  options.max_iterations = 8;
  options.consensus_interval = 4;

  Cluster::run(2, [&](Comm& comm) {
    const auto block = local_block(data, comm);
    const auto fit = uoi::solvers::distributed_lasso_admm(comm, block.x,
                                                          block.y, 0.5,
                                                          options);
    // 8 iterations at k = 4: two consensus rounds, six lazy iterations.
    EXPECT_EQ(fit.consensus_rounds, 2u);
    EXPECT_EQ(fit.lazy_iterations, 6u);
    EXPECT_EQ(fit.consensus_interval, 4u);
  });
}

class LazyConsensusParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LazyConsensusParam, LassoConvergesToK1Solution) {
  const std::size_t k = GetParam();
  const auto data = make_data(23, 128, 16);
  const double lambda = 0.1 * uoi::solvers::lambda_max(data.x, data.y);

  uoi::solvers::AdmmOptions tight;
  tight.eps_abs = 1e-9;
  tight.eps_rel = 1e-7;
  tight.max_iterations = 50000;
  tight.consensus_interval = 1;
  auto lazy = tight;
  lazy.consensus_interval = k;

  Cluster::run(4, [&](Comm& comm) {
    const auto block = local_block(data, comm);
    const auto ref = uoi::solvers::distributed_lasso_admm(comm, block.x,
                                                          block.y, lambda,
                                                          tight);
    const auto fit = uoi::solvers::distributed_lasso_admm(comm, block.x,
                                                          block.y, lambda,
                                                          lazy);
    ASSERT_TRUE(ref.converged);
    ASSERT_TRUE(fit.converged);
    EXPECT_GT(fit.lazy_iterations, 0u);
    EXPECT_LT(fit.consensus_rounds, ref.consensus_rounds);
    EXPECT_LT(uoi::linalg::max_abs_diff(fit.beta, ref.beta), 1e-6);
  });
}

INSTANTIATE_TEST_SUITE_P(Intervals, LazyConsensusParam,
                         ::testing::Values(2, 4));

TEST(LazyConsensus, VarSolverConvergesToK1Solution) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 5;
  spec.seed = 41;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 70;
  sim.seed = 42;
  const Matrix series = uoi::var::simulate(truth, sim);
  const auto lag = uoi::var::build_lag_regression(series, 1);

  uoi::solvers::AdmmOptions tight;
  tight.eps_abs = 1e-9;
  tight.eps_rel = 1e-7;
  tight.max_iterations = 50000;
  tight.consensus_interval = 1;
  auto lazy = tight;
  lazy.consensus_interval = 4;

  Cluster::run(4, [&](Comm& comm) {
    const auto block = uoi::var::distributed_kron_vectorize(comm, lag, 2);
    const uoi::var::DistributedVarAdmmSolver ref_solver(comm, block, tight);
    const uoi::var::DistributedVarAdmmSolver lazy_solver(comm, block, lazy);
    const auto ref = ref_solver.solve(5.0);
    const auto fit = lazy_solver.solve(5.0);
    ASSERT_TRUE(ref.converged);
    ASSERT_TRUE(fit.converged);
    EXPECT_GT(fit.lazy_iterations, 0u);
    EXPECT_LT(uoi::linalg::max_abs_diff(fit.beta, ref.beta), 1e-6);
  });
}

TEST(ResolveConsensusInterval, ExplicitWinsOverEnvironment) {
  ::setenv("UOI_CONSENSUS_INTERVAL", "4", 1);
  EXPECT_EQ(uoi::solvers::resolve_consensus_interval(0), 4u);
  EXPECT_EQ(uoi::solvers::resolve_consensus_interval(1), 1u);
  EXPECT_EQ(uoi::solvers::resolve_consensus_interval(2), 2u);
  ::unsetenv("UOI_CONSENSUS_INTERVAL");
  EXPECT_EQ(uoi::solvers::resolve_consensus_interval(0), 1u);
}

class SchedPolicyBitIdentity
    : public ::testing::TestWithParam<uoi::sched::SchedulePolicy> {};

TEST_P(SchedPolicyBitIdentity, DriverFusedMatchesUnfusedBitwise) {
  // End-to-end: the full distributed UoI_LASSO driver must produce a
  // bitwise-identical model with fused reductions on or off, under every
  // scheduling policy, at the default k = 1.
  const auto data = make_data(3, 72, 10);
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 3;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 3;
  options.schedule = GetParam();
  options.admm.consensus_interval = 1;

  auto fused = options;
  fused.admm.fused_residual_reduction = true;
  auto unfused = options;
  unfused.admm.fused_residual_reduction = false;

  uoi::linalg::Vector beta_fused, beta_unfused;
  Cluster::run(4, [&](Comm& comm) {
    const auto fit =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, fused);
    if (comm.rank() == 0) beta_fused = fit.model.beta;
  });
  Cluster::run(4, [&](Comm& comm) {
    const auto fit =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, unfused);
    if (comm.rank() == 0) beta_unfused = fit.model.beta;
  });
  ASSERT_EQ(beta_fused.size(), beta_unfused.size());
  EXPECT_EQ(uoi::linalg::max_abs_diff(beta_fused, beta_unfused), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, SchedPolicyBitIdentity,
                         ::testing::Values(uoi::sched::SchedulePolicy::kStatic,
                                           uoi::sched::SchedulePolicy::kCostLpt,
                                           uoi::sched::SchedulePolicy::kWorkSteal));

// ---- hierarchical allreduce ----

struct HierCase {
  int ranks;
  int group_size;  ///< 0 = auto (~sqrt(P))
};

class HierarchicalAllreduce : public ::testing::TestWithParam<HierCase> {};

TEST_P(HierarchicalAllreduce, MatchesStagedOnIntegerPayloads) {
  // Integer-valued payloads make every reduction order exact, so the
  // hierarchical result must equal the staged reference bitwise for any
  // rank count / group size, including groups that do not divide P.
  const auto param = GetParam();
  const std::size_t len = 257;  // not a multiple of any group size
  std::vector<std::vector<double>> expected(
      static_cast<std::size_t>(param.ranks));
  Cluster::run(param.ranks, [&](Comm& comm) {
    std::vector<double> data(len);
    for (std::size_t i = 0; i < len; ++i) {
      data[i] = static_cast<double>((comm.rank() + 1) * (i % 11) - 7);
    }
    comm.allreduce(data, uoi::sim::ReduceOp::kSum);
    expected[static_cast<std::size_t>(comm.rank())] = data;
  });
  Cluster::run(param.ranks, [&](Comm& comm) {
    std::vector<double> data(len);
    for (std::size_t i = 0; i < len; ++i) {
      data[i] = static_cast<double>((comm.rank() + 1) * (i % 11) - 7);
    }
    comm.allreduce_hierarchical(data, uoi::sim::ReduceOp::kSum,
                                param.group_size);
    EXPECT_EQ(data, expected[static_cast<std::size_t>(comm.rank())]);
  });
}

TEST_P(HierarchicalAllreduce, MinMaxAreExact) {
  const auto param = GetParam();
  Cluster::run(param.ranks, [&](Comm& comm) {
    std::vector<double> lo(33), hi(33);
    for (std::size_t i = 0; i < lo.size(); ++i) {
      lo[i] = static_cast<double>(comm.rank()) * 1.5 + static_cast<double>(i);
      hi[i] = lo[i];
    }
    comm.allreduce_hierarchical(lo, uoi::sim::ReduceOp::kMin,
                                param.group_size);
    comm.allreduce_hierarchical(hi, uoi::sim::ReduceOp::kMax,
                                param.group_size);
    for (std::size_t i = 0; i < lo.size(); ++i) {
      EXPECT_EQ(lo[i], static_cast<double>(i));
      EXPECT_EQ(hi[i],
                static_cast<double>(comm.size() - 1) * 1.5 +
                    static_cast<double>(i));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, HierarchicalAllreduce,
    ::testing::Values(HierCase{1, 0}, HierCase{2, 0}, HierCase{3, 2},
                      HierCase{4, 0}, HierCase{5, 2}, HierCase{7, 3},
                      HierCase{8, 0}, HierCase{8, 3}, HierCase{16, 0},
                      HierCase{16, 5}));

TEST(HierarchicalAllreduce, DeterministicAcrossRuns) {
  std::vector<double> first;
  for (int run = 0; run < 2; ++run) {
    Cluster::run(8, [&](Comm& comm) {
      std::vector<double> data(101);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = 1.0 / (1.0 + static_cast<double>(comm.rank()) +
                         static_cast<double>(i));
      }
      comm.allreduce_hierarchical(data, uoi::sim::ReduceOp::kSum);
      if (comm.rank() == 0) {
        if (run == 0) {
          first = data;
        } else {
          EXPECT_EQ(data, first);
        }
      }
    });
  }
}

TEST(AllreduceAlgo, ParsesNamesAndInheritsAcrossSplit) {
  uoi::sim::AllreduceAlgo algo;
  EXPECT_TRUE(uoi::sim::allreduce_algo_from_string("staged", algo));
  EXPECT_EQ(algo, uoi::sim::AllreduceAlgo::kStaged);
  EXPECT_TRUE(uoi::sim::allreduce_algo_from_string("hier", algo));
  EXPECT_EQ(algo, uoi::sim::AllreduceAlgo::kHierarchical);
  EXPECT_TRUE(uoi::sim::allreduce_algo_from_string("hierarchical", algo));
  EXPECT_EQ(algo, uoi::sim::AllreduceAlgo::kHierarchical);
  EXPECT_TRUE(uoi::sim::allreduce_algo_from_string("rd", algo));
  EXPECT_EQ(algo, uoi::sim::AllreduceAlgo::kRecursiveDoubling);
  EXPECT_TRUE(uoi::sim::allreduce_algo_from_string("ring", algo));
  EXPECT_EQ(algo, uoi::sim::AllreduceAlgo::kRing);
  EXPECT_TRUE(uoi::sim::allreduce_algo_from_string("auto", algo));
  EXPECT_EQ(algo, uoi::sim::AllreduceAlgo::kAuto);
  EXPECT_FALSE(uoi::sim::allreduce_algo_from_string("bogus", algo));

  Cluster::run(4, [&](Comm& comm) {
    comm.set_allreduce_algo(uoi::sim::AllreduceAlgo::kHierarchical);
    auto split = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(split.allreduce_algo(),
              uoi::sim::AllreduceAlgo::kHierarchical);
  });
}

TEST(AllreduceAlgo, HierarchicalSelectedDeliversSameSums) {
  // Routing the solver's consensus reductions through the hierarchical
  // tree must leave integer-exact sums unchanged.
  Cluster::run(8, [&](Comm& comm) {
    std::vector<double> staged(64), hier(64);
    for (std::size_t i = 0; i < staged.size(); ++i) {
      staged[i] = static_cast<double>(comm.rank() + 2);
      hier[i] = staged[i];
    }
    comm.set_allreduce_algo(uoi::sim::AllreduceAlgo::kStaged);
    comm.allreduce(staged, uoi::sim::ReduceOp::kSum);
    comm.set_allreduce_algo(uoi::sim::AllreduceAlgo::kHierarchical);
    comm.allreduce(hier, uoi::sim::ReduceOp::kSum);
    EXPECT_EQ(staged, hier);
  });
}
