// Failure-injection and robustness tests: corrupted datasets, solver
// misuse, pathological inputs, and algebraic property sweeps that go
// beyond the per-module unit tests.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/uoi_elastic_net_distributed.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "core/uoi_logistic_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "io/distribution.hpp"
#include "io/h5lite.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/window.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/cd_lasso.hpp"
#include "solvers/distributed_admm.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/screening.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "var/var_distributed.hpp"

namespace {

using uoi::linalg::Matrix;
using uoi::linalg::Vector;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  uoi::support::Xoshiro256 rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  }
  return m;
}

// ---- corrupted datasets ----

class CorruptFile {
 public:
  explicit CorruptFile(const std::string& name)
      : base_((std::filesystem::temp_directory_path() / name).string()) {}
  ~CorruptFile() {
    std::error_code ec;
    std::filesystem::remove(uoi::io::stripe_path(base_, 0), ec);
    std::filesystem::remove(uoi::io::stripe_path(base_, 1), ec);
  }
  [[nodiscard]] const std::string& base() const { return base_; }

 private:
  std::string base_;
};

TEST(FailureInjection, BadMagicRejected) {
  CorruptFile tmp("uoi_bad_magic");
  std::ofstream f(uoi::io::stripe_path(tmp.base(), 0), std::ios::binary);
  const char garbage[64] = "this is not an H5-lite dataset at all!";
  f.write(garbage, sizeof(garbage));
  f.close();
  EXPECT_THROW((void)uoi::io::read_info(tmp.base()), uoi::support::IoError);
}

TEST(FailureInjection, TruncatedHeaderRejected) {
  CorruptFile tmp("uoi_trunc_header");
  std::ofstream f(uoi::io::stripe_path(tmp.base(), 0), std::ios::binary);
  const char partial[10] = {0};
  f.write(partial, sizeof(partial));
  f.close();
  EXPECT_THROW((void)uoi::io::read_info(tmp.base()), uoi::support::IoError);
}

TEST(FailureInjection, TruncatedPayloadRejectedOnRead) {
  CorruptFile tmp("uoi_trunc_payload");
  const Matrix data = random_matrix(20, 4, 1);
  uoi::io::write_dataset(tmp.base(), data, 10, 1);
  // Chop the file short.
  const auto path = uoi::io::stripe_path(tmp.base(), 0);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 64);

  const uoi::io::DatasetReader reader(tmp.base());
  Matrix out;
  EXPECT_THROW(reader.read_rows(0, 20, out), uoi::support::IoError);
}

TEST(FailureInjection, MissingStripeRejected) {
  CorruptFile tmp("uoi_missing_stripe");
  const Matrix data = random_matrix(20, 4, 2);
  uoi::io::write_dataset(tmp.base(), data, 5, 2);
  std::filesystem::remove(uoi::io::stripe_path(tmp.base(), 1));
  const uoi::io::DatasetReader reader(tmp.base());
  Matrix out;
  EXPECT_THROW(reader.read_rows(0, 20, out), uoi::support::IoError);
}

// ---- solver misuse and pathological inputs ----

TEST(FailureInjection, AdmmThrowsOnDemandWhenNotConverged) {
  const auto data = uoi::data::make_regression({});
  uoi::solvers::AdmmOptions options;
  options.max_iterations = 1;  // cannot converge
  options.throw_on_nonconvergence = true;
  EXPECT_THROW(
      (void)uoi::solvers::lasso_admm(data.x, data.y, 0.1, options),
      uoi::support::ConvergenceError);
  // Default: best effort, no throw.
  options.throw_on_nonconvergence = false;
  const auto fit = uoi::solvers::lasso_admm(data.x, data.y, 0.1, options);
  EXPECT_FALSE(fit.converged);
  EXPECT_EQ(fit.iterations, 1u);
}

TEST(FailureInjection, ConstantFeatureIsHandled) {
  // A zero-variance column (constant feature) must not break the solvers.
  Matrix x = random_matrix(50, 5, 3);
  for (std::size_t r = 0; r < x.rows(); ++r) x(r, 2) = 1.0;
  Vector y(50);
  uoi::support::Xoshiro256 rng(4);
  for (auto& v : y) v = rng.normal();
  const auto admm = uoi::solvers::lasso_admm(x, y, 1.0);
  EXPECT_TRUE(admm.converged);
  const auto cd = uoi::solvers::cd_lasso(x, y, 1.0);
  EXPECT_TRUE(cd.converged);
  EXPECT_LT(uoi::linalg::max_abs_diff(admm.beta, cd.beta), 1e-3);
}

TEST(FailureInjection, AllZeroResponseGivesZeroModel) {
  const Matrix x = random_matrix(30, 6, 5);
  Vector y(30, 0.0);
  const auto fit = uoi::solvers::lasso_admm(x, y, 0.5);
  for (const double b : fit.beta) EXPECT_NEAR(b, 0.0, 1e-9);
  EXPECT_THROW((void)uoi::solvers::lambda_grid_for(x, y, 5),
               uoi::support::InvalidArgument);
}

TEST(FailureInjection, SingleSampleProblems) {
  Matrix x{{1.0, 2.0, 3.0}};
  Vector y{6.0};
  const auto fit = uoi::solvers::lasso_admm(x, y, 0.01);
  // Underdetermined: any fit must at least predict the one sample well.
  const double pred = uoi::linalg::dot(x.row(0), fit.beta);
  EXPECT_NEAR(pred, 6.0, 0.5);
}

TEST(FailureInjection, HugeLambdaGivesEmptyModelEverywhere) {
  const auto data = uoi::data::make_regression({});
  for (const double lambda : {1e6, 1e9, 1e12}) {
    const auto fit = uoi::solvers::lasso_admm(data.x, data.y, lambda);
    for (const double b : fit.beta) EXPECT_DOUBLE_EQ(b, 0.0);
  }
}

// ---- algebraic property sweeps ----

class GemmPropertyParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GemmPropertyParam, AssociativityAndDistributivity) {
  const std::uint64_t seed = GetParam();
  const Matrix a = random_matrix(9, 7, seed);
  const Matrix b = random_matrix(7, 8, seed + 1);
  const Matrix c = random_matrix(8, 6, seed + 2);
  const Matrix b2 = random_matrix(7, 8, seed + 3);

  // (A B) C == A (B C)
  Matrix ab(9, 8), ab_c(9, 6), bc(7, 6), a_bc(9, 6);
  uoi::linalg::gemm(1.0, a, b, 0.0, ab);
  uoi::linalg::gemm(1.0, ab, c, 0.0, ab_c);
  uoi::linalg::gemm(1.0, b, c, 0.0, bc);
  uoi::linalg::gemm(1.0, a, bc, 0.0, a_bc);
  EXPECT_LT(uoi::linalg::max_abs_diff(ab_c, a_bc), 1e-10);

  // A (B + B2) == A B + A B2
  Matrix b_sum(7, 8);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 8; ++j) b_sum(i, j) = b(i, j) + b2(i, j);
  }
  Matrix lhs(9, 8), rhs(9, 8);
  uoi::linalg::gemm(1.0, a, b_sum, 0.0, lhs);
  uoi::linalg::gemm(1.0, a, b, 0.0, rhs);
  uoi::linalg::gemm(1.0, a, b2, 1.0, rhs);
  EXPECT_LT(uoi::linalg::max_abs_diff(lhs, rhs), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GemmPropertyParam,
                         ::testing::Values(10, 20, 30, 40));

class SerialDistributedSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SerialDistributedSweep, LassoAgreesAcrossSeeds) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 80;
  spec.n_features = 12;
  spec.support_size = 3;
  spec.seed = GetParam();
  const auto data = uoi::data::make_regression(spec);
  const double lambda = 0.1 * uoi::solvers::lambda_max(data.x, data.y);
  uoi::solvers::AdmmOptions options;
  options.eps_abs = 1e-9;
  options.eps_rel = 1e-7;
  options.max_iterations = 20000;
  const auto serial = uoi::solvers::lasso_admm(data.x, data.y, lambda, options);
  uoi::sim::Cluster::run(3, [&](uoi::sim::Comm& comm) {
    const std::size_t n = data.x.rows();
    const std::size_t begin = n * comm.rank() / comm.size();
    const std::size_t end = n * (comm.rank() + 1) / comm.size();
    const auto fit = uoi::solvers::distributed_lasso_admm(
        comm, data.x.row_block(begin, end - begin),
        std::span<const double>(data.y).subspan(begin, end - begin), lambda,
        options);
    EXPECT_LT(uoi::linalg::max_abs_diff(fit.beta, serial.beta), 2e-3)
        << "seed " << GetParam();
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialDistributedSweep,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---- misc typed-collective coverage ----

TEST(FailureInjection, ByteBcastWorks) {
  uoi::sim::Cluster::run(3, [&](uoi::sim::Comm& comm) {
    std::vector<std::uint8_t> bytes(5, comm.rank() == 1 ? 0xAB : 0x00);
    comm.bcast(bytes, 1);
    for (const auto b : bytes) EXPECT_EQ(b, 0xAB);
  });
}

// ---- checkpoint durability ----

TEST(FailureInjection, ZeroByteCheckpointReturnsNullopt) {
  const auto path =
      (std::filesystem::temp_directory_path() / "uoi_zero_ckpt.txt").string();
  {
    std::ofstream f(path, std::ios::trunc);
  }
  // A crash that left an empty file must read as "no checkpoint", never
  // throw: the run restarts from scratch.
  EXPECT_FALSE(uoi::core::try_load_checkpoint(path, 1234).has_value());
  std::filesystem::remove(path);
}

TEST(FailureInjection, CheckpointDoneSectionRoundTrips) {
  const auto path =
      (std::filesystem::temp_directory_path() / "uoi_done_ckpt.txt").string();
  uoi::core::SelectionCheckpoint ckpt;
  ckpt.fingerprint = 42;
  ckpt.lambdas = {1.0, 0.5};
  ckpt.counts = Matrix(2, 3, 0.0);
  ckpt.counts(0, 1) = 3.0;
  ckpt.counts(1, 2) = 1.0;
  // Scattered completion map: bootstrap 0 fully done, 1 half done, 2 not.
  ckpt.done = Matrix(3, 2, 0.0);
  ckpt.done(0, 0) = 1.0;
  ckpt.done(0, 1) = 1.0;
  ckpt.done(1, 0) = 1.0;
  EXPECT_EQ(ckpt.completed_prefix(), 1u);
  ckpt.completed_bootstraps = ckpt.completed_prefix();
  uoi::core::save_checkpoint(path, ckpt);

  const auto restored = uoi::core::try_load_checkpoint(path, 42);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->completed_bootstraps, 1u);
  EXPECT_EQ(restored->lambdas, ckpt.lambdas);
  EXPECT_EQ(uoi::linalg::max_abs_diff(restored->counts, ckpt.counts), 0.0);
  EXPECT_EQ(uoi::linalg::max_abs_diff(restored->done, ckpt.done), 0.0);
  // A foreign fingerprint is ignored, not an error.
  EXPECT_FALSE(uoi::core::try_load_checkpoint(path, 43).has_value());
  std::filesystem::remove(path);
}

}  // namespace

// ---- fault injection: the simcluster runtime ----

namespace fault_injection_tests {

using uoi::linalg::Matrix;
using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::FaultPlan;
using uoi::sim::RankFailedError;
using uoi::sim::ReduceOp;
using uoi::sim::TransientCommError;
using uoi::sim::Window;

std::shared_ptr<const FaultPlan> kill_plan(int rank, std::uint64_t at) {
  auto plan = std::make_shared<FaultPlan>();
  plan->kills.push_back({rank, at});
  return plan;
}

TEST(FaultInjection, KillDetectShrinkResume) {
  const auto plan = kill_plan(2, 3);
  const auto reports = Cluster::run_collect_reports(4, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    bool detected = false;
    try {
      for (int i = 0; i < 10; ++i) {
        double sum = 1.0;
        comm.allreduce(std::span<double>(&sum, 1), ReduceOp::kSum);
      }
    } catch (const RankFailedError&) {
      detected = true;
    }
    // Only survivors reach this point; the victim unwound above.
    ASSERT_TRUE(detected);
    EXPECT_FALSE(comm.is_alive(2));
    EXPECT_EQ(comm.alive_size(), 3);
    Comm shrunk = comm.shrink();
    EXPECT_EQ(shrunk.size(), 3);
    EXPECT_EQ(shrunk.global_rank(), comm.rank());  // old-rank order
    double sum = 1.0;
    shrunk.allreduce(std::span<double>(&sum, 1), ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, 3.0);
  });
  for (const int r : {0, 1, 3}) {
    EXPECT_GE(reports[r].recovery.rank_failures_detected, 1u) << "rank " << r;
    EXPECT_EQ(reports[r].recovery.shrinks, 1u) << "rank " << r;
  }
}

TEST(FaultInjection, DeadRankRaisesOnOneSidedAndRecv) {
  const auto plan = kill_plan(0, 3);
  Cluster::run(2, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    std::vector<double> buffer(2, comm.rank() + 1.0);
    Window window(comm, buffer);
    bool detected = false;
    try {
      window.fence();
      for (int i = 0; i < 8; ++i) comm.barrier();
    } catch (const RankFailedError&) {
      detected = true;
    }
    ASSERT_TRUE(detected);
    std::vector<double> out(2, 0.0);
    EXPECT_THROW(window.get(0, 0, std::span<double>(out)), RankFailedError);
    double x = 0.0;
    EXPECT_THROW(comm.recv(0, std::span<double>(&x, 1)), RankFailedError);
  });
}

TEST(FaultInjection, TransientWindowFaultIsRetriedAndConverges) {
  auto plan = std::make_shared<FaultPlan>();
  plan->onesided.push_back({/*rank=*/1, /*at_op=*/0, /*count=*/2,
                            FaultPlan::OneSidedKind::kTransient, 0.0});
  const auto reports = Cluster::run_collect_reports(2, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    std::vector<double> buffer(4, comm.rank() == 0 ? 7.0 : 0.0);
    Window window(comm, buffer);
    window.fence();
    if (comm.rank() == 1) {
      std::vector<double> out(4, 0.0);
      uoi::sim::retry_onesided(comm, {}, [&] {
        window.get(0, 0, std::span<double>(out));
      });
      for (const double v : out) EXPECT_DOUBLE_EQ(v, 7.0);
    }
    window.fence();
  });
  EXPECT_EQ(reports[1].recovery.transient_faults, 2u);
  EXPECT_EQ(reports[1].recovery.retries, 2u);
  EXPECT_EQ(reports[1].recovery.giveups, 0u);
  EXPECT_GT(reports[1].recovery.backoff_seconds, 0.0);
}

TEST(FaultInjection, RetryBudgetExhaustionRaisesClearError) {
  auto plan = std::make_shared<FaultPlan>();
  plan->onesided.push_back({/*rank=*/1, /*at_op=*/0, /*count=*/10,
                            FaultPlan::OneSidedKind::kTransient, 0.0});
  const auto reports = Cluster::run_collect_reports(2, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    std::vector<double> buffer(4, 1.0);
    Window window(comm, buffer);
    window.fence();
    if (comm.rank() == 1) {
      std::vector<double> out(4, 0.0);
      bool exhausted = false;
      try {
        uoi::sim::retry_onesided(comm, {}, [&] {
          window.get(0, 0, std::span<double>(out));
        });
      } catch (const TransientCommError& error) {
        exhausted = true;
        EXPECT_NE(std::string(error.what()).find("retry budget exhausted"),
                  std::string::npos)
            << error.what();
      }
      EXPECT_TRUE(exhausted);
    }
    window.fence();
  });
  EXPECT_EQ(reports[1].recovery.giveups, 1u);
  EXPECT_EQ(reports[1].recovery.retries, 3u);  // 4 attempts = 3 retries
}

TEST(FaultInjection, CorruptionFlipsOnePayloadBit) {
  auto plan = std::make_shared<FaultPlan>();
  plan->onesided.push_back({/*rank=*/1, /*at_op=*/0, /*count=*/1,
                            FaultPlan::OneSidedKind::kCorrupt, 0.0});
  Cluster::run(2, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    std::vector<double> buffer(3, comm.rank() == 0 ? 7.0 : 0.0);
    Window window(comm, buffer);
    window.fence();
    if (comm.rank() == 1) {
      std::vector<double> out(3, 0.0);
      window.get(0, 0, std::span<double>(out));
      EXPECT_NE(out[0], 7.0);  // first element corrupted...
      EXPECT_TRUE(std::isfinite(out[0]));
      EXPECT_DOUBLE_EQ(out[1], 7.0);  // ...the rest intact
      EXPECT_DOUBLE_EQ(out[2], 7.0);
      window.get(0, 0, std::span<double>(out));  // next op is clean
      EXPECT_DOUBLE_EQ(out[0], 7.0);
    }
    window.fence();
  });
}

TEST(FaultInjection, DelayFaultConsumesWallTime) {
  auto plan = std::make_shared<FaultPlan>();
  plan->onesided.push_back({/*rank=*/1, /*at_op=*/0, /*count=*/1,
                            FaultPlan::OneSidedKind::kDelay, 0.005});
  Cluster::run(2, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    std::vector<double> buffer(2, 1.0);
    Window window(comm, buffer);
    window.fence();
    if (comm.rank() == 1) {
      std::vector<double> out(2, 0.0);
      uoi::support::Stopwatch watch;
      window.get(0, 0, std::span<double>(out));
      EXPECT_GE(watch.seconds(), 0.005);
    }
    window.fence();
  });
}

TEST(FaultInjection, ReshuffleAbsorbsRandomTransients) {
  const std::size_t n = 40;
  const std::size_t cols = 3;
  uoi::support::Xoshiro256 rng(77);
  Matrix data(n, cols);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < cols; ++c) data(r, c) = rng.normal();
  }
  const auto make_held = [&](const Comm& comm) {
    const std::size_t begin = n * static_cast<std::size_t>(comm.rank()) / 4;
    const std::size_t end =
        n * (static_cast<std::size_t>(comm.rank()) + 1) / 4;
    uoi::io::LocalRows held;
    held.rows = Matrix::from_view(data.row_block(begin, end - begin));
    for (std::size_t g = begin; g < end; ++g) held.global_indices.push_back(g);
    return held;
  };

  std::vector<uoi::io::LocalRows> clean(4);
  Cluster::run(4, [&](Comm& comm) {
    clean[comm.rank()] = uoi::io::reshuffle(comm, make_held(comm), n, 5);
  });

  const auto plan = std::make_shared<FaultPlan>(
      FaultPlan::random_transients(/*seed=*/99, /*n_ranks=*/4, /*max_op=*/10,
                                   /*n_faults=*/5));
  const auto reports = Cluster::run_collect_reports(4, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    const auto shuffled = uoi::io::reshuffle(comm, make_held(comm), n, 5);
    EXPECT_EQ(uoi::linalg::max_abs_diff(shuffled.rows,
                                        clean[comm.rank()].rows),
              0.0);
    EXPECT_EQ(shuffled.global_indices, clean[comm.rank()].global_indices);
  });
  std::uint64_t faults = 0;
  std::uint64_t retries = 0;
  std::uint64_t giveups = 0;
  for (const auto& report : reports) {
    faults += report.recovery.transient_faults;
    retries += report.recovery.retries;
    giveups += report.recovery.giveups;
  }
  EXPECT_GE(faults, 1u);
  EXPECT_GE(retries, 1u);
  EXPECT_EQ(giveups, 0u);
}

}  // namespace fault_injection_tests

// ---- fail-recoverable UoI drivers ----

namespace fault_recovery_tests {

using fault_injection_tests::kill_plan;
using uoi::linalg::Matrix;
using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::FaultPlan;
using uoi::sim::RankFailedError;

/// Collectives a rank entered, from its folded CommStats: used to place a
/// kill mid-run as a fraction of the fault-free total.
std::uint64_t collective_calls(const uoi::sim::CommStats& stats) {
  std::uint64_t total = 0;
  for (int c = 0; c < static_cast<int>(uoi::sim::CommCategory::kPointToPoint);
       ++c) {
    total += stats.entries[static_cast<std::size_t>(c)].calls;
  }
  return total;
}

uoi::core::UoiLassoOptions lasso_options() {
  uoi::core::UoiLassoOptions options;
  // Every FaultRecovery test below positions its kill by counting a clean
  // run's collective calls, which is only reproducible under a
  // deterministic schedule — work stealing makes the collective sequence
  // timing-dependent. Pin the policy so the suite is independent of
  // UOI_SCHED_POLICY.
  options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
  options.n_selection_bootstraps = 5;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 5;
  options.seed = 909;
  options.admm.eps_abs = 1e-8;
  options.admm.eps_rel = 1e-6;
  options.admm.max_iterations = 5000;
  return options;
}

uoi::data::RegressionDataset lasso_data() {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 80;
  spec.n_features = 16;
  spec.support_size = 4;
  spec.noise_stddev = 0.3;
  spec.seed = 44;
  return uoi::data::make_regression(spec);
}

struct LassoRun {
  std::vector<uoi::core::UoiLassoDistributedResult> results;  // index == rank
  std::vector<uoi::sim::RankReport> reports;
};

LassoRun run_lasso(int ranks, const uoi::data::RegressionDataset& data,
                   const uoi::core::UoiLassoOptions& options,
                   const uoi::core::UoiParallelLayout& layout,
                   std::shared_ptr<const FaultPlan> plan) {
  LassoRun run;
  run.results.resize(static_cast<std::size_t>(ranks));
  run.reports = Cluster::run_collect_reports(ranks, [&](Comm& comm) {
    if (plan != nullptr) comm.set_fault_plan(plan);
    run.results[static_cast<std::size_t>(comm.rank())] =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options,
                                         layout);
  });
  return run;
}

void expect_same_model(const uoi::core::UoiLassoDistributedResult& actual,
                       const uoi::core::UoiLassoDistributedResult& expected,
                       bool bit_identical_counts) {
  if (bit_identical_counts) {
    EXPECT_EQ(uoi::linalg::max_abs_diff(actual.selection_counts,
                                        expected.selection_counts),
              0.0);
  }
  ASSERT_EQ(actual.model.candidate_supports.size(),
            expected.model.candidate_supports.size());
  for (std::size_t j = 0; j < expected.model.candidate_supports.size(); ++j) {
    EXPECT_EQ(actual.model.candidate_supports[j],
              expected.model.candidate_supports[j])
        << "candidate support mismatch at lambda index " << j;
  }
  EXPECT_EQ(actual.model.support, expected.model.support);
}

/// Selection cells the survivors of a faulty run redid, summed over ranks:
/// zero when a kill fell outside selection.
std::uint64_t cells_recovered(
    const std::vector<uoi::sim::RankReport>& reports) {
  std::uint64_t recovered = 0;
  for (const auto& report : reports) {
    recovered += report.recovery.cells_recovered;
  }
  return recovered;
}

/// The path the distributed lasso driver picks for `data` under `layout`.
uoi::sched::LinearPath lasso_path(int ranks,
                                  const uoi::data::RegressionDataset& data,
                                  const uoi::core::UoiParallelLayout& layout) {
  uoi::sched::LinearPath path = uoi::sched::LinearPath::kConsensus;
  Cluster::run(ranks, [&](Comm& comm) {
    const auto mine =
        uoi::core::detail::linear_family_path(comm, data.x, layout);
    if (comm.rank() == 0) path = mine;
  });
  return path;
}

/// On the Gram path a rank's collective schedule opens with the
/// task-group split (#0) and then its selection bootstraps' Gram
/// reductions (#1 is the first); the selection merge follows the last.
/// A kill at #1 lands inside selection, before the rank's cells commit.
constexpr std::uint64_t kFirstSelectionGramReduction = 1;

/// Kills rank 2 of 5 under `layout` at `kill_at`, a position in its clean
/// collective schedule, and checks that every survivor shrinks, redoes the
/// lost selection cells and lands on the clean model.
template <class KillAt>
void expect_lasso_kill_mid_selection_is_bit_identical(
    const uoi::data::RegressionDataset& data, uoi::sched::LinearPath path,
    const uoi::core::UoiParallelLayout& layout, const KillAt& kill_at) {
  const auto options = lasso_options();
  ASSERT_EQ(lasso_path(5, data, layout), path);

  const auto clean = run_lasso(5, data, options, layout, nullptr);
  const auto faulty = run_lasso(
      5, data, options, layout,
      kill_plan(2, kill_at(collective_calls(clean.reports[2].comm))));

  for (const int r : {0, 1, 3, 4}) {
    const auto& result = faulty.results[static_cast<std::size_t>(r)];
    expect_same_model(result, clean.results[0], /*bit_identical_counts=*/true);
    EXPECT_GE(faulty.reports[static_cast<std::size_t>(r)]
                  .recovery.rank_failures_detected,
              1u)
        << "rank " << r;
    EXPECT_GE(faulty.reports[static_cast<std::size_t>(r)].recovery.shrinks, 1u)
        << "rank " << r;
  }
  // At least one survivor accounted for redistributed selection cells.
  EXPECT_GE(cells_recovered(faulty.reports), 1u);
}

TEST(FaultRecovery, LassoRankKilledMidSelectionIsBitIdentical) {
  expect_lasso_kill_mid_selection_is_bit_identical(
      lasso_data(), uoi::sched::LinearPath::kGram, {5, 1},
      [](std::uint64_t) { return kFirstSelectionGramReduction; });
}

/// Fewer bootstrap rows than features: the path rule picks the consensus
/// side. One-rank groups walk the serial chain there; a wider group runs
/// consensus ADMM, one allreduce per iteration.
uoi::data::RegressionDataset consensus_lasso_data() {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 24;
  spec.n_features = 32;
  spec.support_size = 4;
  spec.noise_stddev = 0.3;
  spec.seed = 44;
  return uoi::data::make_regression(spec);
}

/// One group of five ranks (C = 5) on consensus_lasso_data(): the group
/// walks every selection bootstrap in turn, and selection makes nearly all
/// of the victim's collectives, the first bootstrap's chain alone about a
/// third. A quarter of the clean schedule lands inside that chain's
/// consensus ADMM iterations.
constexpr uoi::core::UoiParallelLayout kOneConsensusGroup{1, 1};
std::uint64_t inside_first_consensus_chain(std::uint64_t clean_calls) {
  return clean_calls / 4;
}

TEST(FaultRecovery, LassoConsensusPathRankKilledMidSelectionIsBitIdentical) {
  expect_lasso_kill_mid_selection_is_bit_identical(
      consensus_lasso_data(), uoi::sched::LinearPath::kConsensus,
      kOneConsensusGroup, inside_first_consensus_chain);
}

/// Bytes of a coefficient vector, for byte-for-byte model comparisons.
std::vector<unsigned char> value_bytes(std::span<const double> values) {
  const auto* data = reinterpret_cast<const unsigned char*>(values.data());
  return {data, data + values.size() * sizeof(double)};
}

/// Runs `fit` (a collective over Comm&) on `ranks` thread ranks and keeps
/// every rank's result, index == rank.
template <class Fit>
auto run_driver(int ranks, std::shared_ptr<const FaultPlan> plan,
                const Fit& fit) {
  using Result = std::invoke_result_t<const Fit&, Comm&>;
  std::vector<Result> results(static_cast<std::size_t>(ranks));
  const auto reports = Cluster::run_collect_reports(ranks, [&](Comm& comm) {
    if (plan != nullptr) comm.set_fault_plan(plan);
    results[static_cast<std::size_t>(comm.rank())] = fit(comm);
  });
  return std::make_pair(std::move(results), reports);
}

/// The lasso kill-mid-selection contract for any driver whose result has
/// `model.candidate_supports` and `model.beta`: kill rank 2 of 5 at
/// `kill_at`, a position in its clean collective schedule inside
/// selection; every survivor shrinks and lands on the clean run's
/// supports and beta, byte for byte, and the survivors redo the lost
/// selection cells.
template <class Fit, class KillAt>
void expect_kill_mid_selection_is_bit_identical(const Fit& fit,
                                                const KillAt& kill_at) {
  const auto [clean, clean_reports] = run_driver(5, nullptr, fit);
  const auto [faulty, faulty_reports] = run_driver(
      5, kill_plan(2, kill_at(collective_calls(clean_reports[2].comm))), fit);
  const auto& expected = clean[0].model;
  for (const int r : {0, 1, 3, 4}) {
    const auto& actual = faulty[static_cast<std::size_t>(r)].model;
    EXPECT_EQ(actual.candidate_supports, expected.candidate_supports)
        << "rank " << r;
    EXPECT_EQ(value_bytes(actual.beta), value_bytes(expected.beta))
        << "rank " << r;
    EXPECT_GE(faulty_reports[static_cast<std::size_t>(r)].recovery.shrinks, 1u)
        << "rank " << r;
  }
  EXPECT_GE(cells_recovered(faulty_reports), 1u);
}

TEST(FaultRecovery, ElasticNetRankKilledMidSelectionIsBitIdentical) {
  const auto data = lasso_data();
  uoi::core::UoiElasticNetOptions options;
  options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
  options.n_selection_bootstraps = 5;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 4;
  options.l1_ratios = {1.0, 0.5};
  options.seed = 909;
  options.admm.eps_abs = 1e-8;
  options.admm.eps_rel = 1e-6;
  options.admm.max_iterations = 5000;
  // The Gram path, as lasso_data() is for the lasso: kill at the
  // victim's one selection Gram reduction.
  expect_kill_mid_selection_is_bit_identical(
      [&](Comm& comm) {
        return uoi::core::uoi_elastic_net_distributed(comm, data.x, data.y,
                                                      options, {5, 1});
      },
      [](std::uint64_t) { return kFirstSelectionGramReduction; });
}

TEST(FaultRecovery, LogisticRankKilledMidSelectionIsBitIdentical) {
  uoi::data::ClassificationSpec spec;
  spec.n_samples = 120;
  spec.n_features = 10;
  spec.support_size = 3;
  spec.seed = 45;
  const auto data = uoi::data::make_classification(spec);
  uoi::core::UoiLogisticOptions options;
  options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
  options.n_selection_bootstraps = 5;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 4;
  options.seed = 909;
  // One group of five ranks: every selection solve is consensus ADMM, one
  // allreduce per iteration, and the solves make over 99% of the victim's
  // collectives. A quarter of the clean schedule lands inside the last
  // (longest) solve of the second bootstrap's chain.
  expect_kill_mid_selection_is_bit_identical(
      [&](Comm& comm) {
        auto fit = uoi::core::uoi_logistic_distributed(comm, data.x, data.y,
                                                       options,
                                                       kOneConsensusGroup);
        // The intercept rides along in beta's bytes.
        fit.model.beta.push_back(fit.model.intercept);
        return fit;
      },
      [](std::uint64_t clean_calls) { return clean_calls / 4; });
}

/// A rank killed mid-selection forces survivors to replay its screened
/// chains from a cold ChainScreenState. The replay must land on the same
/// supports and counts bit-for-bit, and the screened faulty run must also
/// match the clean unscreened run (the screening byte-identity contract
/// extends through shrink-and-replay). `kill_at` maps the strong-mode
/// clean schedule (screening changes collective counts) to the kill.
template <class KillAt>
void expect_screened_replay_is_bit_identical(
    const uoi::data::RegressionDataset& data, uoi::sched::LinearPath path,
    const uoi::core::UoiParallelLayout& layout, const KillAt& kill_at) {
  auto options = lasso_options();
  ASSERT_EQ(lasso_path(5, data, layout), path);

  options.screen.mode = uoi::solvers::ScreenMode::kOff;
  const auto clean_off = run_lasso(5, data, options, layout, nullptr);

  options.screen.mode = uoi::solvers::ScreenMode::kStrong;
  const auto clean_strong = run_lasso(5, data, options, layout, nullptr);
  expect_same_model(clean_strong.results[0], clean_off.results[0],
                    /*bit_identical_counts=*/true);

  const auto faulty = run_lasso(
      5, data, options, layout,
      kill_plan(2, kill_at(collective_calls(clean_strong.reports[2].comm))));
  for (const int r : {0, 1, 3, 4}) {
    const auto& result = faulty.results[static_cast<std::size_t>(r)];
    expect_same_model(result, clean_strong.results[0],
                      /*bit_identical_counts=*/true);
    expect_same_model(result, clean_off.results[0],
                      /*bit_identical_counts=*/true);
    EXPECT_GE(faulty.reports[static_cast<std::size_t>(r)].recovery.shrinks, 1u)
        << "rank " << r;
  }
  EXPECT_GE(cells_recovered(faulty.reports), 1u);
}

TEST(FaultRecovery, KillMidChainReplayIsBitIdenticalWithScreening) {
  // Gram path: the victim dies at its selection Gram reduction, before its
  // local chain runs; the survivors replay that chain.
  expect_screened_replay_is_bit_identical(
      lasso_data(), uoi::sched::LinearPath::kGram, {5, 1},
      [](std::uint64_t) { return kFirstSelectionGramReduction; });
  // Consensus side: the victim dies inside a chain's ADMM iterations.
  expect_screened_replay_is_bit_identical(
      consensus_lasso_data(), uoi::sched::LinearPath::kConsensus,
      kOneConsensusGroup, inside_first_consensus_chain);
}

TEST(FaultRecovery, LassoRecoversAcrossConsensusGroups) {
  const auto data = lasso_data();
  const auto options = lasso_options();
  const uoi::core::UoiParallelLayout layout{2, 1};  // 4 ranks -> C = 2

  // The Gram path: rank 3 dies in its group's first selection Gram
  // reduction, so its partner sees the failure inside that allreduce.
  const auto clean = run_lasso(4, data, options, layout, nullptr);
  const auto faulty = run_lasso(4, data, options, layout,
                                kill_plan(3, kFirstSelectionGramReduction));

  for (const int r : {0, 1, 2}) {
    const auto& result = faulty.results[static_cast<std::size_t>(r)];
    expect_same_model(result, clean.results[0], /*bit_identical_counts=*/true);
    EXPECT_GE(faulty.reports[static_cast<std::size_t>(r)].recovery.shrinks, 1u)
        << "rank " << r;
  }
  EXPECT_GE(cells_recovered(faulty.reports), 1u);
}

TEST(FaultRecovery, ExhaustedRecoveryBudgetPropagates) {
  const auto data = lasso_data();
  auto options = lasso_options();
  options.recovery.max_recovery_attempts = 0;  // no recovery allowed

  const auto clean = run_lasso(4, data, options, {2, 1}, nullptr);
  const auto kill_at = collective_calls(clean.reports[1].comm) / 3;
  const auto plan = kill_plan(1, kill_at);
  EXPECT_THROW(Cluster::run(4,
                            [&](Comm& comm) {
                              comm.set_fault_plan(plan);
                              (void)uoi::core::uoi_lasso_distributed(
                                  comm, data.x, data.y, options, {2, 1});
                            }),
               RankFailedError);
}

TEST(FaultRecovery, TwoFailuresExhaustSingleRecoveryAttempt) {
  const auto data = lasso_data();
  auto options = lasso_options();
  options.recovery.max_recovery_attempts = 1;
  // Per-bootstrap merges bound how long a failure can stay undetected, so
  // the second death always lands after the first recovery completed.
  const auto path = (std::filesystem::temp_directory_path() /
                     "uoi_two_failures_ckpt.txt")
                        .string();
  std::filesystem::remove(path);
  options.recovery.checkpoint_path = path;
  options.recovery.checkpoint_interval = 1;

  const auto clean = run_lasso(4, data, options, {2, 1}, nullptr);
  std::filesystem::remove(path);
  auto plan = std::make_shared<FaultPlan>();
  plan->kills.push_back({1, collective_calls(clean.reports[1].comm) / 4});
  plan->kills.push_back({2, (3 * collective_calls(clean.reports[2].comm)) / 4});
  EXPECT_THROW(Cluster::run(4,
                            [&](Comm& comm) {
                              comm.set_fault_plan(plan);
                              (void)uoi::core::uoi_lasso_distributed(
                                  comm, data.x, data.y, options, {2, 1});
                            }),
               RankFailedError);
  std::filesystem::remove(path);
}

TEST(FaultRecovery, CheckpointCrashRestartResumesAndMatches) {
  const auto data = lasso_data();
  auto options = lasso_options();
  const uoi::core::UoiParallelLayout layout{5, 1};
  const auto path =
      (std::filesystem::temp_directory_path() / "uoi_restart_ckpt.txt")
          .string();
  std::filesystem::remove(path);

  const auto clean = run_lasso(5, data, options, layout, nullptr);

  // Crash run: checkpoint every bootstrap, kill mid-selection, no recovery
  // budget — the job dies, leaving only the checkpoint behind.
  auto crash_options = options;
  crash_options.recovery.checkpoint_path = path;
  crash_options.recovery.checkpoint_interval = 1;
  crash_options.recovery.max_recovery_attempts = 0;
  const auto kill_at = (2 * collective_calls(clean.reports[2].comm)) / 5;
  const auto plan = kill_plan(2, kill_at);
  EXPECT_THROW(
      Cluster::run(5,
                   [&](Comm& comm) {
                     comm.set_fault_plan(plan);
                     (void)uoi::core::uoi_lasso_distributed(
                         comm, data.x, data.y, crash_options, layout);
                   }),
      RankFailedError);
  ASSERT_TRUE(std::filesystem::exists(path));

  // Restart run: same options, no faults. Selection resumes from the
  // checkpoint and the final model matches the fault-free run exactly.
  auto resume_options = options;
  resume_options.recovery.checkpoint_path = path;
  const auto resumed = run_lasso(5, data, resume_options, layout, nullptr);
  for (std::size_t r = 0; r < 5; ++r) {
    expect_same_model(resumed.results[r], clean.results[0],
                      /*bit_identical_counts=*/true);
    EXPECT_GE(resumed.reports[r].recovery.checkpoint_resumes, 1u)
        << "rank " << r;
  }
  std::filesystem::remove(path);
}

TEST(FaultRecovery, CheckpointFromTheOtherPathRestarts) {
  // 40 rows, 32 features: two-rank groups take consensus ADMM (20 rows
  // per rank < p), a one-rank group takes the Gram path. A fit whose
  // groups split the rows folds its path into the checkpoint fingerprint,
  // so neither resumes the other's file.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 40;
  spec.n_features = 32;
  spec.support_size = 4;
  spec.noise_stddev = 0.3;
  spec.seed = 46;
  const auto data = uoi::data::make_regression(spec);
  auto options = lasso_options();
  ASSERT_EQ(lasso_path(2, data, {}),
            uoi::sched::LinearPath::kConsensus);
  ASSERT_EQ(lasso_path(1, data, {}), uoi::sched::LinearPath::kGram);
  const auto path =
      (std::filesystem::temp_directory_path() / "uoi_path_ckpt.txt").string();
  std::filesystem::remove(path);

  const auto fresh_gram = run_lasso(1, data, options, {}, nullptr);
  auto ckpt_options = options;
  ckpt_options.recovery.checkpoint_path = path;
  (void)run_lasso(2, data, ckpt_options, {}, nullptr);
  ASSERT_TRUE(std::filesystem::exists(path));
  // The consensus path resumes its own checkpoint...
  const auto consensus = run_lasso(2, data, ckpt_options, {}, nullptr);
  EXPECT_GE(consensus.reports[0].recovery.checkpoint_resumes, 1u);
  // ...the Gram path restarts from it and matches a fresh Gram fit.
  const auto gram = run_lasso(1, data, ckpt_options, {}, nullptr);
  EXPECT_EQ(gram.reports[0].recovery.checkpoint_resumes, 0u);
  expect_same_model(gram.results[0], fresh_gram.results[0],
                    /*bit_identical_counts=*/true);
  std::filesystem::remove(path);
}

TEST(FaultRecovery, VarCheckpointFromTheOtherSolverRestarts) {
  // A two-rank group sums a Gram and walks per-equation Gram chains, a
  // one-rank group the serial chain. A fit whose groups split the rows
  // folds its path into the checkpoint fingerprint, so neither resumes
  // the other's file.
  uoi::data::VarSpec spec;
  spec.n_nodes = 4;
  spec.edges_per_node = 1.0;
  spec.seed = 64;
  uoi::var::SimulateOptions sim;
  sim.n_samples = 80;
  sim.seed = 65;
  const Matrix series =
      uoi::var::simulate(uoi::data::make_sparse_var(spec), sim);
  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 4;
  options.seed = 66;
  struct VarRun {
    std::vector<uoi::var::UoiVarDistributedResult> results;  // index == rank
    std::vector<uoi::sim::RankReport> reports;
  };
  const auto run_var = [&](int ranks, const uoi::var::UoiVarOptions& o) {
    VarRun run;
    std::vector<std::optional<uoi::var::UoiVarDistributedResult>> results(
        static_cast<std::size_t>(ranks));
    run.reports = Cluster::run_collect_reports(ranks, [&](Comm& comm) {
      results[static_cast<std::size_t>(comm.rank())] =
          uoi::var::uoi_var_distributed(comm, series, o);
    });
    for (auto& r : results) run.results.push_back(std::move(*r));
    return run;
  };
  const auto bytes_equal = [](std::span<const double> a,
                              std::span<const double> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  const auto path =
      (std::filesystem::temp_directory_path() / "uoi_var_solver_ckpt.txt")
          .string();
  std::filesystem::remove(path);

  const auto fresh_serial = run_var(1, options);
  auto ckpt_options = options;
  ckpt_options.recovery.checkpoint_path = path;
  (void)run_var(2, ckpt_options);
  ASSERT_TRUE(std::filesystem::exists(path));
  // The Gram path resumes its own checkpoint...
  const auto gram = run_var(2, ckpt_options);
  EXPECT_GE(gram.reports[0].recovery.checkpoint_resumes, 1u);
  // ...the serial chain restarts from it and matches a fresh serial fit.
  const auto serial = run_var(1, ckpt_options);
  EXPECT_EQ(serial.reports[0].recovery.checkpoint_resumes, 0u);
  const auto& got = serial.results[0];
  const auto& want = fresh_serial.results[0];
  EXPECT_TRUE(bytes_equal(
      {got.selection_counts.data(), got.selection_counts.size()},
      {want.selection_counts.data(), want.selection_counts.size()}));
  EXPECT_TRUE(bytes_equal(got.model.vec_beta, want.model.vec_beta));
  EXPECT_TRUE(bytes_equal(got.model.model.intercept(),
                          want.model.model.intercept()));
  EXPECT_TRUE(bytes_equal(got.model.best_loss_per_bootstrap,
                          want.model.best_loss_per_bootstrap));
  EXPECT_EQ(got.model.candidate_supports, want.model.candidate_supports);
  EXPECT_EQ(got.model.chosen_support_per_bootstrap,
            want.model.chosen_support_per_bootstrap);
  EXPECT_EQ(got.model.total_flops, want.model.total_flops);
  std::filesystem::remove(path);
}

TEST(FaultRecovery, SerialVarCheckpointWithoutSolverTagRestarts) {
  // Serial VAR checkpoints used to carry no solver tag: one-rank groups
  // walked one joint chain over the vectorized problem. They now walk one
  // Gram chain per equation, so a file fingerprinted the old way belongs
  // to another solver and must restart, not resume.
  uoi::data::VarSpec spec;
  spec.n_nodes = 4;
  spec.edges_per_node = 1.0;
  spec.seed = 64;
  uoi::var::SimulateOptions sim;
  sim.n_samples = 80;
  sim.seed = 65;
  const Matrix series =
      uoi::var::simulate(uoi::data::make_sparse_var(spec), sim);
  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 4;
  options.seed = 67;
  options.screen.mode = uoi::solvers::ScreenMode::kStrong;
  const auto path =
      (std::filesystem::temp_directory_path() / "uoi_var_untagged_ckpt.txt")
          .string();
  std::filesystem::remove(path);
  struct SerialRun {
    std::optional<uoi::var::UoiVarResult> model;
    std::uint64_t resumes = 0;
  };
  const auto run_serial = [&](const uoi::var::UoiVarOptions& o) {
    SerialRun run;
    const auto reports = Cluster::run_collect_reports(1, [&](Comm& comm) {
      run.model = uoi::var::uoi_var_distributed(comm, series, o).model;
    });
    run.resumes = reports[0].recovery.checkpoint_resumes;
    return run;
  };

  const auto fresh = run_serial(options);
  auto ckpt_options = options;
  ckpt_options.recovery.checkpoint_path = path;
  (void)run_serial(ckpt_options);
  std::string text;
  {
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  auto ckpt = uoi::core::SelectionCheckpoint::from_text(text);
  // The serial fingerprint as it was before the solver tag.
  uoi::core::FingerprintBuilder untagged;
  untagged.add(static_cast<std::uint64_t>(0x766172ULL))
      .add(options.seed)
      .add(static_cast<std::uint64_t>(options.order))
      .add(static_cast<std::uint64_t>(options.n_selection_bootstraps))
      .add(static_cast<std::uint64_t>(options.block_length))
      .add(static_cast<std::uint64_t>(series.rows()))
      .add(static_cast<std::uint64_t>(series.cols()))
      .add(options.support_tolerance)
      .add(static_cast<std::uint64_t>(options.screen.mode));
  for (const double l : fresh.model->lambdas) untagged.add(l);
  ASSERT_NE(ckpt.fingerprint, untagged.value());
  // The file resumes under its own fingerprint...
  EXPECT_GE(run_serial(ckpt_options).resumes, 1u);
  // ...but stamped the old way, with every count zeroed, it is ignored:
  // the fit starts over and matches a fresh one.
  ckpt.fingerprint = untagged.value();
  ckpt.counts = Matrix(ckpt.counts.rows(), ckpt.counts.cols(), 0.0);
  uoi::core::save_checkpoint(path, ckpt);
  const auto restarted = run_serial(ckpt_options);
  EXPECT_EQ(restarted.resumes, 0u);
  const auto& got = *restarted.model;
  const auto& want = *fresh.model;
  ASSERT_EQ(got.vec_beta.size(), want.vec_beta.size());
  EXPECT_EQ(std::memcmp(got.vec_beta.data(), want.vec_beta.data(),
                        want.vec_beta.size() * sizeof(double)),
            0);
  EXPECT_EQ(got.candidate_supports, want.candidate_supports);
  std::filesystem::remove(path);
}

/// Kills rank 3 of 4 under layout {2, 1} (two groups of C = 2) at
/// `kill_at`, a position in its clean collective schedule, and checks
/// that every survivor shrinks, redoes the lost selection cells and lands
/// on the clean fit's selection counts and supports. `also_check(got,
/// want)`, when given, sees each survivor's fit beside the clean one.
template <class KillAt>
void expect_var_kill_mid_selection_matches_fault_free(
    const Matrix& series, uoi::var::UoiVarOptions options,
    uoi::sched::LinearPath path, const KillAt& kill_at,
    const std::function<void(const uoi::var::UoiVarDistributedResult&,
                             const uoi::var::UoiVarDistributedResult&)>&
        also_check = {}) {
  constexpr int kRanks = 4;
  constexpr uoi::core::UoiParallelLayout kLayout{2, 1};
  // Deterministic schedule for the same reason as lasso_options(): the
  // kill point counts a clean run's collectives.
  options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
  Cluster::run(kRanks, [&](Comm& comm) {
    EXPECT_EQ(uoi::var::detail::var_linear_path(comm, series, options,
                                                kLayout),
              path);
  });

  std::vector<std::optional<uoi::var::UoiVarDistributedResult>> clean_results(
      kRanks);
  const auto clean_reports =
      Cluster::run_collect_reports(kRanks, [&](Comm& comm) {
        clean_results[static_cast<std::size_t>(comm.rank())] =
            uoi::var::uoi_var_distributed(comm, series, options, kLayout, 2);
      });

  const auto plan = kill_plan(3, kill_at(collective_calls(
                                     clean_reports[3].comm)));
  std::vector<std::optional<uoi::var::UoiVarDistributedResult>> faulty_results(
      kRanks);
  const auto faulty_reports =
      Cluster::run_collect_reports(kRanks, [&](Comm& comm) {
        comm.set_fault_plan(plan);
        faulty_results[static_cast<std::size_t>(comm.rank())] =
            uoi::var::uoi_var_distributed(comm, series, options, kLayout, 2);
      });

  for (const int r : {0, 1, 2}) {
    ASSERT_TRUE(faulty_results[static_cast<std::size_t>(r)].has_value());
    const auto& result = *faulty_results[static_cast<std::size_t>(r)];
    const auto& reference = *clean_results[0];
    EXPECT_EQ(uoi::linalg::max_abs_diff(result.selection_counts,
                                        reference.selection_counts),
              0.0);
    ASSERT_EQ(result.model.candidate_supports.size(),
              reference.model.candidate_supports.size());
    for (std::size_t j = 0; j < reference.model.candidate_supports.size();
         ++j) {
      EXPECT_EQ(result.model.candidate_supports[j],
                reference.model.candidate_supports[j])
          << "candidate support mismatch at lambda index " << j;
    }
    EXPECT_EQ(result.model.support, reference.model.support);
    EXPECT_GE(faulty_reports[static_cast<std::size_t>(r)].recovery.shrinks, 1u)
        << "rank " << r;
  }
  // The kill fell inside selection: survivors redid the victim's cells.
  EXPECT_GE(cells_recovered(faulty_reports), 1u);
  if (also_check) {
    for (const int r : {0, 1, 2}) {
      also_check(*faulty_results[static_cast<std::size_t>(r)],
                 *clean_results[0]);
    }
  }
}

uoi::var::UoiVarOptions var_fault_options() {
  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 4;
  options.seed = 63;
  options.admm.eps_abs = 1e-8;
  options.admm.eps_rel = 1e-6;
  options.admm.max_iterations = 5000;
  return options;
}

/// 4 nodes, 99 lag rows: d = 1 fits a rank's 49 rows, so groups of two
/// sum a Gram. As on the lasso Gram path, #0 is the task-group split and
/// #1 the victim's first selection Gram reduction.
TEST(FaultRecovery, VarRankKilledMidSelectionMatchesFaultFree) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 4;
  spec.edges_per_node = 1.0;
  spec.seed = 61;
  uoi::var::SimulateOptions sim;
  sim.n_samples = 100;
  sim.seed = 62;
  const Matrix series =
      uoi::var::simulate(uoi::data::make_sparse_var(spec), sim);
  expect_var_kill_mid_selection_matches_fault_free(
      series, var_fault_options(), uoi::sched::LinearPath::kGram,
      [](std::uint64_t) { return kFirstSelectionGramReduction; });
}

/// The same series with the victim killed one collective later: #2 is its
/// first beta-assembly allreduce, the collective right after its group's
/// lane-batched walk of the per-equation Gram chains. The survivors redo
/// the lost cells and land on the fault-free model, byte for byte.
TEST(FaultRecovery, VarRankKilledAtBetaAssemblyMatchesFaultFree) {
  constexpr std::uint64_t kFirstSelectionBetaAssembly = 2;
  uoi::data::VarSpec spec;
  spec.n_nodes = 4;
  spec.edges_per_node = 1.0;
  spec.seed = 61;
  uoi::var::SimulateOptions sim;
  sim.n_samples = 100;
  sim.seed = 62;
  const Matrix series =
      uoi::var::simulate(uoi::data::make_sparse_var(spec), sim);
  const auto bytes_equal = [](std::span<const double> a,
                              std::span<const double> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  expect_var_kill_mid_selection_matches_fault_free(
      series, var_fault_options(), uoi::sched::LinearPath::kGram,
      [](std::uint64_t) { return kFirstSelectionBetaAssembly; },
      [&](const uoi::var::UoiVarDistributedResult& got,
          const uoi::var::UoiVarDistributedResult& want) {
        EXPECT_TRUE(bytes_equal(
            {got.selection_counts.data(), got.selection_counts.size()},
            {want.selection_counts.data(), want.selection_counts.size()}));
        EXPECT_TRUE(bytes_equal(got.model.vec_beta, want.model.vec_beta));
        EXPECT_TRUE(bytes_equal(got.model.model.intercept(),
                                want.model.model.intercept()));
      });
}

/// 6 nodes at order 4, 7 lag rows: d = 4 exceeds a rank's 3 rows, so
/// groups of two run the Kron+vec consensus solver, and selection's
/// per-iteration allreduces make nearly all of the victim's collectives:
/// a quarter of the clean schedule lands inside selection.
TEST(FaultRecovery, VarKronPathRankKilledMidSelectionMatchesFaultFree) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.order = 4;
  spec.edges_per_node = 1.0;
  spec.seed = 67;
  uoi::var::SimulateOptions sim;
  sim.n_samples = 11;
  sim.seed = 68;
  const Matrix series =
      uoi::var::simulate(uoi::data::make_sparse_var(spec), sim);
  auto options = var_fault_options();
  options.order = 4;
  expect_var_kill_mid_selection_matches_fault_free(
      series, options, uoi::sched::LinearPath::kConsensus,
      [](std::uint64_t clean_calls) { return clean_calls / 4; });
}

}  // namespace fault_recovery_tests
