// Hang/stall failure detection: the progress-heartbeat watchdog
// (suspect -> confirm -> agreed-failed), slow-but-alive false-positive
// boundaries, CRC-guarded one-sided payloads, jittered retry backoff, and
// quorum-degraded driver completion.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "linalg/matrix.hpp"
#include "report/run_report.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/window.hpp"
#include "support/crc32.hpp"
#include "var/var_distributed.hpp"

namespace {

using uoi::linalg::Matrix;
using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::FaultPlan;
using uoi::sim::RankFailedError;
using uoi::sim::ReduceOp;
using uoi::sim::RetryOptions;
using uoi::sim::WatchdogConfig;
using uoi::sim::Window;

// Arm the one-sided CRC guard for this whole binary. The gate caches its
// env read at the first window operation, so it must be set before any
// test runs; a process-wide guard is harmless for the non-CRC tests (it
// only adds a checksum pass over clean payloads).
const bool kCrcArmed = [] {
  ::setenv("UOI_ONESIDED_CRC", "1", 1);
  return true;
}();

std::uint64_t total_hangs(const std::vector<uoi::sim::RankReport>& reports) {
  std::uint64_t hangs = 0;
  for (const auto& r : reports) hangs += r.recovery.hangs_detected;
  return hangs;
}

std::uint64_t total_cleared(const std::vector<uoi::sim::RankReport>& reports) {
  std::uint64_t cleared = 0;
  for (const auto& r : reports) cleared += r.recovery.suspects_cleared;
  return cleared;
}

// ---- watchdog on the raw runtime ----

TEST(Watchdog, HangDetectShrinkResumeEightRanks) {
  auto plan = std::make_shared<FaultPlan>();
  plan->hangs.push_back({/*rank=*/5, /*at_collective=*/4});
  const auto reports = Cluster::run_collect_reports(8, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    comm.set_watchdog({/*timeout_ms=*/200});
    bool detected = false;
    try {
      for (int i = 0; i < 10; ++i) {
        double sum = 1.0;
        comm.allreduce(std::span<double>(&sum, 1), ReduceOp::kSum);
      }
    } catch (const RankFailedError&) {
      detected = true;
    }
    // Only survivors get here: the hung rank parks until its death is
    // certified and unwinds as a planned kill.
    ASSERT_TRUE(detected);
    EXPECT_FALSE(comm.is_alive(5));
    Comm shrunk = comm.shrink();
    EXPECT_EQ(shrunk.size(), 7);
    double sum = 1.0;
    shrunk.allreduce(std::span<double>(&sum, 1), ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, 7.0);
  });
  // The claim CAS guarantees exactly one waiter accounts the detection.
  EXPECT_EQ(total_hangs(reports), 1u);
  double detect_seconds = 0.0;
  for (const auto& r : reports) {
    detect_seconds = std::max(detect_seconds, r.recovery.detect_seconds);
  }
  EXPECT_GT(detect_seconds, 0.0);
  EXPECT_LT(detect_seconds, 5.0);  // well within the ctest timeout
}

TEST(Watchdog, DisarmedWatchdogIgnoresDeadline) {
  // Without set_watchdog and without $UOI_COMM_TIMEOUT_MS the barrier is
  // the seed's plain wait: a slow rank is simply waited out.
  auto plan = std::make_shared<FaultPlan>();
  plan->slows.push_back({/*rank=*/1, /*at_collective=*/2,
                         /*stall_seconds=*/0.05});
  const auto reports = Cluster::run_collect_reports(3, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    for (int i = 0; i < 4; ++i) {
      double sum = 1.0;
      comm.allreduce(std::span<double>(&sum, 1), ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(sum, 3.0);
    }
  });
  EXPECT_EQ(total_hangs(reports), 0u);
  EXPECT_EQ(total_cleared(reports), 0u);
}

TEST(Watchdog, HeartbeatSuppressesFalsePositive) {
  // Rank 0 computes for ~3x the watchdog timeout while the other ranks
  // wait in an armed barrier; explicit heartbeats keep its progress epoch
  // moving so no waiter can ever confirm a suspicion.
  const auto reports = Cluster::run_collect_reports(4, [&](Comm& comm) {
    comm.set_watchdog({/*timeout_ms=*/150});
    comm.barrier();
    if (comm.rank() == 0) {
      for (int i = 0; i < 18; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        comm.heartbeat();
      }
    }
    double sum = 1.0;
    comm.allreduce(std::span<double>(&sum, 1), ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, 4.0);
  });
  EXPECT_EQ(total_hangs(reports), 0u);
}

TEST(Watchdog, SlowRankBelowTimeoutIsNotKilled) {
  // Stall = half the timeout: the stalled rank always arrives before any
  // waiter reaches its confirmation deadline, so the run completes with
  // zero detections — the false-positive boundary the ISSUE pins down.
  auto plan = std::make_shared<FaultPlan>();
  plan->slows.push_back({/*rank=*/2, /*at_collective=*/3,
                         /*stall_seconds=*/0.15});
  const auto reports = Cluster::run_collect_reports(4, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    comm.set_watchdog({/*timeout_ms=*/300});
    for (int i = 0; i < 6; ++i) {
      double sum = 1.0;
      comm.allreduce(std::span<double>(&sum, 1), ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(sum, 4.0);
    }
  });
  EXPECT_EQ(total_hangs(reports), 0u);
}

TEST(Watchdog, SlowRankBeyondTimeoutIsDetectedAndRecovered) {
  // Stall = ~2.7x the timeout: the stall is indistinguishable from a hang
  // until it ends, so the waiters deterministically confirm the death at
  // ~1x timeout and the stalled rank unwinds when it notices.
  auto plan = std::make_shared<FaultPlan>();
  plan->slows.push_back({/*rank=*/2, /*at_collective=*/3,
                         /*stall_seconds=*/0.4});
  const auto reports = Cluster::run_collect_reports(4, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    comm.set_watchdog({/*timeout_ms=*/150});
    bool detected = false;
    try {
      for (int i = 0; i < 8; ++i) {
        double sum = 1.0;
        comm.allreduce(std::span<double>(&sum, 1), ReduceOp::kSum);
      }
    } catch (const RankFailedError&) {
      detected = true;
    }
    ASSERT_TRUE(detected);
    EXPECT_FALSE(comm.is_alive(2));
    Comm shrunk = comm.shrink();
    double sum = 1.0;
    shrunk.allreduce(std::span<double>(&sum, 1), ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, 3.0);
  });
  EXPECT_EQ(total_hangs(reports), 1u);
}

TEST(Watchdog, RecvDeadlineDetectsHungSender) {
  // The sender hangs at its second collective, before it ever sends; the
  // receiver's deadline-bounded recv must detect the frozen progress
  // epoch rather than block forever.
  auto plan = std::make_shared<FaultPlan>();
  plan->hangs.push_back({/*rank=*/0, /*at_collective=*/1});
  const auto reports = Cluster::run_collect_reports(2, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    comm.set_watchdog({/*timeout_ms=*/150});
    comm.barrier();
    if (comm.rank() == 0) {
      comm.barrier();  // hangs here (collective #1); never reaches send
      double payload = 7.0;
      comm.send(1, std::span<const double>(&payload, 1));
    } else {
      double payload = 0.0;
      EXPECT_THROW(comm.recv(0, std::span<double>(&payload, 1)),
                   RankFailedError);
      EXPECT_FALSE(comm.is_alive(0));
    }
  });
  EXPECT_GE(total_hangs(reports), 1u);
}

TEST(Watchdog, StatsAndConfigSurviveShrink) {
  // Regression: RecoveryStats accrued before a shrink must stay on the
  // parent handle, the shrunk child must inherit the watchdog config, and
  // the child's own stats must start clean.
  auto plan = std::make_shared<FaultPlan>();
  plan->onesided.push_back({/*rank=*/0, /*at_op=*/0, /*count=*/1,
                            FaultPlan::OneSidedKind::kTransient, 0.0});
  plan->kills.push_back({/*rank=*/2, /*at_collective=*/6});
  Cluster::run(4, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    comm.set_watchdog({/*timeout_ms=*/250});
    std::vector<double> buffer(2, 1.0);
    Window window(comm, buffer);
    window.fence();
    if (comm.rank() == 0) {
      std::vector<double> out(2, 0.0);
      uoi::sim::retry_onesided(comm, {}, [&] {
        window.get(1, 0, std::span<double>(out));
      });
    }
    bool detected = false;
    try {
      for (int i = 0; i < 8; ++i) comm.barrier();
    } catch (const RankFailedError&) {
      detected = true;
    }
    ASSERT_TRUE(detected);
    Comm shrunk = comm.shrink();
    EXPECT_EQ(shrunk.watchdog().timeout_ms, 250);
    EXPECT_EQ(comm.recovery_stats().shrinks, 1u);
    EXPECT_EQ(shrunk.recovery_stats().shrinks, 0u);
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.recovery_stats().transient_faults, 1u);
      EXPECT_EQ(comm.recovery_stats().retries, 1u);
    }
  });
}

// ---- CRC payload guard ----

TEST(Crc, KnownVector) {
  const char data[] = "123456789";
  EXPECT_EQ(uoi::support::crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(uoi::support::crc32(data, 0), 0u);
  // Incremental chaining: crc(a ++ b) == crc(b, seed=crc(a)).
  const auto head = uoi::support::crc32(data, 4);
  EXPECT_EQ(uoi::support::crc32(data + 4, 5, head),
            uoi::support::crc32(data, 9));
}

TEST(Crc, CorruptedGetSurfacesAsRetryableAndRetriesClean) {
  auto plan = std::make_shared<FaultPlan>();
  plan->onesided.push_back({/*rank=*/1, /*at_op=*/0, /*count=*/1,
                            FaultPlan::OneSidedKind::kCorrupt, 0.0});
  const auto reports = Cluster::run_collect_reports(2, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    std::vector<double> buffer(3, comm.rank() == 0 ? 7.0 : 0.0);
    Window window(comm, buffer);
    window.fence();
    if (comm.rank() == 1) {
      std::vector<double> out(3, 0.0);
      // Without the CRC guard the corruption lands silently (see
      // robustness_test's CorruptionFlipsOnePayloadBit); with it the get
      // throws TransientCommError and the retry re-reads clean bytes.
      uoi::sim::retry_onesided(comm, {}, [&] {
        window.get(0, 0, std::span<double>(out));
      });
      for (const double v : out) EXPECT_DOUBLE_EQ(v, 7.0);
    }
    window.fence();
  });
  EXPECT_EQ(reports[1].recovery.crc_detected, 1u);
  EXPECT_EQ(reports[1].recovery.transient_faults, 1u);
  EXPECT_EQ(reports[1].recovery.retries, 1u);
  EXPECT_EQ(reports[1].recovery.giveups, 0u);
}

TEST(Crc, CorruptedPutSurfacesAsRetryableAndRetriesClean) {
  auto plan = std::make_shared<FaultPlan>();
  plan->onesided.push_back({/*rank=*/1, /*at_op=*/0, /*count=*/1,
                            FaultPlan::OneSidedKind::kCorrupt, 0.0});
  const auto reports = Cluster::run_collect_reports(2, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    std::vector<double> buffer(3, 0.0);
    Window window(comm, buffer);
    window.fence();
    if (comm.rank() == 1) {
      const std::vector<double> in(3, 9.0);
      uoi::sim::retry_onesided(comm, {}, [&] {
        window.put(0, 0, std::span<const double>(in));
      });
    }
    window.fence();
    if (comm.rank() == 0) {
      for (const double v : window.local()) EXPECT_DOUBLE_EQ(v, 9.0);
    }
    window.fence();
  });
  EXPECT_EQ(reports[1].recovery.crc_detected, 1u);
  EXPECT_EQ(reports[1].recovery.retries, 1u);
}

// ---- jittered retry backoff ----

TEST(Jitter, DecorrelatedDrawIsDeterministicAndBounded) {
  const double base = 50e-6;
  std::uint64_t state_a = 0x6a177e5ULL | 1ULL;
  std::uint64_t state_b = 0x6a177e5ULL | 1ULL;
  double previous = base;
  for (int i = 0; i < 100; ++i) {
    const double a =
        uoi::sim::detail::decorrelated_jitter(base, previous, state_a);
    const double b =
        uoi::sim::detail::decorrelated_jitter(base, previous, state_b);
    EXPECT_EQ(a, b);  // same seed, same stream
    EXPECT_GE(a, base);
    EXPECT_LE(a, std::max(base, 3.0 * previous));
    previous = a;
  }
  // A different seed must give a different stream.
  std::uint64_t state_c = 0x12345ULL | 1ULL;
  EXPECT_NE(uoi::sim::detail::decorrelated_jitter(base, base, state_c),
            uoi::sim::detail::decorrelated_jitter(base, base, state_a));
}

TEST(Jitter, RetryCountsJitteredBackoffsAndStaysDeterministic) {
  auto plan = std::make_shared<FaultPlan>();
  plan->onesided.push_back({/*rank=*/1, /*at_op=*/0, /*count=*/2,
                            FaultPlan::OneSidedKind::kTransient, 0.0});
  const auto run_once = [&] {
    return Cluster::run_collect_reports(2, [&](Comm& comm) {
      comm.set_fault_plan(plan);
      std::vector<double> buffer(4, comm.rank() == 0 ? 3.0 : 0.0);
      Window window(comm, buffer);
      window.fence();
      if (comm.rank() == 1) {
        RetryOptions options;
        options.jitter = true;
        std::vector<double> out(4, 0.0);
        uoi::sim::retry_onesided(comm, options, [&] {
          window.get(0, 0, std::span<double>(out));
        });
        for (const double v : out) EXPECT_DOUBLE_EQ(v, 3.0);
      }
      window.fence();
    });
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first[1].recovery.retries, 2u);
  EXPECT_EQ(first[1].recovery.retries_after_jitter, 2u);
  EXPECT_GT(first[1].recovery.backoff_seconds, 0.0);
  // The jitter stream is seeded, so the accounted backoff schedule is
  // reproducible run to run.
  EXPECT_EQ(first[1].recovery.backoff_seconds,
            second[1].recovery.backoff_seconds);
  // Default options never jitter (bitwise seed behavior).
  EXPECT_EQ(first[1].recovery.retries_after_jitter,
            first[1].recovery.retries);
  EXPECT_EQ(second[0].recovery.retries_after_jitter, 0u);
}

// ---- run-report health section ----

TEST(Health, RunReportSummarizesRecoveryMetrics) {
  uoi::report::ReportInputs inputs;
  inputs.wall_seconds = 1.0;
  inputs.metrics = {
      {0, "recovery.hangs_detected", 1.0},
      {0, "recovery.hang_detect_seconds", 0.25},
      {0, "recovery.suspects_cleared", 2.0},
      {0, "recovery.crc_detected", 2.0},
      {0, "recovery.transient_faults", 3.0},
      {0, "recovery.retries", 3.0},
      {0, "recovery.shrinks", 1.0},
      {1, "recovery.shrinks", 1.0},
      {0, "recovery.degraded", 1.0},
      {0, "recovery.achieved_quorum", 0.8},
      {0, "recovery.cells_lost", 3.0},
  };
  const auto report = uoi::report::build_run_report(inputs);
  ASSERT_TRUE(report.health.present);
  EXPECT_EQ(report.health.hangs_detected, 1.0);
  EXPECT_EQ(report.health.hang_detect_seconds_max, 0.25);
  EXPECT_EQ(report.health.suspects_cleared, 2.0);
  EXPECT_EQ(report.health.crc_detected, 2.0);
  EXPECT_EQ(report.health.transient_faults, 3.0);
  EXPECT_EQ(report.health.shrinks, 1.0);  // replicated counter: max, not sum
  EXPECT_TRUE(report.health.degraded);
  EXPECT_EQ(report.health.achieved_quorum, 0.8);
  EXPECT_EQ(report.health.cells_lost, 3.0);
  const auto json = report.to_json();
  EXPECT_NE(json.find("\"health\":{\"present\":true"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"uoi-run-report-v2\""), std::string::npos);
  EXPECT_NE(report.to_text().find("health:"), std::string::npos);
}

TEST(Health, AbsentWithoutRecoveryMetrics) {
  uoi::report::ReportInputs inputs;
  inputs.wall_seconds = 1.0;
  const auto report = uoi::report::build_run_report(inputs);
  EXPECT_FALSE(report.health.present);
  EXPECT_NE(report.to_json().find("\"health\":{\"present\":false}"),
            std::string::npos);
  EXPECT_EQ(report.to_text().find("health:"), std::string::npos);
}

}  // namespace

// ---- drivers under hang/stall faults and quorum-degraded completion ----

namespace driver_watchdog_tests {

using uoi::linalg::Matrix;
using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::FaultPlan;
using uoi::sim::RankFailedError;
using uoi::sim::WatchdogConfig;

/// Collectives a rank entered in a fault-free run: positions a hang/stall
/// deterministically as a fraction of the clean schedule (same convention
/// as robustness_test).
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
  // Deterministic schedule: the fault points below count a clean run's
  // collectives, which work stealing would make timing-dependent.
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
                   std::shared_ptr<const FaultPlan> plan,
                   const WatchdogConfig* watchdog = nullptr) {
  LassoRun run;
  run.results.resize(static_cast<std::size_t>(ranks));
  run.reports = Cluster::run_collect_reports(ranks, [&](Comm& comm) {
    if (plan != nullptr) comm.set_fault_plan(plan);
    if (watchdog != nullptr) comm.set_watchdog(*watchdog);
    run.results[static_cast<std::size_t>(comm.rank())] =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options,
                                         layout);
  });
  return run;
}

void expect_same_model(const uoi::core::UoiLassoDistributedResult& actual,
                       const uoi::core::UoiLassoDistributedResult& expected) {
  EXPECT_EQ(uoi::linalg::max_abs_diff(actual.selection_counts,
                                      expected.selection_counts),
            0.0);
  ASSERT_EQ(actual.model.candidate_supports.size(),
            expected.model.candidate_supports.size());
  for (std::size_t j = 0; j < expected.model.candidate_supports.size(); ++j) {
    EXPECT_EQ(actual.model.candidate_supports[j],
              expected.model.candidate_supports[j])
        << "candidate support mismatch at lambda index " << j;
  }
  EXPECT_EQ(actual.model.support, expected.model.support);
}

TEST(DriverWatchdog, LassoHungRankRecoversBitIdenticalAtEightRanks) {
  const auto data = lasso_data();
  const auto options = lasso_options();
  const uoi::core::UoiParallelLayout layout{4, 1};  // 8 ranks -> C = 2

  const auto clean = run_lasso(8, data, options, layout, nullptr);
  // This shape runs the Gram path: rank 3's collective #0 is the
  // task-group split and #1 its first selection Gram reduction, so a hang
  // there stalls selection before its group's cells commit.
  auto plan = std::make_shared<FaultPlan>();
  plan->hangs.push_back({/*rank=*/3, /*at_collective=*/1});
  const WatchdogConfig watchdog{/*timeout_ms=*/300};
  const auto faulty = run_lasso(8, data, options, layout, plan, &watchdog);

  for (const int r : {0, 1, 2, 4, 5, 6, 7}) {
    expect_same_model(faulty.results[static_cast<std::size_t>(r)],
                      clean.results[0]);
    EXPECT_FALSE(faulty.results[static_cast<std::size_t>(r)].degraded);
    EXPECT_GE(faulty.reports[static_cast<std::size_t>(r)].recovery.shrinks, 1u)
        << "rank " << r;
  }
  std::uint64_t hangs = 0;
  std::uint64_t recovered = 0;
  double detect_seconds = 0.0;
  for (const auto& report : faulty.reports) {
    hangs += report.recovery.hangs_detected;
    recovered += report.recovery.cells_recovered;
    detect_seconds =
        std::max(detect_seconds, report.recovery.detect_seconds);
  }
  EXPECT_GE(hangs, 1u);
  EXPECT_GE(recovered, 1u);
  EXPECT_GT(detect_seconds, 0.0);
}

TEST(DriverWatchdog, LassoSlowRankBelowTimeoutStaysCleanAndBitIdentical) {
  const auto data = lasso_data();
  const auto options = lasso_options();
  const uoi::core::UoiParallelLayout layout{2, 1};

  const auto clean = run_lasso(4, data, options, layout, nullptr);
  auto plan = std::make_shared<FaultPlan>();
  // Stall for half the timeout: slow but alive, must NOT be killed.
  plan->slows.push_back({/*rank=*/2,
                         collective_calls(clean.reports[2].comm) / 3,
                         /*stall_seconds=*/0.15});
  const WatchdogConfig watchdog{/*timeout_ms=*/300};
  const auto slow = run_lasso(4, data, options, layout, plan, &watchdog);

  for (std::size_t r = 0; r < 4; ++r) {
    expect_same_model(slow.results[r], clean.results[0]);
    EXPECT_EQ(slow.reports[r].recovery.hangs_detected, 0u) << "rank " << r;
    EXPECT_EQ(slow.reports[r].recovery.shrinks, 0u) << "rank " << r;
  }
}

TEST(DriverWatchdog, LassoSlowRankBeyondTimeoutRecoversBitIdentical) {
  const auto data = lasso_data();
  const auto options = lasso_options();
  const uoi::core::UoiParallelLayout layout{2, 1};

  const auto clean = run_lasso(4, data, options, layout, nullptr);
  auto plan = std::make_shared<FaultPlan>();
  // Stall for ~2.7x the timeout: indistinguishable from a hang until too
  // late; the survivors must declare the rank failed and recover.
  plan->slows.push_back({/*rank=*/2,
                         collective_calls(clean.reports[2].comm) / 3,
                         /*stall_seconds=*/0.4});
  const WatchdogConfig watchdog{/*timeout_ms=*/150};
  const auto faulty = run_lasso(4, data, options, layout, plan, &watchdog);

  for (const int r : {0, 1, 3}) {
    expect_same_model(faulty.results[static_cast<std::size_t>(r)],
                      clean.results[0]);
    EXPECT_GE(faulty.reports[static_cast<std::size_t>(r)].recovery.shrinks, 1u)
        << "rank " << r;
  }
  std::uint64_t hangs = 0;
  std::uint64_t recovered = 0;
  for (const auto& report : faulty.reports) {
    hangs += report.recovery.hangs_detected;
    recovered += report.recovery.cells_recovered;
  }
  EXPECT_GE(hangs, 1u);
  EXPECT_GE(recovered, 1u);
}

TEST(DriverWatchdog, VarHungRankRecoversBitIdentical) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 4;
  spec.edges_per_node = 1.0;
  spec.seed = 61;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 100;
  sim.seed = 62;
  const Matrix series = uoi::var::simulate(truth, sim);

  uoi::var::UoiVarOptions options;
  options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 4;
  options.seed = 63;
  options.admm.eps_abs = 1e-8;
  options.admm.eps_rel = 1e-6;
  options.admm.max_iterations = 5000;

  std::vector<std::optional<uoi::var::UoiVarDistributedResult>> clean_results(
      4);
  const auto clean_reports = Cluster::run_collect_reports(4, [&](Comm& comm) {
    clean_results[static_cast<std::size_t>(comm.rank())] =
        uoi::var::uoi_var_distributed(comm, series, options, {2, 1}, 2);
  });

  auto plan = std::make_shared<FaultPlan>();
  plan->hangs.push_back(
      {/*rank=*/3, collective_calls(clean_reports[3].comm) / 3});
  std::vector<std::optional<uoi::var::UoiVarDistributedResult>> faulty_results(
      4);
  const auto faulty_reports = Cluster::run_collect_reports(4, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    comm.set_watchdog({/*timeout_ms=*/300});
    faulty_results[static_cast<std::size_t>(comm.rank())] =
        uoi::var::uoi_var_distributed(comm, series, options, {2, 1}, 2);
  });

  std::uint64_t hangs = 0;
  for (const auto& report : faulty_reports) {
    hangs += report.recovery.hangs_detected;
  }
  EXPECT_GE(hangs, 1u);
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
    EXPECT_GE(faulty_reports[static_cast<std::size_t>(r)].recovery.shrinks,
              1u)
        << "rank " << r;
  }
}

TEST(QuorumDegraded, LassoCompletesDegradedAndCheckpointStaysClean) {
  const auto data = lasso_data();
  auto options = lasso_options();
  const uoi::core::UoiParallelLayout layout{2, 1};
  const auto path = (std::filesystem::temp_directory_path() /
                     "uoi_quorum_degraded_ckpt.txt")
                        .string();
  std::filesystem::remove(path);

  const auto clean = run_lasso(4, data, options, layout, nullptr);

  // Exhausted budget + quorum floor, same kill point as the established
  // ExhaustedRecoveryBudgetPropagates test (mid-selection): the run must
  // finish degraded instead of throwing, abandoning the cells that died
  // with the failed rank.
  auto degraded_options = options;
  degraded_options.recovery.max_recovery_attempts = 0;
  degraded_options.recovery.min_bootstrap_quorum = 0.2;
  degraded_options.recovery.checkpoint_path = path;
  degraded_options.recovery.checkpoint_interval = 1;
  auto plan = std::make_shared<FaultPlan>();
  plan->kills.push_back(
      {/*rank=*/1, collective_calls(clean.reports[1].comm) / 3});
  const auto degraded = run_lasso(4, data, degraded_options, layout, plan);

  const auto& reference = degraded.results[0];
  ASSERT_TRUE(reference.degraded);
  EXPECT_GE(reference.achieved_quorum, 0.2);
  EXPECT_LT(reference.achieved_quorum, 1.0);
  EXPECT_GE(reference.lost_cells.size(), 1u);
  for (const int r : {2, 3}) {
    const auto& result = degraded.results[static_cast<std::size_t>(r)];
    // Degraded completion is replicated: every survivor reports the same
    // quorum, the same abandoned cells, and the same (renormalized) model.
    EXPECT_TRUE(result.degraded) << "rank " << r;
    EXPECT_EQ(result.achieved_quorum, reference.achieved_quorum);
    EXPECT_EQ(result.lost_cells, reference.lost_cells);
    EXPECT_EQ(uoi::linalg::max_abs_diff(result.selection_counts,
                                        reference.selection_counts),
              0.0);
    ASSERT_EQ(result.model.candidate_supports.size(),
              reference.model.candidate_supports.size());
    for (std::size_t j = 0; j < reference.model.candidate_supports.size();
         ++j) {
      EXPECT_EQ(result.model.candidate_supports[j],
                reference.model.candidate_supports[j]);
    }
    EXPECT_EQ(result.model.support, reference.model.support);
  }

  // The degraded run must not have persisted its abandoned cells: resuming
  // from its checkpoint with full quorum and no faults must rebuild the
  // missing cells and land bit-identical on the fault-free model.
  auto resume_options = options;
  resume_options.recovery.checkpoint_path = path;
  const auto resumed = run_lasso(4, data, resume_options, layout, nullptr);
  for (std::size_t r = 0; r < 4; ++r) {
    expect_same_model(resumed.results[r], clean.results[0]);
    EXPECT_FALSE(resumed.results[r].degraded);
  }
  std::filesystem::remove(path);
}

TEST(QuorumDegraded, InsufficientQuorumStillThrows) {
  const auto data = lasso_data();
  auto options = lasso_options();
  options.recovery.max_recovery_attempts = 0;
  options.recovery.min_bootstrap_quorum = 0.99;
  const uoi::core::UoiParallelLayout layout{2, 1};

  const auto clean = run_lasso(4, data, options, layout, nullptr);
  auto plan = std::make_shared<FaultPlan>();
  // An early kill: far too few bootstraps committed to satisfy a 0.99
  // quorum, so the degraded path must rethrow like the seed did.
  plan->kills.push_back(
      {/*rank=*/1, collective_calls(clean.reports[1].comm) / 4});
  EXPECT_THROW(Cluster::run(4,
                            [&](Comm& comm) {
                              comm.set_fault_plan(plan);
                              (void)uoi::core::uoi_lasso_distributed(
                                  comm, data.x, data.y, options, layout);
                            }),
               RankFailedError);
}

}  // namespace driver_watchdog_tests
