// End-to-end tests of the socket transport backend: each test forks a real
// multi-process job (one OS process per rank, wired over Unix-domain
// sockets by setting the $UOI_JOB_* environment the launcher would) and
// asserts the results are bit-identical to the same program run on the
// default thread backend at equal rank counts. The fault test SIGKILLs a
// rank mid-run and requires the survivors to detect the death through the
// transport and recover by shrinking.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/uoi_elastic_net_distributed.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "core/uoi_logistic_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/window.hpp"
#include "var/uoi_var.hpp"
#include "var/var_distributed.hpp"

namespace {

using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::ReduceOp;

std::vector<std::uint8_t> as_bytes(const std::vector<double>& values) {
  std::vector<std::uint8_t> bytes(values.size() * sizeof(double));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

/// Runs `body` in `n` forked processes wired as one socket job and returns
/// the bytes rank 0's process produced, or nullopt if rank 0 failed or the
/// deadline expired. Children that die by SIGKILL are tolerated (the fault
/// tests plan exactly that); any other abnormal child exit fails the job.
std::optional<std::vector<std::uint8_t>> run_forked_job(
    int n, const std::function<std::vector<std::uint8_t>(Comm&)>& body,
    int timeout_seconds = 90) {
  char dir_template[] = "/tmp/uoi-e2e-XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) return std::nullopt;

  int result_pipe[2];
  if (::pipe(result_pipe) != 0) return std::nullopt;

  std::vector<pid_t> children;
  for (int rank = 0; rank < n; ++rank) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(result_pipe[0]);
      ::setenv("UOI_TRANSPORT", "socket", 1);
      ::setenv("UOI_JOB_RANK", std::to_string(rank).c_str(), 1);
      ::setenv("UOI_JOB_SIZE", std::to_string(n).c_str(), 1);
      ::setenv("UOI_JOB_DIR", dir, 1);
      try {
        std::vector<std::uint8_t> result;
        Cluster::run(n, [&](Comm& comm) { result = body(comm); });
        if (rank == 0) {
          std::size_t written = 0;
          while (written < result.size()) {
            const ssize_t w = ::write(result_pipe[1], result.data() + written,
                                      result.size() - written);
            if (w < 0 && errno == EINTR) continue;
            if (w <= 0) ::_exit(4);
            written += static_cast<std::size_t>(w);
          }
        }
        ::_exit(0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[forked rank %d] %s\n", rank, e.what());
        ::_exit(3);
      }
    }
    if (pid < 0) return std::nullopt;
    children.push_back(pid);
  }
  ::close(result_pipe[1]);

  // Drain rank 0's result first: the pipe has finite capacity, so waiting
  // for exits before reading could deadlock on a large payload.
  std::vector<std::uint8_t> result;
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t r = ::read(result_pipe[0], chunk, sizeof(chunk));
    if (r > 0) {
      result.insert(result.end(), chunk, chunk + r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    break;
  }
  ::close(result_pipe[0]);

  bool ok = true;
  const time_t deadline = ::time(nullptr) + timeout_seconds;
  for (std::size_t i = 0; i < children.size(); ++i) {
    int status = 0;
    for (;;) {
      const pid_t w = ::waitpid(children[i], &status, WNOHANG);
      if (w == children[i]) break;
      if (::time(nullptr) > deadline) {
        ::kill(children[i], SIGKILL);
        ::waitpid(children[i], &status, 0);
        ok = false;
        break;
      }
      ::usleep(10 * 1000);
    }
    const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!clean && !killed) ok = false;
    if (i == 0 && !clean) ok = false;  // rank 0 must survive and succeed
  }

  // Best-effort rendezvous-dir cleanup (the job unlinks its sockets; a
  // SIGKILLed rank may leave one behind).
  std::string cleanup = "rm -rf " + std::string(dir);
  (void)::system(cleanup.c_str());

  if (!ok) return std::nullopt;
  return result;
}

/// The same SPMD program on the thread backend, returning rank 0's bytes.
std::vector<std::uint8_t> run_thread_job(
    int n, const std::function<std::vector<std::uint8_t>(Comm&)>& body) {
  std::vector<std::uint8_t> result;
  Cluster::run(n, [&](Comm& comm) {
    auto bytes = body(comm);
    if (comm.rank() == 0) result = std::move(bytes);
  });
  return result;
}

/// Collectives + p2p + one-sided windows in one program, so one identity
/// check covers every Comm code path the drivers use.
std::vector<std::uint8_t> comm_exercise(Comm& comm) {
  const int rank = comm.rank();
  const int size = comm.size();
  std::vector<double> out;

  std::vector<double> sum(8);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    sum[i] = static_cast<double>(rank + 1) * static_cast<double>(i + 1) * 0.5;
  }
  comm.allreduce(sum, ReduceOp::kSum);
  out.insert(out.end(), sum.begin(), sum.end());

  std::vector<double> biggest = {static_cast<double>((rank * 7) % 5)};
  comm.allreduce(biggest, ReduceOp::kMax);
  out.push_back(biggest[0]);

  std::vector<double> gathered(static_cast<std::size_t>(size) * 2);
  const std::vector<double> mine = {static_cast<double>(rank),
                                    static_cast<double>(rank) * 1.25};
  comm.allgather(mine, gathered);
  out.insert(out.end(), gathered.begin(), gathered.end());

  // Ring p2p: pass a token around and accumulate it.
  std::vector<double> token = {static_cast<double>(rank) + 0.125};
  std::vector<double> incoming(1);
  const int next = (rank + 1) % size;
  const int prev = (rank + size - 1) % size;
  comm.sendrecv(next, token, prev, incoming, /*tag=*/3);
  out.push_back(incoming[0]);

  // One-sided, in fenced phases so every value is deterministic: reads
  // see only pre-phase state, writers touch disjoint slots, and each
  // rank's fetch_add targets its own offset on rank 0.
  std::vector<double> local(4, static_cast<double>(rank) * 2.0);
  {
    uoi::sim::Window window(comm, local);
    window.fence();
    std::vector<double> remote(4);
    window.get(next, 0, remote);
    out.insert(out.end(), remote.begin(), remote.end());
    window.fence();
    const std::vector<double> payload = {100.0 + rank};
    window.put(next, 2, payload);
    window.fence();
    const double before =
        window.fetch_add(0, static_cast<std::size_t>(rank) % 4, 0.5);
    out.push_back(before);
    window.fence();
    out.insert(out.end(), local.begin(), local.end());
  }
  comm.barrier();
  return as_bytes(out);
}

TEST(TransportE2e, CollectivesP2pAndWindowsBitIdenticalAcrossBackends) {
  const int kRanks = 4;
  const auto thread_bytes = run_thread_job(kRanks, comm_exercise);
  const auto socket_bytes = run_forked_job(kRanks, comm_exercise);
  ASSERT_TRUE(socket_bytes.has_value()) << "socket job failed";
  ASSERT_FALSE(thread_bytes.empty());
  EXPECT_EQ(*socket_bytes, thread_bytes);
}

uoi::core::UoiLassoOptions small_lasso_options() {
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 5;
  options.seed = 4242;
  return options;
}

std::vector<std::uint8_t> lasso_driver_body(Comm& comm) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 80;
  spec.n_features = 12;
  spec.support_size = 3;
  spec.seed = 99;
  const auto data = uoi::data::make_regression(spec);
  const auto fit = uoi::core::uoi_lasso_distributed(
      comm, data.x, data.y, small_lasso_options(), {1, 1});
  auto beta = fit.model.beta;
  beta.push_back(fit.model.intercept);
  return as_bytes(beta);
}

TEST(TransportE2e, LassoDriverBitIdenticalAcrossBackends) {
  const int kRanks = 2;
  const auto thread_bytes = run_thread_job(kRanks, lasso_driver_body);
  const auto socket_bytes = run_forked_job(kRanks, lasso_driver_body);
  ASSERT_TRUE(socket_bytes.has_value()) << "socket job failed";
  EXPECT_EQ(*socket_bytes, thread_bytes);
}

std::vector<std::uint8_t> var_driver_body(Comm& comm) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 4;
  spec.seed = 7;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 90;
  sim.seed = 8;
  const auto series = uoi::var::simulate(truth, sim);

  uoi::var::UoiVarOptions options;
  options.order = 1;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 4;
  options.seed = 4321;
  const auto fit =
      uoi::var::uoi_var_distributed(comm, series, options, {1, 1});
  return as_bytes(fit.model.vec_beta);
}

TEST(TransportE2e, VarDriverBitIdenticalAcrossBackends) {
  const int kRanks = 2;
  const auto thread_bytes = run_thread_job(kRanks, var_driver_body);
  const auto socket_bytes = run_forked_job(kRanks, var_driver_body);
  ASSERT_TRUE(socket_bytes.has_value()) << "socket job failed";
  EXPECT_EQ(*socket_bytes, thread_bytes);
}

std::vector<std::uint8_t> lasso_with_kill_body(Comm& comm) {
  // SIGKILL rank 1 at its 5th collective. On the socket backend that is a
  // real process death: survivors see the connection drop, agree on the
  // failure, shrink, and requeue the dead group's cells.
  auto plan = std::make_shared<uoi::sim::FaultPlan>();
  plan->kills.push_back({1, 5});
  comm.set_fault_plan(plan);

  uoi::data::RegressionSpec spec;
  spec.n_samples = 80;
  spec.n_features = 12;
  spec.support_size = 3;
  spec.seed = 99;
  const auto data = uoi::data::make_regression(spec);
  auto options = small_lasso_options();
  options.recovery.max_recovery_attempts = 1;
  const auto fit = uoi::core::uoi_lasso_distributed(comm, data.x, data.y,
                                                    options, {1, 1});
  auto beta = fit.model.beta;
  beta.push_back(fit.model.intercept);
  return as_bytes(beta);
}

TEST(TransportE2e, SigkilledRankIsDetectedAndSurvivorsRecover) {
  const int kRanks = 3;
  // Reference: the same planned fault on the thread backend (where the
  // "kill" is an in-process unwind). Shrink-and-resume must land both
  // backends on the identical final model.
  const auto thread_bytes = run_thread_job(kRanks, lasso_with_kill_body);
  const auto socket_bytes = run_forked_job(kRanks, lasso_with_kill_body);
  ASSERT_TRUE(socket_bytes.has_value()) << "socket job failed";
  ASSERT_FALSE(thread_bytes.empty());
  EXPECT_EQ(*socket_bytes, thread_bytes);
}

/// Collectives rank `rank` entered in a clean thread run of `body`: a kill
/// placed at a fraction of it lands at the same point on both backends.
std::uint64_t clean_collective_calls(
    int n, int rank,
    const std::function<std::vector<std::uint8_t>(Comm&)>& body) {
  const auto reports =
      Cluster::run_collect_reports(n, [&](Comm& comm) { (void)body(comm); });
  std::uint64_t total = 0;
  for (int c = 0; c < static_cast<int>(uoi::sim::CommCategory::kPointToPoint);
       ++c) {
    total += reports[static_cast<std::size_t>(rank)]
                 .comm.entries[static_cast<std::size_t>(c)]
                 .calls;
  }
  return total;
}

/// Kills rank 2 of 5 at `kill_at(clean collective count)`, a position
/// inside selection, on both backends: the survivors must shrink, redo the
/// lost selection cells and land on the clean run's bytes, and the
/// backends must agree.
void expect_kill_mid_selection_identical_across_backends(
    const std::function<std::vector<std::uint8_t>(Comm&)>& fit,
    const std::function<std::uint64_t(std::uint64_t)>& kill_at) {
  const int kRanks = 5;
  const auto kill_position = kill_at(clean_collective_calls(kRanks, 2, fit));
  const auto clean_bytes = run_thread_job(kRanks, fit);
  const auto killed = [&](Comm& comm) {
    auto plan = std::make_shared<uoi::sim::FaultPlan>();
    plan->kills.push_back({2, kill_position});
    comm.set_fault_plan(plan);
    return fit(comm);
  };
  std::vector<std::uint8_t> thread_bytes;
  const auto thread_reports =
      Cluster::run_collect_reports(kRanks, [&](Comm& comm) {
        auto bytes = killed(comm);
        if (comm.rank() == 0) thread_bytes = std::move(bytes);
      });
  std::uint64_t recovered = 0;
  for (const auto& report : thread_reports) {
    recovered += report.recovery.cells_recovered;
  }
  EXPECT_GE(recovered, 1u);
  const auto socket_bytes = run_forked_job(kRanks, killed);
  ASSERT_TRUE(socket_bytes.has_value()) << "socket job failed";
  ASSERT_FALSE(thread_bytes.empty());
  EXPECT_EQ(thread_bytes, clean_bytes);
  EXPECT_EQ(*socket_bytes, thread_bytes);
}

TEST(TransportE2e, ElasticNetKilledMidSelectionRecoversAcrossBackends) {
  // 80 rows, 12 features on one-rank groups: the Gram path. Collective #0
  // is the task-group split, #1 the victim's one selection Gram reduction.
  expect_kill_mid_selection_identical_across_backends(
      [](Comm& comm) {
        uoi::data::RegressionSpec spec;
        spec.n_samples = 80;
        spec.n_features = 12;
        spec.support_size = 3;
        spec.seed = 99;
        const auto data = uoi::data::make_regression(spec);
        uoi::core::UoiElasticNetOptions options;
        options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
        options.n_selection_bootstraps = 5;
        options.n_estimation_bootstraps = 3;
        options.n_lambdas = 4;
        options.l1_ratios = {1.0, 0.5};
        options.seed = 4242;
        const auto fit = uoi::core::uoi_elastic_net_distributed(
            comm, data.x, data.y, options, {5, 1});
        return as_bytes(fit.model.beta);
      },
      [](std::uint64_t) { return std::uint64_t{1}; });
}

TEST(TransportE2e, LogisticKilledMidSelectionRecoversAcrossBackends) {
  // Logistic selection runs consensus ADMM, one allreduce per iteration:
  // a quarter of the clean schedule is mid-selection.
  expect_kill_mid_selection_identical_across_backends(
      [](Comm& comm) {
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
        options.seed = 4242;
        const auto fit = uoi::core::uoi_logistic_distributed(
            comm, data.x, data.y, options, {5, 1});
        auto beta = fit.model.beta;
        beta.push_back(fit.model.intercept);
        return as_bytes(beta);
      },
      [](std::uint64_t clean_calls) { return clean_calls / 4; });
}

}  // namespace
