// Fig. 15 (repo extension) — transport backend comparison: latency and
// bandwidth of the collectives and one-sided windows on the in-process
// thread backend vs the multi-process socket backend, at 4 and 8 ranks.
//
// The socket backend pays real kernel round-trips per frame (Unix-domain
// sockets, one OS process per rank), so its per-operation latency is
// expected to sit orders of magnitude above the shared-memory thread
// backend. The interesting outputs are the socket-side absolute numbers
// and the thread/socket ratio, both recorded as informational config
// entries; the regression gate compares only the wall/bucket timings of
// the thread-backend section, which runs in this process.
//
// Socket sections fork one child per rank with the $UOI_JOB_* environment
// the launcher would set (the same technique as tests/transport_e2e_test)
// and read rank 0's measurements back over a pipe.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/window.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::ReduceOp;

constexpr int kLatencyIters = 100;
constexpr int kBandwidthIters = 10;
constexpr std::size_t kSmallDoubles = 8;
constexpr std::size_t kLargeDoubles = 1 << 15;  // 256 KiB payload

/// Mean seconds per operation measured on rank 0, in a fixed order:
/// {allreduce small, allreduce large, window get, window put}.
constexpr std::size_t kMetricCount = 4;

std::vector<double> measure_ops(Comm& comm) {
  const int rank = comm.rank();
  const int size = comm.size();
  const int next = (rank + 1) % size;
  std::vector<double> metrics(kMetricCount, 0.0);

  {
    std::vector<double> payload(kSmallDoubles, 1.0);
    comm.barrier();
    uoi::support::Stopwatch watch;
    for (int i = 0; i < kLatencyIters; ++i) {
      comm.allreduce(payload, ReduceOp::kSum);
    }
    metrics[0] = watch.seconds() / kLatencyIters;
  }
  {
    std::vector<double> payload(kLargeDoubles, 1.0);
    comm.barrier();
    uoi::support::Stopwatch watch;
    for (int i = 0; i < kBandwidthIters; ++i) {
      comm.allreduce(payload, ReduceOp::kSum);
    }
    metrics[1] = watch.seconds() / kBandwidthIters;
  }
  {
    std::vector<double> local(kSmallDoubles, static_cast<double>(rank));
    uoi::sim::Window window(comm, local);
    window.fence();
    std::vector<double> remote(kSmallDoubles);
    {
      uoi::support::Stopwatch watch;
      for (int i = 0; i < kLatencyIters; ++i) {
        window.get(next, 0, remote);
      }
      metrics[2] = watch.seconds() / kLatencyIters;
    }
    window.fence();
    {
      const std::vector<double> payload(kSmallDoubles, 42.0);
      uoi::support::Stopwatch watch;
      for (int i = 0; i < kLatencyIters; ++i) {
        window.put(next, 0, payload);
      }
      metrics[3] = watch.seconds() / kLatencyIters;
    }
    window.fence();
  }
  comm.barrier();
  return metrics;
}

std::vector<double> run_thread_backend(int ranks) {
  std::vector<double> metrics;
  Cluster::run(ranks, [&](Comm& comm) {
    auto m = measure_ops(comm);
    if (comm.rank() == 0) metrics = std::move(m);
  });
  return metrics;
}

/// Forks `ranks` processes wired as one socket job; rank 0 pipes its
/// measurements back. Returns nullopt if any child fails or the deadline
/// expires.
std::optional<std::vector<double>> run_socket_backend(int ranks) {
  char dir_template[] = "/tmp/uoi-bench15-XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) return std::nullopt;

  int result_pipe[2];
  if (::pipe(result_pipe) != 0) return std::nullopt;

  std::vector<pid_t> children;
  for (int rank = 0; rank < ranks; ++rank) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(result_pipe[0]);
      ::setenv("UOI_TRANSPORT", "socket", 1);
      ::setenv("UOI_JOB_RANK", std::to_string(rank).c_str(), 1);
      ::setenv("UOI_JOB_SIZE", std::to_string(ranks).c_str(), 1);
      ::setenv("UOI_JOB_DIR", dir, 1);
      try {
        std::vector<double> metrics;
        Cluster::run(ranks, [&](Comm& comm) {
          auto m = measure_ops(comm);
          if (comm.rank() == 0) metrics = std::move(m);
        });
        if (rank == 0) {
          const auto* bytes =
              reinterpret_cast<const std::uint8_t*>(metrics.data());
          std::size_t total = metrics.size() * sizeof(double);
          std::size_t written = 0;
          while (written < total) {
            const ssize_t w =
                ::write(result_pipe[1], bytes + written, total - written);
            if (w < 0 && errno == EINTR) continue;
            if (w <= 0) ::_exit(4);
            written += static_cast<std::size_t>(w);
          }
        }
        ::_exit(0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[bench rank %d] %s\n", rank, e.what());
        ::_exit(3);
      }
    }
    if (pid < 0) return std::nullopt;
    children.push_back(pid);
  }
  ::close(result_pipe[1]);

  std::vector<std::uint8_t> raw;
  std::uint8_t chunk[256];
  for (;;) {
    const ssize_t r = ::read(result_pipe[0], chunk, sizeof(chunk));
    if (r > 0) {
      raw.insert(raw.end(), chunk, chunk + r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    break;
  }
  ::close(result_pipe[0]);

  bool ok = true;
  const time_t deadline = ::time(nullptr) + 120;
  for (const pid_t child : children) {
    int status = 0;
    for (;;) {
      const pid_t w = ::waitpid(child, &status, WNOHANG);
      if (w == child) break;
      if (::time(nullptr) > deadline) {
        ::kill(child, SIGKILL);
        ::waitpid(child, &status, 0);
        ok = false;
        break;
      }
      ::usleep(10 * 1000);
    }
    if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) ok = false;
  }

  std::string cleanup = "rm -rf " + std::string(dir);
  (void)::system(cleanup.c_str());

  if (!ok || raw.size() != kMetricCount * sizeof(double)) return std::nullopt;
  std::vector<double> metrics(kMetricCount);
  std::memcpy(metrics.data(), raw.data(), raw.size());
  return metrics;
}

std::string format_bandwidth(double seconds, std::size_t payload_doubles) {
  if (seconds <= 0.0) return "n/a";
  const double mib = static_cast<double>(payload_doubles * sizeof(double)) /
                     (1024.0 * 1024.0);
  return uoi::support::format_fixed(mib / seconds, 1) + " MiB/s";
}

}  // namespace

int main() {
  uoi::bench::FigureTrace trace("fig15_transport");
  uoi::bench::BenchReport telemetry("fig15_transport");
  telemetry.config("rank_sweep", "4,8")
      .config("latency_payload_doubles", kSmallDoubles)
      .config("bandwidth_payload_doubles", kLargeDoubles)
      .config("latency_iters", kLatencyIters)
      .config("bandwidth_iters", kBandwidthIters);
  std::printf("== Fig. 15: transport backends — thread vs socket ==\n\n");

  const char* kMetricNames[kMetricCount] = {
      "allreduce 8d", "allreduce 32Ki d", "window get 8d", "window put 8d"};

  for (const int ranks : {4, 8}) {
    std::printf("-- %d ranks --\n\n", ranks);
    const auto thread_metrics = run_thread_backend(ranks);
    const auto socket_metrics = run_socket_backend(ranks);

    uoi::support::Table table(
        {"operation", "thread", "socket", "socket/thread", "socket bw"});
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      const double t = thread_metrics[i];
      const double s = socket_metrics ? (*socket_metrics)[i] : 0.0;
      const bool bandwidth_row = (i == 1);
      table.add_row(
          {kMetricNames[i], uoi::support::format_seconds(t),
           socket_metrics ? uoi::support::format_seconds(s) : "failed",
           (socket_metrics && t > 0.0)
               ? uoi::support::format_fixed(s / t, 1) + "x"
               : "n/a",
           bandwidth_row ? format_bandwidth(s, kLargeDoubles) : "-"});
    }
    std::printf("%s\n", table.to_text().c_str());

    // Informational telemetry: socket numbers vary with kernel/socket
    // buffers and machine load, so they ride along in config (which the
    // regression gate reports but never compares numerically).
    std::string prefix = "p";
    prefix += std::to_string(ranks);
    prefix += '_';
    telemetry.config(prefix + "thread_allreduce_small_s", thread_metrics[0])
        .config(prefix + "thread_allreduce_large_s", thread_metrics[1])
        .config(prefix + "thread_window_get_s", thread_metrics[2])
        .config(prefix + "thread_window_put_s", thread_metrics[3]);
    if (socket_metrics) {
      telemetry.config(prefix + "socket_allreduce_small_s", (*socket_metrics)[0])
          .config(prefix + "socket_allreduce_large_s", (*socket_metrics)[1])
          .config(prefix + "socket_window_get_s", (*socket_metrics)[2])
          .config(prefix + "socket_window_put_s", (*socket_metrics)[3])
          .config(prefix + "socket_ok", 1);
    } else {
      telemetry.config(prefix + "socket_ok", 0);
      std::printf("socket backend run FAILED at %d ranks\n\n", ranks);
    }
  }

  std::printf(
      "The socket backend trades per-op latency (every frame is a kernel\n"
      "round-trip) for real process isolation: a SIGKILLed rank is a dead\n"
      "process the survivors detect and shrink around, which the thread\n"
      "backend can only simulate.\n");
  return 0;
}
