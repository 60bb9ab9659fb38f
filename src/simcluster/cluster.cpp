#include "simcluster/cluster.hpp"

#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "simcluster/context.hpp"
#include "simcluster/socket_context.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"
#include "transport/socket_runtime.hpp"

namespace uoi::sim {

namespace {

/// Publishes one rank's CommStats / RecoveryStats into the process-wide
/// MetricsRegistry so traces, benches and tests read one unified snapshot.
void export_rank_metrics(const Comm& comm) {
  auto& metrics = support::MetricsRegistry::instance();
  const int rank = comm.global_rank();
  for (int c = 0; c < static_cast<int>(CommCategory::kCategoryCount); ++c) {
    const auto category = static_cast<CommCategory>(c);
    const auto& entry = comm.stats().of(category);
    if (entry.calls == 0) continue;
    const std::string prefix = std::string("comm.") + to_string(category);
    metrics.add(rank, prefix + ".calls", static_cast<double>(entry.calls));
    metrics.add(rank, prefix + ".bytes", static_cast<double>(entry.bytes));
    metrics.add(rank, prefix + ".seconds", entry.seconds);
  }
  const auto& recovery = comm.recovery_stats();
  if (recovery.any()) {
    metrics.add(rank, "recovery.transient_faults",
                static_cast<double>(recovery.transient_faults));
    metrics.add(rank, "recovery.retries",
                static_cast<double>(recovery.retries));
    metrics.add(rank, "recovery.giveups",
                static_cast<double>(recovery.giveups));
    metrics.add(rank, "recovery.backoff_seconds", recovery.backoff_seconds);
    metrics.add(rank, "recovery.rank_failures_detected",
                static_cast<double>(recovery.rank_failures_detected));
    metrics.add(rank, "recovery.shrinks",
                static_cast<double>(recovery.shrinks));
    metrics.add(rank, "recovery.cells_recovered",
                static_cast<double>(recovery.cells_recovered));
    metrics.add(rank, "recovery.checkpoint_resumes",
                static_cast<double>(recovery.checkpoint_resumes));
    metrics.add(rank, "recovery.recovery_seconds", recovery.recovery_seconds);
    metrics.add(rank, "recovery.hangs_detected",
                static_cast<double>(recovery.hangs_detected));
    metrics.add(rank, "recovery.suspects_cleared",
                static_cast<double>(recovery.suspects_cleared));
    metrics.add(rank, "recovery.hang_detect_seconds",
                recovery.detect_seconds);
    metrics.add(rank, "recovery.crc_detected",
                static_cast<double>(recovery.crc_detected));
    metrics.add(rank, "recovery.retries_after_jitter",
                static_cast<double>(recovery.retries_after_jitter));
  }
}

/// One process = one rank: the socket-backend variant of the run loop.
/// Every process of the job executes the same SPMD program; this process
/// contributes only its own rank's report (the others are default-empty).
std::vector<RankReport> run_socket_job(
    int n_ranks, const std::function<void(Comm&)>& spmd) {
  auto config = transport::job_config_from_env();
  UOI_CHECK(config.has_value(), "socket transport requested without a job "
                                "environment (run under `uoi launch`)");
  UOI_CHECK(config->size == n_ranks,
            "cluster rank count does not match the launched job size");
  // One socket mesh per Cluster run: every process executes the same SPMD
  // sequence of runs, so the per-process ordinal agrees job-wide and keys
  // both the rendezvous socket names and the communicator-id interval.
  static int run_counter = 0;
  config->run_index = run_counter++;
  const int job_rank = config->rank;

  auto registry = std::make_shared<detail::FailureRegistry>(n_ranks);
  registry->set_local_stacks_only();
  transport::JobHooks hooks;
  hooks.peer_failed = [registry](int rank) { registry->mark_failed(rank); };
  hooks.peer_progress = [registry](int rank, std::uint64_t epoch) {
    registry->note_progress(rank, epoch);
  };
  hooks.own_epoch = [registry, job_rank] {
    // Deliberately NOT auto-incrementing: a wedged rank's epoch must stay
    // frozen in its keepalives even though the io thread keeps beating,
    // or peers' watchdogs could never tell hung from alive.
    return registry->progress_epoch(job_rank);
  };
  auto runtime = std::make_shared<transport::SocketRuntime>(*config, hooks);
  // Re-broadcast first-seen failures so every process's local view
  // converges (raw pointer: the registry never outlives this frame's
  // explicit clear below).
  transport::SocketRuntime* runtime_raw = runtime.get();
  registry->set_failure_broadcast([runtime_raw](int rank) {
    transport::FailedMsg msg;
    msg.rank = static_cast<std::uint32_t>(rank);
    runtime_raw->broadcast(msg.encode());
  });

  auto context = detail::make_root_socket_context(runtime, registry, n_ranks,
                                                  job_rank, config->run_index);
  std::vector<RankReport> reports(static_cast<std::size_t>(n_ranks));
  std::exception_ptr error;
  {
    Comm comm(std::static_pointer_cast<detail::Context>(context), job_rank);
    const int previous_trace_rank = support::Tracer::thread_rank();
    support::Tracer::set_thread_rank(comm.global_rank());
    try {
      spmd(comm);
    } catch (const RankKilledError&) {
      // Hang-injection victim: peers already agreed this rank is dead and
      // will never talk to it again. Exit without a goodbye — the
      // survivors' outcome decides the job.
      UOI_LOG_WARN.field("rank", job_rank)
          << "rank declared dead by the job; exiting";
      std::_Exit(0);
    } catch (...) {
      error = std::current_exception();
    }
    reports[static_cast<std::size_t>(job_rank)] = {comm.stats(),
                                                   comm.recovery_stats()};
    export_rank_metrics(comm);
    support::Tracer::set_thread_rank(previous_trace_rank);
    registry->mark_done(job_rank);
  }
  context.reset();
  registry->set_failure_broadcast({});
  runtime->shutdown();
  if (error) std::rethrow_exception(error);
  return reports;
}

}  // namespace

std::vector<RankReport> Cluster::run_collect_reports(
    int n_ranks, const std::function<void(Comm&)>& spmd) {
  UOI_CHECK(n_ranks >= 1, "cluster needs at least one rank");
  if (transport::socket_job_active()) {
    return run_socket_job(n_ranks, spmd);
  }
  auto context = std::make_shared<detail::ThreadContext>(n_ranks);
  auto registry = context->registry();
  std::vector<RankReport> reports(static_cast<std::size_t>(n_ranks));
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto rank_main = [&](int rank) {
    Comm comm(context, rank);
    // Bind the tracer's thread rank so spans recorded from library code
    // that never sees the Comm (solvers, I/O) land on this rank's row.
    // Restored afterwards: with n_ranks == 1 this runs on the caller's
    // thread, which may go on to trace its own (rank-0) work.
    const int previous_trace_rank = support::Tracer::thread_rank();
    support::Tracer::set_thread_rank(comm.global_rank());
    try {
      spmd(comm);
    } catch (const RankKilledError&) {
      // A planned fault-injection death: the survivors' outcome decides
      // the run, so the victim's unwind is not an error.
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    reports[static_cast<std::size_t>(rank)] = {comm.stats(),
                                               comm.recovery_stats()};
    export_rank_metrics(comm);
    support::Tracer::set_thread_rank(previous_trace_rank);
    // Releases parked victims still waiting for this rank to certify
    // their death: a finished rank can never observe the failure.
    registry->mark_done(rank);
  };

  if (n_ranks == 1) {
    rank_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n_ranks));
    for (int r = 0; r < n_ranks; ++r) threads.emplace_back(rank_main, r);
    for (auto& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return reports;
}

std::vector<CommStats> Cluster::run_collect_stats(
    int n_ranks, const std::function<void(Comm&)>& spmd) {
  auto reports = run_collect_reports(n_ranks, spmd);
  std::vector<CommStats> stats;
  stats.reserve(reports.size());
  for (auto& report : reports) stats.push_back(report.comm);
  return stats;
}

void Cluster::run_local(const std::function<void(Comm&)>& spmd) {
  const int rank = support::Tracer::thread_rank();
  // The registry covers job ranks 0..rank so the global rank indexes it.
  Comm comm(std::make_shared<detail::ThreadContext>(
                1, std::make_shared<detail::FailureRegistry>(rank + 1),
                std::vector<int>{rank}),
            0);
  spmd(comm);
  export_rank_metrics(comm);
}

void Cluster::run(int n_ranks, const std::function<void(Comm&)>& spmd) {
  (void)run_collect_stats(n_ranks, spmd);
}

}  // namespace uoi::sim
