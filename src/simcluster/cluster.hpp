#pragma once
// SPMD launcher: runs a function on P ranks (threads), each bound to a Comm.

#include <functional>
#include <vector>

#include "simcluster/comm.hpp"

namespace uoi::sim {

/// One rank's final accounting, returned by Cluster::run_collect_reports.
struct RankReport {
  CommStats comm;
  RecoveryStats recovery;
};

class Cluster {
 public:
  /// Runs `spmd` on `n_ranks` threads. Each invocation receives a Comm bound
  /// to its rank. Blocks until every rank returns; the first exception thrown
  /// by any rank is rethrown here after all threads have been joined.
  /// A rank that dies with RankKilledError (a planned fault-injection death)
  /// is NOT treated as an error: the survivors' outcome decides the run.
  static void run(int n_ranks, const std::function<void(Comm&)>& spmd);

  /// As run(), but returns each rank's final CommStats (index == rank).
  static std::vector<CommStats> run_collect_stats(
      int n_ranks, const std::function<void(Comm&)>& spmd);

  /// As run(), but returns each rank's CommStats + RecoveryStats.
  static std::vector<RankReport> run_collect_reports(
      int n_ranks, const std::function<void(Comm&)>& spmd);

  /// Runs `spmd` on one rank in the calling thread: a size-1 thread
  /// communicator whose global rank is the thread's tracer rank, so spans
  /// and metrics land on the caller's row. It never reads the transport
  /// or job environment, so it stays in-process under `uoi launch` too.
  /// Publishes the rank's stats as run() does; exceptions propagate.
  static void run_local(const std::function<void(Comm&)>& spmd);
};

}  // namespace uoi::sim
