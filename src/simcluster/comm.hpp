#pragma once
// uoi::sim — an in-process SPMD cluster runtime.
//
// This substitutes for MPI on Cori KNL (see DESIGN.md §2): ranks are
// std::threads sharing one address space, and the message-passing semantics
// (collectives, one-sided windows, communicator splits) follow the MPI
// functions the paper's implementation uses (MPI_Allreduce, MPI_Bcast,
// MPI_Win_* one-sided calls, MPI_Comm_split). Algorithms written against
// this API are genuinely SPMD: no rank reads another rank's data except
// through Comm/Window operations, so the code would port to real MPI
// mechanically.
//
// Collectives are implemented with a staging area plus a generation-counted
// central barrier: correct and deterministic at the rank counts the
// functional tests/benches use (P <= 32). Each Comm tracks per-category call
// counts, byte volumes, and real elapsed time so the benchmark harness can
// reproduce the paper's compute/communication/distribution breakdowns.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "simcluster/fault.hpp"
#include "support/trace.hpp"

namespace uoi::sim {

/// Reduction operators supported by reduce/allreduce.
enum class ReduceOp { kSum, kMin, kMax };

/// Group size the hierarchical allreduce picks when none is given:
/// ~sqrt(P) balances the intra-group ring against the leader exchange.
[[nodiscard]] int hierarchical_group_size(int comm_size);

/// Communication categories tracked by CommStats; mirror the buckets in the
/// paper's runtime-breakdown figures.
enum class CommCategory : int {
  kBarrier = 0,
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kAllgather,
  kScatter,
  kPointToPoint,  // send/recv traffic
  kOneSided,      // window put/get traffic ("Distribution" in the paper)
  kCategoryCount
};

[[nodiscard]] const char* to_string(CommCategory category);

/// Per-rank accounting of communication activity.
struct CommStats {
  struct Entry {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
    double seconds = 0.0;  // real wall time spent inside the call
  };
  std::array<Entry, static_cast<int>(CommCategory::kCategoryCount)> entries{};

  [[nodiscard]] const Entry& of(CommCategory c) const {
    return entries[static_cast<int>(c)];
  }
  Entry& of(CommCategory c) { return entries[static_cast<int>(c)]; }

  /// Merges another stats object into this one (used to fold a split
  /// sub-communicator's activity back into its parent's accounting).
  CommStats& operator+=(const CommStats& other);

  /// Total seconds across collective categories (excluding one-sided).
  [[nodiscard]] double collective_seconds() const;
  /// Seconds in one-sided traffic (the paper's "Distribution" bucket).
  [[nodiscard]] double onesided_seconds() const;
  /// Total bytes moved in collectives.
  [[nodiscard]] std::uint64_t collective_bytes() const;

  void clear() { entries.fill(Entry{}); }
};

namespace detail {
class Context;  // shared state of one communicator
}

/// Optional latency injector: called after every collective/one-sided
/// operation with (category, payload bytes, communicator size); the
/// returned seconds are spent busy-waiting before the call returns and
/// are charged to that category's stats. This turns the shared-memory
/// runtime into a poor-man's network emulator: functional runs then show
/// cluster-like compute/communication proportions instead of
/// oversubscription artifacts (see uoi::perf::make_profile_injector).
using LatencyInjector =
    std::function<double(CommCategory, std::uint64_t bytes, int comm_size)>;

/// A rank's handle to a communicator. Not copyable; bound to the calling
/// thread for its lifetime. All collective calls must be invoked by every
/// rank of the communicator in the same order (standard SPMD discipline).
class Comm {
 public:
  Comm(std::shared_ptr<detail::Context> context, int rank);
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;
  Comm(Comm&&) = default;
  Comm& operator=(Comm&&) = default;
  ~Comm();

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;

  /// Blocks until every rank has entered the barrier.
  void barrier();

  /// Broadcasts `data` from `root` to all ranks (in place).
  void bcast(std::span<double> data, int root);
  void bcast(std::span<std::size_t> data, int root);
  void bcast(std::span<std::uint8_t> data, int root);

  /// Element-wise reduction of `data` across ranks into `root`'s buffer;
  /// other ranks' buffers are untouched.
  void reduce(std::span<double> data, ReduceOp op, int root);

  /// Element-wise reduction visible on all ranks (in place). This is the
  /// MPI_Allreduce the paper identifies as >= 99% of UoI communication.
  /// Reduces elementwise in rank order through the staging area: the
  /// deterministic reference every bit-identity test is pinned to.
  void allreduce(std::span<double> data, ReduceOp op);
  void allreduce(std::span<std::uint64_t> data, ReduceOp op);

  /// Hierarchical (two-level) allreduce over point-to-point messages:
  /// ranks form contiguous groups of `group_size` (0 = auto, ~sqrt(P));
  /// each group ring-allreduces internally, the group leaders (ranks 0,
  /// g, 2g, ...) recursive-double among themselves, then each leader fans
  /// the global result back out to its members. Splits the flat
  /// algorithms' P-wide dependency chains into a g-wide and a (P/g)-wide
  /// level — the topology large MPI implementations use to keep long-haul
  /// (inter-node) traffic to one message per node. The two ends are the
  /// flat algorithms: group_size = 1 is recursive doubling over every
  /// rank, group_size = P one ring with no fan-out. Deterministic;
  /// rounding differs from the staged allreduce.
  void allreduce_hierarchical(std::span<double> data, ReduceOp op,
                              int group_size = 0);

  /// Buffered point-to-point send: deposits the message and returns
  /// immediately. Message order per (source, destination, tag) is FIFO.
  void send(int destination, std::span<const double> data, int tag = 0);

  /// Blocking receive of a message with the given tag from `source`;
  /// the received payload must match data.size() elements.
  void recv(int source, std::span<double> data, int tag = 0);

  /// Combined exchange (deadlock-free by construction: sends are buffered).
  void sendrecv(int destination, std::span<const double> send_data,
                int source, std::span<double> recv_data, int tag = 0);

  /// Logical AND across ranks (implemented over a min-reduction).
  [[nodiscard]] bool all_agree(bool local);

  /// Gathers equal-size contributions to root: recv has size() * n elements
  /// on root (ignored elsewhere).
  void gather(std::span<const double> send, std::span<double> recv, int root);

  /// Gathers equal-size contributions to every rank.
  void allgather(std::span<const double> send, std::span<double> recv);
  void allgather(std::span<const std::size_t> send, std::span<std::size_t> recv);

  /// Variable-size allgather (MPI_Allgatherv): every rank contributes any
  /// number of elements; the concatenation in rank order is returned, and
  /// per-rank element counts are written to `counts` when non-null.
  [[nodiscard]] std::vector<double> allgather_variable(
      std::span<const double> send,
      std::vector<std::size_t>* counts = nullptr);

  /// Scatters equal-size slices from root's send buffer (size() * n) into
  /// each rank's recv buffer (n).
  void scatter(std::span<const double> send, std::span<double> recv, int root);

  /// Splits into sub-communicators: ranks sharing `color` form a group,
  /// ordered by (key, old rank). Collective over this communicator.
  [[nodiscard]] Comm split(int color, int key);

  /// ULFM-style recovery (MPI_Comm_shrink): collectively — over the
  /// surviving ranks only — builds a smaller communicator containing the
  /// alive ranks in old-rank order. Revokes this communicator first, so
  /// any rank still blocked in (or later entering) one of its collectives
  /// raises RankFailedError and converges here instead of deadlocking.
  /// The shrunk communicator inherits the latency injector and fault plan
  /// and starts with all past failures acknowledged.
  [[nodiscard]] Comm shrink();

  /// Marks the communicator unusable (MPI_Comm_revoke): every rank blocked
  /// in — or later entering — one of its collectives raises RankFailedError
  /// instead of waiting. Local, idempotent, no communication. Drivers call
  /// this when they give up on recovery, so peers still blocked in a
  /// collective follow the abort instead of waiting forever for a rank
  /// that already unwound.
  void revoke();

  /// This rank's job-wide (root communicator) rank.
  [[nodiscard]] int global_rank() const;

  /// True when every rank of the job shares this process's address space
  /// (thread backend). Protocols that pass raw pointers between ranks —
  /// the TicketBoard's shared-counter bootstrap, tests peeking at peer
  /// state — must gate on this and use message-based exchange otherwise.
  [[nodiscard]] bool shared_address_space() const noexcept;

  /// Globally unique id of the underlying communicator — identical on
  /// every member rank, distinct across communicators (split/shrink
  /// children get fresh ids). This is the `comm` key of trace stamps, so
  /// merged per-rank traces group events of one communicator together.
  [[nodiscard]] std::int64_t comm_id() const;

  /// Allocates the causal stamp for the next top-level traced
  /// communication event on this handle (internal: called by the comm
  /// trace scope and one-sided accounting). `peer` is a *local* rank for
  /// point-to-point / one-sided targets, -1 for collectives. Every call
  /// bumps the per-communicator sequence id; point-to-point calls
  /// additionally bump the per-(peer, tag) edge counter of the matching
  /// direction, collectives the per-handle collective edge counter.
  [[nodiscard]] support::TraceStamp next_trace_stamp(CommCategory category,
                                                     int peer = -1,
                                                     int tag = -1,
                                                     bool is_send = false);

  /// Failure queries (local, no communication).
  [[nodiscard]] bool is_alive(int rank) const;
  [[nodiscard]] std::vector<int> alive_ranks() const;
  [[nodiscard]] int alive_size() const;

  /// Non-collective failure probe: raises RankFailedError if the job-wide
  /// failure sequence has advanced past what this communicator already
  /// acknowledged (the same snapshot check every collective performs at its
  /// barrier). Callers polling one-sided state (e.g. the scheduler's work
  /// queue) use this so a peer death cannot go unnoticed between
  /// collectives. Raising is local to this rank — call it from code that is
  /// prepared to unwind symmetrically (or whose group mates will observe the
  /// same failure at their next collective).
  void probe_failures();

  /// Installs a shared fault plan (nullptr clears). Inherited across
  /// split()/shrink() like the latency injector.
  void set_fault_plan(std::shared_ptr<const FaultPlan> plan);
  [[nodiscard]] const std::shared_ptr<const FaultPlan>& fault_plan() const {
    return fault_plan_;
  }

  /// Hang/stall watchdog for this handle's blocking waits. New handles
  /// start from $UOI_COMM_TIMEOUT_MS (disarmed when unset); the setting is
  /// inherited across split()/shrink() like the latency injector.
  void set_watchdog(WatchdogConfig config) { watchdog_ = config; }
  [[nodiscard]] const WatchdogConfig& watchdog() const noexcept {
    return watchdog_;
  }

  /// Publishes a progress heartbeat for this rank. Every collective entry,
  /// point-to-point op, and one-sided op heartbeats implicitly; drivers
  /// call this inside long solver loops so a compute phase longer than the
  /// watchdog timeout is not mistaken for a stall.
  void heartbeat();

  /// Per-rank fault-tolerance accounting alongside stats().
  [[nodiscard]] const RecoveryStats& recovery_stats() const noexcept {
    return recovery_stats_;
  }
  RecoveryStats& mutable_recovery_stats() noexcept { return recovery_stats_; }

  /// Per-rank communication statistics since construction / last clear.
  [[nodiscard]] const CommStats& stats() const noexcept { return stats_; }
  CommStats& mutable_stats() noexcept { return stats_; }

  /// Used by Window to charge one-sided traffic to this rank's stats.
  /// `target` is the local rank of the window side touched (stamped as the
  /// peer of the one-sided trace event; -1 leaves the peer unset).
  void account_onesided(std::uint64_t bytes, double seconds, int target = -1);

  /// Installs (or clears, with nullptr-like empty function) the latency
  /// injector for this rank's handle. Per-Comm, so ranks can emulate
  /// heterogeneous links if desired; normally every rank installs the
  /// same model.
  void set_latency_injector(LatencyInjector injector);

 private:
  friend class Window;

  /// Busy-waits the injected delay (if any) and returns it.
  double inject_latency(CommCategory category, std::uint64_t bytes);
  template <typename T>
  void bcast_impl(std::span<T> data, int root);
  template <typename T>
  void allreduce_impl(std::span<T> data, ReduceOp op);
  template <typename T>
  void allgather_impl(std::span<const T> send, std::span<T> recv);

  /// Failure-aware barrier: forwards to the context and converts a
  /// fresh failure snapshot into a RankFailedError raise.
  void sync();
  /// FaultPlan collective hook: counts this rank's collective entry and,
  /// when the plan says so, marks the rank dead, parks it until every
  /// survivor has moved past its window epochs, and throws RankKilledError.
  void maybe_kill();
  /// Raises RankFailedError (acknowledging the failure unless this is a
  /// progress handle). `[[noreturn]]`-shaped but kept plain for clarity.
  void raise_rank_failed(const char* what);
  /// FaultPlan one-sided hook used by Window: throws TransientCommError
  /// for transient entries; returns the delay/corruption to apply.
  OneSidedAction onesided_fault_point();

  /// Causal-stamp counters (see support::TraceStamp). Fresh handles start
  /// at zero — split/shrink children deliberately do NOT inherit them,
  /// so a child communicator's sequence restarts at 0 on every member and
  /// stays aligned across ranks regardless of the parent's history.
  struct StampCounters {
    std::int64_t seq = 0;              ///< every stamped event
    std::int64_t collective_edge = 0;  ///< collectives (SPMD call order)
    std::int64_t shrink_edge = 0;      ///< shrink recovery groups
    std::map<std::pair<int, int>, std::int64_t> send_edge;  ///< (peer, tag)
    std::map<std::pair<int, int>, std::int64_t> recv_edge;  ///< (peer, tag)
  };

  std::shared_ptr<detail::Context> context_;
  int rank_ = -1;
  StampCounters stamp_counters_;
  CommStats stats_;
  RecoveryStats recovery_stats_;
  LatencyInjector latency_injector_;
  std::shared_ptr<const FaultPlan> fault_plan_;
  WatchdogConfig watchdog_ = WatchdogConfig::from_env();
  /// Failures with sequence <= this are already handled by this handle.
  std::uint64_t acknowledged_fail_seq_ = 0;
};

}  // namespace uoi::sim
