#pragma once
// Shared state behind one communicator. Context is the transport seam of
// the runtime: Comm implements every collective against this interface
// (staging slots + a failure-aware barrier, point-to-point channels,
// child-communicator creation, shrink agreement, one-sided window
// backends), and a backend supplies the mechanics.
//
// Two backends exist:
//  - ThreadContext (this header): ranks are std::threads of one process
//    sharing the staging area directly. A generation-counted central
//    barrier implements the two-barrier collective protocol (write own
//    slot -> barrier -> read peers' slots -> barrier). This is the seed
//    behavior, bit-identical to the pre-transport runtime, and stays the
//    default / fast test path.
//  - SocketContext (socket_context.hpp): ranks are OS processes connected
//    by Unix-domain sockets; each process holds a local mirror of the
//    staging area that barrier messages keep coherent (see
//    src/transport/ and ARCHITECTURE.md §11).
//
// Failure awareness (ULFM-style): every context of one job shares a
// FailureRegistry. Barriers release when every *alive* rank has arrived and
// hand back a failure-sequence snapshot taken at release time, so all ranks
// released together observe the identical failure state and raise
// RankFailedError at the same logical collective. revoke() (the
// MPI_Comm_revoke analogue) wakes and fails every current and future waiter
// so survivors converge on Comm::shrink() instead of deadlocking. A
// disjoint recovery barrier, spanning only the alive ranks, sequences the
// shrink protocol itself.
//
// Lock order: FailureRegistry::mutex_ before Context::mutex_. Barrier-path
// reads of failure state are lock-free (atomics) so a rank inside a
// context never takes the registry lock.
//
// Internal header; users include comm.hpp / cluster.hpp / window.hpp.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "simcluster/fault.hpp"
#include "support/error.hpp"

namespace uoi::sim {
class Comm;
}

namespace uoi::sim::detail {

class Context;

/// Job-wide failure state shared by every communicator of one Cluster run:
/// which global ranks are dead, in what order they died, and which
/// survivors have acknowledged each death. Also owns the per-rank
/// operation counters FaultPlan triggers are indexed by.
///
/// The socket backend reuses this registry as each process's *local view*
/// of the job: peer progress epochs are mirrored from transport keepalives
/// (note_progress), confirmed failures are broadcast between processes,
/// and the shared-stack unwind protocol (acknowledge / park) is disabled
/// because no process can read another's stack.
class FailureRegistry {
 public:
  explicit FailureRegistry(int job_size)
      : job_size_(job_size),
        failed_(std::make_unique<std::atomic<bool>[]>(
            static_cast<std::size_t>(job_size))),
        collective_ops_(std::make_unique<std::atomic<std::uint64_t>[]>(
            static_cast<std::size_t>(job_size))),
        onesided_ops_(std::make_unique<std::atomic<std::uint64_t>[]>(
            static_cast<std::size_t>(job_size))),
        progress_epochs_(std::make_unique<std::atomic<std::uint64_t>[]>(
            static_cast<std::size_t>(job_size))),
        suspected_epochs_(std::make_unique<std::atomic<std::uint64_t>[]>(
            static_cast<std::size_t>(job_size))),
        death_seq_(static_cast<std::size_t>(job_size), 0),
        acked_seq_(static_cast<std::size_t>(job_size), 0),
        done_(static_cast<std::size_t>(job_size), false) {
    for (int r = 0; r < job_size; ++r) {
      failed_[static_cast<std::size_t>(r)].store(false);
      collective_ops_[static_cast<std::size_t>(r)].store(0);
      onesided_ops_[static_cast<std::size_t>(r)].store(0);
      progress_epochs_[static_cast<std::size_t>(r)].store(0);
      suspected_epochs_[static_cast<std::size_t>(r)].store(kNotSuspected);
    }
  }

  [[nodiscard]] int job_size() const noexcept { return job_size_; }

  [[nodiscard]] bool is_failed(int global_rank) const {
    return failed_[static_cast<std::size_t>(global_rank)].load();
  }

  /// Monotone count of failures; barriers snapshot it at release time.
  [[nodiscard]] std::uint64_t fail_seq() const { return fail_seq_.load(); }

  [[nodiscard]] std::vector<int> failed_ranks() const {
    std::vector<int> out;
    for (int r = 0; r < job_size_; ++r) {
      if (is_failed(r)) out.push_back(r);
    }
    return out;
  }

  /// Marks `global_rank` dead and re-evaluates every live context's
  /// barriers so no survivor waits for the dead rank. Returns the rank's
  /// death sequence number.
  std::uint64_t mark_failed(int global_rank);

  /// A survivor raising RankFailedError acknowledges every failure up to
  /// `seq`: it promises not to touch pre-failure window memory again,
  /// which is what lets the dead rank's stack frame unwind.
  void acknowledge(int global_rank, std::uint64_t seq) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto& acked = acked_seq_[static_cast<std::size_t>(global_rank)];
      acked = std::max(acked, seq);
    }
    cv_.notify_all();
  }

  /// A rank's SPMD function returned (normally or not); it will never
  /// touch shared state again.
  void mark_done(int global_rank) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_[static_cast<std::size_t>(global_rank)] = true;
    }
    cv_.notify_all();
  }

  /// Parks the dying rank until every other alive rank has either
  /// acknowledged its death or finished, keeping the victim's stack (and
  /// thus any window buffers registered from it) alive while survivors
  /// may still legitimately read them. A no-op in per-process (socket)
  /// jobs: no peer can reach this process's stack, and the victim's
  /// process exits instead of unwinding in place.
  void park_until_safe_to_unwind(int global_rank) {
    if (!shared_stacks_) return;
    const auto my_death =
        death_seq_in_lock_free(global_rank);
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      for (int r = 0; r < job_size_; ++r) {
        if (r == global_rank || is_failed(r)) continue;
        if (!done_[static_cast<std::size_t>(r)] &&
            acked_seq_[static_cast<std::size_t>(r)] < my_death) {
          return false;
        }
      }
      return true;
    });
  }

  /// Socket mode: ranks live in separate address spaces, so the
  /// park/acknowledge stack-lifetime protocol has nothing to protect.
  void set_local_stacks_only() { shared_stacks_ = false; }

  /// Installs a hook invoked (outside the registry lock) whenever a rank
  /// transitions to failed for the first time in this process. The socket
  /// backend uses it to broadcast the death to peer processes so every
  /// local view converges.
  void set_failure_broadcast(std::function<void(int)> fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    failure_broadcast_ = std::move(fn);
  }

  /// Per-rank operation counters (post-incremented) used to index
  /// FaultPlan triggers deterministically.
  std::uint64_t next_collective_op(int global_rank) {
    return collective_ops_[static_cast<std::size_t>(global_rank)]++;
  }
  std::uint64_t next_onesided_op(int global_rank) {
    return onesided_ops_[static_cast<std::size_t>(global_rank)]++;
  }

  // --- Progress heartbeats and the hang-detection suspect table ----------
  //
  // Every rank bumps its progress epoch on each collective entry, each
  // one-sided op, each point-to-point op, and each explicit
  // Comm::heartbeat(). A watchdog-armed waiter that has been blocked for
  // half its timeout *suspects* every straggler, recording the straggler's
  // epoch; at the full timeout it revisits each suspect and either clears
  // the suspicion (the epoch advanced: slow but alive) or claims it and
  // promotes the suspect to failed via mark_failed. The epoch comparison
  // is the agreement mechanism: every timed-out waiter evaluates the same
  // shared epochs, the claim CAS picks exactly one detector, and
  // mark_failed's release-snapshot machinery makes every survivor observe
  // the death at the same logical collective (DESIGN.md §10).

  /// Heartbeat: this rank is alive and making progress. Also withdraws any
  /// pending (unclaimed) suspicion against it.
  void bump_progress(int global_rank) {
    const auto r = static_cast<std::size_t>(global_rank);
    progress_epochs_[r].fetch_add(1, std::memory_order_relaxed);
    std::uint64_t suspected = suspected_epochs_[r].load(std::memory_order_relaxed);
    if (suspected != kNotSuspected && suspected != kClaimed) {
      suspected_epochs_[r].compare_exchange_strong(suspected, kNotSuspected);
    }
  }

  /// Mirrors a peer process's progress epoch from a transport keepalive
  /// (socket backend). Monotone: stale keepalives never move an epoch
  /// backwards. An advancing epoch withdraws any unclaimed suspicion, the
  /// same guarantee bump_progress gives in shared memory.
  void note_progress(int global_rank, std::uint64_t epoch) {
    const auto r = static_cast<std::size_t>(global_rank);
    std::uint64_t current = progress_epochs_[r].load(std::memory_order_relaxed);
    bool advanced = false;
    while (epoch > current) {
      if (progress_epochs_[r].compare_exchange_weak(current, epoch,
                                                    std::memory_order_relaxed)) {
        advanced = true;
        break;
      }
    }
    if (!advanced) return;
    std::uint64_t suspected = suspected_epochs_[r].load(std::memory_order_relaxed);
    if (suspected != kNotSuspected && suspected != kClaimed) {
      suspected_epochs_[r].compare_exchange_strong(suspected, kNotSuspected);
    }
  }

  [[nodiscard]] std::uint64_t progress_epoch(int global_rank) const {
    return progress_epochs_[static_cast<std::size_t>(global_rank)].load(
        std::memory_order_relaxed);
  }

  /// Records a suspicion against `global_rank` at its current epoch; a
  /// no-op if it is already suspected, already claimed, or already dead.
  /// Suspicion alone is harmless — it only matures into a failure if the
  /// epoch is still unchanged when a waiter's full timeout expires.
  void suspect(int global_rank) {
    const auto r = static_cast<std::size_t>(global_rank);
    if (is_failed(global_rank)) return;
    std::uint64_t expected = kNotSuspected;
    suspected_epochs_[r].compare_exchange_strong(
        expected, progress_epochs_[r].load(std::memory_order_relaxed));
  }

  enum class SuspectVerdict {
    kNone,      ///< not suspected / already claimed / already dead
    kCleared,   ///< epoch advanced since suspicion: alive, suspicion dropped
    kConfirmed  ///< this caller claimed the suspect and marked it failed
  };

  /// Revisits a suspicion recorded by suspect(). The claim CAS guarantees
  /// exactly one caller per death sees kConfirmed (and charges the
  /// detection), no matter how many timed-out waiters race here.
  SuspectVerdict confirm_or_clear_suspect(int global_rank) {
    const auto r = static_cast<std::size_t>(global_rank);
    std::uint64_t at = suspected_epochs_[r].load();
    if (at == kNotSuspected || at == kClaimed || is_failed(global_rank)) {
      return SuspectVerdict::kNone;
    }
    if (progress_epochs_[r].load(std::memory_order_relaxed) != at) {
      suspected_epochs_[r].compare_exchange_strong(at, kNotSuspected);
      return SuspectVerdict::kCleared;
    }
    if (!suspected_epochs_[r].compare_exchange_strong(at, kClaimed)) {
      return SuspectVerdict::kNone;
    }
    mark_failed(global_rank);
    return SuspectVerdict::kConfirmed;
  }

  /// Blocks until `global_rank` has been marked failed (by a watchdog or a
  /// fault plan). Used by FaultPlan::HangRank victims: the hung rank stops
  /// participating here and only unwinds once a survivor declared it dead.
  void wait_until_failed(int global_rank) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return is_failed(global_rank); });
  }

  void register_context(Context* context) {
    std::lock_guard<std::mutex> lock(mutex_);
    contexts_.push_back(context);
  }
  void unregister_context(Context* context) {
    std::lock_guard<std::mutex> lock(mutex_);
    contexts_.erase(std::remove(contexts_.begin(), contexts_.end(), context),
                    contexts_.end());
  }

 private:
  /// Suspect-table sentinels (progress epochs are far below either).
  static constexpr std::uint64_t kNotSuspected = ~std::uint64_t{0};
  static constexpr std::uint64_t kClaimed = ~std::uint64_t{0} - 1;

  [[nodiscard]] std::uint64_t death_seq_in_lock_free(int global_rank) {
    std::lock_guard<std::mutex> lock(mutex_);
    return death_seq_[static_cast<std::size_t>(global_rank)];
  }

  int job_size_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Context*> contexts_;
  std::unique_ptr<std::atomic<bool>[]> failed_;
  std::atomic<std::uint64_t> fail_seq_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> collective_ops_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> onesided_ops_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> progress_epochs_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> suspected_epochs_;
  std::vector<std::uint64_t> death_seq_;  // guarded by mutex_
  std::vector<std::uint64_t> acked_seq_;  // guarded by mutex_
  std::vector<bool> done_;                // guarded by mutex_
  bool shared_stacks_ = true;
  std::function<void(int)> failure_broadcast_;  // guarded by mutex_
};

/// A buffered point-to-point channel for one (source, destination) pair.
/// send() deposits a message and returns immediately (buffered semantics);
/// collect() blocks until a message with the requested tag arrives or the
/// caller-supplied abort predicate fires (source died, communicator
/// revoked).
class Mailbox {
 public:
  void deposit(int tag, std::vector<std::uint8_t> payload) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      messages_.push_back({tag, std::move(payload)});
    }
    cv_.notify_all();
  }

  /// Blocking collect; `abort` is polled between waits (buffered messages
  /// win over an abort, matching MPI's "matched messages complete"
  /// semantics). Returns nullopt when aborted.
  template <typename Abort>
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> collect(
      int tag, Abort&& abort) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      for (auto it = messages_.begin(); it != messages_.end(); ++it) {
        if (it->tag == tag) {
          auto payload = std::move(it->payload);
          messages_.erase(it);
          return payload;
        }
      }
      if (abort()) return std::nullopt;
      cv_.wait_for(lock, std::chrono::microseconds(200));
    }
  }

 private:
  struct Message {
    int tag;
    std::vector<std::uint8_t> payload;
  };
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> messages_;
};

/// Backend of one one-sided Window: raw data movement plus the payload
/// integrity guard. Window (window.cpp) keeps the policy — liveness
/// checks, fault-plan injection points, stats/trace accounting glue —
/// and delegates the mechanics here. Ops return false iff the target rank
/// died mid-operation (the caller raises RankFailedError); a payload
/// failing the CRC guard throws TransientCommError after charging the
/// recovery stats.
class WindowBackend {
 public:
  virtual ~WindowBackend() = default;
  [[nodiscard]] virtual std::size_t size_at(int rank) const = 0;
  [[nodiscard]] virtual std::span<double> local() const = 0;
  virtual bool get(int target, std::size_t offset, std::span<double> out,
                   const OneSidedAction& action) = 0;
  virtual bool put(int target, std::size_t offset, std::span<const double> in,
                   const OneSidedAction& action) = 0;
  virtual bool accumulate_add(int target, std::size_t offset,
                              std::span<const double> in,
                              const OneSidedAction& action) = 0;
  virtual bool fetch_add(int target, std::size_t offset, double delta,
                         const OneSidedAction& action, double& previous) = 0;
};

/// Transport-agnostic interface of one communicator's shared state. Comm
/// talks only to this; ThreadContext and SocketContext implement it.
class Context {
 public:
  /// Process-wide communicator id allocator for the thread backend.
  /// Thread contexts are shared objects (one per communicator, referenced
  /// by every member rank's Comm handle), so the id assigned at
  /// construction is identical on all member ranks and distinct across
  /// communicators — including children produced by split/shrink.
  /// Trace stamps use it as the `comm` key of the cross-rank event DAG.
  /// (The socket backend cannot share an allocator across processes and
  /// derives deterministic ids instead; see SocketContext.)
  static std::int64_t next_comm_id() {
    static std::atomic<std::int64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  Context(int size, std::int64_t comm_id,
          std::shared_ptr<FailureRegistry> registry,
          std::vector<int> global_ranks)
      : size_(size),
        comm_id_(comm_id),
        registry_(std::move(registry)),
        global_ranks_(std::move(global_ranks)) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  virtual ~Context() = default;

  [[nodiscard]] std::int64_t comm_id() const noexcept { return comm_id_; }
  [[nodiscard]] int size() const noexcept { return size_; }

  [[nodiscard]] int global_rank(int local_rank) const {
    return global_ranks_[static_cast<std::size_t>(local_rank)];
  }

  [[nodiscard]] const std::shared_ptr<FailureRegistry>& registry() const {
    return registry_;
  }

  [[nodiscard]] bool revoked() const { return revoked_.load(); }

  [[nodiscard]] bool rank_is_failed(int local_rank) const {
    return registry_->is_failed(global_rank(local_rank));
  }

  /// Local ranks whose global rank is still alive, in local-rank order.
  [[nodiscard]] std::vector<int> alive_local_ranks() const {
    std::vector<int> out;
    for (int r = 0; r < size_; ++r) {
      if (!rank_is_failed(r)) out.push_back(r);
    }
    return out;
  }

  /// True when every rank of the job can dereference this process's
  /// pointers (thread backend). Gates the shared_ptr-over-bcast tricks
  /// (Window registration, TicketBoard) and switches FaultPlan kills from
  /// in-place unwinds to real process death.
  [[nodiscard]] virtual bool shared_address_space() const noexcept = 0;

  /// Failure-aware barrier; releases all ranks when every alive rank has
  /// arrived. Returns the registry failure-sequence snapshot taken at
  /// release time — identical on every rank released together, so every
  /// survivor detects a failure at the same logical collective. Throws
  /// RankFailedError when the context is revoked or the caller itself is
  /// marked dead (a dying rank's pending background work must not hang).
  ///
  /// With a null/disarmed `watchdog` the wait is a plain (untimed)
  /// condition wait — the seed behavior, bitwise unchanged. Armed, the
  /// wait is deadline-bounded: stragglers are suspected at half the
  /// timeout and, if their progress epoch has not advanced by the full
  /// timeout, declared failed (watchdog detections and cleared suspicions
  /// are charged to `recovery` when non-null).
  virtual std::uint64_t barrier_wait(int rank,
                                     const WatchdogConfig* watchdog = nullptr,
                                     RecoveryStats* recovery = nullptr) = 0;

  /// Marks the context unusable: every rank currently inside (or later
  /// entering) one of its barriers raises RankFailedError instead of
  /// waiting. The MPI_Comm_revoke analogue; idempotent. The socket
  /// backend additionally tells every peer process.
  virtual void revoke() = 0;

  /// Called by FailureRegistry::mark_failed (registry lock held): releases
  /// any barrier now complete without the dead rank and wakes waiters so
  /// self-failed or revoked ranks can raise.
  virtual void on_failure_update() = 0;

  /// Byte staging slot for `rank` — write access, callers only write their
  /// own slot (collective roots write theirs). The socket backend tracks
  /// the write so the next barrier round publishes the slot to peers.
  [[nodiscard]] virtual std::vector<std::uint8_t>& staging(int rank) = 0;

  /// Read view of `rank`'s staging slot, valid between the two barriers of
  /// a collective exchange. Reads must use this accessor (not staging()):
  /// the socket backend serves them from its local mirror.
  [[nodiscard]] virtual const std::vector<std::uint8_t>& staging_view(
      int rank) const = 0;

  /// Buffered point-to-point send from local rank `source` (the caller) to
  /// `destination`; FIFO per (source, destination, tag).
  virtual void p2p_send(int source, int destination, int tag,
                        std::vector<std::uint8_t> payload) = 0;

  /// Blocking point-to-point collect on local rank `destination` (the
  /// caller) for a message from `source`; `abort` is polled between waits.
  /// Returns nullopt when aborted.
  [[nodiscard]] virtual std::optional<std::vector<std::uint8_t>> p2p_collect(
      int source, int destination, int tag,
      const std::function<bool()>& abort) = 0;

  /// Builds the child context for one group of a split. Every member calls
  /// this with identical group data (new-rank-ordered global ranks,
  /// group leader's parent-local rank, the group's ordinal among the
  /// split's color groups) and its own parent-local rank; `sync` runs a
  /// failure-aware barrier on the parent. All members return equivalent
  /// contexts carrying the same communicator id.
  [[nodiscard]] virtual std::shared_ptr<Context> make_child(
      int parent_rank, int group_leader, int group_index,
      std::vector<int> group_globals, const std::function<void()>& sync) = 0;

  struct ShrinkResult {
    std::shared_ptr<Context> context;
    int new_rank = -1;
  };

  /// The agreement + rebuild half of Comm::shrink(), entered by every
  /// surviving rank after the context is revoked: agree on the surviving
  /// set, build the replacement context over it (survivors in old-rank
  /// order), and synchronize so the replacement is usable on return.
  [[nodiscard]] virtual ShrinkResult shrink_exchange(int rank) = 0;

  /// Builds the one-sided window backend for this communicator; collective
  /// (every rank calls it from the Window constructor with its local
  /// exposure buffer).
  [[nodiscard]] virtual std::shared_ptr<WindowBackend> make_window(
      Comm& comm, std::span<double> local) = 0;

 protected:
  int size_;
  std::int64_t comm_id_;
  std::shared_ptr<FailureRegistry> registry_;
  std::vector<int> global_ranks_;
  std::atomic<bool> revoked_{false};

  static std::vector<int> identity_ranks(int size) {
    std::vector<int> out(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) out[static_cast<std::size_t>(r)] = r;
    return out;
  }
};

/// The shared-memory backend: ranks are threads of one process, staging
/// slots are read in place, and the barrier is a generation-counted
/// central barrier. This is the seed implementation, moved verbatim
/// behind the Context interface.
class ThreadContext final : public Context {
 public:
  /// Root context of a job: global rank r is local rank r, fresh registry.
  explicit ThreadContext(int size)
      : ThreadContext(size, std::make_shared<FailureRegistry>(size),
                      identity_ranks(size)) {}

  /// Sub-communicator context: `global_ranks[r]` maps local rank r to its
  /// job-wide rank in the shared registry.
  ThreadContext(int size, std::shared_ptr<FailureRegistry> registry,
                std::vector<int> global_ranks)
      : Context(size, next_comm_id(), std::move(registry),
                std::move(global_ranks)),
        arrived_(static_cast<std::size_t>(size), 0),
        recovery_arrived_(static_cast<std::size_t>(size), 0),
        staging_(static_cast<std::size_t>(size)),
        pointer_slots_(static_cast<std::size_t>(size)),
        mailboxes_(static_cast<std::size_t>(size) *
                   static_cast<std::size_t>(size)) {
    registry_->register_context(this);
  }

  ~ThreadContext() override { registry_->unregister_context(this); }

  [[nodiscard]] bool shared_address_space() const noexcept override {
    return true;
  }

  std::uint64_t barrier_wait(int rank, const WatchdogConfig* watchdog = nullptr,
                             RecoveryStats* recovery = nullptr) override {
    std::unique_lock<std::mutex> lock(mutex_);
    throw_if_unusable(rank);
    arrived_[static_cast<std::size_t>(rank)] = 1;
    const std::uint64_t my_generation = generation_;
    if (all_alive_arrived()) {
      release_barrier_locked();
      return release_snapshot_;
    }
    if (watchdog == nullptr || !watchdog->armed()) {
      cv_.wait(lock, [&] {
        return generation_ != my_generation || revoked_.load() ||
               rank_is_failed(rank);
      });
    } else {
      watchdog_wait_locked(lock, rank, my_generation, *watchdog, recovery);
    }
    if (generation_ != my_generation) return release_snapshot_;
    // Woken without a release: revoked, or this rank was marked dead while
    // waiting. Withdraw the arrival so the flag cannot leak into a later
    // generation, then raise.
    arrived_[static_cast<std::size_t>(rank)] = 0;
    lock.unlock();
    throw RankFailedError(revoked_.load()
                              ? "communicator revoked during a collective"
                              : "rank failed while inside a barrier");
  }

  void revoke() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      revoked_.store(true);
    }
    cv_.notify_all();
    recovery_cv_.notify_all();
  }

  void on_failure_update() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!revoked_.load() && any_arrived() && all_alive_arrived()) {
        release_barrier_locked();
      }
      if (any_recovery_arrived() && all_alive_recovery_arrived()) {
        std::fill(recovery_arrived_.begin(), recovery_arrived_.end(), 0);
        ++recovery_generation_;
      }
    }
    cv_.notify_all();
    recovery_cv_.notify_all();
  }

  [[nodiscard]] std::vector<std::uint8_t>& staging(int rank) override {
    return staging_[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] const std::vector<std::uint8_t>& staging_view(
      int rank) const override {
    return staging_[static_cast<std::size_t>(rank)];
  }

  void p2p_send(int source, int destination, int tag,
                std::vector<std::uint8_t> payload) override {
    mailbox(source, destination).deposit(tag, std::move(payload));
  }

  [[nodiscard]] std::optional<std::vector<std::uint8_t>> p2p_collect(
      int source, int destination, int tag,
      const std::function<bool()>& abort) override {
    return mailbox(source, destination).collect(tag, abort);
  }

  [[nodiscard]] std::shared_ptr<Context> make_child(
      int parent_rank, int group_leader, int /*group_index*/,
      std::vector<int> group_globals,
      const std::function<void()>& sync) override {
    const int group_size = static_cast<int>(group_globals.size());
    // The group leader allocates the shared context and publishes a pointer
    // to a shared_ptr that peers copy (ownership is shared safely because
    // the source shared_ptr outlives the exchange's closing barrier).
    std::shared_ptr<Context> new_context;
    std::shared_ptr<Context> leader_holder;
    if (parent_rank == group_leader) {
      leader_holder = std::make_shared<ThreadContext>(
          group_size, registry_, std::move(group_globals));
      pointer_slot(parent_rank) = &leader_holder;
    }
    sync();
    {
      const auto* holder = static_cast<const std::shared_ptr<Context>*>(
          pointer_slot(group_leader));
      new_context = *holder;
    }
    sync();
    return new_context;
  }

  [[nodiscard]] ShrinkResult shrink_exchange(int rank) override {
    recovery_barrier_wait(rank);

    const auto alive = alive_local_ranks();
    UOI_CHECK(!alive.empty(), "shrink with no surviving ranks");
    int new_rank = -1;
    std::vector<int> new_globals;
    new_globals.reserve(alive.size());
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (alive[i] == rank) new_rank = static_cast<int>(i);
      new_globals.push_back(global_rank(alive[i]));
    }
    UOI_CHECK(new_rank >= 0, "shrink called by a failed rank");

    // The lowest surviving rank builds the fresh context and publishes it
    // through the recovery slot (the staging area belongs to the revoked
    // normal path).
    std::shared_ptr<Context> fresh;
    std::shared_ptr<Context> leader_holder;
    if (rank == alive.front()) {
      leader_holder = std::make_shared<ThreadContext>(
          static_cast<int>(alive.size()), registry_, std::move(new_globals));
      recovery_slot_ = &leader_holder;
    }
    recovery_barrier_wait(rank);
    {
      const auto* holder =
          static_cast<const std::shared_ptr<Context>*>(recovery_slot_);
      fresh = *holder;
    }
    recovery_barrier_wait(rank);
    return {std::move(fresh), new_rank};
  }

  // Implemented in window.cpp (needs the Comm API for the registration
  // exchange).
  [[nodiscard]] std::shared_ptr<WindowBackend> make_window(
      Comm& comm, std::span<double> local) override;

  /// Raw pointer slot for `rank`; used to hand shared_ptr control blocks and
  /// split results between ranks inside a two-barrier exchange.
  [[nodiscard]] const void*& pointer_slot(int rank) {
    return pointer_slots_[static_cast<std::size_t>(rank)];
  }

  /// Point-to-point channel from `source` to `destination`.
  [[nodiscard]] Mailbox& mailbox(int source, int destination) {
    return mailboxes_[static_cast<std::size_t>(source) *
                          static_cast<std::size_t>(size_) +
                      static_cast<std::size_t>(destination)];
  }

 private:
  /// Barrier over the *alive* ranks only, on state disjoint from the
  /// normal barrier; used exclusively by the shrink protocol (which runs
  /// on a revoked context). The alive set is stable inside shrink — kills
  /// only trigger at normal collective entries — so no snapshot is needed.
  void recovery_barrier_wait(int rank) {
    std::unique_lock<std::mutex> lock(mutex_);
    UOI_CHECK(!rank_is_failed(rank),
              "a failed rank entered the recovery barrier");
    recovery_arrived_[static_cast<std::size_t>(rank)] = 1;
    const std::uint64_t my_generation = recovery_generation_;
    if (all_alive_recovery_arrived()) {
      std::fill(recovery_arrived_.begin(), recovery_arrived_.end(), 0);
      ++recovery_generation_;
      recovery_cv_.notify_all();
      return;
    }
    recovery_cv_.wait(lock,
                      [&] { return recovery_generation_ != my_generation; });
  }

  void throw_if_unusable(int rank) {
    if (revoked_.load()) {
      throw RankFailedError("collective on a revoked communicator");
    }
    if (rank_is_failed(rank)) {
      throw RankFailedError("collective entered by a failed rank");
    }
  }

  /// Global ranks that are alive but have not arrived at the current
  /// barrier generation. Caller holds mutex_.
  [[nodiscard]] std::vector<int> straggler_globals_locked() const {
    std::vector<int> out;
    for (int r = 0; r < size_; ++r) {
      if (!rank_is_failed(r) && arrived_[static_cast<std::size_t>(r)] == 0) {
        out.push_back(global_rank(r));
      }
    }
    return out;
  }

  /// Deadline-bounded barrier wait (watchdog armed). Two-phase cycle:
  /// suspect every straggler at timeout/2, then at the full timeout either
  /// clear the suspicion (its progress epoch advanced — slow but alive) or
  /// claim it and promote it to failed. The cycle restarts after each
  /// confirmation round so a rank that wedges later is still caught.
  /// Registry calls run with mutex_ released (lock order: registry before
  /// context; mark_failed sweeps back into on_failure_update).
  void watchdog_wait_locked(std::unique_lock<std::mutex>& lock, int rank,
                            std::uint64_t my_generation,
                            const WatchdogConfig& watchdog,
                            RecoveryStats* recovery) {
    const auto released = [&] {
      return generation_ != my_generation || revoked_.load() ||
             rank_is_failed(rank);
    };
    const auto timeout = std::chrono::milliseconds(watchdog.timeout_ms);
    const auto poll = std::chrono::milliseconds(
        std::max<long>(1, std::min<long>(watchdog.timeout_ms / 8, 50)));
    auto cycle_start = std::chrono::steady_clock::now();
    bool suspects_recorded = false;
    while (!released()) {
      cv_.wait_for(lock, poll);
      if (released()) return;
      // Polling is progress: this rank may itself be a straggler of some
      // *other* communicator's collective (a group member waiting on a hung
      // peer stalls transitively), and only the rank whose poll loop has
      // genuinely frozen should ever be confirmed. bump_progress is pure
      // atomics, so it is safe under mutex_.
      registry_->bump_progress(global_rank(rank));
      const auto elapsed = std::chrono::steady_clock::now() - cycle_start;
      if (!suspects_recorded && elapsed * 2 >= timeout) {
        const auto stragglers = straggler_globals_locked();
        lock.unlock();
        for (const int g : stragglers) registry_->suspect(g);
        lock.lock();
        suspects_recorded = true;
      } else if (suspects_recorded && elapsed >= timeout) {
        const auto stragglers = straggler_globals_locked();
        lock.unlock();
        for (const int g : stragglers) {
          switch (registry_->confirm_or_clear_suspect(g)) {
            case FailureRegistry::SuspectVerdict::kConfirmed:
              if (recovery != nullptr) {
                ++recovery->hangs_detected;
                recovery->detect_seconds +=
                    std::chrono::duration<double>(elapsed).count();
              }
              break;
            case FailureRegistry::SuspectVerdict::kCleared:
              if (recovery != nullptr) ++recovery->suspects_cleared;
              break;
            case FailureRegistry::SuspectVerdict::kNone:
              break;
          }
        }
        lock.lock();
        cycle_start = std::chrono::steady_clock::now();
        suspects_recorded = false;
      }
    }
  }

  [[nodiscard]] bool any_arrived() const {
    return std::any_of(arrived_.begin(), arrived_.end(),
                       [](char a) { return a != 0; });
  }
  [[nodiscard]] bool all_alive_arrived() const {
    for (int r = 0; r < size_; ++r) {
      if (!rank_is_failed(r) && arrived_[static_cast<std::size_t>(r)] == 0) {
        return false;
      }
    }
    return true;
  }
  [[nodiscard]] bool any_recovery_arrived() const {
    return std::any_of(recovery_arrived_.begin(), recovery_arrived_.end(),
                       [](char a) { return a != 0; });
  }
  [[nodiscard]] bool all_alive_recovery_arrived() const {
    for (int r = 0; r < size_; ++r) {
      if (!rank_is_failed(r) &&
          recovery_arrived_[static_cast<std::size_t>(r)] == 0) {
        return false;
      }
    }
    return true;
  }

  void release_barrier_locked() {
    std::fill(arrived_.begin(), arrived_.end(), 0);
    ++generation_;
    release_snapshot_ = registry_->fail_seq();
    cv_.notify_all();
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable recovery_cv_;
  std::vector<char> arrived_;           // guarded by mutex_
  std::vector<char> recovery_arrived_;  // guarded by mutex_
  std::uint64_t generation_ = 0;
  std::uint64_t recovery_generation_ = 0;
  std::uint64_t release_snapshot_ = 0;
  const void* recovery_slot_ = nullptr;
  std::vector<std::vector<std::uint8_t>> staging_;
  std::vector<const void*> pointer_slots_;
  std::vector<Mailbox> mailboxes_;
};

inline std::uint64_t FailureRegistry::mark_failed(int global_rank) {
  std::uint64_t my_seq = 0;
  bool newly_failed = false;
  std::function<void(int)> broadcast;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!failed_[static_cast<std::size_t>(global_rank)].exchange(true)) {
      newly_failed = true;
      my_seq = fail_seq_.fetch_add(1) + 1;
      death_seq_[static_cast<std::size_t>(global_rank)] = my_seq;
    } else {
      my_seq = death_seq_[static_cast<std::size_t>(global_rank)];
    }
    // Sweep under the registry lock (lock order: registry before context)
    // so a context cannot be unregistered and destroyed mid-sweep.
    for (Context* context : contexts_) context->on_failure_update();
    if (newly_failed) broadcast = failure_broadcast_;
  }
  cv_.notify_all();
  if (broadcast) broadcast(global_rank);
  return my_seq;
}

}  // namespace uoi::sim::detail
