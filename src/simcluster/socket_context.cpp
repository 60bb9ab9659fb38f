#include "simcluster/socket_context.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>

#include "simcluster/comm.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "transport/frame.hpp"

namespace uoi::sim::detail {

// Defined in window.cpp; shared with the thread backend so both inject and
// detect corruption identically.
void corrupt_first_element(std::span<double> data);
bool onesided_crc_enabled();

namespace {

/// Origin-process-unique correlation ids for window request/reply pairs.
std::atomic<std::uint64_t> next_request_id{1};

/// Child id sub-intervals: a parent interval is divided into 4096 slots;
/// a split event consumes up to 63 slots (one per color group) and a
/// shrink exactly one, so slot ordinals replay identically on every member.
constexpr std::int64_t kIdSlots = 4096;
constexpr int kSlotsPerEvent = 64;
constexpr int kShrinkSlot = kSlotsPerEvent - 1;

std::vector<std::uint32_t> to_u32(const std::vector<int>& ranks) {
  std::vector<std::uint32_t> out;
  out.reserve(ranks.size());
  for (const int r : ranks) out.push_back(static_cast<std::uint32_t>(r));
  return out;
}

}  // namespace

SocketContext::SocketContext(
    std::shared_ptr<transport::SocketRuntime> runtime,
    std::shared_ptr<FailureRegistry> registry, int size, int local_rank,
    std::vector<int> global_ranks, std::int64_t id_lo, std::int64_t id_span)
    : Context(size, id_lo, std::move(registry), std::move(global_ranks)),
      runtime_(std::move(runtime)),
      local_rank_(local_rank),
      id_lo_(id_lo),
      id_span_(id_span),
      mirror_(static_cast<std::size_t>(size)),
      inboxes_(static_cast<std::size_t>(size)) {
  UOI_CHECK(local_rank_ >= 0 && local_rank_ < size,
            "socket context local rank out of range");
  // Register last: frames may arrive (and replay) the moment the sink is
  // visible, and the registry sweep may call on_failure_update right away.
  registry_->register_context(this);
  runtime_->register_sink(comm_id_, this);
}

SocketContext::~SocketContext() {
  // Unregister the sink first: it blocks until any in-flight on_frame
  // completes, after which no new frame can reach this object.
  runtime_->unregister_sink(comm_id_);
  registry_->unregister_context(this);
}

// --- Barrier ---------------------------------------------------------------

void SocketContext::release_ready_generations_locked() {
  for (;;) {
    auto it = arrived_.find(generation_);
    if (it == arrived_.end()) return;
    for (int r = 0; r < size_; ++r) {
      if (!rank_is_failed(r) && it->second.count(r) == 0) return;
    }
    arrived_.erase(it);
    ++generation_;
    release_snapshot_ = registry_->fail_seq();
  }
}

std::vector<int> SocketContext::straggler_globals_locked(
    std::uint64_t gen) const {
  std::vector<int> out;
  const auto it = arrived_.find(gen);
  for (int r = 0; r < size_; ++r) {
    if (rank_is_failed(r)) continue;
    if (it == arrived_.end() || it->second.count(r) == 0) {
      out.push_back(global_rank(r));
    }
  }
  return out;
}

std::uint64_t SocketContext::barrier_wait(int rank,
                                          const WatchdogConfig* watchdog,
                                          RecoveryStats* recovery) {
  UOI_CHECK(rank == local_rank_,
            "socket barrier entered for a rank this process does not own");
  transport::BarrierEnterMsg enter;
  std::uint64_t my_generation = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (revoked_.load()) {
      throw RankFailedError("collective on a revoked communicator");
    }
    if (rank_is_failed(rank)) {
      throw RankFailedError("collective entered by a failed rank");
    }
    my_generation = generation_;
    enter.comm_id = comm_id_;
    enter.generation = my_generation;
    enter.local_rank = static_cast<std::uint32_t>(rank);
    for (const int slot : dirty_slots_) {
      enter.updates.push_back({static_cast<std::uint32_t>(slot),
                               mirror_[static_cast<std::size_t>(slot)]});
    }
    dirty_slots_.clear();
    arrived_[my_generation].insert(rank);
    release_ready_generations_locked();
  }
  // Peers need this enter even if every peer already arrived here: their
  // own release waits on it.
  broadcast_to_members(enter.encode());

  std::unique_lock<std::mutex> lock(mutex_);
  if (watchdog == nullptr || !watchdog->armed()) {
    cv_.wait(lock, [&] {
      return generation_ != my_generation || revoked_.load() ||
             rank_is_failed(rank);
    });
  } else {
    watchdog_wait_locked(lock, rank, my_generation, *watchdog, recovery);
  }
  if (generation_ != my_generation) return release_snapshot_;
  auto it = arrived_.find(my_generation);
  if (it != arrived_.end()) it->second.erase(rank);
  lock.unlock();
  throw RankFailedError(revoked_.load()
                            ? "communicator revoked during a collective"
                            : "rank failed while inside a barrier");
}

void SocketContext::watchdog_wait_locked(std::unique_lock<std::mutex>& lock,
                                         int rank, std::uint64_t my_generation,
                                         const WatchdogConfig& watchdog,
                                         RecoveryStats* recovery) {
  // Same two-phase suspect/confirm cycle as the thread backend; the
  // stragglers' progress epochs are the keepalive mirrors the transport
  // maintains, so a SIGKILLed or wedged process shows a frozen epoch.
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
    registry_->bump_progress(global_rank(rank));
    const auto elapsed = std::chrono::steady_clock::now() - cycle_start;
    if (!suspects_recorded && elapsed * 2 >= timeout) {
      const auto stragglers = straggler_globals_locked(my_generation);
      lock.unlock();
      for (const int g : stragglers) registry_->suspect(g);
      lock.lock();
      suspects_recorded = true;
    } else if (suspects_recorded && elapsed >= timeout) {
      const auto stragglers = straggler_globals_locked(my_generation);
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

void SocketContext::revoke() {
  {
    // Store under the barrier mutex: the untimed barrier wait evaluates
    // its predicate under it, so an unsynchronized store could slip
    // between the evaluation and the block and lose the wakeup.
    std::lock_guard<std::mutex> lock(mutex_);
    revoked_.store(true);
  }
  transport::RevokeMsg msg;
  msg.comm_id = comm_id_;
  broadcast_to_members(msg.encode());
  cv_.notify_all();
  win_cv_.notify_all();
}

void SocketContext::on_failure_update() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    release_ready_generations_locked();
  }
  cv_.notify_all();
  win_cv_.notify_all();
}

// --- Staging mirror --------------------------------------------------------

std::vector<std::uint8_t>& SocketContext::staging(int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  dirty_slots_.insert(rank);
  return mirror_[static_cast<std::size_t>(rank)];
}

const std::vector<std::uint8_t>& SocketContext::staging_view(int rank) const {
  return mirror_[static_cast<std::size_t>(rank)];
}

// --- Point-to-point --------------------------------------------------------

void SocketContext::p2p_send(int source, int destination, int tag,
                             std::vector<std::uint8_t> payload) {
  UOI_CHECK(source == local_rank_,
            "socket p2p send from a rank this process does not own");
  if (destination == local_rank_) {
    inboxes_[static_cast<std::size_t>(source)].deposit(tag,
                                                       std::move(payload));
    return;
  }
  transport::P2pMsg msg;
  msg.comm_id = comm_id_;
  msg.source = static_cast<std::uint32_t>(source);
  msg.destination = static_cast<std::uint32_t>(destination);
  msg.tag = tag;
  msg.data = std::move(payload);
  runtime_->send(global_rank(destination), msg.encode());
}

std::optional<std::vector<std::uint8_t>> SocketContext::p2p_collect(
    int source, int destination, int tag,
    const std::function<bool()>& abort) {
  UOI_CHECK(destination == local_rank_,
            "socket p2p collect on a rank this process does not own");
  return inboxes_[static_cast<std::size_t>(source)].collect(tag, abort);
}

// --- Children (split) ------------------------------------------------------

std::shared_ptr<Context> SocketContext::make_child(
    int parent_rank, int /*group_leader*/, int group_index,
    std::vector<int> group_globals, const std::function<void()>& sync) {
  UOI_CHECK(group_index >= 0 && group_index < kShrinkSlot,
            "a split produced more color groups than the id plan supports");
  const int group_size = static_cast<int>(group_globals.size());
  const int my_global = global_rank(parent_rank);
  int child_rank = -1;
  for (int r = 0; r < group_size; ++r) {
    if (group_globals[static_cast<std::size_t>(r)] == my_global) {
      child_rank = r;
    }
  }
  UOI_CHECK(child_rank >= 0, "split group does not contain the caller");

  std::int64_t slot = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slot = static_cast<std::int64_t>(child_seq_++) * kSlotsPerEvent +
           group_index;
  }
  const std::int64_t stride = id_span_ / kIdSlots;
  UOI_CHECK((slot + 2) * stride <= id_span_,
            "communicator id interval exhausted by nested splits");
  auto child = std::make_shared<SocketContext>(
      runtime_, registry_, group_size, child_rank, std::move(group_globals),
      id_lo_ + (slot + 1) * stride, stride);
  // Two parent barriers, matching the thread backend's publish/copy
  // exchange so FaultPlan collective-op indices stay aligned per backend.
  sync();
  sync();
  return child;
}

// --- Shrink ----------------------------------------------------------------

Context::ShrinkResult SocketContext::shrink_exchange(int rank) {
  UOI_CHECK(rank == local_rank_,
            "socket shrink entered for a rank this process does not own");
  // Agreement rounds: broadcast my believed-failed set, wait for every
  // believed-alive member's set for the round, then take the union. The
  // protocol converges when every set of a round (including the one this
  // rank broadcast) already equals the union — one extra round after the
  // last piece of news spreads.
  std::vector<int> my_set = registry_->failed_ranks();
  for (std::uint64_t round = 1;; ++round) {
    transport::RecoveryEnterMsg msg;
    msg.comm_id = comm_id_;
    msg.round = round;
    msg.local_rank = static_cast<std::uint32_t>(rank);
    msg.failed_globals = to_u32(my_set);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      recovery_rounds_[round][rank] = my_set;
    }
    broadcast_to_members(msg.encode());

    std::map<int, std::vector<int>> entries;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        if (rank_is_failed(rank)) {
          throw RankKilledError("rank declared dead during shrink recovery");
        }
        const auto& seen = recovery_rounds_[round];
        bool complete = true;
        for (int r = 0; r < size_; ++r) {
          if (!rank_is_failed(r) && seen.count(r) == 0) complete = false;
        }
        if (complete) {
          entries = seen;
          break;
        }
        cv_.wait_for(lock, std::chrono::milliseconds(1));
      }
    }

    std::set<int> unioned(my_set.begin(), my_set.end());
    for (const auto& [sender, failed] : entries) {
      unioned.insert(failed.begin(), failed.end());
    }
    std::vector<int> next(unioned.begin(), unioned.end());
    for (const int g : next) {
      if (!registry_->is_failed(g)) registry_->mark_failed(g);
    }
    bool converged = my_set == next;
    for (const auto& [sender, failed] : entries) {
      if (failed != next) converged = false;
    }
    my_set = std::move(next);
    if (converged) break;
  }

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

  std::int64_t slot = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slot = static_cast<std::int64_t>(child_seq_++) * kSlotsPerEvent +
           kShrinkSlot;
  }
  const std::int64_t stride = id_span_ / kIdSlots;
  UOI_CHECK((slot + 2) * stride <= id_span_,
            "communicator id interval exhausted by nested shrinks");
  // Every survivor derives the identical id and member list, so the fresh
  // contexts interoperate immediately; a fast survivor's first frames on
  // the child are parked by the runtime until this process registers it.
  auto fresh = std::make_shared<SocketContext>(
      runtime_, registry_, static_cast<int>(alive.size()), new_rank,
      std::move(new_globals), id_lo_ + (slot + 1) * stride, stride);
  return {std::move(fresh), new_rank};
}

// --- Windows ---------------------------------------------------------------

/// Message-based one-sided backend: self-targeted ops touch the local
/// exposure directly (same mechanics as the thread backend); remote ops
/// round-trip a WinRequest to the target's io thread. CRC guards travel
/// with the payloads so injected corruption surfaces as the same
/// TransientCommError the shared-memory backend raises.
class SocketWindowBackend final : public WindowBackend {
 public:
  SocketWindowBackend(SocketContext* context, Comm* comm,
                      std::uint64_t ordinal, std::vector<std::size_t> sizes,
                      std::shared_ptr<SocketContext::LocalWindow> local)
      : context_(context),
        comm_(comm),
        ordinal_(ordinal),
        sizes_(std::move(sizes)),
        local_(std::move(local)) {}

  ~SocketWindowBackend() override {
    std::lock_guard<std::mutex> lock(context_->win_mutex_);
    context_->windows_.erase(ordinal_);
  }

  [[nodiscard]] std::size_t size_at(int rank) const override {
    return sizes_[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] std::span<double> local() const override {
    return {local_->base, local_->size};
  }

  bool get(int target, std::size_t offset, std::span<double> out,
           const OneSidedAction& action) override {
    support::Stopwatch watch;
    busy_wait_seconds(action.delay_seconds);
    const bool check_crc = onesided_crc_enabled() && !out.empty();
    std::uint32_t source_crc = 0;
    if (target == comm_->rank()) {
      if (!out.empty()) {
        if (check_crc) {
          source_crc = support::crc32(local_->base + offset, out.size_bytes());
        }
        std::memcpy(out.data(), local_->base + offset, out.size_bytes());
      }
    } else {
      transport::WinRequestMsg request = make_request(
          transport::WinOp::kGet, offset, out.size(), check_crc);
      auto reply = context_->window_roundtrip(target, request);
      if (!reply.has_value()) return false;
      if (reply->status != transport::WinStatus::kOk) {
        raise_no_window();
      }
      UOI_CHECK(reply->data.size() == out.size_bytes(),
                "one-sided get reply has the wrong payload size");
      std::memcpy(out.data(), reply->data.data(), out.size_bytes());
      source_crc = reply->crc;
    }
    if (action.corrupt) corrupt_first_element(out);
    comm_->account_onesided(out.size_bytes(), watch.seconds(), target);
    if (check_crc &&
        support::crc32(out.data(), out.size_bytes()) != source_crc) {
      charge_crc_fault();
      throw TransientCommError("one-sided get payload failed the CRC check");
    }
    return true;
  }

  bool put(int target, std::size_t offset, std::span<const double> in,
           const OneSidedAction& action) override {
    support::Stopwatch watch;
    busy_wait_seconds(action.delay_seconds);
    const bool check_crc = onesided_crc_enabled() && !in.empty();
    bool crc_mismatch = false;
    if (target == comm_->rank()) {
      if (!in.empty()) {
        const std::uint32_t source_crc =
            check_crc ? support::crc32(in.data(), in.size_bytes()) : 0;
        std::lock_guard<std::mutex> lock(local_->lock);
        std::memcpy(local_->base + offset, in.data(), in.size_bytes());
        if (action.corrupt) {
          corrupt_first_element({local_->base + offset, in.size()});
        }
        crc_mismatch = check_crc &&
                       support::crc32(local_->base + offset,
                                      in.size_bytes()) != source_crc;
      }
    } else if (!in.empty()) {
      const std::uint32_t source_crc =
          check_crc ? support::crc32(in.data(), in.size_bytes()) : 0;
      transport::WinRequestMsg request =
          make_request(transport::WinOp::kPut, offset, in.size(), check_crc);
      request.data.resize(in.size_bytes());
      std::memcpy(request.data.data(), in.data(), in.size_bytes());
      // Fault injection corrupts the payload client-side, before the CRC
      // computed from the caller's buffer leaves with it: the target CRCs
      // what actually landed, and the mismatch comes back in the reply.
      if (action.corrupt) {
        corrupt_first_element(
            {reinterpret_cast<double*>(request.data.data()), in.size()});
      }
      auto reply = context_->window_roundtrip(target, request);
      if (!reply.has_value()) return false;
      if (reply->status != transport::WinStatus::kOk) {
        raise_no_window();
      }
      crc_mismatch = check_crc && reply->crc != source_crc;
    }
    comm_->account_onesided(in.size_bytes(), watch.seconds(), target);
    if (crc_mismatch) {
      charge_crc_fault();
      throw TransientCommError("one-sided put payload failed the CRC check");
    }
    return true;
  }

  bool accumulate_add(int target, std::size_t offset,
                      std::span<const double> in,
                      const OneSidedAction& /*action*/) override {
    support::Stopwatch watch;
    if (!in.empty()) {
      if (target == comm_->rank()) {
        std::lock_guard<std::mutex> lock(local_->lock);
        double* base = local_->base + offset;
        for (std::size_t i = 0; i < in.size(); ++i) base[i] += in[i];
      } else {
        transport::WinRequestMsg request = make_request(
            transport::WinOp::kAccumulate, offset, in.size(), false);
        request.data.resize(in.size_bytes());
        std::memcpy(request.data.data(), in.data(), in.size_bytes());
        auto reply = context_->window_roundtrip(target, request);
        if (!reply.has_value()) return false;
        if (reply->status != transport::WinStatus::kOk) {
          raise_no_window();
        }
      }
    }
    comm_->account_onesided(in.size_bytes(), watch.seconds(), target);
    return true;
  }

  bool fetch_add(int target, std::size_t offset, double delta,
                 const OneSidedAction& action, double& previous) override {
    support::Stopwatch watch;
    busy_wait_seconds(action.delay_seconds);
    if (target == comm_->rank()) {
      std::lock_guard<std::mutex> lock(local_->lock);
      double* cell = local_->base + offset;
      previous = *cell;
      *cell += delta;
    } else {
      transport::WinRequestMsg request =
          make_request(transport::WinOp::kFetchAdd, offset, 1, false);
      request.delta = delta;
      auto reply = context_->window_roundtrip(target, request);
      if (!reply.has_value()) return false;
      if (reply->status != transport::WinStatus::kOk) {
        raise_no_window();
      }
      previous = reply->previous;
    }
    comm_->account_onesided(sizeof(double), watch.seconds(), target);
    return true;
  }

 private:
  transport::WinRequestMsg make_request(transport::WinOp op,
                                        std::size_t offset, std::size_t count,
                                        bool want_crc) const {
    transport::WinRequestMsg request;
    request.comm_id = context_->comm_id();
    request.window = ordinal_;
    request.request = next_request_id.fetch_add(1, std::memory_order_relaxed);
    request.origin = static_cast<std::uint32_t>(comm_->rank());
    request.op = op;
    request.offset = offset;
    request.count = count;
    request.want_crc = want_crc ? 1 : 0;
    return request;
  }

  void charge_crc_fault() {
    auto& recovery = comm_->mutable_recovery_stats();
    ++recovery.crc_detected;
    ++recovery.transient_faults;
  }

  [[noreturn]] void raise_no_window() {
    ++comm_->mutable_recovery_stats().transient_faults;
    throw TransientCommError(
        "one-sided target has no matching window registered");
  }

  SocketContext* context_;
  Comm* comm_;
  std::uint64_t ordinal_;
  std::vector<std::size_t> sizes_;
  std::shared_ptr<SocketContext::LocalWindow> local_;
};

std::shared_ptr<WindowBackend> SocketContext::make_window(
    Comm& comm, std::span<double> local) {
  std::uint64_t ordinal = 0;
  auto exposure = std::make_shared<LocalWindow>();
  exposure->base = local.data();
  exposure->size = local.size();
  {
    std::lock_guard<std::mutex> lock(win_mutex_);
    ordinal = win_seq_++;
    windows_[ordinal] = exposure;
  }
  // Exchange sizes and synchronize so every member's exposure is
  // registered before any op can target it. (This is one collective more
  // than the thread backend's registration exchange; cross-backend runs
  // therefore key FaultPlan triggers per backend, not by raw op index.)
  std::vector<std::size_t> mine{local.size()};
  std::vector<std::size_t> sizes(static_cast<std::size_t>(size_), 0);
  comm.allgather(std::span<const std::size_t>(mine),
                 std::span<std::size_t>(sizes));
  comm.barrier();
  return std::make_shared<SocketWindowBackend>(this, &comm, ordinal,
                                               std::move(sizes), exposure);
}

std::optional<transport::WinReplyMsg> SocketContext::window_roundtrip(
    int target, const transport::WinRequestMsg& request) {
  if (rank_is_failed(target)) return std::nullopt;
  runtime_->send(global_rank(target), request.encode());
  std::unique_lock<std::mutex> lock(win_mutex_);
  for (;;) {
    auto it = pending_replies_.find(request.request);
    if (it != pending_replies_.end()) {
      auto reply = std::move(it->second);
      pending_replies_.erase(it);
      return reply;
    }
    if (rank_is_failed(target)) {
      pending_replies_.erase(request.request);
      return std::nullopt;
    }
    win_cv_.wait_for(lock, std::chrono::microseconds(200));
  }
}

void SocketContext::handle_win_request(const transport::WinRequestMsg& msg) {
  transport::WinReplyMsg reply;
  reply.comm_id = comm_id_;
  reply.request = msg.request;
  std::shared_ptr<LocalWindow> window;
  {
    std::lock_guard<std::mutex> lock(win_mutex_);
    auto it = windows_.find(msg.window);
    if (it != windows_.end()) window = it->second;
  }
  if (window == nullptr) {
    reply.status = transport::WinStatus::kNoWindow;
  } else {
    UOI_CHECK(msg.offset + msg.count <= window->size,
              "one-sided request out of the exposed buffer's range");
    const auto byte_count = msg.count * sizeof(double);
    switch (msg.op) {
      case transport::WinOp::kGet: {
        // Mirror the thread backend: gets read without the target lock.
        reply.data.resize(byte_count);
        std::memcpy(reply.data.data(), window->base + msg.offset, byte_count);
        if (msg.want_crc != 0) {
          reply.crc = support::crc32(reply.data.data(), byte_count);
        }
        break;
      }
      case transport::WinOp::kPut: {
        UOI_CHECK(msg.data.size() == byte_count,
                  "one-sided put payload size mismatch");
        std::lock_guard<std::mutex> lock(window->lock);
        std::memcpy(window->base + msg.offset, msg.data.data(), byte_count);
        if (msg.want_crc != 0) {
          // CRC what landed, under the target lock, so a concurrent put to
          // an overlapping range cannot masquerade as corruption.
          reply.crc = support::crc32(window->base + msg.offset, byte_count);
        }
        break;
      }
      case transport::WinOp::kAccumulate: {
        UOI_CHECK(msg.data.size() == byte_count,
                  "one-sided accumulate payload size mismatch");
        std::lock_guard<std::mutex> lock(window->lock);
        double* base = window->base + msg.offset;
        const auto* in = reinterpret_cast<const double*>(msg.data.data());
        for (std::size_t i = 0; i < msg.count; ++i) base[i] += in[i];
        break;
      }
      case transport::WinOp::kFetchAdd: {
        std::lock_guard<std::mutex> lock(window->lock);
        double* cell = window->base + msg.offset;
        reply.previous = *cell;
        *cell += msg.delta;
        break;
      }
    }
  }
  runtime_->send(global_rank(static_cast<int>(msg.origin)), reply.encode());
}

// --- Frame dispatch --------------------------------------------------------

void SocketContext::broadcast_to_members(const transport::Frame& frame) {
  for (int r = 0; r < size_; ++r) {
    if (r != local_rank_) runtime_->send(global_rank(r), frame);
  }
}

void SocketContext::handle_barrier_enter(
    const transport::BarrierEnterMsg& msg) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& update : msg.updates) {
      mirror_[update.rank] = update.data;
    }
    arrived_[msg.generation].insert(static_cast<int>(msg.local_rank));
    release_ready_generations_locked();
  }
  cv_.notify_all();
}

void SocketContext::handle_recovery_enter(
    const transport::RecoveryEnterMsg& msg) {
  std::vector<int> failed;
  failed.reserve(msg.failed_globals.size());
  for (const auto g : msg.failed_globals) failed.push_back(static_cast<int>(g));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    recovery_rounds_[msg.round][static_cast<int>(msg.local_rank)] =
        std::move(failed);
  }
  cv_.notify_all();
}

void SocketContext::on_frame(const transport::Frame& frame) {
  switch (frame.type) {
    case transport::FrameType::kBarrierEnter:
      handle_barrier_enter(transport::BarrierEnterMsg::decode(frame));
      return;
    case transport::FrameType::kRecoveryEnter:
      handle_recovery_enter(transport::RecoveryEnterMsg::decode(frame));
      return;
    case transport::FrameType::kRevoke: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        revoked_.store(true);
      }
      cv_.notify_all();
      win_cv_.notify_all();
      return;
    }
    case transport::FrameType::kP2p: {
      auto msg = transport::P2pMsg::decode(frame);
      UOI_CHECK(static_cast<int>(msg.destination) == local_rank_,
                "p2p frame routed to the wrong process");
      inboxes_[msg.source].deposit(msg.tag, std::move(msg.data));
      return;
    }
    case transport::FrameType::kWinRequest:
      handle_win_request(transport::WinRequestMsg::decode(frame));
      return;
    case transport::FrameType::kWinReply: {
      auto msg = transport::WinReplyMsg::decode(frame);
      {
        std::lock_guard<std::mutex> lock(win_mutex_);
        pending_replies_[msg.request] = std::move(msg);
      }
      win_cv_.notify_all();
      return;
    }
    default:
      UOI_LOG_WARN.field("type", transport::to_string(frame.type))
          << "socket context dropping an unexpected frame";
  }
}

std::shared_ptr<SocketContext> make_root_socket_context(
    std::shared_ptr<transport::SocketRuntime> runtime,
    std::shared_ptr<FailureRegistry> registry, int n_ranks, int local_rank,
    int run_index) {
  const std::int64_t lo = static_cast<std::int64_t>(run_index + 1) << 44;
  const std::int64_t span = std::int64_t{1} << 44;
  std::vector<int> globals(static_cast<std::size_t>(n_ranks));
  for (int r = 0; r < n_ranks; ++r) globals[static_cast<std::size_t>(r)] = r;
  return std::make_shared<SocketContext>(std::move(runtime),
                                         std::move(registry), n_ranks,
                                         local_rank, std::move(globals), lo,
                                         span);
}

}  // namespace uoi::sim::detail
