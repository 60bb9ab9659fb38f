#include "simcluster/comm.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>

#include <unistd.h>

#include "simcluster/context.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace uoi::sim {

namespace {

template <typename T>
void apply_reduce(ReduceOp op, std::span<T> acc, std::span<const T> in) {
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::min(acc[i], in[i]);
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::max(acc[i], in[i]);
      break;
  }
}

template <typename T>
void stage_copy_in(std::vector<std::uint8_t>& slot, std::span<const T> data) {
  slot.resize(data.size_bytes());
  if (!data.empty()) std::memcpy(slot.data(), data.data(), data.size_bytes());
}

template <typename T>
std::span<const T> stage_view(const std::vector<std::uint8_t>& slot) {
  return {reinterpret_cast<const T*>(slot.data()), slot.size() / sizeof(T)};
}

/// Emits one communication span per top-level collective. The software
/// allreduce algorithms (ring, recursive doubling) are built on send/recv,
/// so a thread-local depth counter suppresses the nested spans — the trace
/// shows "allreduce", not thirty point-to-point fragments, and bucket
/// totals count each collective's wall time exactly once. The active
/// (depth-0) span also carries the handle's causal stamp, allocated at
/// entry so stamp order equals program order; suppressed nested spans bump
/// no counters, keeping the per-(peer, tag) edge counters aligned with the
/// events that actually land in the trace.
class CommTraceScope {
 public:
  CommTraceScope(Comm& comm, CommCategory category, int peer = -1,
                 int tag = -1, bool is_send = false)
      : active_(depth()++ == 0),
        category_(category),
        rank_(comm.global_rank()),
        start_(support::Tracer::instance().now_seconds()) {
    if (active_) stamp_ = comm.next_trace_stamp(category, peer, tag, is_send);
  }
  CommTraceScope(const CommTraceScope&) = delete;
  CommTraceScope& operator=(const CommTraceScope&) = delete;
  ~CommTraceScope() {
    --depth();
    if (!active_) return;
    auto& tracer = support::Tracer::instance();
    const double duration = std::max(0.0, tracer.now_seconds() - start_);
    tracer.record(to_string(category_), support::TraceCategory::kCommunication,
                  rank_, start_, duration, stamp_);
  }

 private:
  static int& depth() {
    thread_local int d = 0;
    return d;
  }
  bool active_;
  CommCategory category_;
  int rank_;
  double start_;
  support::TraceStamp stamp_;
};

}  // namespace

const char* to_string(CommCategory category) {
  switch (category) {
    case CommCategory::kBarrier:
      return "barrier";
    case CommCategory::kBcast:
      return "bcast";
    case CommCategory::kReduce:
      return "reduce";
    case CommCategory::kAllreduce:
      return "allreduce";
    case CommCategory::kGather:
      return "gather";
    case CommCategory::kAllgather:
      return "allgather";
    case CommCategory::kScatter:
      return "scatter";
    case CommCategory::kPointToPoint:
      return "point-to-point";
    case CommCategory::kOneSided:
      return "one-sided";
    default:
      return "?";
  }
}

const char* to_string(AllreduceAlgo algo) {
  switch (algo) {
    case AllreduceAlgo::kStaged:
      return "staged";
    case AllreduceAlgo::kRing:
      return "ring";
    case AllreduceAlgo::kRecursiveDoubling:
      return "recursive_doubling";
    case AllreduceAlgo::kHierarchical:
      return "hierarchical";
    case AllreduceAlgo::kAuto:
      return "auto";
    default:
      return "?";
  }
}

bool allreduce_algo_from_string(const char* name, AllreduceAlgo& out) {
  if (name == nullptr) return false;
  const std::string s(name);
  if (s == "staged") {
    out = AllreduceAlgo::kStaged;
  } else if (s == "ring") {
    out = AllreduceAlgo::kRing;
  } else if (s == "recursive_doubling" || s == "rd") {
    out = AllreduceAlgo::kRecursiveDoubling;
  } else if (s == "hierarchical" || s == "hier") {
    out = AllreduceAlgo::kHierarchical;
  } else if (s == "auto") {
    out = AllreduceAlgo::kAuto;
  } else {
    return false;
  }
  return true;
}

AllreduceAlgo allreduce_algo_from_env() {
  const char* env = std::getenv("UOI_ALLREDUCE_ALGO");
  if (env == nullptr || env[0] == '\0') return AllreduceAlgo::kStaged;
  AllreduceAlgo algo = AllreduceAlgo::kStaged;
  if (!allreduce_algo_from_string(env, algo)) {
    UOI_LOG_WARN.field("UOI_ALLREDUCE_ALGO", env)
        << "unknown allreduce algorithm; using staged";
    return AllreduceAlgo::kStaged;
  }
  return algo;
}

int hierarchical_group_size(int comm_size) {
  if (comm_size <= 3) return comm_size;
  const int g = static_cast<int>(
      std::lround(std::sqrt(static_cast<double>(comm_size))));
  return std::max(2, std::min(g, comm_size));
}

CommStats& CommStats::operator+=(const CommStats& other) {
  for (std::size_t c = 0; c < entries.size(); ++c) {
    entries[c].calls += other.entries[c].calls;
    entries[c].bytes += other.entries[c].bytes;
    entries[c].seconds += other.entries[c].seconds;
  }
  return *this;
}

double CommStats::collective_seconds() const {
  double total = 0.0;
  for (int c = 0; c < static_cast<int>(CommCategory::kCategoryCount); ++c) {
    if (c == static_cast<int>(CommCategory::kOneSided)) continue;
    total += entries[static_cast<std::size_t>(c)].seconds;
  }
  return total;
}

double CommStats::onesided_seconds() const {
  return of(CommCategory::kOneSided).seconds;
}

std::uint64_t CommStats::collective_bytes() const {
  std::uint64_t total = 0;
  for (int c = 0; c < static_cast<int>(CommCategory::kCategoryCount); ++c) {
    if (c == static_cast<int>(CommCategory::kOneSided)) continue;
    total += entries[static_cast<std::size_t>(c)].bytes;
  }
  return total;
}

Comm::Comm(std::shared_ptr<detail::Context> context, int rank)
    : context_(std::move(context)), rank_(rank) {
  UOI_CHECK(context_ != nullptr, "Comm requires a context");
  UOI_CHECK(rank_ >= 0 && rank_ < context_->size(), "rank out of range");
}

Comm::~Comm() = default;

int Comm::size() const noexcept { return context_->size(); }

void Comm::barrier() {
  maybe_kill();
  CommTraceScope span(*this, CommCategory::kBarrier);
  support::Stopwatch watch;
  sync();
  auto& entry = stats_.of(CommCategory::kBarrier);
  ++entry.calls;
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kBarrier, 0);
}

template <typename T>
void Comm::bcast_impl(std::span<T> data, int root) {
  UOI_CHECK(root >= 0 && root < size(), "bcast root out of range");
  maybe_kill();
  CommTraceScope span(*this, CommCategory::kBcast);
  support::Stopwatch watch;
  if (rank_ == root) {
    stage_copy_in<T>(context_->staging(root), data);
  }
  sync();
  if (rank_ != root) {
    const auto view = stage_view<T>(context_->staging_view(root));
    UOI_CHECK_DIMS(view.size() == data.size(), "bcast size mismatch");
    std::copy(view.begin(), view.end(), data.begin());
  }
  sync();
  auto& entry = stats_.of(CommCategory::kBcast);
  ++entry.calls;
  entry.bytes += data.size_bytes();
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kBcast, data.size_bytes());
}

void Comm::bcast(std::span<double> data, int root) { bcast_impl(data, root); }
void Comm::bcast(std::span<std::size_t> data, int root) {
  bcast_impl(data, root);
}
void Comm::bcast(std::span<std::uint8_t> data, int root) {
  bcast_impl(data, root);
}

void Comm::reduce(std::span<double> data, ReduceOp op, int root) {
  UOI_CHECK(root >= 0 && root < size(), "reduce root out of range");
  maybe_kill();
  CommTraceScope span(*this, CommCategory::kReduce);
  support::Stopwatch watch;
  stage_copy_in<double>(context_->staging(rank_), std::span<const double>(data));
  sync();
  if (rank_ == root) {
    // Deterministic reduction order: rank 0, 1, ..., P-1.
    auto first = stage_view<double>(context_->staging_view(0));
    UOI_CHECK_DIMS(first.size() == data.size(), "reduce size mismatch");
    std::copy(first.begin(), first.end(), data.begin());
    for (int r = 1; r < size(); ++r) {
      apply_reduce<double>(op, data,
                           stage_view<double>(context_->staging_view(r)));
    }
  }
  sync();
  auto& entry = stats_.of(CommCategory::kReduce);
  ++entry.calls;
  entry.bytes += data.size_bytes();
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kReduce, data.size_bytes());
}

template <typename T>
void Comm::allreduce_impl(std::span<T> data, ReduceOp op) {
  maybe_kill();
  CommTraceScope span(*this, CommCategory::kAllreduce);
  support::Stopwatch watch;
  stage_copy_in<T>(context_->staging(rank_), std::span<const T>(data));
  sync();
  auto first = stage_view<T>(context_->staging_view(0));
  UOI_CHECK_DIMS(first.size() == data.size(), "allreduce size mismatch");
  std::copy(first.begin(), first.end(), data.begin());
  for (int r = 1; r < size(); ++r) {
    apply_reduce<T>(op, data, stage_view<T>(context_->staging_view(r)));
  }
  sync();
  auto& entry = stats_.of(CommCategory::kAllreduce);
  ++entry.calls;
  entry.bytes += data.size_bytes();
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kAllreduce, data.size_bytes());
}

void Comm::allreduce(std::span<double> data, ReduceOp op) {
  AllreduceAlgo algo = allreduce_algo_;
  if (algo == AllreduceAlgo::kAuto) {
    // Latency-bound cases (small payloads, narrow communicators) stay on
    // the staged algorithm; wide communicators moving real payloads take
    // the two-level tree, mirroring how MPI implementations switch
    // between latency- and bandwidth-optimal algorithms.
    algo = (size() >= 8 && data.size_bytes() >= 8192)
               ? AllreduceAlgo::kHierarchical
               : AllreduceAlgo::kStaged;
  }
  switch (algo) {
    case AllreduceAlgo::kRing:
      return allreduce_ring(data, op);
    case AllreduceAlgo::kRecursiveDoubling:
      return allreduce_recursive_doubling(data, op);
    case AllreduceAlgo::kHierarchical:
      return allreduce_hierarchical(data, op);
    default:
      return allreduce_impl(data, op);
  }
}
void Comm::allreduce(std::span<std::uint64_t> data, ReduceOp op) {
  allreduce_impl(data, op);
}

void Comm::send(int destination, std::span<const double> data, int tag) {
  UOI_CHECK(destination >= 0 && destination < size(),
            "send destination out of range");
  if (context_->revoked()) {
    raise_rank_failed("send on a revoked communicator");
  }
  if (context_->rank_is_failed(destination)) {
    raise_rank_failed("send to a failed rank");
  }
  context_->registry()->bump_progress(global_rank());
  CommTraceScope span(*this, CommCategory::kPointToPoint, destination, tag,
                      /*is_send=*/true);
  support::Stopwatch watch;
  std::vector<std::uint8_t> payload(data.size_bytes());
  if (!data.empty()) {
    std::memcpy(payload.data(), data.data(), data.size_bytes());
  }
  context_->p2p_send(rank_, destination, tag, std::move(payload));
  auto& entry = stats_.of(CommCategory::kPointToPoint);
  ++entry.calls;
  entry.bytes += data.size_bytes();
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kPointToPoint, data.size_bytes());
}

void Comm::recv(int source, std::span<double> data, int tag) {
  UOI_CHECK(source >= 0 && source < size(), "recv source out of range");
  context_->registry()->bump_progress(global_rank());
  CommTraceScope span(*this, CommCategory::kPointToPoint, source, tag,
                      /*is_send=*/false);
  support::Stopwatch watch;
  // Buffered messages win over an abort; an unmatched receive from a dead
  // rank (or on a revoked communicator) raises instead of hanging. With
  // the watchdog armed the wait is additionally deadline-bounded: the
  // source is suspected at half the timeout and declared failed at the
  // full timeout unless its progress epoch advanced (same two-phase cycle
  // as the barrier watchdog).
  const int source_global = context_->global_rank(source);
  support::Stopwatch deadline_watch;
  bool suspected = false;
  auto payload = context_->p2p_collect(source, rank_, tag, [&] {
    if (context_->revoked() || context_->rank_is_failed(source) ||
        context_->rank_is_failed(rank_)) {
      return true;
    }
    if (!watchdog_.armed()) return false;
    auto& registry = *context_->registry();
    // Polling is progress: keep this rank's own epoch moving so a waiter
    // elsewhere cannot mistake a blocked-but-alive receiver for a hang.
    registry.bump_progress(global_rank());
    const double elapsed = deadline_watch.seconds();
    const double timeout = watchdog_.timeout_seconds();
    if (!suspected && elapsed * 2.0 >= timeout) {
      registry.suspect(source_global);
      suspected = true;
    } else if (suspected && elapsed >= timeout) {
      switch (registry.confirm_or_clear_suspect(source_global)) {
        case detail::FailureRegistry::SuspectVerdict::kConfirmed:
          ++recovery_stats_.hangs_detected;
          recovery_stats_.detect_seconds += elapsed;
          return true;  // the source is now failed
        case detail::FailureRegistry::SuspectVerdict::kCleared:
          ++recovery_stats_.suspects_cleared;
          break;
        case detail::FailureRegistry::SuspectVerdict::kNone:
          break;
      }
      deadline_watch.reset();
      suspected = false;
    }
    return false;
  });
  if (!payload.has_value()) {
    raise_rank_failed("receive aborted: source rank failed");
  }
  UOI_CHECK_DIMS(payload->size() == data.size_bytes(),
                 "received message size does not match the recv buffer");
  if (!data.empty()) {
    std::memcpy(data.data(), payload->data(), payload->size());
  }
  auto& entry = stats_.of(CommCategory::kPointToPoint);
  ++entry.calls;
  entry.bytes += data.size_bytes();
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kPointToPoint, data.size_bytes());
}

void Comm::sendrecv(int destination, std::span<const double> send_data,
                    int source, std::span<double> recv_data, int tag) {
  send(destination, send_data, tag);
  recv(source, recv_data, tag);
}

void Comm::allreduce_ring(std::span<double> data, ReduceOp op) {
  maybe_kill();
  const int p = size();
  if (p == 1) {
    auto& entry = stats_.of(CommCategory::kAllreduce);
    ++entry.calls;
    entry.bytes += data.size_bytes();
    return;
  }
  CommTraceScope span(*this, CommCategory::kAllreduce);
  support::Stopwatch watch;
  const std::size_t n = data.size();

  // Chunk boundaries: chunk c covers [bounds[c], bounds[c+1]).
  std::vector<std::size_t> bounds(static_cast<std::size_t>(p) + 1);
  for (int c = 0; c <= p; ++c) {
    bounds[static_cast<std::size_t>(c)] =
        n * static_cast<std::size_t>(c) / static_cast<std::size_t>(p);
  }
  auto chunk = [&](int c) -> std::span<double> {
    const int cc = ((c % p) + p) % p;
    return data.subspan(bounds[static_cast<std::size_t>(cc)],
                        bounds[static_cast<std::size_t>(cc) + 1] -
                            bounds[static_cast<std::size_t>(cc)]);
  };

  const int next = (rank_ + 1) % p;
  const int prev = (rank_ - 1 + p) % p;
  std::vector<double> incoming(bounds[1] - bounds[0] + n / p + 2);

  // Reduce-scatter: after step s, rank r holds the partial reduction of
  // chunk (r - s) over ranks r-s..r.
  for (int step = 0; step < p - 1; ++step) {
    const auto out = chunk(rank_ - step);
    const auto in = chunk(rank_ - step - 1);
    send(next, out, /*tag=*/1000 + step);
    incoming.resize(in.size());
    recv(prev, std::span<double>(incoming.data(), in.size()),
         /*tag=*/1000 + step);
    apply_reduce<double>(op, in,
                         std::span<const double>(incoming.data(), in.size()));
  }
  // Allgather: circulate the finished chunks around the ring.
  for (int step = 0; step < p - 1; ++step) {
    const auto out = chunk(rank_ + 1 - step);
    const auto in = chunk(rank_ - step);
    send(next, out, /*tag=*/2000 + step);
    incoming.resize(in.size());
    recv(prev, std::span<double>(incoming.data(), in.size()),
         /*tag=*/2000 + step);
    std::copy(incoming.begin(), incoming.begin() + static_cast<std::ptrdiff_t>(in.size()),
              in.begin());
  }

  auto& entry = stats_.of(CommCategory::kAllreduce);
  ++entry.calls;
  entry.bytes += data.size_bytes();
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kAllreduce, data.size_bytes());
}

void Comm::allreduce_recursive_doubling(std::span<double> data,
                                        ReduceOp op) {
  maybe_kill();
  const int p = size();
  if (p == 1) {
    auto& entry = stats_.of(CommCategory::kAllreduce);
    ++entry.calls;
    entry.bytes += data.size_bytes();
    return;
  }
  CommTraceScope span(*this, CommCategory::kAllreduce);
  support::Stopwatch watch;
  // Largest power of two <= p.
  int pow2 = 1;
  while (pow2 * 2 <= p) pow2 *= 2;
  const int excess = p - pow2;
  std::vector<double> incoming(data.size());
  const auto reduce_in = [&] {
    apply_reduce<double>(op, data,
                         std::span<const double>(incoming.data(),
                                                 incoming.size()));
  };

  // Fold-in: ranks [pow2, p) send their data to [0, excess) and sit out.
  constexpr int kFoldTag = 3000;
  if (rank_ >= pow2) {
    send(rank_ - pow2, data, kFoldTag);
  } else if (rank_ < excess) {
    recv(rank_ + pow2, incoming, kFoldTag);
    reduce_in();
  }

  if (rank_ < pow2) {
    for (int mask = 1; mask < pow2; mask <<= 1) {
      const int partner = rank_ ^ mask;
      sendrecv(partner, data, partner, incoming, kFoldTag + mask);
      reduce_in();
    }
  }

  // Fold-out: the excess ranks receive the finished result.
  if (rank_ < excess) {
    send(rank_ + pow2, data, kFoldTag + pow2);
  } else if (rank_ >= pow2) {
    recv(rank_ - pow2, data, kFoldTag + pow2);
  }

  auto& entry = stats_.of(CommCategory::kAllreduce);
  ++entry.calls;
  entry.bytes += data.size_bytes();
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kAllreduce, data.size_bytes());
}

void Comm::allreduce_hierarchical(std::span<double> data, ReduceOp op,
                                  int group_size) {
  maybe_kill();
  const int p = size();
  if (p == 1) {
    auto& entry = stats_.of(CommCategory::kAllreduce);
    ++entry.calls;
    entry.bytes += data.size_bytes();
    return;
  }
  int g = group_size > 0 ? std::min(group_size, p) : hierarchical_group_size(p);
  if (g <= 1) {
    // Every rank is its own leader: degenerates to the flat leader
    // exchange, which recursive doubling already implements.
    return allreduce_recursive_doubling(data, op);
  }
  CommTraceScope span(*this, CommCategory::kAllreduce);
  support::Stopwatch watch;

  const int leader = (rank_ / g) * g;
  const int group_end = std::min(leader + g, p);
  const int members = group_end - leader;
  const int lrank = rank_ - leader;
  const std::size_t n = data.size();
  std::vector<double> incoming(n);

  // Phase 1: intra-group ring allreduce (reduce-scatter + allgather among
  // the member ranks). Afterwards every member — in particular the leader
  // — holds the group sum. Tag bases are phase-local; FIFO order per
  // (source, destination, tag) keeps back-to-back hierarchical calls from
  // interleaving.
  if (members > 1) {
    std::vector<std::size_t> bounds(static_cast<std::size_t>(members) + 1);
    for (int c = 0; c <= members; ++c) {
      bounds[static_cast<std::size_t>(c)] =
          n * static_cast<std::size_t>(c) / static_cast<std::size_t>(members);
    }
    auto chunk = [&](int c) -> std::span<double> {
      const int cc = ((c % members) + members) % members;
      return data.subspan(bounds[static_cast<std::size_t>(cc)],
                          bounds[static_cast<std::size_t>(cc) + 1] -
                              bounds[static_cast<std::size_t>(cc)]);
    };
    const int next = leader + (lrank + 1) % members;
    const int prev = leader + (lrank - 1 + members) % members;
    for (int step = 0; step < members - 1; ++step) {
      const auto out = chunk(lrank - step);
      const auto in = chunk(lrank - step - 1);
      send(next, out, /*tag=*/4000 + step);
      recv(prev, std::span<double>(incoming.data(), in.size()),
           /*tag=*/4000 + step);
      apply_reduce<double>(
          op, in, std::span<const double>(incoming.data(), in.size()));
    }
    for (int step = 0; step < members - 1; ++step) {
      const auto out = chunk(lrank + 1 - step);
      const auto in = chunk(lrank - step);
      send(next, out, /*tag=*/4200 + step);
      recv(prev, std::span<double>(incoming.data(), in.size()),
           /*tag=*/4200 + step);
      std::copy(incoming.begin(),
                incoming.begin() + static_cast<std::ptrdiff_t>(in.size()),
                in.begin());
    }
  }

  // Phase 2: the group leaders (ranks 0, g, 2g, ...) recursive-double
  // among themselves; non-power-of-two leader counts fold the excess
  // leaders in and out exactly like the flat algorithm.
  const int n_leaders = (p + g - 1) / g;
  if (rank_ == leader && n_leaders > 1) {
    const int li = rank_ / g;
    const auto leader_rank = [&](int i) { return i * g; };
    int pow2 = 1;
    while (pow2 * 2 <= n_leaders) pow2 *= 2;
    const int excess = n_leaders - pow2;
    const auto reduce_in = [&] {
      apply_reduce<double>(
          op, data, std::span<const double>(incoming.data(), incoming.size()));
    };
    constexpr int kFoldTag = 4600;
    if (li >= pow2) {
      send(leader_rank(li - pow2), data, kFoldTag);
    } else if (li < excess) {
      recv(leader_rank(li + pow2), incoming, kFoldTag);
      reduce_in();
    }
    if (li < pow2) {
      for (int mask = 1; mask < pow2; mask <<= 1) {
        const int partner = leader_rank(li ^ mask);
        sendrecv(partner, data, partner, incoming, /*tag=*/4700 + mask);
        reduce_in();
      }
    }
    if (li < excess) {
      send(leader_rank(li + pow2), data, kFoldTag);
    } else if (li >= pow2) {
      recv(leader_rank(li - pow2), data, kFoldTag);
    }
  }

  // Phase 3: each leader fans the global result back out to its members.
  if (members > 1) {
    constexpr int kBcastTag = 4999;
    if (rank_ == leader) {
      for (int m = leader + 1; m < group_end; ++m) send(m, data, kBcastTag);
    } else {
      recv(leader, data, kBcastTag);
    }
  }

  auto& entry = stats_.of(CommCategory::kAllreduce);
  ++entry.calls;
  entry.bytes += data.size_bytes();
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kAllreduce, data.size_bytes());
}

bool Comm::all_agree(bool local) {
  std::uint64_t flag = local ? 1 : 0;
  allreduce(std::span<std::uint64_t>(&flag, 1), ReduceOp::kMin);
  return flag == 1;
}

void Comm::gather(std::span<const double> send, std::span<double> recv,
                  int root) {
  UOI_CHECK(root >= 0 && root < size(), "gather root out of range");
  maybe_kill();
  CommTraceScope span(*this, CommCategory::kGather);
  support::Stopwatch watch;
  stage_copy_in<double>(context_->staging(rank_), send);
  sync();
  if (rank_ == root) {
    UOI_CHECK_DIMS(recv.size() == send.size() * static_cast<std::size_t>(size()),
                   "gather recv buffer has the wrong size");
    for (int r = 0; r < size(); ++r) {
      const auto view = stage_view<double>(context_->staging_view(r));
      UOI_CHECK_DIMS(view.size() == send.size(), "gather contribution size");
      std::copy(view.begin(), view.end(),
                recv.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(r) * send.size()));
    }
  }
  sync();
  auto& entry = stats_.of(CommCategory::kGather);
  ++entry.calls;
  entry.bytes += send.size_bytes();
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kGather, send.size_bytes());
}

template <typename T>
void Comm::allgather_impl(std::span<const T> send, std::span<T> recv) {
  UOI_CHECK_DIMS(recv.size() == send.size() * static_cast<std::size_t>(size()),
                 "allgather recv buffer has the wrong size");
  maybe_kill();
  CommTraceScope span(*this, CommCategory::kAllgather);
  support::Stopwatch watch;
  stage_copy_in<T>(context_->staging(rank_), send);
  sync();
  for (int r = 0; r < size(); ++r) {
    const auto view = stage_view<T>(context_->staging_view(r));
    UOI_CHECK_DIMS(view.size() == send.size(), "allgather contribution size");
    std::copy(view.begin(), view.end(),
              recv.begin() + static_cast<std::ptrdiff_t>(
                                 static_cast<std::size_t>(r) * send.size()));
  }
  sync();
  auto& entry = stats_.of(CommCategory::kAllgather);
  ++entry.calls;
  entry.bytes += send.size_bytes() * static_cast<std::size_t>(size());
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kAllgather, send.size_bytes() * static_cast<std::size_t>(size()));
}

void Comm::allgather(std::span<const double> send, std::span<double> recv) {
  allgather_impl(send, recv);
}
void Comm::allgather(std::span<const std::size_t> send,
                     std::span<std::size_t> recv) {
  allgather_impl(send, recv);
}

std::vector<double> Comm::allgather_variable(
    std::span<const double> send, std::vector<std::size_t>* counts) {
  maybe_kill();
  CommTraceScope span(*this, CommCategory::kAllgather);
  support::Stopwatch watch;
  stage_copy_in<double>(context_->staging(rank_), send);
  sync();
  std::vector<double> out;
  if (counts != nullptr) counts->assign(static_cast<std::size_t>(size()), 0);
  for (int r = 0; r < size(); ++r) {
    const auto view = stage_view<double>(context_->staging_view(r));
    if (counts != nullptr) (*counts)[static_cast<std::size_t>(r)] = view.size();
    out.insert(out.end(), view.begin(), view.end());
  }
  sync();
  auto& entry = stats_.of(CommCategory::kAllgather);
  ++entry.calls;
  entry.bytes += out.size() * sizeof(double);
  entry.seconds += watch.seconds();
  entry.seconds +=
      inject_latency(CommCategory::kAllgather, out.size() * sizeof(double));
  return out;
}

void Comm::scatter(std::span<const double> send, std::span<double> recv,
                   int root) {
  UOI_CHECK(root >= 0 && root < size(), "scatter root out of range");
  maybe_kill();
  CommTraceScope span(*this, CommCategory::kScatter);
  support::Stopwatch watch;
  if (rank_ == root) {
    UOI_CHECK_DIMS(send.size() == recv.size() * static_cast<std::size_t>(size()),
                   "scatter send buffer has the wrong size");
    stage_copy_in<double>(context_->staging(root), send);
  }
  sync();
  {
    const auto view = stage_view<double>(context_->staging_view(root));
    UOI_CHECK_DIMS(view.size() == recv.size() * static_cast<std::size_t>(size()),
                   "scatter staged size mismatch");
    const auto begin =
        view.begin() + static_cast<std::ptrdiff_t>(
                           static_cast<std::size_t>(rank_) * recv.size());
    std::copy(begin, begin + static_cast<std::ptrdiff_t>(recv.size()),
              recv.begin());
  }
  sync();
  auto& entry = stats_.of(CommCategory::kScatter);
  ++entry.calls;
  entry.bytes += recv.size_bytes();
  entry.seconds += watch.seconds();
  entry.seconds += inject_latency(CommCategory::kScatter, recv.size_bytes());
}

Comm Comm::split(int color, int key) {
  maybe_kill();
  // Exchange (color, key) triples through the staging area, then rank 0
  // builds the new contexts and publishes them via the pointer slots.
  struct Request {
    int color;
    int key;
  };
  Request mine{color, key};
  auto& slot = context_->staging(rank_);
  slot.resize(sizeof(Request));
  std::memcpy(slot.data(), &mine, sizeof(Request));
  sync();

  // Every rank computes the same grouping deterministically (cheaper than a
  // root-plus-publish protocol and trivially correct).
  std::vector<std::tuple<int, int, int>> members;  // (color, key, old rank)
  members.reserve(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    Request req{};
    std::memcpy(&req, context_->staging_view(r).data(), sizeof(Request));
    members.emplace_back(req.color, req.key, r);
  }
  std::sort(members.begin(), members.end());

  int group_size = 0;
  int new_rank = -1;
  int group_leader = -1;           // old rank of the first member of my group
  int group_index = 0;             // ordinal of my color among the groups
  std::vector<int> group_globals;  // job-wide ranks in new-rank order
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int member_color = std::get<0>(members[i]);
    if (member_color < color &&
        (i == 0 || member_color != std::get<0>(members[i - 1]))) {
      ++group_index;
    }
    if (member_color != color) continue;
    if (group_leader < 0) group_leader = std::get<2>(members[i]);
    if (std::get<2>(members[i]) == rank_) new_rank = group_size;
    group_globals.push_back(context_->global_rank(std::get<2>(members[i])));
    ++group_size;
  }
  UOI_CHECK(new_rank >= 0, "split bookkeeping failure");

  // The backend builds every member an equivalent child context; the
  // group index keeps concurrently-created sibling contexts' communicator
  // ids distinct across processes in the socket backend.
  auto new_context = context_->make_child(rank_, group_leader, group_index,
                                          std::move(group_globals),
                                          [this] { sync(); });
  Comm child(std::move(new_context), new_rank);
  // Children emulate the same network and fault schedule as their parent,
  // and inherit its failure horizon: anything the parent handle already
  // acknowledged must not re-raise through the child.
  child.latency_injector_ = latency_injector_;
  child.fault_plan_ = fault_plan_;
  child.watchdog_ = watchdog_;
  child.allreduce_algo_ = allreduce_algo_;
  child.acknowledged_fail_seq_ = acknowledged_fail_seq_;
  return child;
}

void Comm::revoke() { context_->revoke(); }

/// RAII span carrying a pre-allocated causal stamp; records even when the
/// guarded scope unwinds with an exception (like TraceScope).
class StampedTraceScope {
 public:
  StampedTraceScope(const char* name, support::TraceCategory category,
                    int rank, support::TraceStamp stamp)
      : name_(name),
        category_(category),
        rank_(rank),
        stamp_(stamp),
        start_(support::Tracer::instance().now_seconds()) {}
  StampedTraceScope(const StampedTraceScope&) = delete;
  StampedTraceScope& operator=(const StampedTraceScope&) = delete;
  ~StampedTraceScope() {
    auto& tracer = support::Tracer::instance();
    const double duration = std::max(0.0, tracer.now_seconds() - start_);
    tracer.record(name_, category_, rank_, start_, duration, stamp_);
  }

 private:
  const char* name_;
  support::TraceCategory category_;
  int rank_;
  support::TraceStamp stamp_;
  double start_;
};

Comm Comm::shrink() {
  auto registry = context_->registry();
  // Shrink groups match across ranks by occurrence, not by the collective
  // edge counter: ranks can reach shrink through asymmetric failure paths
  // (some from a revoked collective, some directly), so only the count of
  // completed shrinks on this handle is guaranteed to agree on every
  // survivor.
  support::TraceStamp shrink_stamp;
  shrink_stamp.comm = context_->comm_id();
  shrink_stamp.seq = stamp_counters_.seq++;
  shrink_stamp.edge = stamp_counters_.shrink_edge++;
  StampedTraceScope span("shrink", support::TraceCategory::kRecovery,
                         global_rank(), shrink_stamp);
  support::Stopwatch watch;
  // Revoke first (idempotent): any rank still blocked in — or about to
  // enter — a normal collective on this communicator raises
  // RankFailedError and converges here. This is the agreement protocol:
  // once the recovery barrier inside shrink_exchange releases, every alive
  // rank is inside shrink, and since fault-plan kills only trigger at
  // normal collective entries, the alive set is stable until the new
  // communicator exists.
  context_->revoke();
  auto shrunk = context_->shrink_exchange(rank_);
  const int survivors = shrunk.context->size();
  const int new_rank = shrunk.new_rank;
  Comm child(std::move(shrunk.context), new_rank);
  child.latency_injector_ = latency_injector_;
  child.fault_plan_ = fault_plan_;
  child.watchdog_ = watchdog_;
  child.allreduce_algo_ = allreduce_algo_;
  // Every failure up to now is part of the epoch this shrink recovers
  // from; only *new* deaths raise through the shrunk communicator.
  child.acknowledged_fail_seq_ = registry->fail_seq();
  ++recovery_stats_.shrinks;
  recovery_stats_.recovery_seconds += watch.seconds();
  UOI_LOG_INFO.field("survivors", survivors)
          .field("new_rank", new_rank)
          .field("seconds", watch.seconds())
      << "communicator shrunk after rank failure";
  return child;
}

int Comm::global_rank() const { return context_->global_rank(rank_); }

bool Comm::shared_address_space() const noexcept {
  return context_->shared_address_space();
}

std::int64_t Comm::comm_id() const { return context_->comm_id(); }

support::TraceStamp Comm::next_trace_stamp(CommCategory category, int peer,
                                           int tag, bool is_send) {
  support::TraceStamp stamp;
  stamp.comm = context_->comm_id();
  stamp.seq = stamp_counters_.seq++;
  if (category == CommCategory::kPointToPoint && peer >= 0) {
    // The mailbox is FIFO per (source, destination, tag), so the n-th send
    // on a (peer, tag) pair pairs with the n-th recv on the other side —
    // the edge counter encodes exactly that n.
    const int peer_global = context_->global_rank(peer);
    stamp.peer = peer_global;
    stamp.tag = tag;
    auto& edges =
        is_send ? stamp_counters_.send_edge : stamp_counters_.recv_edge;
    stamp.edge = edges[{peer_global, tag}]++;
    stamp.flow = is_send ? support::kFlowSend : support::kFlowRecv;
  } else if (category == CommCategory::kOneSided) {
    // One-sided ops have no target-side event to pair with; the stamp
    // still records the target so hot windows are attributable.
    if (peer >= 0) stamp.peer = context_->global_rank(peer);
  } else {
    // SPMD discipline: every rank invokes collectives on a communicator in
    // the same order, so the per-handle collective counter agrees across
    // ranks and keys one collective's events together.
    stamp.edge = stamp_counters_.collective_edge++;
  }
  return stamp;
}

bool Comm::is_alive(int rank) const {
  UOI_CHECK(rank >= 0 && rank < size(), "rank out of range");
  return !context_->rank_is_failed(rank);
}

std::vector<int> Comm::alive_ranks() const {
  return context_->alive_local_ranks();
}

int Comm::alive_size() const {
  return static_cast<int>(context_->alive_local_ranks().size());
}

void Comm::set_fault_plan(std::shared_ptr<const FaultPlan> plan) {
  fault_plan_ = std::move(plan);
}

void Comm::heartbeat() { context_->registry()->bump_progress(global_rank()); }

void Comm::probe_failures() {
  if (context_->revoked()) {
    raise_rank_failed("probe on a revoked communicator");
  }
  const std::uint64_t seq = context_->registry()->fail_seq();
  if (seq > acknowledged_fail_seq_) {
    acknowledged_fail_seq_ = seq;
    raise_rank_failed("peer rank failure detected by a failure probe");
  }
}

void Comm::sync() {
  std::uint64_t snapshot = 0;
  try {
    snapshot = context_->barrier_wait(
        rank_, watchdog_.armed() ? &watchdog_ : nullptr, &recovery_stats_);
  } catch (const RankFailedError&) {
    // Revoked communicator or a failure observed mid-wait: account and
    // acknowledge exactly as a snapshot-detected failure.
    ++recovery_stats_.rank_failures_detected;
    support::Tracer::instance().instant(
        "rank-failure-detected", support::TraceCategory::kFault, global_rank());
    auto& registry = *context_->registry();
    registry.acknowledge(global_rank(), registry.fail_seq());
    throw;
  }
  if (snapshot > acknowledged_fail_seq_) {
    acknowledged_fail_seq_ = snapshot;
    raise_rank_failed("peer rank failure detected at a collective");
  }
}

void Comm::maybe_kill() {
  auto& registry = *context_->registry();
  const int global = global_rank();
  // Collective entry is an implicit progress heartbeat, watchdog or not.
  registry.bump_progress(global);
  if (fault_plan_ == nullptr) return;
  const std::uint64_t op = registry.next_collective_op(global);
  if (fault_plan_->kills_at(global, op)) {
    if (!context_->shared_address_space()) {
      // Real process death: survivors detect it through the transport
      // (connection EOF / missed keepalives), exactly as they would a
      // crashed node. No unwind, no park — the process is simply gone.
      UOI_LOG_WARN.field("rank", global).field("collective_op", op)
          << "fault plan killing this process (SIGKILL)";
      support::Tracer::instance().instant(
          "rank-killed", support::TraceCategory::kFault, global);
      ::kill(::getpid(), SIGKILL);
    }
    registry.mark_failed(global);
    support::Tracer::instance().instant("rank-killed",
                                        support::TraceCategory::kFault, global);
    UOI_LOG_WARN.field("rank", global).field("collective_op", op)
        << "fault plan killed rank";
    // Park until every surviving rank has either acknowledged this death or
    // finished its SPMD function: survivors may still be inside a window
    // epoch reading buffers that live on this rank's stack, so the stack
    // must not unwind from under them.
    registry.park_until_safe_to_unwind(global);
    throw RankKilledError("rank " + std::to_string(global) +
                          " killed by fault plan at its collective #" +
                          std::to_string(op));
  }
  if (fault_plan_->hangs_at(global, op)) {
    // The stall failure mode: stop participating without throwing. The
    // rank's progress epoch freezes here; it unwinds only once a
    // survivor's watchdog declares it dead. Without an armed watchdog in
    // the job this deadlocks by design (ctest timeouts guard the tests).
    support::Tracer::instance().instant("rank-hung",
                                        support::TraceCategory::kFault, global);
    UOI_LOG_WARN.field("rank", global).field("collective_op", op)
        << "fault plan hung rank; waiting for the watchdog";
    registry.wait_until_failed(global);
    registry.park_until_safe_to_unwind(global);
    throw RankKilledError("rank " + std::to_string(global) +
                          " hung at its collective #" + std::to_string(op) +
                          " and was declared failed by the watchdog");
  }
  if (const auto* slow = fault_plan_->slow_at(global, op)) {
    // Stall without heartbeating, then continue — unless the watchdog
    // (correctly, for stalls beyond the timeout) declared this rank dead
    // mid-stall, in which case it unwinds like a planned kill.
    support::Tracer::instance().instant("rank-stalled",
                                        support::TraceCategory::kFault, global);
    detail::busy_wait_seconds(slow->stall_seconds);
    if (registry.is_failed(global)) {
      registry.park_until_safe_to_unwind(global);
      throw RankKilledError("rank " + std::to_string(global) +
                            " stalled past the watchdog timeout at its "
                            "collective #" + std::to_string(op));
    }
    registry.bump_progress(global);
  }
}

void Comm::raise_rank_failed(const char* what) {
  ++recovery_stats_.rank_failures_detected;
  support::Tracer::instance().instant(
      "rank-failure-detected", support::TraceCategory::kFault, global_rank());
  UOI_LOG_DEBUG.field("rank", global_rank()) << what;
  auto& registry = *context_->registry();
  // Acknowledging certifies this rank will not touch pre-failure window
  // memory again, which is what lets the dead rank's stack unwind.
  registry.acknowledge(global_rank(), registry.fail_seq());
  std::string message(what);
  message += " (failed global ranks:";
  for (const int r : registry.failed_ranks()) {
    message += " " + std::to_string(r);
  }
  message += ")";
  throw RankFailedError(message);
}

OneSidedAction Comm::onesided_fault_point() {
  OneSidedAction action;
  auto& registry = *context_->registry();
  const int global = global_rank();
  registry.bump_progress(global);
  if (fault_plan_ == nullptr) return action;
  const std::uint64_t op = registry.next_onesided_op(global);
  const auto* fault = fault_plan_->onesided_at(global, op);
  if (fault == nullptr) return action;
  switch (fault->kind) {
    case FaultPlan::OneSidedKind::kTransient:
      ++recovery_stats_.transient_faults;
      throw TransientCommError("injected transient one-sided fault (rank " +
                               std::to_string(global) + ", op " +
                               std::to_string(op) + ")");
    case FaultPlan::OneSidedKind::kDelay:
      action.delay_seconds = fault->delay_seconds;
      break;
    case FaultPlan::OneSidedKind::kCorrupt:
      action.corrupt = true;
      break;
  }
  return action;
}

void Comm::set_latency_injector(LatencyInjector injector) {
  latency_injector_ = std::move(injector);
}

double Comm::inject_latency(CommCategory category, std::uint64_t bytes) {
  if (!latency_injector_) return 0.0;
  const double target = latency_injector_(category, bytes, size());
  if (target <= 0.0) return 0.0;
  // Busy-wait with yields: wall time passes while peers make progress.
  support::Stopwatch watch;
  while (watch.seconds() < target) std::this_thread::yield();
  return watch.seconds();
}

void Comm::account_onesided(std::uint64_t bytes, double seconds, int target) {
  auto& entry = stats_.of(CommCategory::kOneSided);
  ++entry.calls;
  entry.bytes += bytes;
  const double injected = inject_latency(CommCategory::kOneSided, bytes);
  const double total = seconds + injected;
  entry.seconds += total;
  // One-sided window traffic is the paper's Distribution bucket.
  const auto stamp = next_trace_stamp(CommCategory::kOneSided, target);
  auto& tracer = support::Tracer::instance();
  const double end = tracer.now_seconds();
  tracer.record("one-sided", support::TraceCategory::kDistribution,
                global_rank(), std::max(0.0, end - total), total, stamp);
}

}  // namespace uoi::sim
