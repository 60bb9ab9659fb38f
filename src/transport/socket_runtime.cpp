#include "transport/socket_runtime.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/error.hpp"
#include "support/log.hpp"

namespace uoi::transport {

namespace {

constexpr long kConnectTimeoutMs = 15000;

int make_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw FrameError(std::string("socket() failed: ") + std::strerror(errno));
  }
  return fd;
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw FrameError("endpoint path too long for a unix socket: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Dials `path`, retrying while the listener is not up yet (the peer
/// process may still be starting). Gives up after kConnectTimeoutMs.
int connect_with_retry(const std::string& path) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kConnectTimeoutMs);
  const auto addr = make_address(path);
  for (;;) {
    const int fd = make_socket();
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    const int error = errno;
    ::close(fd);
    if (error != ENOENT && error != ECONNREFUSED && error != EINTR) {
      throw FrameError(std::string("connect(") + path +
                       ") failed: " + std::strerror(error));
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw FrameError("timed out connecting to " + path);
    }
    ::usleep(10000);
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  UOI_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "failed to make a socket nonblocking");
}

int accept_blocking(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    throw FrameError(std::string("accept() failed: ") + std::strerror(errno));
  }
}

long env_long(const char* name, long fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || value <= 0) return fallback;
  return value;
}

/// First payload field of every comm-scoped frame is the comm id (i64 LE).
std::int64_t peek_comm_id(const Frame& frame) {
  if (frame.payload.size() < 8) {
    throw FrameError("comm-scoped frame too short for a comm id");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(frame.payload[static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return static_cast<std::int64_t>(v);
}

bool comm_scoped(FrameType type) {
  switch (type) {
    case FrameType::kBarrierEnter:
    case FrameType::kBarrierRelease:
    case FrameType::kRecoveryEnter:
    case FrameType::kRecoveryRelease:
    case FrameType::kP2p:
    case FrameType::kWinRequest:
    case FrameType::kWinReply:
    case FrameType::kRevoke:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool socket_job_active() {
  const char* transport = std::getenv("UOI_TRANSPORT");
  if (transport == nullptr || std::string(transport) != "socket") return false;
  return std::getenv("UOI_JOB_RANK") != nullptr &&
         std::getenv("UOI_JOB_SIZE") != nullptr &&
         std::getenv("UOI_JOB_DIR") != nullptr;
}

std::optional<JobConfig> job_config_from_env() {
  if (!socket_job_active()) return std::nullopt;
  JobConfig config;
  config.rank = static_cast<int>(env_long("UOI_JOB_RANK", -1));
  config.size = static_cast<int>(env_long("UOI_JOB_SIZE", -1));
  // env_long rejects non-positive values; rank 0 is legal, so re-read it.
  const char* raw_rank = std::getenv("UOI_JOB_RANK");
  if (raw_rank != nullptr && std::string(raw_rank) == "0") config.rank = 0;
  config.dir = std::getenv("UOI_JOB_DIR");
  config.keepalive_ms = env_long("UOI_TRANSPORT_KEEPALIVE_MS", 50);
  if (config.rank < 0 || config.size < 1 || config.rank >= config.size ||
      config.dir.empty()) {
    return std::nullopt;
  }
  return config;
}

SocketRuntime::SocketRuntime(const JobConfig& config, JobHooks hooks)
    : config_(config), hooks_(std::move(hooks)) {
  UOI_CHECK(config_.rank >= 0 && config_.rank < config_.size,
            "socket runtime rank out of range");
  peers_.resize(static_cast<std::size_t>(config_.size));
  endpoint_paths_.reserve(static_cast<std::size_t>(config_.size));
  for (int r = 0; r < config_.size; ++r) {
    endpoint_paths_.push_back(config_.dir + "/ep-" +
                              std::to_string(config_.run_index) + "-" +
                              std::to_string(r) + ".sock");
  }
  bootstrap();
  if (::pipe(wake_pipe_) != 0) {
    throw FrameError(std::string("pipe() failed: ") + std::strerror(errno));
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
  for (int r = 0; r < config_.size; ++r) {
    if (peers_[static_cast<std::size_t>(r)].fd >= 0) {
      set_nonblocking(peers_[static_cast<std::size_t>(r)].fd);
    }
  }
  io_thread_ = std::thread([this] { io_loop(); });
}

SocketRuntime::~SocketRuntime() {
  try {
    shutdown();
  } catch (...) {
    // Destructor path: peers that cannot be reached are already dead.
  }
}

void SocketRuntime::bootstrap() {
  const std::string& my_path =
      endpoint_paths_[static_cast<std::size_t>(config_.rank)];
  ::unlink(my_path.c_str());
  listen_fd_ = make_socket();
  const auto addr = make_address(my_path);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, config_.size) != 0) {
    throw FrameError(std::string("bind/listen(") + my_path +
                     ") failed: " + std::strerror(errno));
  }
  if (config_.size == 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }

  if (config_.rank == 0) {
    // Broker: collect a hello from every joiner, then publish the endpoint
    // table and the go signal. The hello connection stays as the (0, r)
    // mesh edge.
    for (int joined = 0; joined < config_.size - 1; ++joined) {
      const int fd = accept_blocking(listen_fd_);
      const auto hello = HelloMsg::decode(read_frame(fd));
      UOI_CHECK(hello.rank > 0 &&
                    static_cast<int>(hello.rank) < config_.size &&
                    peers_[hello.rank].fd < 0,
                "bootstrap hello from an unexpected rank");
      peers_[hello.rank].fd = fd;
    }
    EndpointsMsg endpoints;
    endpoints.paths = endpoint_paths_;
    const auto endpoints_frame = endpoints.encode();
    const auto go_frame = GoMsg{}.encode();
    for (int r = 1; r < config_.size; ++r) {
      write_frame(peers_[static_cast<std::size_t>(r)].fd, endpoints_frame);
      write_frame(peers_[static_cast<std::size_t>(r)].fd, go_frame);
    }
  } else {
    const int fd = connect_with_retry(endpoint_paths_[0]);
    HelloMsg hello;
    hello.rank = static_cast<std::uint32_t>(config_.rank);
    write_frame(fd, hello.encode());
    const auto endpoints = EndpointsMsg::decode(read_frame(fd));
    UOI_CHECK(static_cast<int>(endpoints.paths.size()) == config_.size,
              "bootstrap endpoint table has the wrong size");
    (void)GoMsg::decode(read_frame(fd));
    peers_[0].fd = fd;
    // Complete the mesh: dial every lower rank, accept every higher one.
    for (int r = 1; r < config_.rank; ++r) {
      const int peer_fd = connect_with_retry(endpoints.paths[
          static_cast<std::size_t>(r)]);
      write_frame(peer_fd, hello.encode());
      peers_[static_cast<std::size_t>(r)].fd = peer_fd;
    }
    for (int pending = config_.size - 1 - config_.rank; pending > 0;
         --pending) {
      const int peer_fd = accept_blocking(listen_fd_);
      const auto peer_hello = HelloMsg::decode(read_frame(peer_fd));
      UOI_CHECK(static_cast<int>(peer_hello.rank) > config_.rank &&
                    static_cast<int>(peer_hello.rank) < config_.size &&
                    peers_[peer_hello.rank].fd < 0,
                "mesh hello from an unexpected rank");
      peers_[peer_hello.rank].fd = peer_fd;
    }
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(my_path.c_str());
}

void SocketRuntime::register_sink(std::int64_t comm_id, FrameSink* sink) {
  // Replay parked frames while still holding sink_mutex_: dispatch holds
  // it across delivery, so frames arriving concurrently cannot overtake
  // the older orphans.
  std::lock_guard<std::mutex> lock(sink_mutex_);
  UOI_CHECK(sinks_.find(comm_id) == sinks_.end(),
            "a frame sink is already registered for this comm id");
  retired_.erase(comm_id);
  sinks_[comm_id] = sink;
  auto orphaned = orphans_.find(comm_id);
  if (orphaned != orphans_.end()) {
    auto replay = std::move(orphaned->second);
    orphans_.erase(orphaned);
    for (const auto& frame : replay) sink->on_frame(frame);
  }
}

void SocketRuntime::unregister_sink(std::int64_t comm_id) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  sinks_.erase(comm_id);
  orphans_.erase(comm_id);
  retired_.insert(comm_id);
}

void SocketRuntime::send(int peer, const Frame& frame) {
  UOI_CHECK(peer >= 0 && peer < config_.size, "send peer out of range");
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    if (peer == config_.rank) {
      self_queue_.push_back(frame);
    } else {
      auto& p = peers_[static_cast<std::size_t>(peer)];
      if (p.closed) return;  // failure surfaces through JobHooks, not here
      p.outbound.push_back(encode_frame(frame));
    }
  }
  wake();
}

void SocketRuntime::broadcast(const Frame& frame) {
  for (int r = 0; r < config_.size; ++r) {
    if (r != config_.rank) send(r, frame);
  }
}

bool SocketRuntime::peer_closed(int peer) const {
  std::lock_guard<std::mutex> lock(out_mutex_);
  return peers_[static_cast<std::size_t>(peer)].closed;
}

void SocketRuntime::wake() {
  const std::uint8_t byte = 1;
  // Nonblocking write: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void SocketRuntime::dispatch(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHeartbeat: {
      const auto beat = HeartbeatMsg::decode(frame);
      if (hooks_.peer_progress) {
        hooks_.peer_progress(static_cast<int>(beat.rank), beat.epoch);
      }
      return;
    }
    case FrameType::kFailed: {
      const auto failed = FailedMsg::decode(frame);
      if (hooks_.peer_failed) {
        hooks_.peer_failed(static_cast<int>(failed.rank));
      }
      return;
    }
    case FrameType::kGoodbye: {
      const auto goodbye = GoodbyeMsg::decode(frame);
      std::lock_guard<std::mutex> lock(out_mutex_);
      if (static_cast<int>(goodbye.rank) < config_.size) {
        peers_[goodbye.rank].goodbye_received = true;
      }
      return;
    }
    default:
      break;
  }
  if (!comm_scoped(frame.type)) {
    UOI_LOG_WARN.field("type", to_string(frame.type))
        << "dropping unexpected job-scoped frame";
    return;
  }
  const std::int64_t comm_id = peek_comm_id(frame);
  // Deliver while holding sink_mutex_: unregister_sink then blocks until
  // any in-flight delivery finishes, so a sink is never destroyed under a
  // running on_frame. Sinks take only their own (leaf) locks from
  // on_frame, never sink_mutex_.
  std::lock_guard<std::mutex> lock(sink_mutex_);
  auto found = sinks_.find(comm_id);
  if (found != sinks_.end()) {
    found->second->on_frame(frame);
  } else if (retired_.count(comm_id) == 0) {
    // Early traffic for a communicator this process has not built yet
    // (e.g. a fast peer's barrier enter racing our make_child): park it
    // for replay at registration.
    orphans_[comm_id].push_back(frame);
  }
  // else: late frame for a retired communicator — dropped.
}

void SocketRuntime::handle_peer_input(int peer) {
  auto& p = peers_[static_cast<std::size_t>(peer)];
  std::uint8_t chunk[65536];
  for (;;) {
    const ssize_t n = ::read(p.fd, chunk, sizeof(chunk));
    if (n > 0) {
      try {
        p.reader.feed({chunk, static_cast<std::size_t>(n)});
        while (auto frame = p.reader.next()) dispatch(*frame);
      } catch (const FrameError& error) {
        // Framing lost sync or a payload failed its CRC: the connection
        // is unusable, which is indistinguishable from peer death.
        UOI_LOG_WARN.field("peer", peer).field("error", error.what())
            << "closing connection after a frame error";
        close_peer(peer, /*peer_died=*/true);
        return;
      }
      if (n < static_cast<ssize_t>(sizeof(chunk))) return;
      continue;
    }
    if (n == 0) {
      close_peer(peer, /*peer_died=*/!p.goodbye_received);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    close_peer(peer, /*peer_died=*/!p.goodbye_received);
    return;
  }
}

void SocketRuntime::flush_peer_output(int peer) {
  auto& p = peers_[static_cast<std::size_t>(peer)];
  for (;;) {
    std::vector<std::uint8_t>* front = nullptr;
    std::size_t offset = 0;
    {
      std::lock_guard<std::mutex> lock(out_mutex_);
      if (p.closed || p.outbound.empty()) return;
      front = &p.outbound.front();
      offset = p.front_offset;
    }
    // send(MSG_NOSIGNAL), not write: a peer that died mid-job must
    // surface as EPIPE and a reported death, not as SIGPIPE killing us.
    const ssize_t n = ::send(p.fd, front->data() + offset,
                             front->size() - offset,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n > 0) {
      std::lock_guard<std::mutex> lock(out_mutex_);
      p.front_offset += static_cast<std::size_t>(n);
      if (p.front_offset >= p.outbound.front().size()) {
        p.outbound.pop_front();
        p.front_offset = 0;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_peer(peer, /*peer_died=*/!p.goodbye_received);
    return;
  }
}

void SocketRuntime::close_peer(int peer, bool peer_died) {
  auto& p = peers_[static_cast<std::size_t>(peer)];
  bool report = false;
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    if (p.closed) return;
    p.closed = true;
    if (p.fd >= 0) {
      ::close(p.fd);
      p.fd = -1;
    }
    p.outbound.clear();
    p.front_offset = 0;
    if (peer_died && !p.failure_reported) {
      p.failure_reported = true;
      report = true;
    }
  }
  if (report) {
    UOI_LOG_WARN.field("peer", peer)
        << "peer connection closed without a goodbye; reporting rank death";
    if (hooks_.peer_failed) hooks_.peer_failed(peer);
  }
}

void SocketRuntime::send_keepalives() {
  HeartbeatMsg beat;
  beat.rank = static_cast<std::uint32_t>(config_.rank);
  beat.epoch = hooks_.own_epoch ? hooks_.own_epoch() : 0;
  const Frame frame = beat.encode();
  for (int r = 0; r < config_.size; ++r) {
    if (r == config_.rank) continue;
    std::lock_guard<std::mutex> lock(out_mutex_);
    auto& p = peers_[static_cast<std::size_t>(r)];
    if (!p.closed) p.outbound.push_back(encode_frame(frame));
  }
}

void SocketRuntime::io_loop() {
  auto next_keepalive = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.keepalive_ms);
  std::vector<pollfd> fds;
  std::vector<int> fd_peers;
  while (!stopping_.load()) {
    // Drain self-addressed frames first: they must dispatch promptly (a
    // barrier leader entering its own barrier rides this path).
    for (;;) {
      Frame frame;
      {
        std::lock_guard<std::mutex> lock(out_mutex_);
        if (self_queue_.empty()) break;
        frame = std::move(self_queue_.front());
        self_queue_.pop_front();
      }
      dispatch(frame);
    }

    fds.clear();
    fd_peers.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fd_peers.push_back(-1);
    {
      std::lock_guard<std::mutex> lock(out_mutex_);
      for (int r = 0; r < config_.size; ++r) {
        auto& p = peers_[static_cast<std::size_t>(r)];
        if (p.closed || p.fd < 0) continue;
        short events = POLLIN;
        if (!p.outbound.empty()) events |= POLLOUT;
        fds.push_back({p.fd, events, 0});
        fd_peers.push_back(r);
      }
    }
    const auto now = std::chrono::steady_clock::now();
    long wait_ms = static_cast<long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(next_keepalive -
                                                              now)
            .count());
    if (wait_ms < 0) wait_ms = 0;
    const int ready = ::poll(fds.data(), fds.size(), static_cast<int>(wait_ms));
    if (ready < 0 && errno != EINTR) {
      UOI_LOG_WARN.field("errno", errno) << "transport poll failed";
      break;
    }
    if (ready > 0) {
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        if (fd_peers[i] < 0) {
          std::uint8_t sink[256];
          while (::read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
          }
          continue;
        }
        const int peer = fd_peers[i];
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          handle_peer_input(peer);
        }
        if ((fds[i].revents & POLLOUT) != 0 &&
            !peers_[static_cast<std::size_t>(peer)].closed) {
          flush_peer_output(peer);
        }
      }
    }
    if (std::chrono::steady_clock::now() >= next_keepalive) {
      send_keepalives();
      next_keepalive = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(config_.keepalive_ms);
    }
  }
}

void SocketRuntime::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // Announce the clean exit before stopping the io thread so peers do not
  // mistake our close for a death.
  GoodbyeMsg goodbye;
  goodbye.rank = static_cast<std::uint32_t>(config_.rank);
  broadcast(goodbye.encode());
  // Give the io thread a moment to drain the outbound queues (bounded:
  // dead peers never drain).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool drained = true;
    {
      std::lock_guard<std::mutex> lock(out_mutex_);
      for (const auto& p : peers_) {
        if (!p.closed && !p.outbound.empty()) drained = false;
      }
      if (!self_queue_.empty()) drained = false;
    }
    if (drained || std::chrono::steady_clock::now() >= deadline) break;
    ::usleep(1000);
  }
  stopping_.store(true);
  wake();
  if (io_thread_.joinable()) io_thread_.join();
  for (auto& p : peers_) {
    if (p.fd >= 0) {
      ::close(p.fd);
      p.fd = -1;
    }
    p.closed = true;
  }
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

}  // namespace uoi::transport
