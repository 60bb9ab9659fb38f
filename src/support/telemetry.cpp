#include "support/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "support/format.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define UOI_TELEMETRY_HAVE_UNIX_SOCKETS 1
#endif

namespace uoi::support {

namespace {

constexpr const char* kSchema = "uoi-telemetry-v1";
constexpr const char* kUnixPrefix = "unix:";

}  // namespace

TelemetryOptions telemetry_options_from_env(std::string sink) {
  TelemetryOptions options;
  options.sink = std::move(sink);
  if (const char* env = std::getenv("UOI_TELEMETRY_INTERVAL_MS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0') {
      options.interval_ms = static_cast<int>(std::clamp(value, 10L, 60000L));
    } else {
      UOI_LOG_WARN << "telemetry: ignoring invalid UOI_TELEMETRY_INTERVAL_MS='"
                   << env << "'";
    }
  }
  return options;
}

TelemetryEmitter::TelemetryEmitter(TelemetryOptions options)
    : options_(std::move(options)) {}

TelemetryEmitter::~TelemetryEmitter() { stop(); }

bool TelemetryEmitter::start() {
  if (running_ || options_.sink.empty()) return running_;
  if (options_.sink.rfind(kUnixPrefix, 0) == 0) {
#if UOI_TELEMETRY_HAVE_UNIX_SOCKETS
    const std::string path = options_.sink.substr(std::strlen(kUnixPrefix));
    socket_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    bool ok = socket_fd_ >= 0;
    if (ok) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (path.size() >= sizeof(addr.sun_path)) {
        ok = false;
      } else {
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        ok = ::connect(socket_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0;
      }
      if (ok) {
        const int flags = ::fcntl(socket_fd_, F_GETFL, 0);
        ::fcntl(socket_fd_, F_SETFL, flags | O_NONBLOCK);
      }
    }
    if (!ok) {
      if (socket_fd_ >= 0) ::close(socket_fd_);
      socket_fd_ = -1;
      UOI_LOG_WARN << "telemetry: cannot connect to socket '" << path
                   << "' (" << std::strerror(errno)
                   << "); telemetry disabled, run continues";
      return false;
    }
    sink_is_socket_ = true;
#else
    UOI_LOG_WARN << "telemetry: unix sockets unavailable on this platform; "
                    "telemetry disabled, run continues";
    return false;
#endif
  } else {
    file_ = std::make_unique<std::ofstream>(options_.sink,
                                            std::ios::out | std::ios::trunc);
    if (!*file_) {
      file_.reset();
      UOI_LOG_WARN << "telemetry: cannot open sink '" << options_.sink
                   << "'; telemetry disabled, run continues";
      return false;
    }
  }
  stop_requested_.store(false, std::memory_order_relaxed);
  start_time_ = std::chrono::steady_clock::now();
  seq_ = 0;
  prev_totals_.clear();
  running_ = true;
  thread_ = std::thread([this] { run_loop(); });
  return true;
}

void TelemetryEmitter::stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_.store(true, std::memory_order_relaxed);
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  emit_once();  // final snapshot with the end-of-run state
  if (file_) {
    file_->flush();
    file_.reset();
  }
#if UOI_TELEMETRY_HAVE_UNIX_SOCKETS
  if (socket_fd_ >= 0) {
    ::close(socket_fd_);
    socket_fd_ = -1;
  }
#endif
  running_ = false;
}

void TelemetryEmitter::run_loop() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    if (stop_cv_.wait_for(lock, interval, [this] {
          return stop_requested_.load(std::memory_order_relaxed);
        })) {
      break;
    }
    lock.unlock();
    emit_once();
    lock.lock();
  }
}

void TelemetryEmitter::emit_once() {
  const double t = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_time_)
                       .count();
  write_line(build_snapshot_line(seq_++, t, options_.interval_ms,
                                 lines_dropped(), prev_totals_));
}

std::string TelemetryEmitter::build_snapshot_line(
    std::uint64_t seq, double t_seconds, int interval_ms,
    std::uint64_t dropped, std::map<int, TraceTotals>& prev_totals) {
  // Short-lock snapshots; JSON building happens with no locks held.
  const std::map<int, TraceTotals> totals = Tracer::instance().all_totals();
  const std::vector<MetricsRegistry::Entry> metrics =
      MetricsRegistry::instance().snapshot();

  std::string out = "{\"schema\":\"";
  out += kSchema;
  out += "\",\"seq\":" + std::to_string(seq);
  out += ",\"t\":" + json_number(t_seconds);
  out += ",\"interval_ms\":" + std::to_string(interval_ms);
  out += ",\"dropped_lines\":" + std::to_string(dropped);
  out += ",\"ranks\":[";
  bool first_rank = true;
  for (const auto& [rank, rank_totals] : totals) {
    if (!first_rank) out += ',';
    first_rank = false;
    const TraceTotals& prev = prev_totals[rank];  // default-zero first time
    out += "{\"rank\":" + std::to_string(rank) + ",\"buckets\":{";
    bool first_bucket = true;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(TraceCategory::kCategoryCount); ++c) {
      const TraceTotals::Entry& entry = rank_totals.entries[c];
      if (entry.calls == 0 && entry.seconds == 0.0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += json_quote(to_string(static_cast<TraceCategory>(c)));
      out += ":{\"calls\":" + std::to_string(entry.calls);
      out += ",\"seconds\":" + json_number(entry.seconds);
      out += ",\"delta_seconds\":" +
             json_number(std::max(0.0, entry.seconds - prev.entries[c].seconds));
      out += "}";
    }
    out += "}}";
  }
  out += "],\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"rank\":" + std::to_string(metrics[i].rank);
    out += ",\"name\":" + json_quote(metrics[i].name);
    out += ",\"value\":" + json_number(metrics[i].value) + "}";
  }
  out += "]}\n";
  for (const auto& [rank, rank_totals] : totals) prev_totals[rank] = rank_totals;
  return out;
}

void TelemetryEmitter::write_line(std::string line) {
  pending_.push_back(std::move(line));
  while (pending_.size() > options_.max_buffered_lines) {
    // Never drop the front line once part of it is on the wire — that
    // would splice the tail of one record into the head of the next. Drop
    // the oldest whole line instead.
    if (socket_front_offset_ == 0) {
      pending_.pop_front();
    } else if (pending_.size() > 1) {
      pending_.erase(pending_.begin() + 1);
    } else {
      break;
    }
    lines_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  while (!pending_.empty()) {
    const std::string& front = pending_.front();
    if (file_) {
      *file_ << front;
      file_->flush();
      lines_written_.fetch_add(1, std::memory_order_relaxed);
      pending_.pop_front();
      continue;
    }
#if UOI_TELEMETRY_HAVE_UNIX_SOCKETS
    if (socket_fd_ >= 0) {
      const ssize_t n =
          ::send(socket_fd_, front.data() + socket_front_offset_,
                 front.size() - socket_front_offset_,
#ifdef MSG_NOSIGNAL
                 MSG_NOSIGNAL
#else
                 0
#endif
          );
      if (n > 0) {
        // Short writes are routine on a socket with a small or full send
        // buffer; resume from the offset until the record completes.
        socket_front_offset_ += static_cast<std::size_t>(n);
        if (socket_front_offset_ == front.size()) {
          lines_written_.fetch_add(1, std::memory_order_relaxed);
          pending_.pop_front();
          socket_front_offset_ = 0;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;  // backpressure: keep the line buffered, retry next tick
      }
      // Hard error: the consumer is gone; drop the line rather than block
      // or stall the run.
      lines_dropped_.fetch_add(1, std::memory_order_relaxed);
      pending_.pop_front();
      socket_front_offset_ = 0;
      continue;
    }
#endif
    pending_.pop_front();  // no sink: discard
  }
}

// ---------------------------------------------------------------------------
// Consumer side: minimal JSON parser (objects/arrays/strings/numbers/
// bools/null), just enough for the telemetry schema. Unknown keys are
// skipped so future additive schema changes keep old `uoi top` working.

namespace {

struct JsonCursor {
  const char* p;
  const char* end;
  bool ok = true;
  std::string error;

  void fail(const std::string& why) {
    if (ok) {
      ok = false;
      error = why;
    }
    p = end;
  }
  void skip_ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return p < end && *p == c;
  }

  std::string parse_string() {
    skip_ws();
    if (p >= end || *p != '"') {
      fail("expected string");
      return {};
    }
    ++p;
    std::string out;
    while (p < end && *p != '"') {
      if (*p == '\\' && p + 1 < end) {
        ++p;
        switch (*p) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // Telemetry strings are ASCII metric names; skip the escape.
            if (end - p >= 5) p += 4;
            out += '?';
            break;
          default: out += *p; break;
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    if (p >= end) {
      fail("unterminated string");
      return {};
    }
    ++p;  // closing quote
    return out;
  }

  double parse_number() {
    skip_ws();
    char* num_end = nullptr;
    const double value = std::strtod(p, &num_end);
    if (num_end == p) {
      fail("expected number");
      return 0.0;
    }
    p = num_end;
    return value;
  }

  /// Skips any JSON value (used for unknown keys).
  void skip_value() {
    skip_ws();
    if (p >= end) return;
    if (*p == '"') {
      parse_string();
    } else if (*p == '{') {
      ++p;
      if (consume('}')) return;
      do {
        parse_string();
        if (!consume(':')) return fail("expected ':'");
        skip_value();
      } while (consume(','));
      if (!consume('}')) fail("expected '}'");
    } else if (*p == '[') {
      ++p;
      if (consume(']')) return;
      do {
        skip_value();
      } while (consume(','));
      if (!consume(']')) fail("expected ']'");
    } else if (std::strncmp(p, "true", 4) == 0 && end - p >= 4) {
      p += 4;
    } else if (std::strncmp(p, "false", 5) == 0 && end - p >= 5) {
      p += 5;
    } else if (std::strncmp(p, "null", 4) == 0 && end - p >= 4) {
      p += 4;
    } else {
      parse_number();
    }
  }

  /// Iterates the keys of the object at the cursor, invoking
  /// handler(key); the handler must consume the value (or call
  /// skip_value()).
  template <typename Handler>
  void parse_object(Handler&& handler) {
    if (!consume('{')) return fail("expected '{'");
    if (consume('}')) return;
    do {
      const std::string key = parse_string();
      if (!ok) return;
      if (!consume(':')) return fail("expected ':'");
      handler(key);
      if (!ok) return;
    } while (consume(','));
    if (!consume('}')) fail("expected '}'");
  }

  template <typename Handler>
  void parse_array(Handler&& handler) {
    if (!consume('[')) return fail("expected '['");
    if (consume(']')) return;
    do {
      handler();
      if (!ok) return;
    } while (consume(','));
    if (!consume(']')) fail("expected ']'");
  }
};

}  // namespace

double TelemetrySample::metric(int rank, std::string_view name) const {
  for (const auto& m : metrics) {
    if (m.rank == rank && m.name == name) return m.value;
  }
  return 0.0;
}

double TelemetrySample::metric_sum(std::string_view name) const {
  double sum = 0.0;
  for (const auto& m : metrics) {
    if (m.name == name) sum += m.value;
  }
  return sum;
}

TelemetrySample parse_telemetry_line(const std::string& line) {
  TelemetrySample sample;
  JsonCursor cursor{line.data(), line.data() + line.size(), true, {}};
  std::string schema;
  cursor.parse_object([&](const std::string& key) {
    if (key == "schema") {
      schema = cursor.parse_string();
    } else if (key == "seq") {
      sample.seq = static_cast<std::uint64_t>(cursor.parse_number());
    } else if (key == "t") {
      sample.t_seconds = cursor.parse_number();
    } else if (key == "interval_ms") {
      sample.interval_ms = static_cast<int>(cursor.parse_number());
    } else if (key == "dropped_lines") {
      sample.dropped_lines = static_cast<std::uint64_t>(cursor.parse_number());
    } else if (key == "ranks") {
      cursor.parse_array([&] {
        TelemetryRank rank_entry;
        cursor.parse_object([&](const std::string& rank_key) {
          if (rank_key == "rank") {
            rank_entry.rank = static_cast<int>(cursor.parse_number());
          } else if (rank_key == "buckets") {
            cursor.parse_object([&](const std::string& bucket_name) {
              TelemetryRank::Bucket bucket;
              cursor.parse_object([&](const std::string& field) {
                if (field == "calls") {
                  bucket.calls =
                      static_cast<std::uint64_t>(cursor.parse_number());
                } else if (field == "seconds") {
                  bucket.seconds = cursor.parse_number();
                } else if (field == "delta_seconds") {
                  bucket.delta_seconds = cursor.parse_number();
                } else {
                  cursor.skip_value();
                }
              });
              rank_entry.buckets[bucket_name] = bucket;
            });
          } else {
            cursor.skip_value();
          }
        });
        sample.ranks.push_back(std::move(rank_entry));
      });
    } else if (key == "metrics") {
      cursor.parse_array([&] {
        MetricsRegistry::Entry entry;
        cursor.parse_object([&](const std::string& metric_key) {
          if (metric_key == "rank") {
            entry.rank = static_cast<int>(cursor.parse_number());
          } else if (metric_key == "name") {
            entry.name = cursor.parse_string();
          } else if (metric_key == "value") {
            entry.value = cursor.parse_number();
          } else {
            cursor.skip_value();
          }
        });
        sample.metrics.push_back(std::move(entry));
      });
    } else {
      cursor.skip_value();
    }
  });
  if (!cursor.ok) {
    sample.error = "malformed telemetry line: " + cursor.error;
    return sample;
  }
  if (schema != kSchema) {
    sample.error = "unexpected schema '" + schema + "'";
    return sample;
  }
  sample.valid = true;
  return sample;
}

std::string render_top(const TelemetrySample& sample) {
  std::string out;
  if (!sample.valid) {
    return "uoi top: " + sample.error + "\n";
  }
  out += "uoi top: t=" + format_seconds(sample.t_seconds) + " seq=" +
         std::to_string(sample.seq) + " interval=" +
         std::to_string(sample.interval_ms) + "ms";
  if (sample.dropped_lines > 0) {
    out += " dropped=" + std::to_string(sample.dropped_lines);
  }
  out += "\n";

  // Aggregate progress across ranks (drivers export progress.cells_done /
  // progress.cells_total).
  const double done = sample.metric_sum("progress.cells_done");
  const double total = sample.metric_sum("progress.cells_total");
  if (total > 0.0) {
    const double pct = 100.0 * done / total;
    const int bar_width = 32;
    const int filled = static_cast<int>(
        std::clamp(pct / 100.0, 0.0, 1.0) * bar_width);
    out += "progress [" + std::string(static_cast<std::size_t>(filled), '#') +
           std::string(static_cast<std::size_t>(bar_width - filled), '-') +
           "] " + format_fixed(pct, 1) + "% (" + format_fixed(done, 0) + "/" +
           format_fixed(total, 0) + " cells)\n";
  }

  const double hits = sample.metric_sum("solver_cache.hits");
  const double misses = sample.metric_sum("solver_cache.misses");
  if (hits + misses > 0.0) {
    out += "solver cache: " + format_fixed(100.0 * hits / (hits + misses), 1) +
           "% hit (" + format_fixed(hits, 0) + "/" +
           format_fixed(hits + misses, 0) + ")\n";
  }

  const double hangs = sample.metric_sum("recovery.hangs_detected");
  const double shrinks = sample.metric_sum("recovery.shrinks");
  const double transients = sample.metric_sum("recovery.transient_faults");
  if (hangs + shrinks + transients > 0.0) {
    out += "health: " + format_fixed(transients, 0) + " transient(s), " +
           format_fixed(hangs, 0) + " hang(s), " + format_fixed(shrinks, 0) +
           " shrink(s)\n";
  }

  if (!sample.ranks.empty()) {
    Table table({"rank", "compute", "comm", "+comm", "distrib", "data I/O",
                 "gram", "recovery"});
    for (const TelemetryRank& r : sample.ranks) {
      auto seconds_of = [&](const char* name) {
        auto it = r.buckets.find(name);
        return it == r.buckets.end() ? 0.0 : it->second.seconds;
      };
      auto delta_of = [&](const char* name) {
        auto it = r.buckets.find(name);
        return it == r.buckets.end() ? 0.0 : it->second.delta_seconds;
      };
      table.add_row({std::to_string(r.rank),
                     format_seconds(seconds_of("computation")),
                     format_seconds(seconds_of("communication")),
                     format_seconds(delta_of("communication")),
                     format_seconds(seconds_of("distribution")),
                     format_seconds(seconds_of("data-io")),
                     format_seconds(seconds_of("gram")),
                     format_seconds(seconds_of("recovery"))});
    }
    out += table.to_text();
  }
  return out;
}

}  // namespace uoi::support
