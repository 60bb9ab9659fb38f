#pragma once
// Live telemetry streaming: a background emitter thread periodically
// snapshots the process-wide Tracer totals and MetricsRegistry counters
// and appends one schema-versioned JSON line ("uoi-telemetry-v1") per
// interval to a file or Unix-domain socket. `uoi top` tails the stream
// and renders per-rank progress, bucket breakdowns, cache hit rates, and
// watchdog/health state while a distributed run is still going.
//
// Design constraints (observability must not perturb the experiment):
//
//   - The emitter is entirely off the hot path: worker ranks never see a
//     telemetry lock. The background thread takes the same short
//     registry/tracer snapshot locks any report consumer takes, builds
//     the JSON line without holding them, and performs I/O afterwards.
//   - Sinks never block the run. File writes go through a bounded
//     pending buffer; a Unix socket is opened non-blocking and EAGAIN
//     backpressure drops lines (counted in `dropped_lines`) instead of
//     stalling. A sink that cannot be opened disables telemetry with a
//     warning — the run continues and results are bit-identical with
//     telemetry on or off (the emitter only ever reads).
//   - stop() emits one final snapshot so short runs still stream >= 1
//     line per configured interval boundary.
//
// Line schema (one JSON object per line, no pretty-printing):
//   {"schema":"uoi-telemetry-v1","seq":N,"t":<seconds since start>,
//    "interval_ms":M,"dropped_lines":D,
//    "ranks":[{"rank":R,"buckets":{"<category>":{"calls":C,"seconds":S,
//              "delta_seconds":dS}},...}],
//    "metrics":[{"rank":R,"name":"...","value":V},...]}
// `delta_seconds` is the change since the previous line, so a tail-style
// consumer gets rates without keeping history.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/trace.hpp"

namespace uoi::support {

/// Telemetry stream configuration.
struct TelemetryOptions {
  /// Output sink: a file path (appended as JSON lines) or "unix:<path>"
  /// for a Unix-domain stream socket. Empty disables the emitter.
  std::string sink;
  /// Snapshot period. Default 500 ms; overridable through the
  /// UOI_TELEMETRY_INTERVAL_MS environment variable.
  int interval_ms = 500;
  /// Bound on lines buffered while a socket sink applies backpressure;
  /// the oldest line is dropped (and counted) when the bound is hit.
  std::size_t max_buffered_lines = 256;
};

/// Reads UOI_TELEMETRY_INTERVAL_MS (clamped to [10, 60000]) into an
/// options object with the given sink.
[[nodiscard]] TelemetryOptions telemetry_options_from_env(std::string sink);

/// Background telemetry emitter. Construct, start(), run the workload,
/// stop(). Copying is not meaningful; the destructor stops the thread.
class TelemetryEmitter {
 public:
  TelemetryEmitter() = default;
  explicit TelemetryEmitter(TelemetryOptions options);
  TelemetryEmitter(const TelemetryEmitter&) = delete;
  TelemetryEmitter& operator=(const TelemetryEmitter&) = delete;
  ~TelemetryEmitter();

  /// Opens the sink and launches the emitter thread. Returns false (and
  /// logs a warning) when the sink cannot be opened; the run proceeds
  /// without telemetry. A second start() or an empty sink is a no-op.
  bool start();
  /// Emits a final snapshot, flushes, joins the thread, closes the sink.
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  /// Lines successfully written so far (approximate while running).
  [[nodiscard]] std::uint64_t lines_written() const {
    return lines_written_.load(std::memory_order_relaxed);
  }
  /// Lines dropped to socket backpressure / buffer bound.
  [[nodiscard]] std::uint64_t lines_dropped() const {
    return lines_dropped_.load(std::memory_order_relaxed);
  }

  /// Builds one snapshot line from the live Tracer + MetricsRegistry.
  /// Exposed for tests; `prev_totals` carries the per-rank totals of the
  /// previous call and is updated in place (delta computation).
  [[nodiscard]] static std::string build_snapshot_line(
      std::uint64_t seq, double t_seconds, int interval_ms,
      std::uint64_t dropped, std::map<int, TraceTotals>& prev_totals);

 private:
  void run_loop();
  void emit_once();
  /// Queues `line` and drains the pending buffer into the sink.
  void write_line(std::string line);

  TelemetryOptions options_;
  bool running_ = false;
  bool sink_is_socket_ = false;
  int socket_fd_ = -1;
  std::unique_ptr<std::ofstream> file_;
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  std::uint64_t seq_ = 0;
  // Written on the emitter thread, read by callers while it runs.
  std::atomic<std::uint64_t> lines_written_{0};
  std::atomic<std::uint64_t> lines_dropped_{0};
  std::deque<std::string> pending_;
  /// Bytes of pending_.front() already on the socket: a line that started
  /// transmitting must finish (short writes resume here), or the consumer
  /// would see a torn record spliced into the next line.
  std::size_t socket_front_offset_ = 0;
  std::map<int, TraceTotals> prev_totals_;
  std::chrono::steady_clock::time_point start_time_{};
};

// ---------------------------------------------------------------------------
// `uoi top` consumer side: parse telemetry lines and render a terminal
// dashboard. Kept here (not in the CLI) so the round-trip is unit-testable.

/// One rank's state parsed from a telemetry line.
struct TelemetryRank {
  int rank = 0;
  /// Cumulative per-category (calls, seconds) plus the interval delta.
  struct Bucket {
    std::uint64_t calls = 0;
    double seconds = 0.0;
    double delta_seconds = 0.0;
  };
  std::map<std::string, Bucket> buckets;
};

/// One parsed "uoi-telemetry-v1" line.
struct TelemetrySample {
  bool valid = false;
  std::string error;  ///< parse failure reason when !valid
  std::uint64_t seq = 0;
  double t_seconds = 0.0;
  int interval_ms = 0;
  std::uint64_t dropped_lines = 0;
  std::vector<TelemetryRank> ranks;
  std::vector<MetricsRegistry::Entry> metrics;

  /// Value of a (rank, name) metric, 0 when absent.
  [[nodiscard]] double metric(int rank, std::string_view name) const;
  /// Sum of a metric over all ranks.
  [[nodiscard]] double metric_sum(std::string_view name) const;
};

/// Parses one JSON line of the stream. Lines of a different schema or
/// malformed JSON yield valid == false with an error message.
[[nodiscard]] TelemetrySample parse_telemetry_line(const std::string& line);

/// Renders a `uoi top` dashboard from the latest sample: per-rank bucket
/// table with interval deltas, aggregate progress (progress.* metrics),
/// solver-cache hit rate, and watchdog/recovery health counters.
[[nodiscard]] std::string render_top(const TelemetrySample& sample);

}  // namespace uoi::support
