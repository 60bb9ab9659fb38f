#pragma once
// Run-report analytics: turns raw observability signal (Tracer totals +
// histograms + optional span events, MetricsRegistry counters) into the
// decisions the paper's scaling analysis is built on:
//
//   - per-rank load imbalance of compute time (max/mean, coefficient of
//     variation) across the bootstrap x lambda task groups;
//   - Allreduce wait-time skew across ranks (the follow-up optimization
//     work, arXiv:1808.06992, traces most scaling loss to exactly this);
//   - straggler-rank identification;
//   - a critical-path lower bound over the span DAG: no schedule can beat
//     max_r(work_r) + sum_k min_r(k-th collective span on r), so
//     wall / critical_path measures the slack recoverable by balancing;
//   - span-latency percentiles per category (from the tracer's streaming
//     histograms — no event capture required).
//
// The report serializes to run_report.json (--report-json on every CLI
// command, or `uoi analyze TRACE.json` for a post-hoc trace file) and to a
// support/table text summary. Bench binaries embed the same structure in
// their BENCH_<figure>.json telemetry.

#include <array>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "report/event_dag.hpp"
#include "support/histogram.hpp"
#include "support/trace.hpp"

namespace uoi::report {

/// Everything a report is computed from. Decoupled from the Tracer /
/// MetricsRegistry singletons so tests and the trace-file analyzer can
/// feed synthetic inputs.
struct ReportInputs {
  double wall_seconds = 0.0;  ///< phase wall time (max rank timeline)
  std::map<int, support::TraceTotals> totals;          ///< per rank
  std::map<int, support::CategoryHistograms> histograms;  ///< per rank
  std::vector<support::TraceEvent> events;  ///< optional (capture on)
  std::vector<support::MetricsRegistry::Entry> metrics;  ///< optional
};

/// Snapshots the live Tracer + MetricsRegistry. `wall_seconds` is the
/// caller-measured phase wall time (e.g. around the CLI command).
[[nodiscard]] ReportInputs collect_inputs(double wall_seconds);

/// Derives totals, histograms, and the wall time from a span-event list
/// (the `uoi analyze TRACE.json` path).
[[nodiscard]] ReportInputs inputs_from_events(
    std::vector<support::TraceEvent> events);

/// Per-rank traced bucket seconds.
struct RankBuckets {
  int rank = 0;
  double computation = 0.0;
  double communication = 0.0;
  double distribution = 0.0;
  double data_io = 0.0;
  double fault = 0.0;
  double recovery = 0.0;
  double gram = 0.0;  ///< Gram + Cholesky setup (solver-cache misses)
};

/// Latency summary of one span category, merged across ranks.
struct CategoryLatency {
  support::TraceCategory category = support::TraceCategory::kComputation;
  std::uint64_t count = 0;
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Scheduler counters aggregated from the sched.* metrics the task
/// scheduler exports on agent ranks. `present` is false (and the JSON
/// section says so) when the run had no scheduled pass — e.g. a v1-era
/// trace replayed through `uoi analyze`.
struct SchedulerSummary {
  bool present = false;
  std::string policy;                ///< "static" / "cost_lpt" / "work_steal"
  int agent_ranks = 0;               ///< agent ranks reporting counters
  double tasks_executed = 0.0;       ///< sum over agents
  double steals_attempted = 0.0;     ///< sum over agents
  double steals_succeeded = 0.0;     ///< sum over agents
  double queue_depth_max = 0.0;      ///< max over agents
  double tasks_max_over_mean = 0.0;  ///< placement imbalance across agents
  double placement_error = 0.0;      ///< calibration mean |rel error| (max)
};

/// Screening counters aggregated from the screen.* metrics the lasso /
/// elastic-net / VAR drivers export per selection pass: how many columns
/// the strong rule admitted to the working sets (on Gram chains, the
/// coordinate-descent active sets), how many KKT violators had to be
/// re-admitted, and how many Gram columns the gather path avoided.
/// `present` is false (and the JSON section says so) when the run recorded
/// no selection chain — e.g. a logistic fit or a replayed v1-era trace.
struct ScreeningSummary {
  bool present = false;
  double lambdas = 0.0;             ///< sum: chain steps across ranks
  double survivors = 0.0;           ///< sum: working-set columns admitted
  double kkt_violations = 0.0;      ///< sum: violators re-admitted
  double kkt_rounds = 0.0;          ///< sum: KKT re-check rounds run
  double gram_cols_saved = 0.0;     ///< sum: columns never gathered
  double canonical_solves = 0.0;    ///< sum: restricted polish solves
  double total_columns = 0.0;       ///< sum: p x chain steps (denominator)
  /// survivors / total_columns when the denominator is positive; the
  /// headline "how aggressive was screening" number (1.0 == no pruning).
  double survivor_fraction = 1.0;
};

/// Fault/recovery health aggregated from the recovery.* metrics the
/// cluster exports per rank: transient-fault retries, hang detections by
/// the progress watchdog, CRC payload rejections, shrink-and-resume
/// activity, and quorum-degraded completion. `present` is false (and the
/// JSON section says so) when the run recorded no recovery activity — the
/// common fault-free case.
struct HealthSummary {
  bool present = false;
  double transient_faults = 0.0;       ///< sum over ranks
  double retries = 0.0;                ///< sum over ranks
  double giveups = 0.0;                ///< sum over ranks
  double rank_failures_detected = 0.0; ///< sum over ranks
  double shrinks = 0.0;                ///< max over ranks (replicated count)
  double cells_recovered = 0.0;        ///< max over ranks (replicated count)
  double hangs_detected = 0.0;         ///< sum: watchdog-confirmed hangs
  double suspects_cleared = 0.0;       ///< sum: slow-but-alive exonerations
  double hang_detect_seconds_max = 0.0;  ///< worst time-to-detect
  double crc_detected = 0.0;           ///< sum: one-sided CRC rejections
  double retries_after_jitter = 0.0;   ///< sum: jittered backoff retries
  bool degraded = false;               ///< any rank completed under quorum
  double achieved_quorum = 1.0;        ///< min over ranks reporting
  double cells_lost = 0.0;             ///< max over ranks (replicated)
};

struct RunReport {
  double wall_seconds = 0.0;
  int n_ranks = 0;

  /// Headline buckets: communication / distribution / data-I/O / Gram
  /// setup are the per-rank means of the traced totals; computation is the
  /// wall-time remainder (clamped at zero), so the buckets sum to the
  /// phase wall time by construction — the same convention the distributed
  /// drivers use.
  double computation_seconds = 0.0;
  double communication_seconds = 0.0;
  double distribution_seconds = 0.0;
  double data_io_seconds = 0.0;
  double gram_seconds = 0.0;
  [[nodiscard]] double buckets_sum() const {
    return computation_seconds + communication_seconds +
           distribution_seconds + data_io_seconds + gram_seconds;
  }

  std::vector<RankBuckets> per_rank;

  // ---- Load imbalance (traced compute seconds across ranks) ----
  double compute_max_over_mean = 0.0;  ///< 1.0 == perfectly balanced
  double compute_cv = 0.0;             ///< coefficient of variation
  int straggler_rank = -1;             ///< argmax compute (-1: < 2 ranks)
  double straggler_excess_seconds = 0.0;  ///< max - mean compute
  bool straggler_flagged = false;  ///< max/mean > 1.25 and excess > 1 ms

  // ---- Allreduce / communication wait skew across ranks ----
  double allreduce_skew_seconds = 0.0;   ///< max - min across ranks
  double allreduce_max_over_mean = 0.0;  ///< 1.0 == no skew

  // ---- Critical-path lower bound ----
  double critical_path_seconds = 0.0;
  double critical_path_fraction = 0.0;  ///< of wall; low == slack/imbalance
  std::size_t sync_points = 0;  ///< aligned collective spans used
  std::string critical_path_method;  ///< "events" or "totals"

  /// Exact longest path over the cross-rank event DAG (event_dag.hpp).
  /// Valid when the captured events carry causal stamps; the JSON adds it
  /// under critical_path.exact without touching the lower-bound keys.
  ExactCriticalPath exact_path;

  std::vector<CategoryLatency> latency;  ///< categories with any spans

  SchedulerSummary scheduler;

  ScreeningSummary screening;

  HealthSummary health;

  std::vector<support::MetricsRegistry::Entry> metrics;

  /// {"schema":"uoi-run-report-v2", ...}. v2 adds the "scheduler",
  /// "screening", and "health" sections; every v1 key is preserved
  /// unchanged, so v1 consumers keep working by ignoring the new
  /// sections.
  [[nodiscard]] std::string to_json() const;
  /// Human summary: per-rank bucket table, imbalance and critical-path
  /// lines, latency-percentile table.
  [[nodiscard]] std::string to_text() const;
};

/// Computes the full report from `inputs`.
[[nodiscard]] RunReport build_run_report(const ReportInputs& inputs);

/// Writes report.to_json() to `path`; throws uoi::support::IoError on
/// failure.
void write_run_report(const RunReport& report, const std::string& path);

}  // namespace uoi::report
