#include "report/run_report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <string_view>

#include "sched/schedule_policy.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace uoi::report {

using support::LogHistogram;
using support::MetricsRegistry;
using support::TraceCategory;
using support::TraceEvent;
using support::Tracer;
using support::TraceTotals;

namespace {

constexpr std::size_t kNCategories =
    static_cast<std::size_t>(TraceCategory::kCategoryCount);

double category_seconds(const TraceTotals& totals, TraceCategory c) {
  return totals.seconds(c);
}

/// Mean of `values`; 0 for empty.
double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Critical-path lower bound from captured events.
///
/// Bound: CP >= max_r(total work on r) + sum_k min_r(duration of the k-th
/// communication span on rank r), with k running to the smallest per-rank
/// communication-span count. Proof sketch: let r* be the max-work rank;
/// its work and communication spans are disjoint intervals of its own
/// timeline, so work_{r*} + sum_k comm_{k,r*} <= wall, and each
/// min_r comm_k <= comm_{k,r*}. Taking min over ranks per collective
/// excludes the waiter's wait-inflated span, which is what makes this a
/// *lower* bound rather than a wait-polluted sum. Valid regardless of
/// communicator splits (no global-synchronization assumption needed).
struct CriticalPath {
  double seconds = 0.0;
  std::size_t sync_points = 0;
};
CriticalPath critical_path_from_events(const std::vector<TraceEvent>& events,
                                       double wall_seconds) {
  std::map<int, double> work;                       // rank -> work seconds
  std::map<int, std::vector<double>> comm_spans;    // rank -> ordered durs
  for (const TraceEvent& e : events) {
    switch (e.category) {
      case TraceCategory::kCommunication:
        comm_spans[e.rank].push_back(e.duration_seconds);
        break;
      case TraceCategory::kComputation:
      case TraceCategory::kDistribution:
      case TraceCategory::kDataIo:
      case TraceCategory::kGram:
        work[e.rank] += e.duration_seconds;
        break;
      default:
        break;  // fault markers / recovery time are not on the hot path
    }
  }
  CriticalPath out;
  for (const auto& [rank, seconds] : work) {
    out.seconds = std::max(out.seconds, seconds);
  }
  if (!comm_spans.empty()) {
    std::size_t n_sync = std::numeric_limits<std::size_t>::max();
    for (const auto& [rank, durations] : comm_spans) {
      n_sync = std::min(n_sync, durations.size());
    }
    // Tracer::events() sorts per rank by start time, so index k is the
    // k-th collective each rank entered.
    for (std::size_t k = 0; k < n_sync; ++k) {
      double fastest = std::numeric_limits<double>::infinity();
      for (const auto& [rank, durations] : comm_spans) {
        fastest = std::min(fastest, durations[k]);
      }
      out.seconds += fastest;
    }
    out.sync_points = n_sync;
  }
  if (wall_seconds > 0.0) out.seconds = std::min(out.seconds, wall_seconds);
  return out;
}

/// Totals-only fallback: max_r(work) + min_r(total communication). Same
/// proof with the per-collective min coarsened to the per-rank total.
CriticalPath critical_path_from_totals(
    const std::map<int, TraceTotals>& totals, double wall_seconds) {
  CriticalPath out;
  double min_comm = std::numeric_limits<double>::infinity();
  for (const auto& [rank, t] : totals) {
    const double work = t.seconds(TraceCategory::kComputation) +
                        t.seconds(TraceCategory::kDistribution) +
                        t.seconds(TraceCategory::kDataIo) +
                        t.seconds(TraceCategory::kGram);
    out.seconds = std::max(out.seconds, work);
    min_comm = std::min(min_comm, t.seconds(TraceCategory::kCommunication));
  }
  if (std::isfinite(min_comm)) out.seconds += min_comm;
  if (wall_seconds > 0.0) out.seconds = std::min(out.seconds, wall_seconds);
  return out;
}

/// Folds the per-agent sched.* counters into one summary. Sums are over
/// agent ranks (the scheduler records counters on agents only, so they do
/// not multiply by group width); queue depth and placement error take the
/// worst rank.
SchedulerSummary summarize_scheduler(
    const std::vector<MetricsRegistry::Entry>& metrics) {
  SchedulerSummary s;
  std::vector<double> tasks_per_agent;
  double policy_value = -1.0;
  for (const auto& entry : metrics) {
    if (entry.name.rfind("sched.", 0) != 0) continue;
    s.present = true;
    if (entry.name == "sched.policy") {
      policy_value = entry.value;
    } else if (entry.name == "sched.tasks_executed") {
      s.tasks_executed += entry.value;
      tasks_per_agent.push_back(entry.value);
    } else if (entry.name == "sched.steals_attempted") {
      s.steals_attempted += entry.value;
    } else if (entry.name == "sched.steals_succeeded") {
      s.steals_succeeded += entry.value;
    } else if (entry.name == "sched.queue_depth_max") {
      s.queue_depth_max = std::max(s.queue_depth_max, entry.value);
    } else if (entry.name == "sched.placement_error") {
      s.placement_error = std::max(s.placement_error, entry.value);
    }
  }
  if (!s.present) return s;
  s.agent_ranks = static_cast<int>(tasks_per_agent.size());
  switch (static_cast<int>(policy_value)) {
    case static_cast<int>(uoi::sched::SchedulePolicy::kStatic):
      s.policy = "static";
      break;
    case static_cast<int>(uoi::sched::SchedulePolicy::kCostLpt):
      s.policy = "cost_lpt";
      break;
    case static_cast<int>(uoi::sched::SchedulePolicy::kWorkSteal):
      s.policy = "work_steal";
      break;
    default:
      s.policy = "unknown";
      break;
  }
  const double mean = mean_of(tasks_per_agent);
  if (mean > 0.0) {
    s.tasks_max_over_mean =
        *std::max_element(tasks_per_agent.begin(), tasks_per_agent.end()) /
        mean;
  }
  return s;
}

/// Folds the per-rank screen.* counters into one summary. Every counter
/// is genuinely per-rank work (each rank screens its own lambda chunk),
/// so they all sum.
ScreeningSummary summarize_screening(
    const std::vector<MetricsRegistry::Entry>& metrics) {
  ScreeningSummary s;
  for (const auto& entry : metrics) {
    if (entry.name.rfind("screen.", 0) != 0) continue;
    s.present = true;
    if (entry.name == "screen.lambdas") {
      s.lambdas += entry.value;
    } else if (entry.name == "screen.survivors") {
      s.survivors += entry.value;
    } else if (entry.name == "screen.kkt_violations") {
      s.kkt_violations += entry.value;
    } else if (entry.name == "screen.kkt_rounds") {
      s.kkt_rounds += entry.value;
    } else if (entry.name == "screen.gram_cols_saved") {
      s.gram_cols_saved += entry.value;
    } else if (entry.name == "screen.canonical_solves") {
      s.canonical_solves += entry.value;
    } else if (entry.name == "screen.total_columns") {
      s.total_columns += entry.value;
    }
  }
  if (!s.present) return s;
  if (s.total_columns > 0.0) {
    s.survivor_fraction = s.survivors / s.total_columns;
  }
  return s;
}

/// Folds the per-rank recovery.* counters into one health summary. Rank
/// counters that are genuinely per-rank (retries, detections) sum; counters
/// that every survivor replicates (shrinks, cells) take the max so they do
/// not multiply by the rank count; the achieved quorum takes the min (the
/// binding constraint).
HealthSummary summarize_health(
    const std::vector<MetricsRegistry::Entry>& metrics) {
  HealthSummary h;
  for (const auto& entry : metrics) {
    if (entry.name.rfind("recovery.", 0) != 0) continue;
    h.present = true;
    if (entry.name == "recovery.transient_faults") {
      h.transient_faults += entry.value;
    } else if (entry.name == "recovery.retries") {
      h.retries += entry.value;
    } else if (entry.name == "recovery.giveups") {
      h.giveups += entry.value;
    } else if (entry.name == "recovery.rank_failures_detected") {
      h.rank_failures_detected += entry.value;
    } else if (entry.name == "recovery.shrinks") {
      h.shrinks = std::max(h.shrinks, entry.value);
    } else if (entry.name == "recovery.cells_recovered") {
      h.cells_recovered = std::max(h.cells_recovered, entry.value);
    } else if (entry.name == "recovery.hangs_detected") {
      h.hangs_detected += entry.value;
    } else if (entry.name == "recovery.suspects_cleared") {
      h.suspects_cleared += entry.value;
    } else if (entry.name == "recovery.hang_detect_seconds") {
      h.hang_detect_seconds_max =
          std::max(h.hang_detect_seconds_max, entry.value);
    } else if (entry.name == "recovery.crc_detected") {
      h.crc_detected += entry.value;
    } else if (entry.name == "recovery.retries_after_jitter") {
      h.retries_after_jitter += entry.value;
    } else if (entry.name == "recovery.degraded") {
      h.degraded = h.degraded || entry.value != 0.0;
    } else if (entry.name == "recovery.achieved_quorum") {
      h.achieved_quorum = std::min(h.achieved_quorum, entry.value);
    } else if (entry.name == "recovery.cells_lost") {
      h.cells_lost = std::max(h.cells_lost, entry.value);
    }
  }
  return h;
}

void append_bucket_fields(std::string& out, const RankBuckets& b) {
  using support::json_number;
  out += "\"rank\":" + std::to_string(b.rank);
  out += ",\"computation\":" + json_number(b.computation);
  out += ",\"communication\":" + json_number(b.communication);
  out += ",\"distribution\":" + json_number(b.distribution);
  out += ",\"data_io\":" + json_number(b.data_io);
  out += ",\"fault\":" + json_number(b.fault);
  out += ",\"recovery\":" + json_number(b.recovery);
  out += ",\"gram\":" + json_number(b.gram);
}

}  // namespace

ReportInputs collect_inputs(double wall_seconds) {
  ReportInputs inputs;
  inputs.wall_seconds = wall_seconds;
  auto& tracer = Tracer::instance();
  inputs.totals = tracer.all_totals();
  inputs.histograms = tracer.all_histograms();
  if (tracer.capture_events()) inputs.events = tracer.events();
  inputs.metrics = MetricsRegistry::instance().snapshot();
  return inputs;
}

ReportInputs inputs_from_events(std::vector<TraceEvent> events) {
  ReportInputs inputs;
  double first_start = std::numeric_limits<double>::infinity();
  double last_end = 0.0;
  for (const TraceEvent& e : events) {
    auto& entry = inputs.totals[e.rank].of(e.category);
    ++entry.calls;
    entry.seconds += e.duration_seconds;
    inputs.histograms[e.rank][static_cast<std::size_t>(e.category)].add(
        e.duration_seconds);
    first_start = std::min(first_start, e.start_seconds);
    last_end = std::max(last_end, e.start_seconds + e.duration_seconds);
  }
  if (!events.empty()) {
    inputs.wall_seconds = std::max(0.0, last_end - first_start);
  }
  // Match Tracer::events() ordering so the critical-path pass sees each
  // rank's collectives in entry order.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.rank != b.rank) return a.rank < b.rank;
                     if (a.start_seconds != b.start_seconds) {
                       return a.start_seconds < b.start_seconds;
                     }
                     return a.name < b.name;
                   });
  inputs.events = std::move(events);
  return inputs;
}

RunReport build_run_report(const ReportInputs& inputs) {
  RunReport report;
  report.wall_seconds = inputs.wall_seconds;
  report.n_ranks = static_cast<int>(inputs.totals.size());
  report.metrics = inputs.metrics;

  std::vector<double> compute, comm, dist, io, gram;
  for (const auto& [rank, totals] : inputs.totals) {
    RankBuckets buckets;
    buckets.rank = rank;
    buckets.computation = category_seconds(totals, TraceCategory::kComputation);
    buckets.communication =
        category_seconds(totals, TraceCategory::kCommunication);
    buckets.distribution =
        category_seconds(totals, TraceCategory::kDistribution);
    buckets.data_io = category_seconds(totals, TraceCategory::kDataIo);
    buckets.fault = category_seconds(totals, TraceCategory::kFault);
    buckets.recovery = category_seconds(totals, TraceCategory::kRecovery);
    buckets.gram = category_seconds(totals, TraceCategory::kGram);
    report.per_rank.push_back(buckets);
    compute.push_back(buckets.computation);
    comm.push_back(buckets.communication);
    dist.push_back(buckets.distribution);
    io.push_back(buckets.data_io);
    gram.push_back(buckets.gram);
  }

  // Headline buckets: per-rank means for the traced categories,
  // computation as the wall remainder so the buckets sum to the wall.
  report.communication_seconds = mean_of(comm);
  report.distribution_seconds = mean_of(dist);
  report.data_io_seconds = mean_of(io);
  report.gram_seconds = mean_of(gram);
  report.computation_seconds =
      std::max(0.0, report.wall_seconds - report.communication_seconds -
                        report.distribution_seconds -
                        report.data_io_seconds - report.gram_seconds);

  // Load imbalance over traced compute seconds.
  if (!compute.empty()) {
    const double mean = mean_of(compute);
    const auto max_it = std::max_element(compute.begin(), compute.end());
    const double max = *max_it;
    if (mean > 0.0) {
      report.compute_max_over_mean = max / mean;
      double var = 0.0;
      for (const double v : compute) var += (v - mean) * (v - mean);
      var /= static_cast<double>(compute.size());
      report.compute_cv = std::sqrt(var) / mean;
    }
    if (compute.size() >= 2) {
      report.straggler_rank =
          report.per_rank[static_cast<std::size_t>(
                              max_it - compute.begin())]
              .rank;
      report.straggler_excess_seconds = max - mean;
      report.straggler_flagged = report.compute_max_over_mean > 1.25 &&
                                 report.straggler_excess_seconds > 1e-3;
    }
  }

  // Allreduce wait skew: prefer the exact per-rank Allreduce counters the
  // cluster exports; fall back to the communication bucket totals.
  std::vector<double> allreduce;
  for (const auto& entry : inputs.metrics) {
    if (entry.name == "comm.allreduce.seconds") {
      allreduce.push_back(entry.value);
    }
  }
  if (allreduce.size() < 2) allreduce = comm;
  if (allreduce.size() >= 2) {
    const auto [min_it, max_it] =
        std::minmax_element(allreduce.begin(), allreduce.end());
    report.allreduce_skew_seconds = *max_it - *min_it;
    const double mean = mean_of(allreduce);
    if (mean > 0.0) report.allreduce_max_over_mean = *max_it / mean;
  }

  report.scheduler = summarize_scheduler(inputs.metrics);
  report.screening = summarize_screening(inputs.metrics);
  report.health = summarize_health(inputs.metrics);

  // Critical path.
  const CriticalPath cp =
      inputs.events.empty()
          ? critical_path_from_totals(inputs.totals, report.wall_seconds)
          : critical_path_from_events(inputs.events, report.wall_seconds);
  report.critical_path_seconds = cp.seconds;
  report.sync_points = cp.sync_points;
  report.critical_path_method = inputs.events.empty() ? "totals" : "events";
  if (report.wall_seconds > 0.0) {
    report.critical_path_fraction =
        report.critical_path_seconds / report.wall_seconds;
  }
  if (!inputs.events.empty()) {
    report.exact_path = exact_critical_path(inputs.events);
  } else {
    report.exact_path.failure = "no captured events";
  }

  // Latency percentiles per category, merged across ranks.
  for (std::size_t c = 0; c < kNCategories; ++c) {
    LogHistogram merged;
    for (const auto& [rank, histograms] : inputs.histograms) {
      merged.merge(histograms[c]);
    }
    if (merged.count() == 0) continue;
    CategoryLatency latency;
    latency.category = static_cast<TraceCategory>(c);
    latency.count = merged.count();
    latency.mean_seconds = merged.mean();
    latency.p50_seconds = merged.p50();
    latency.p95_seconds = merged.p95();
    latency.p99_seconds = merged.p99();
    latency.max_seconds = merged.max();
    report.latency.push_back(latency);
  }
  return report;
}

std::string RunReport::to_json() const {
  using support::json_number;
  using support::json_quote;
  std::string out = "{\"schema\":\"uoi-run-report-v2\"";
  out += ",\"wall_seconds\":" + json_number(wall_seconds);
  out += ",\"n_ranks\":" + std::to_string(n_ranks);
  out += ",\"buckets\":{\"computation\":" + json_number(computation_seconds);
  out += ",\"communication\":" + json_number(communication_seconds);
  out += ",\"distribution\":" + json_number(distribution_seconds);
  out += ",\"data_io\":" + json_number(data_io_seconds);
  out += ",\"gram\":" + json_number(gram_seconds) + "}";
  out += ",\"buckets_sum_seconds\":" + json_number(buckets_sum());
  out += ",\"per_rank\":[";
  for (std::size_t i = 0; i < per_rank.size(); ++i) {
    if (i != 0) out += ',';
    out += '{';
    append_bucket_fields(out, per_rank[i]);
    out += '}';
  }
  out += "]";
  out += ",\"imbalance\":{";
  out += "\"compute_max_over_mean\":" + json_number(compute_max_over_mean);
  out += ",\"compute_cv\":" + json_number(compute_cv);
  out += ",\"straggler_rank\":" + std::to_string(straggler_rank);
  out +=
      ",\"straggler_excess_seconds\":" + json_number(straggler_excess_seconds);
  out += std::string(",\"straggler_flagged\":") +
         (straggler_flagged ? "true" : "false");
  out += ",\"allreduce_skew_seconds\":" + json_number(allreduce_skew_seconds);
  out +=
      ",\"allreduce_max_over_mean\":" + json_number(allreduce_max_over_mean);
  out += "}";
  out += ",\"critical_path\":{";
  out += "\"lower_bound_seconds\":" + json_number(critical_path_seconds);
  out += ",\"fraction_of_wall\":" + json_number(critical_path_fraction);
  out += ",\"sync_points\":" + std::to_string(sync_points);
  out += ",\"method\":" + json_quote(critical_path_method);
  out += ",\"exact\":{";
  out += std::string("\"valid\":") + (exact_path.valid ? "true" : "false");
  if (exact_path.valid) {
    out += ",\"path_seconds\":" + json_number(exact_path.path_seconds);
    out += ",\"window_seconds\":" + json_number(exact_path.window_seconds);
    const double exact_fraction =
        wall_seconds > 0.0 ? exact_path.path_seconds / wall_seconds : 0.0;
    out += ",\"fraction_of_wall\":" + json_number(exact_fraction);
    out += ",\"categories\":{";
    bool first_cat = true;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(support::TraceCategory::kCategoryCount);
         ++c) {
      if (exact_path.category_seconds[c] <= 0.0) continue;
      if (!first_cat) out += ',';
      first_cat = false;
      out += json_quote(to_string(static_cast<support::TraceCategory>(c)));
      out += ":" + json_number(exact_path.category_seconds[c]);
    }
    out += "}";
    out += ",\"n_events\":" + std::to_string(exact_path.n_events);
    out += ",\"n_stamped\":" + std::to_string(exact_path.n_stamped);
    out += ",\"n_collectives\":" + std::to_string(exact_path.n_collectives);
    out += ",\"n_matched_p2p\":" + std::to_string(exact_path.n_matched_p2p);
    out += ",\"n_rank_jumps\":" + std::to_string(exact_path.n_rank_jumps);
    out += ",\"n_segments\":" + std::to_string(exact_path.segments.size());
  } else {
    out += ",\"failure\":" + json_quote(exact_path.failure);
  }
  out += "}";
  out += "}";
  out += ",\"latency\":{";
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const CategoryLatency& l = latency[i];
    if (i != 0) out += ',';
    out += json_quote(to_string(l.category));
    out += ":{\"count\":" + std::to_string(l.count);
    out += ",\"mean\":" + json_number(l.mean_seconds);
    out += ",\"p50\":" + json_number(l.p50_seconds);
    out += ",\"p95\":" + json_number(l.p95_seconds);
    out += ",\"p99\":" + json_number(l.p99_seconds);
    out += ",\"max\":" + json_number(l.max_seconds);
    out += "}";
  }
  out += "}";
  out += ",\"scheduler\":{";
  out += std::string("\"present\":") + (scheduler.present ? "true" : "false");
  if (scheduler.present) {
    out += ",\"policy\":" + json_quote(scheduler.policy);
    out += ",\"agent_ranks\":" + std::to_string(scheduler.agent_ranks);
    out += ",\"tasks_executed\":" + json_number(scheduler.tasks_executed);
    out += ",\"steals_attempted\":" + json_number(scheduler.steals_attempted);
    out += ",\"steals_succeeded\":" + json_number(scheduler.steals_succeeded);
    out += ",\"queue_depth_max\":" + json_number(scheduler.queue_depth_max);
    out += ",\"tasks_max_over_mean\":" +
           json_number(scheduler.tasks_max_over_mean);
    out += ",\"placement_error\":" + json_number(scheduler.placement_error);
  }
  out += "}";
  out += ",\"screening\":{";
  out += std::string("\"present\":") + (screening.present ? "true" : "false");
  if (screening.present) {
    out += ",\"lambdas\":" + json_number(screening.lambdas);
    out += ",\"survivors\":" + json_number(screening.survivors);
    out += ",\"kkt_violations\":" + json_number(screening.kkt_violations);
    out += ",\"kkt_rounds\":" + json_number(screening.kkt_rounds);
    out += ",\"gram_cols_saved\":" + json_number(screening.gram_cols_saved);
    out += ",\"canonical_solves\":" + json_number(screening.canonical_solves);
    out += ",\"total_columns\":" + json_number(screening.total_columns);
    out += ",\"survivor_fraction\":" +
           json_number(screening.survivor_fraction);
  }
  out += "}";
  out += ",\"health\":{";
  out += std::string("\"present\":") + (health.present ? "true" : "false");
  if (health.present) {
    out += ",\"transient_faults\":" + json_number(health.transient_faults);
    out += ",\"retries\":" + json_number(health.retries);
    out += ",\"giveups\":" + json_number(health.giveups);
    out += ",\"rank_failures_detected\":" +
           json_number(health.rank_failures_detected);
    out += ",\"shrinks\":" + json_number(health.shrinks);
    out += ",\"cells_recovered\":" + json_number(health.cells_recovered);
    out += ",\"hangs_detected\":" + json_number(health.hangs_detected);
    out += ",\"suspects_cleared\":" + json_number(health.suspects_cleared);
    out += ",\"hang_detect_seconds_max\":" +
           json_number(health.hang_detect_seconds_max);
    out += ",\"crc_detected\":" + json_number(health.crc_detected);
    out += ",\"retries_after_jitter\":" +
           json_number(health.retries_after_jitter);
    out += std::string(",\"degraded\":") + (health.degraded ? "true" : "false");
    out += ",\"achieved_quorum\":" + json_number(health.achieved_quorum);
    out += ",\"cells_lost\":" + json_number(health.cells_lost);
  }
  out += "}";
  out += ",\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"rank\":" + std::to_string(metrics[i].rank);
    out += ",\"name\":" + json_quote(metrics[i].name);
    out += ",\"value\":" + json_number(metrics[i].value) + "}";
  }
  out += "]}\n";
  return out;
}

std::string RunReport::to_text() const {
  using support::format_fixed;
  using support::format_seconds;
  std::string out;
  out += "run report: wall " + format_seconds(wall_seconds) + " on " +
         std::to_string(n_ranks) + " rank(s)\n";
  out += "buckets (sum == wall): computation " +
         format_seconds(computation_seconds) + ", communication " +
         format_seconds(communication_seconds) + ", distribution " +
         format_seconds(distribution_seconds) + ", data I/O " +
         format_seconds(data_io_seconds) + ", gram " +
         format_seconds(gram_seconds) + "\n";

  if (!per_rank.empty()) {
    support::Table table({"rank", "computation", "communication",
                          "distribution", "data I/O", "gram", "recovery"});
    for (const RankBuckets& b : per_rank) {
      table.add_row({std::to_string(b.rank), format_seconds(b.computation),
                     format_seconds(b.communication),
                     format_seconds(b.distribution),
                     format_seconds(b.data_io), format_seconds(b.gram),
                     format_seconds(b.recovery)});
    }
    out += table.to_text();
  }

  out += "load imbalance: compute max/mean " +
         format_fixed(compute_max_over_mean, 3) + ", CV " +
         format_fixed(compute_cv, 3);
  if (straggler_rank >= 0) {
    out += ", straggler rank " + std::to_string(straggler_rank) + " (+" +
           format_seconds(straggler_excess_seconds) + " vs mean" +
           (straggler_flagged ? ", FLAGGED" : "") + ")";
  }
  out += "\n";
  out += "allreduce skew: " + format_seconds(allreduce_skew_seconds) +
         " (max/mean " + format_fixed(allreduce_max_over_mean, 3) + ")\n";
  out += "critical path >= " + format_seconds(critical_path_seconds) + " (" +
         format_fixed(100.0 * critical_path_fraction, 1) + "% of wall, " +
         critical_path_method + " method, " + std::to_string(sync_points) +
         " sync points)\n";
  if (exact_path.valid) {
    out += "exact critical path: " + format_seconds(exact_path.path_seconds) +
           " over " + std::to_string(exact_path.n_rank_jumps) +
           " cross-rank hop(s) (" +
           std::to_string(exact_path.n_collectives) + " collectives, " +
           std::to_string(exact_path.n_matched_p2p) + " matched messages);";
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(support::TraceCategory::kCategoryCount);
         ++c) {
      if (exact_path.category_seconds[c] <= 0.0) continue;
      const double pct = exact_path.path_seconds > 0.0
                             ? 100.0 * exact_path.category_seconds[c] /
                                   exact_path.path_seconds
                             : 0.0;
      out += std::string(" ") +
             to_string(static_cast<support::TraceCategory>(c)) + " " +
             format_fixed(pct, 1) + "%";
    }
    out += "\n";
  }

  if (scheduler.present) {
    support::Table table({"policy", "agents", "tasks", "steals ok/try",
                          "queue max", "task max/mean", "cost err"});
    table.add_row(
        {scheduler.policy, std::to_string(scheduler.agent_ranks),
         format_fixed(scheduler.tasks_executed, 0),
         format_fixed(scheduler.steals_succeeded, 0) + "/" +
             format_fixed(scheduler.steals_attempted, 0),
         format_fixed(scheduler.queue_depth_max, 0),
         format_fixed(scheduler.tasks_max_over_mean, 3),
         format_fixed(scheduler.placement_error, 3)});
    out += "scheduler:\n" + table.to_text();
  }

  if (screening.present) {
    support::Table table({"lambdas", "survivors", "kkt viol", "gram saved",
                          "canonical", "survive frac"});
    table.add_row({format_fixed(screening.lambdas, 0),
                   format_fixed(screening.survivors, 0),
                   format_fixed(screening.kkt_violations, 0),
                   format_fixed(screening.gram_cols_saved, 0),
                   format_fixed(screening.canonical_solves, 0),
                   format_fixed(screening.survivor_fraction, 3)});
    out += "screening:\n" + table.to_text();
  }

  if (health.present) {
    support::Table table({"hangs", "cleared", "detect max", "crc",
                          "transients", "retries", "shrinks", "degraded"});
    table.add_row(
        {format_fixed(health.hangs_detected, 0),
         format_fixed(health.suspects_cleared, 0),
         format_seconds(health.hang_detect_seconds_max),
         format_fixed(health.crc_detected, 0),
         format_fixed(health.transient_faults, 0),
         format_fixed(health.retries, 0), format_fixed(health.shrinks, 0),
         health.degraded
             ? "quorum " + format_fixed(health.achieved_quorum, 3) + " (" +
                   format_fixed(health.cells_lost, 0) + " cells lost)"
             : "no"});
    out += "health:\n" + table.to_text();
  }

  if (!latency.empty()) {
    support::Table table({"category", "spans", "mean", "p50", "p95", "p99",
                          "max"});
    for (const CategoryLatency& l : latency) {
      table.add_row({to_string(l.category),
                     std::to_string(l.count),
                     format_seconds(l.mean_seconds),
                     format_seconds(l.p50_seconds),
                     format_seconds(l.p95_seconds),
                     format_seconds(l.p99_seconds),
                     format_seconds(l.max_seconds)});
    }
    out += table.to_text();
  }
  return out;
}

void write_run_report(const RunReport& report, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    throw support::IoError("cannot open run report for writing: " + path);
  }
  file << report.to_json();
  file.flush();
  if (!file) {
    throw support::IoError("failed writing run report: " + path);
  }
}

}  // namespace uoi::report
