// Tests for the run-report analytics stack: the streaming log-bucketed
// latency histogram (support/histogram), structured logging
// (support/log), the Chrome-trace reader, and the RunReport analysis
// (load imbalance, Allreduce skew, critical-path lower bound, latency
// percentiles) both from synthetic inputs and from a real distributed run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/uoi_lasso.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "report/run_report.hpp"
#include "report/trace_reader.hpp"
#include "simcluster/cluster.hpp"
#include "support/error.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"
#include "var/uoi_var.hpp"
#include "var/var_distributed.hpp"
#include "var/var_model.hpp"

namespace {

using uoi::report::build_run_report;
using uoi::report::inputs_from_events;
using uoi::report::ReportInputs;
using uoi::report::RunReport;
using uoi::support::LogHistogram;
using uoi::support::TraceCategory;
using uoi::support::TraceEvent;
using uoi::support::Tracer;

// ---------------------------------------------------------------- histogram

TEST(Histogram, EmptyIsAllZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
}

TEST(Histogram, TracksExactSummaryStatistics) {
  LogHistogram h;
  h.add(0.002);
  h.add(0.010);
  h.add(0.050);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.062);
  EXPECT_DOUBLE_EQ(h.min(), 0.002);
  EXPECT_DOUBLE_EQ(h.max(), 0.050);
  EXPECT_NEAR(h.mean(), 0.062 / 3.0, 1e-15);
}

TEST(Histogram, QuantilesWithinBucketResolution) {
  // 1..100 ms uniform: p50 ~ 50 ms, p95 ~ 95 ms. The log buckets have a
  // ratio of ~1.34, so allow ~20% relative error.
  LogHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(1e-3 * i);
  EXPECT_NEAR(h.p50(), 0.050, 0.010);
  EXPECT_NEAR(h.p95(), 0.095, 0.020);
  EXPECT_NEAR(h.p99(), 0.099, 0.020);
  // Quantiles are clamped to the observed range.
  EXPECT_GE(h.quantile(0.0), 0.001);
  EXPECT_LE(h.quantile(1.0), 0.100 + 1e-12);
}

TEST(Histogram, SingleValueQuantilesAreExact) {
  LogHistogram h;
  h.add(0.25);
  // One observation: every quantile clamps to the observed min == max.
  EXPECT_DOUBLE_EQ(h.p50(), 0.25);
  EXPECT_DOUBLE_EQ(h.p99(), 0.25);
}

TEST(Histogram, OutOfRangeValuesClampButKeepExactMinMax) {
  LogHistogram h;
  h.add(1e-12);  // below the 1 ns first bucket
  h.add(1e6);    // above the last bucket
  h.add(-1.0);   // negative clamps to zero
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
}

TEST(Histogram, MergeAddsCountsAndRanges) {
  LogHistogram a, b;
  a.add(0.001);
  a.add(0.002);
  b.add(0.100);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), 0.001);
  EXPECT_DOUBLE_EQ(a.max(), 0.100);
  EXPECT_NEAR(a.sum(), 0.103, 1e-15);
  a.clear();
  EXPECT_EQ(a.count(), 0u);
}

TEST(Histogram, BucketIndexIsMonotone) {
  std::size_t last = 0;
  for (double v = 1e-9; v < 100.0; v *= 3.0) {
    const std::size_t index = LogHistogram::bucket_index(v);
    EXPECT_GE(index, last);
    EXPECT_LT(index, LogHistogram::kBucketCount);
    // The bucket's lower bound must not exceed the value it contains.
    EXPECT_LE(LogHistogram::bucket_lower_bound(index), v * (1.0 + 1e-9));
    last = index;
  }
}

TEST(Histogram, ValueAtBucketLowerBoundLandsInsideItsBucket) {
  // A value sitting exactly on a bucket edge must land in a bucket whose
  // range contains it (floating-point log/exp round-trips may put the edge
  // itself in either neighbor, but never further away).
  for (const std::size_t i : {1u, 10u, 40u, 80u, 95u}) {
    const double edge = LogHistogram::bucket_lower_bound(i);
    const std::size_t index = LogHistogram::bucket_index(edge);
    EXPECT_TRUE(index == i || index + 1 == i) << "edge of bucket " << i
                                              << " landed in " << index;
    EXPECT_LE(LogHistogram::bucket_lower_bound(index), edge * (1.0 + 1e-12));
    EXPECT_GT(LogHistogram::bucket_lower_bound(index + 2), edge);
  }
}

TEST(Histogram, IdenticalSamplesAtABucketEdgeQuantileExactly) {
  // min == max clamping makes every quantile exact even when the sample
  // sits on a bucket boundary where geometric interpolation would
  // otherwise return the edge of the neighboring bucket.
  const double edge = LogHistogram::bucket_lower_bound(40);
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.add(edge);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), edge);
  EXPECT_DOUBLE_EQ(h.p50(), edge);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), edge);
}

TEST(Histogram, QuantileInterpolatesAcrossABucketBoundary) {
  // 50 samples at the geometric midpoint of bucket i, 50 at the midpoint
  // of bucket i+1. The quantile whose target rank is the last observation
  // of the lower bucket interpolates to the shared bucket edge; one rank
  // later lands just above it — the estimate must cross the boundary
  // continuously (no jump past the next midpoint).
  const std::size_t i = LogHistogram::bucket_index(1e-3);
  const double lo = LogHistogram::bucket_lower_bound(i);
  const double edge = LogHistogram::bucket_lower_bound(i + 1);
  const double hi = LogHistogram::bucket_lower_bound(i + 2);
  const double mid_low = std::sqrt(lo * edge);
  const double mid_high = std::sqrt(edge * hi);
  LogHistogram h;
  for (int k = 0; k < 50; ++k) h.add(mid_low);
  for (int k = 0; k < 50; ++k) h.add(mid_high);
  ASSERT_EQ(h.count(), 100u);
  // q = 49/99: target rank 50 = the last sample of the lower bucket;
  // within-bucket fraction 1.0 interpolates to the bucket's upper edge.
  const double at_edge = h.quantile(49.0 / 99.0);
  EXPECT_NEAR(at_edge, edge, edge * 1e-12);
  // q = 50/99: target rank 51 = first sample of the upper bucket; the
  // estimate moves just above the edge, well below the upper midpoint.
  const double past_edge = h.quantile(50.0 / 99.0);
  EXPECT_GE(past_edge, at_edge);
  EXPECT_LT(past_edge, mid_high);
  // Quantiles stay monotone in q across the boundary.
  double last = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double value = h.quantile(q);
    EXPECT_GE(value, last) << "q=" << q;
    last = value;
  }
  // And remain clamped to the observed range at the extremes.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), mid_low);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), mid_high);
}

TEST(Histogram, TracerMaintainsHistogramsMatchingTotals) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.record("a", TraceCategory::kCommunication, 1, 0.0, 0.010);
  tracer.record("b", TraceCategory::kCommunication, 1, 0.0, 0.020);
  tracer.record("c", TraceCategory::kCommunication, 2, 0.0, 0.040);
  const auto h1 = tracer.histogram(1, TraceCategory::kCommunication);
  EXPECT_EQ(h1.count(),
            tracer.totals(1).of(TraceCategory::kCommunication).calls);
  EXPECT_NEAR(h1.sum(), 0.030, 1e-12);
  const auto merged = tracer.histogram(TraceCategory::kCommunication);
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_DOUBLE_EQ(merged.max(), 0.040);
  tracer.clear();
  EXPECT_EQ(tracer.histogram(TraceCategory::kCommunication).count(), 0u);
}

// ------------------------------------------------------------------ report

/// Two ranks, one collective: rank 0 works 1.0 s then spends 0.2 s in the
/// allreduce; rank 1 works 0.5 s and waits 0.7 s in the same collective.
std::vector<TraceEvent> synthetic_skewed_run() {
  std::vector<TraceEvent> events;
  events.push_back({"work", TraceCategory::kComputation, 0, 0, 0.0, 1.0, {}});
  events.push_back({"allreduce", TraceCategory::kCommunication, 0, 0, 1.0,
                    0.2, {}});
  events.push_back({"work", TraceCategory::kComputation, 1, 1, 0.0, 0.5, {}});
  events.push_back({"allreduce", TraceCategory::kCommunication, 1, 1, 0.5,
                    0.7, {}});
  return events;
}

TEST(RunReport, SyntheticImbalanceAndCriticalPath) {
  const auto inputs = inputs_from_events(synthetic_skewed_run());
  EXPECT_NEAR(inputs.wall_seconds, 1.2, 1e-12);

  const RunReport report = build_run_report(inputs);
  EXPECT_EQ(report.n_ranks, 2);

  // Headline buckets: communication is the per-rank mean (0.45 s), and
  // computation is the wall remainder, so the four buckets sum to wall.
  EXPECT_NEAR(report.communication_seconds, 0.45, 1e-12);
  EXPECT_NEAR(report.computation_seconds, 0.75, 1e-12);
  EXPECT_NEAR(report.buckets_sum(), report.wall_seconds, 1e-12);

  // Imbalance: traced compute 1.0 vs 0.5 -> max/mean 4/3, CV 1/3,
  // straggler rank 0 with +0.25 s excess, flagged.
  EXPECT_NEAR(report.compute_max_over_mean, 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(report.compute_cv, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(report.straggler_rank, 0);
  EXPECT_NEAR(report.straggler_excess_seconds, 0.25, 1e-12);
  EXPECT_TRUE(report.straggler_flagged);

  // Allreduce skew (from comm totals here): 0.7 - 0.2 = 0.5 s.
  EXPECT_NEAR(report.allreduce_skew_seconds, 0.5, 1e-12);
  EXPECT_NEAR(report.allreduce_max_over_mean, 0.7 / 0.45, 1e-12);

  // Critical path (events method): max work (1.0) + fastest instance of
  // the one collective (0.2) = 1.2 = wall, so no balancing slack.
  EXPECT_EQ(report.critical_path_method, "events");
  EXPECT_EQ(report.sync_points, 1u);
  EXPECT_NEAR(report.critical_path_seconds, 1.2, 1e-12);
  EXPECT_NEAR(report.critical_path_fraction, 1.0, 1e-12);

  // Latency table covers both categories.
  ASSERT_EQ(report.latency.size(), 2u);
  EXPECT_EQ(report.latency[0].category, TraceCategory::kComputation);
  EXPECT_EQ(report.latency[0].count, 2u);
  EXPECT_DOUBLE_EQ(report.latency[0].max_seconds, 1.0);

  // Serialized forms carry the schema marker and the headline numbers.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\":\"uoi-run-report-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"straggler_rank\":0"), std::string::npos);
  EXPECT_NE(json.find("\"method\":\"events\""), std::string::npos);
  // No sched.* metrics fed in -> v1-compatible document: the scheduler
  // section is present but flagged absent, every v1 key unchanged.
  EXPECT_NE(json.find("\"scheduler\":{\"present\":false}"),
            std::string::npos);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("load imbalance"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);
}

TEST(RunReport, TotalsFallbackWhenNoEvents) {
  ReportInputs inputs;
  inputs.wall_seconds = 2.0;
  inputs.totals[0].of(TraceCategory::kComputation) = {4, 1.5};
  inputs.totals[0].of(TraceCategory::kCommunication) = {2, 0.3};
  inputs.totals[1].of(TraceCategory::kComputation) = {4, 1.4};
  inputs.totals[1].of(TraceCategory::kCommunication) = {2, 0.5};
  const RunReport report = build_run_report(inputs);
  EXPECT_EQ(report.critical_path_method, "totals");
  // max work (1.5) + min total comm (0.3) = 1.8 <= wall.
  EXPECT_NEAR(report.critical_path_seconds, 1.8, 1e-12);
  EXPECT_NEAR(report.critical_path_fraction, 0.9, 1e-12);
  EXPECT_FALSE(report.straggler_flagged);  // 1.5/1.45 < 1.25
}

TEST(RunReport, EmptyInputsProduceEmptyReport) {
  const RunReport report = build_run_report(ReportInputs{});
  EXPECT_EQ(report.n_ranks, 0);
  EXPECT_EQ(report.straggler_rank, -1);
  EXPECT_TRUE(report.latency.empty());
  EXPECT_NE(report.to_json().find("uoi-run-report-v2"), std::string::npos);
}

TEST(RunReport, SchedulerSectionAggregatesAgentCounters) {
  ReportInputs inputs;
  inputs.wall_seconds = 1.0;
  // Two agent ranks (0 and 2) exporting sched counters; rank 2 is the
  // busier agent and also carries the calibration error metric.
  using Entry = uoi::support::MetricsRegistry::Entry;
  inputs.metrics = std::vector<Entry>{
      {0, "sched.policy", 3.0},  // kWorkSteal
      {0, "sched.tasks_executed", 4.0},
      {0, "sched.steals_attempted", 2.0},
      {0, "sched.steals_succeeded", 1.0},
      {0, "sched.queue_depth_max", 5.0},
      {2, "sched.policy", 3.0},
      {2, "sched.tasks_executed", 8.0},
      {2, "sched.steals_attempted", 1.0},
      {2, "sched.steals_succeeded", 1.0},
      {2, "sched.queue_depth_max", 7.0},
      {2, "sched.placement_error", 0.25},
  };
  const RunReport report = build_run_report(inputs);
  EXPECT_TRUE(report.scheduler.present);
  EXPECT_EQ(report.scheduler.policy, "work_steal");
  EXPECT_EQ(report.scheduler.agent_ranks, 2);
  EXPECT_DOUBLE_EQ(report.scheduler.tasks_executed, 12.0);
  EXPECT_DOUBLE_EQ(report.scheduler.steals_attempted, 3.0);
  EXPECT_DOUBLE_EQ(report.scheduler.steals_succeeded, 2.0);
  EXPECT_DOUBLE_EQ(report.scheduler.queue_depth_max, 7.0);
  EXPECT_NEAR(report.scheduler.tasks_max_over_mean, 8.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(report.scheduler.placement_error, 0.25);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"scheduler\":{\"present\":true"), std::string::npos);
  EXPECT_NE(json.find("\"policy\":\"work_steal\""), std::string::npos);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("scheduler:"), std::string::npos);
  EXPECT_NE(text.find("work_steal"), std::string::npos);
}

TEST(RunReport, ScreeningSectionAggregatesChainCounters) {
  ReportInputs inputs;
  inputs.wall_seconds = 1.0;
  // Two ranks running screened chains over their own lambda chunks; all
  // counters sum across ranks.
  using Entry = uoi::support::MetricsRegistry::Entry;
  inputs.metrics = std::vector<Entry>{
      {0, "screen.lambdas", 3.0},
      {0, "screen.survivors", 40.0},
      {0, "screen.kkt_violations", 2.0},
      {0, "screen.kkt_rounds", 4.0},
      {0, "screen.gram_cols_saved", 260.0},
      {0, "screen.canonical_solves", 1.0},
      {0, "screen.total_columns", 300.0},
      {1, "screen.lambdas", 2.0},
      {1, "screen.survivors", 10.0},
      {1, "screen.kkt_violations", 0.0},
      {1, "screen.kkt_rounds", 2.0},
      {1, "screen.gram_cols_saved", 190.0},
      {1, "screen.canonical_solves", 0.0},
      {1, "screen.total_columns", 200.0},
  };
  const RunReport report = build_run_report(inputs);
  EXPECT_TRUE(report.screening.present);
  EXPECT_DOUBLE_EQ(report.screening.lambdas, 5.0);
  EXPECT_DOUBLE_EQ(report.screening.survivors, 50.0);
  EXPECT_DOUBLE_EQ(report.screening.kkt_violations, 2.0);
  EXPECT_DOUBLE_EQ(report.screening.kkt_rounds, 6.0);
  EXPECT_DOUBLE_EQ(report.screening.gram_cols_saved, 450.0);
  EXPECT_DOUBLE_EQ(report.screening.canonical_solves, 1.0);
  EXPECT_DOUBLE_EQ(report.screening.total_columns, 500.0);
  EXPECT_NEAR(report.screening.survivor_fraction, 0.1, 1e-12);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"screening\":{\"present\":true"), std::string::npos);
  EXPECT_NE(json.find("\"survivor_fraction\":"), std::string::npos);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("screening:"), std::string::npos);

  // Without screen.* metrics the section is present-but-flagged-absent,
  // keeping v1/v2 consumers working unchanged.
  const RunReport empty = build_run_report(ReportInputs{});
  EXPECT_FALSE(empty.screening.present);
  EXPECT_NE(empty.to_json().find("\"screening\":{\"present\":false}"),
            std::string::npos);
}

TEST(RunReport, WriteRunReportFailsWithIoError) {
  const RunReport report;
  EXPECT_THROW(
      uoi::report::write_run_report(report, "/nonexistent-dir/x/report.json"),
      uoi::support::IoError);
}

// ------------------------------------------------------------ trace reader

TEST(TraceReader, RoundTripsTracerOutput) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(true);
  tracer.record("alpha", TraceCategory::kCommunication, 0, 0.001, 0.002);
  tracer.record("beta \"quoted\"\n", TraceCategory::kDataIo, 2, 0.003, 0.001);
  tracer.instant("marker", TraceCategory::kFault, 1);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  tracer.set_capture_events(false);
  tracer.clear();

  std::istringstream in(out.str());
  const auto events = uoi::report::read_chrome_trace(in);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "alpha");
  EXPECT_EQ(events[0].category, TraceCategory::kCommunication);
  EXPECT_EQ(events[0].rank, 0);
  EXPECT_NEAR(events[0].start_seconds, 0.001, 1e-9);
  EXPECT_NEAR(events[0].duration_seconds, 0.002, 1e-9);
  EXPECT_EQ(events[1].name, "marker");
  EXPECT_EQ(events[1].category, TraceCategory::kFault);
  EXPECT_NEAR(events[1].duration_seconds, 0.0, 1e-12);
  // The escaped quote/newline in the name survive the round trip.
  EXPECT_EQ(events[2].name, "beta \"quoted\"\n");
  EXPECT_EQ(events[2].category, TraceCategory::kDataIo);
  EXPECT_EQ(events[2].rank, 2);
}

TEST(TraceReader, AcceptsTraceEventsContainerAndSkipsUnknownPhases) {
  std::istringstream in(
      "{\"otherKey\": [1, 2, {\"x\": null}],\n"
      " \"traceEvents\": [\n"
      "  {\"name\": \"span\", \"cat\": \"distribution\", \"ph\": \"X\","
      "   \"pid\": 3, \"tid\": 0, \"ts\": 1500.0, \"dur\": 250.0},\n"
      "  {\"name\": \"begin\", \"ph\": \"B\", \"pid\": 0, \"ts\": 0},\n"
      "  {\"name\": \"odd cat\", \"cat\": \"martian\", \"ph\": \"X\","
      "   \"pid\": 0, \"ts\": 0, \"dur\": 1}\n"
      " ]}");
  const auto events = uoi::report::read_chrome_trace(in);
  ASSERT_EQ(events.size(), 2u);  // the "B" phase is skipped
  EXPECT_EQ(events[0].name, "span");
  EXPECT_EQ(events[0].category, TraceCategory::kDistribution);
  EXPECT_EQ(events[0].rank, 3);
  EXPECT_NEAR(events[0].start_seconds, 1.5e-3, 1e-12);
  EXPECT_NEAR(events[0].duration_seconds, 2.5e-4, 1e-12);
  // Unknown categories land in computation so no time is dropped.
  EXPECT_EQ(events[1].category, TraceCategory::kComputation);
}

TEST(TraceReader, MalformedJsonThrowsIoError) {
  std::istringstream truncated("[{\"name\": \"x\", ");
  EXPECT_THROW((void)uoi::report::read_chrome_trace(truncated),
               uoi::support::IoError);
  std::istringstream garbage("not json at all");
  EXPECT_THROW((void)uoi::report::read_chrome_trace(garbage),
               uoi::support::IoError);
  EXPECT_THROW(
      (void)uoi::report::read_chrome_trace_file("/nonexistent/trace.json"),
      uoi::support::IoError);
}

TEST(TraceReader, AnalyzePipelineMatchesLiveReport) {
  // Capture a synthetic trace, write it, read it back, and check the
  // report computed from the file matches the one from the live events.
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(true);
  for (const auto& e : synthetic_skewed_run()) {
    tracer.record(e.name, e.category, e.rank, e.start_seconds,
                  e.duration_seconds);
  }
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  tracer.set_capture_events(false);
  tracer.clear();

  std::istringstream in(out.str());
  const auto report =
      build_run_report(inputs_from_events(uoi::report::read_chrome_trace(in)));
  EXPECT_NEAR(report.wall_seconds, 1.2, 1e-6);
  EXPECT_NEAR(report.critical_path_seconds, 1.2, 1e-6);
  EXPECT_EQ(report.straggler_rank, 0);
}

// ----------------------------------------------- end-to-end distributed run

TEST(RunReport, DistributedRunBucketsSumToWall) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 80;
  spec.n_features = 16;
  spec.support_size = 4;
  spec.seed = 31;
  const auto data = uoi::data::make_regression(spec);
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 6;
  options.seed = 909;

  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(true);
  uoi::support::Stopwatch watch;
  uoi::sim::Cluster::run(2, [&](uoi::sim::Comm& comm) {
    (void)uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options);
  });
  const double wall = watch.seconds();
  const auto inputs = uoi::report::collect_inputs(wall);
  tracer.set_capture_events(false);
  tracer.clear();

  const RunReport report = build_run_report(inputs);
  EXPECT_EQ(report.n_ranks, 2);
  EXPECT_GT(report.communication_seconds, 0.0);
  // The four headline buckets sum to the phase wall (computation is the
  // remainder; the clamp only fires if traced non-compute exceeds wall).
  const double traced_non_compute = report.communication_seconds +
                                    report.distribution_seconds +
                                    report.data_io_seconds;
  EXPECT_NEAR(report.buckets_sum(), std::max(wall, traced_non_compute),
              1e-9);
  // The critical-path bound never exceeds the wall, and with events
  // captured it uses the aligned-collective method.
  EXPECT_EQ(report.critical_path_method, "events");
  EXPECT_GT(report.critical_path_seconds, 0.0);
  EXPECT_LE(report.critical_path_seconds, wall + 1e-9);
  EXPECT_GT(report.sync_points, 0u);
  // Percentiles come from the always-on histograms.
  ASSERT_FALSE(report.latency.empty());
  for (const auto& l : report.latency) {
    EXPECT_GT(l.count, 0u);
    EXPECT_LE(l.p50_seconds, l.p95_seconds + 1e-12);
    EXPECT_LE(l.p95_seconds, l.p99_seconds + 1e-12);
  }
}

// A collective inside a kGram span would count its wait twice: in the
// Gram bucket and in the communication bucket, under-reporting the
// computation remainder. Captures one fit's spans and checks, rank by
// rank, that no communication span starts inside a kGram span (spans on
// one rank nest or are disjoint). Returns the number of kGram spans.
std::size_t gram_spans_free_of_collectives(
    int ranks, const std::function<void(uoi::sim::Comm&)>& fit) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(true);
  uoi::sim::Cluster::run(ranks, fit);
  const auto events = tracer.events();
  tracer.set_capture_events(false);
  tracer.clear();
  std::size_t grams = 0;
  for (const auto& gram : events) {
    if (gram.category != TraceCategory::kGram) continue;
    ++grams;
    const double end = gram.start_seconds + gram.duration_seconds;
    for (const auto& comm : events) {
      if (comm.rank != gram.rank ||
          comm.category != TraceCategory::kCommunication) {
        continue;
      }
      EXPECT_FALSE(comm.start_seconds >= gram.start_seconds &&
                   comm.start_seconds < end)
          << comm.name << " inside " << gram.name << " on rank "
          << comm.rank;
    }
  }
  return grams;
}

TEST(RunReport, ConsensusLassoGramSpansHoldNoCollectives) {
  // 40 rows over a group of C = 2 ranks is 20 rows per rank, fewer than
  // the 24 features: the consensus side, whose screen inputs take one
  // allreduce per selection bootstrap.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 40;
  spec.n_features = 24;
  spec.support_size = 4;
  spec.seed = 31;
  const auto data = uoi::data::make_regression(spec);
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 3;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 4;
  const uoi::core::UoiParallelLayout layout{1, 1};
  const auto fit = [&](uoi::sim::Comm& comm) {
    ASSERT_EQ(uoi::core::detail::linear_family_path(comm, data.x, layout),
              uoi::sched::LinearPath::kConsensus);
    (void)uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options,
                                           layout);
  };
  EXPECT_GT(gram_spans_free_of_collectives(2, fit), 0u);
}

TEST(RunReport, KronVarGramSpansHoldNoCollectives) {
  // 7 lag rows of 6 nodes at order 4 over groups of two: the Kron+vec
  // side, whose screen inputs take one allreduce per selection bootstrap.
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.order = 4;
  spec.seed = 75;
  uoi::var::SimulateOptions sim;
  sim.n_samples = 11;
  sim.seed = 76;
  const auto series =
      uoi::var::simulate(uoi::data::make_sparse_var(spec), sim);
  uoi::var::UoiVarOptions options;
  options.order = 4;
  options.n_selection_bootstraps = 3;
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 4;
  options.lambda_min_ratio = 1e-2;
  const uoi::core::UoiParallelLayout layout{2, 1};
  const auto fit = [&](uoi::sim::Comm& comm) {
    ASSERT_EQ(uoi::var::detail::var_linear_path(comm, series, options,
                                                layout),
              uoi::sched::LinearPath::kConsensus);
    (void)uoi::var::uoi_var_distributed(comm, series, options, layout, 2);
  };
  EXPECT_GT(gram_spans_free_of_collectives(4, fit), 0u);
}

TEST(RunReport, SerialFitComputationBucketWithinWall) {
  // A serial fit is a one-rank engine run: the engine records the fit's
  // computation span on the caller's tracer rank, once, so the per-rank
  // computation bucket never exceeds the wall around the fit.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 80;
  spec.n_features = 16;
  spec.support_size = 4;
  spec.seed = 31;
  const auto data = uoi::data::make_regression(spec);
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 6;
  options.seed = 909;

  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(true);
  uoi::support::Stopwatch watch;
  (void)uoi::core::UoiLasso(options).fit(data.x, data.y);
  const double wall = watch.seconds();
  const auto inputs = uoi::report::collect_inputs(wall);
  tracer.set_capture_events(false);
  tracer.clear();

  const RunReport report = build_run_report(inputs);
  ASSERT_EQ(report.n_ranks, 1);
  const auto& rank = report.per_rank.front();
  EXPECT_GT(rank.computation, 0.0);
  EXPECT_LE(rank.computation, wall + 1e-9);
  EXPECT_LE(rank.computation + rank.communication + rank.distribution +
                rank.data_io + rank.gram,
            wall + 1e-9);
}

// -------------------------------------------------------------------- log

TEST(Log, LevelParsing) {
  using uoi::support::LogLevel;
  LogLevel level = LogLevel::kOff;
  EXPECT_TRUE(uoi::support::log_level_from_string("debug", level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(uoi::support::log_level_from_string("warning", level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(uoi::support::log_level_from_string("off", level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(uoi::support::log_level_from_string("shout", level));
}

TEST(Log, JsonSinkEscapesAndStructuresFields) {
  using uoi::support::LogFormat;
  using uoi::support::LogLevel;
  const std::string path =
      testing::TempDir() + "/uoi_log_json_sink_test.jsonl";
  std::remove(path.c_str());

  const auto initial_level = uoi::support::log_level();
  uoi::support::set_log_level(LogLevel::kInfo);
  uoi::support::set_log_format(LogFormat::kJson);
  uoi::support::set_log_file(path);
  UOI_LOG_INFO.field("path", "a\"b\\c").field("count", 3)
      << "message with \"quotes\"\nand a newline";
  UOI_LOG_DEBUG << "below threshold; must not appear";
  uoi::support::set_log_file("");
  uoi::support::set_log_format(LogFormat::kText);
  uoi::support::set_log_level(initial_level);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(line.find("\"rank\":"), std::string::npos);
  EXPECT_NE(line.find("\"ts\":"), std::string::npos);
  // Quotes, backslashes, and the newline are escaped (one line per record).
  EXPECT_NE(line.find("message with \\\"quotes\\\"\\nand a newline"),
            std::string::npos);
  EXPECT_NE(line.find("\"path\":\"a\\\"b\\\\c\""), std::string::npos);
  EXPECT_NE(line.find("\"count\":\"3\""), std::string::npos);
  EXPECT_FALSE(std::getline(in, line));  // the debug line was dropped
  std::remove(path.c_str());
}

TEST(Log, TextSinkCarriesRankAndFields) {
  using uoi::support::LogLevel;
  const std::string path = testing::TempDir() + "/uoi_log_text_sink_test.log";
  std::remove(path.c_str());
  const auto initial_level = uoi::support::log_level();
  uoi::support::set_log_level(LogLevel::kWarn);
  uoi::support::set_log_file(path);
  Tracer::set_thread_rank(5);
  UOI_LOG_WARN.field("attempts", 2) << "shrinking";
  Tracer::set_thread_rank(0);
  uoi::support::set_log_file("");
  uoi::support::set_log_level(initial_level);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("[warn ]"), std::string::npos);
  EXPECT_NE(line.find("[rank 5]"), std::string::npos);
  EXPECT_NE(line.find("shrinking attempts=2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Log, SetLogFileThrowsOnBadPath) {
  EXPECT_THROW(uoi::support::set_log_file("/nonexistent-dir/x/y.log"),
               uoi::support::IoError);
}

// ---------------------------------------------------------- category names

TEST(TraceCategoryNames, RoundTrip) {
  using uoi::support::trace_category_from_string;
  for (int c = 0; c < static_cast<int>(TraceCategory::kCategoryCount); ++c) {
    const auto category = static_cast<TraceCategory>(c);
    TraceCategory parsed = TraceCategory::kCategoryCount;
    ASSERT_TRUE(
        trace_category_from_string(uoi::support::to_string(category), parsed));
    EXPECT_EQ(parsed, category);
  }
  TraceCategory parsed = TraceCategory::kComputation;
  EXPECT_FALSE(trace_category_from_string("martian", parsed));
}

}  // namespace
