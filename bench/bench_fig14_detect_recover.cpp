// Fig. 14 (repo extension) — hang detection and shrink-resume recovery
// under the progress-heartbeat watchdog.
//
// Setup: distributed UoI_LASSO at 8 and 16 ranks with a deterministic
// (cost-LPT) schedule. For each scale the bench fits once fault-free,
// then re-fits with one rank hung at its first selection collective and
// a 400 ms watchdog armed. Measured quantities:
//
//   - time-to-detect: the worst per-rank watchdog confirmation latency
//     (RecoveryStats::detect_seconds), which should sit near one timeout;
//   - recovery overhead: faulty wall minus clean wall — detection wait
//     plus the shrink protocol plus the redo of the dead rank's cells;
//   - correctness: every survivor's selection counts, per-lambda candidate
//     supports, and final support must be bit-identical to the fault-free
//     model (the requeued cells replay the same seeded resamples).
//
// The acceptance gate (exit 1) requires bit-identical models at both
// scales, exactly one watchdog confirmation per faulty run, and detection
// within 10x the armed timeout. Telemetry (BENCH_fig14_detect_recover.json)
// carries the numbers for tools/check_bench_regression.py.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "linalg/matrix.hpp"
#include "sched/scheduler.hpp"
#include "simcluster/cluster.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

constexpr long kTimeoutMs = 400;
constexpr std::size_t kSamples = 160;
constexpr std::size_t kFeatures = 24;

uoi::core::UoiLassoOptions bench_options() {
  uoi::core::UoiLassoOptions options;
  // Deterministic placement: the hang point below is a position in the
  // clean run's collective schedule, which work stealing would blur.
  options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;
  options.seed = 1402;
  options.admm.eps_abs = 1e-8;
  options.admm.eps_rel = 1e-6;
  options.admm.max_iterations = 5000;
  return options;
}

struct CaseResult {
  std::vector<uoi::core::UoiLassoDistributedResult> results;  // index == rank
  std::vector<uoi::sim::RankReport> reports;
  double wall_seconds = 0.0;
};

CaseResult run_case(int ranks, const uoi::data::RegressionDataset& data,
                    const uoi::core::UoiParallelLayout& layout,
                    std::shared_ptr<const uoi::sim::FaultPlan> plan) {
  const auto options = bench_options();
  CaseResult out;
  out.results.resize(static_cast<std::size_t>(ranks));
  uoi::support::Stopwatch watch;
  out.reports =
      uoi::sim::Cluster::run_collect_reports(ranks, [&](uoi::sim::Comm& comm) {
        if (plan != nullptr) {
          comm.set_fault_plan(plan);
          comm.set_watchdog({kTimeoutMs});
        }
        out.results[static_cast<std::size_t>(comm.rank())] =
            uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options,
                                             layout);
      });
  out.wall_seconds = watch.seconds();
  return out;
}

bool same_model(const uoi::core::UoiLassoDistributedResult& actual,
                const uoi::core::UoiLassoDistributedResult& expected) {
  if (uoi::linalg::max_abs_diff(actual.selection_counts,
                                expected.selection_counts) != 0.0) {
    return false;
  }
  if (actual.model.candidate_supports != expected.model.candidate_supports) {
    return false;
  }
  return actual.model.support == expected.model.support;
}

struct ScaleMeasurement {
  int ranks = 0;
  double clean_wall = 0.0;
  double faulty_wall = 0.0;
  double detect_seconds = 0.0;  ///< max over ranks
  std::uint64_t hangs_detected = 0;
  std::uint64_t cells_recovered = 0;
  bool bit_identical = false;
};

ScaleMeasurement measure_scale(int ranks,
                               const uoi::core::UoiParallelLayout& layout,
                               int victim,
                               const uoi::data::RegressionDataset& data) {
  ScaleMeasurement m;
  m.ranks = ranks;
  const auto clean = run_case(ranks, data, layout, nullptr);
  m.clean_wall = clean.wall_seconds;

  // Both scales run the Gram path (one Gram reduction per bootstrap), so
  // a fraction of the clean schedule lands past selection. The victim's
  // collective #0 is the task-group split and #1 its first selection Gram
  // reduction: a hang there stalls selection before its cells commit.
  auto plan = std::make_shared<uoi::sim::FaultPlan>();
  plan->hangs.push_back({victim, /*at_collective=*/1});
  const auto faulty = run_case(ranks, data, layout, plan);
  m.faulty_wall = faulty.wall_seconds;

  m.bit_identical = true;
  for (int r = 0; r < ranks; ++r) {
    const auto& report = faulty.reports[static_cast<std::size_t>(r)];
    m.hangs_detected += report.recovery.hangs_detected;
    m.cells_recovered =
        std::max(m.cells_recovered, report.recovery.cells_recovered);
    m.detect_seconds = std::max(m.detect_seconds, report.recovery.detect_seconds);
    if (r == victim) continue;
    if (!same_model(faulty.results[static_cast<std::size_t>(r)],
                    clean.results[0])) {
      m.bit_identical = false;
    }
  }
  return m;
}

}  // namespace

int main() {
  uoi::bench::FigureTrace trace("fig14_detect_recover");
  uoi::bench::BenchReport telemetry("fig14_detect_recover");
  telemetry.config("timeout_ms", static_cast<int>(kTimeoutMs))
      .config("samples", kSamples)
      .config("features", kFeatures)
      .config("selection_bootstraps", std::size_t{6})
      .config("lambdas", std::size_t{6});
  std::printf(
      "== Fig. 14: hang detection and shrink-resume recovery "
      "(progress watchdog, %ld ms timeout) ==\n\n",
      kTimeoutMs);

  uoi::data::RegressionSpec spec;
  spec.n_samples = kSamples;
  spec.n_features = kFeatures;
  spec.support_size = 6;
  spec.noise_stddev = 0.3;
  spec.seed = 1403;
  const auto data = uoi::data::make_regression(spec);

  const auto eight = measure_scale(8, {4, 1}, /*victim=*/3, data);
  const auto sixteen = measure_scale(16, {8, 1}, /*victim=*/11, data);

  uoi::support::Table table({"ranks", "clean wall", "faulty wall",
                             "detect (s)", "hangs", "cells redone",
                             "bit-identical"});
  for (const auto& m : {eight, sixteen}) {
    table.add_row({std::to_string(m.ranks),
                   uoi::support::format_seconds(m.clean_wall),
                   uoi::support::format_seconds(m.faulty_wall),
                   uoi::support::format_fixed(m.detect_seconds, 3),
                   std::to_string(m.hangs_detected),
                   std::to_string(m.cells_recovered),
                   m.bit_identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.to_text().c_str());

  telemetry.config("clean_wall_8", eight.clean_wall)
      .config("faulty_wall_8", eight.faulty_wall)
      .config("detect_seconds_8", eight.detect_seconds)
      .config("hangs_detected_8", static_cast<std::size_t>(eight.hangs_detected))
      .config("clean_wall_16", sixteen.clean_wall)
      .config("faulty_wall_16", sixteen.faulty_wall)
      .config("detect_seconds_16", sixteen.detect_seconds)
      .config("hangs_detected_16",
              static_cast<std::size_t>(sixteen.hangs_detected))
      .config("bit_identical",
              eight.bit_identical && sixteen.bit_identical ? "yes" : "no");

  // Acceptance: one watchdog confirmation per faulty run (the claim CAS
  // makes double-detections impossible by construction — treat any other
  // count as a bug), detection within 10x the timeout, bit-identical
  // recovered models at both scales.
  const double detect_bound = 10.0 * static_cast<double>(kTimeoutMs) / 1000.0;
  bool ok = true;
  for (const auto& m : {eight, sixteen}) {
    if (!m.bit_identical || m.hangs_detected != 1 ||
        m.detect_seconds <= 0.0 || m.detect_seconds > detect_bound) {
      ok = false;
    }
  }
  if (!ok) {
    std::printf("FAIL: acceptance thresholds not met\n");
    return 1;
  }
  return 0;
}
