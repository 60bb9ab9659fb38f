// Fig. 12 (repo extension) — compute-load imbalance of the bootstrap x
// lambda task grid under the three schedule policies.
//
// Setup: a deliberately skewed grid on 8 ranks split into 4 task groups
// (P_B = 2, P_lambda = 2). Cells belonging to even bootstraps cost 10x
// their odd-bootstrap siblings, which the static (k % P_B, c % P_lambda)
// ownership map concentrates onto the two even-bootstrap groups — the
// worst case the cost-guided scheduler exists to fix. Each policy runs the
// identical cell set through sched::run_pass with a calibrated busy-work
// execute, and per-rank compute imbalance (max/mean of traced compute
// seconds) comes from the standard run-report pipeline.
//
// The bench also fits distributed UoI_LASSO under all three policies on
// the same data and verifies the models are bit-identical — the scheduler
// moves work, never numerics. Telemetry (BENCH_fig12_sched_imbalance.json)
// snapshots the final work_steal pass; the cross-policy imbalance numbers
// ride along in the config block for the regression gate.

#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "core/uoi_engine.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "linalg/matrix.hpp"
#include "sched/scheduler.hpp"
#include "sched/task_grid.hpp"
#include "simcluster/cluster.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

constexpr int kRanks = 8;
constexpr int kPb = 2;
constexpr int kPl = 2;
constexpr int kGroups = kPb * kPl;
constexpr std::size_t kBootstraps = 8;
constexpr std::size_t kLambdas = 8;
constexpr double kHeavySeconds = 4e-3;
constexpr double kLightSeconds = 4e-4;

void busy_wait(double seconds) {
  uoi::support::Stopwatch watch;
  while (watch.seconds() < seconds) {
  }
}

/// Runs the skewed grid once under `policy` and returns the per-rank
/// compute max/mean from the traced totals.
double measure_imbalance(uoi::sched::SchedulePolicy policy) {
  auto& tracer = uoi::support::Tracer::instance();
  tracer.clear();
  uoi::support::MetricsRegistry::instance().clear();
  uoi::support::Stopwatch wall;

  uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
    const auto tl = uoi::core::detail::make_task_layout(
        comm.rank(), comm.size(), kPb, kPl);
    uoi::sim::Comm task_comm = comm.split(tl.task_group, comm.rank());
    const uoi::sched::GroupInfo info{kGroups, tl.task_group, tl.task_rank,
                                     kPb, kPl};
    const uoi::sched::TaskGrid grid(kBootstraps, kLambdas, kPl, 7);
    std::vector<double> costs(grid.n_cells());
    for (std::size_t id = 0; id < costs.size(); ++id) {
      costs[id] = grid.cell(id).bootstrap % 2 == 0 ? kHeavySeconds
                                                   : kLightSeconds;
    }
    std::vector<std::size_t> cells(grid.n_cells());
    std::iota(cells.begin(), cells.end(), 0u);
    const auto placement = uoi::sched::plan_placement(
        policy, grid, cells, costs, info,
        uoi::sched::group_widths(comm.size(), kGroups));
    const auto execute = [&](const uoi::sched::TaskCell& cell) {
      uoi::support::TraceScope span(
          "sched-cell", uoi::support::TraceCategory::kComputation);
      busy_wait(costs[grid.cell_id(cell.bootstrap, cell.chain)]);
    };
    const auto stats =
        uoi::sched::run_pass(comm, task_comm, info, policy, grid, placement,
                             costs, {}, execute);
    uoi::sched::export_pass_metrics(comm.rank(), info, policy, stats);
  });

  const auto report =
      uoi::report::build_run_report(uoi::report::collect_inputs(
          wall.seconds()));
  return report.compute_max_over_mean;
}

/// Distributed UoI_LASSO beta under `policy` (rank 0 copy).
uoi::linalg::Vector fit_beta(uoi::sched::SchedulePolicy policy,
                             const uoi::data::RegressionDataset& data) {
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 6;
  options.seed = 2026;
  options.schedule = policy;
  uoi::linalg::Vector beta;
  uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
    const auto result = uoi::core::uoi_lasso_distributed(
        comm, data.x, data.y, options, {kPb, kPl});
    if (comm.rank() == 0) beta = result.model.beta;
  });
  return beta;
}

}  // namespace

int main() {
  uoi::bench::FigureTrace trace("fig12_sched_imbalance");
  uoi::bench::BenchReport telemetry("fig12_sched_imbalance");
  telemetry.config("ranks", kRanks)
      .config("groups", kGroups)
      .config("bootstraps", kBootstraps)
      .config("lambdas", kLambdas)
      .config("cost_skew", kHeavySeconds / kLightSeconds);
  std::printf(
      "== Fig. 12: scheduler imbalance on a skewed bootstrap x lambda "
      "grid ==\n\n");

  // Model-identity gate first: the scheduler must not change the numbers.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 60;
  spec.n_features = 12;
  spec.support_size = 4;
  spec.seed = 31;
  const auto data = uoi::data::make_regression(spec);
  const auto beta_static =
      fit_beta(uoi::sched::SchedulePolicy::kStatic, data);
  const auto beta_lpt = fit_beta(uoi::sched::SchedulePolicy::kCostLpt, data);
  const auto beta_steal =
      fit_beta(uoi::sched::SchedulePolicy::kWorkSteal, data);
  const bool bit_identical =
      uoi::linalg::max_abs_diff(beta_static, beta_lpt) == 0.0 &&
      uoi::linalg::max_abs_diff(beta_static, beta_steal) == 0.0;
  std::printf("model.beta bit-identical across policies: %s\n\n",
              bit_identical ? "yes" : "NO — SCHEDULER BUG");

  // Imbalance sweep. The last run (work_steal) is the one the telemetry
  // destructor snapshots, so its sched.* counters land in the report.
  const double imbalance_static =
      measure_imbalance(uoi::sched::SchedulePolicy::kStatic);
  const double imbalance_lpt =
      measure_imbalance(uoi::sched::SchedulePolicy::kCostLpt);
  const double imbalance_steal =
      measure_imbalance(uoi::sched::SchedulePolicy::kWorkSteal);
  const double reduction =
      imbalance_static > 0.0
          ? 100.0 * (imbalance_static - imbalance_steal) / imbalance_static
          : 0.0;

  uoi::support::Table table({"policy", "compute max/mean"});
  table.add_row({"static", uoi::support::format_fixed(imbalance_static, 3)});
  table.add_row({"cost_lpt", uoi::support::format_fixed(imbalance_lpt, 3)});
  table.add_row(
      {"work_steal", uoi::support::format_fixed(imbalance_steal, 3)});
  std::printf("%s\n", table.to_text().c_str());
  std::printf("work_steal vs static imbalance reduction: %.1f%%\n",
              reduction);

  telemetry.config("imbalance_static", imbalance_static)
      .config("imbalance_cost_lpt", imbalance_lpt)
      .config("imbalance_work_steal", imbalance_steal)
      .config("imbalance_reduction_pct", reduction)
      .config("beta_bit_identical", bit_identical ? "yes" : "no");

  // Fail loudly if either acceptance property regresses: the scheduler
  // exists to cut the skew (>= 25%) without touching the model.
  if (!bit_identical || reduction < 25.0) {
    std::printf("FAIL: acceptance thresholds not met\n");
    return 1;
  }
  return 0;
}
