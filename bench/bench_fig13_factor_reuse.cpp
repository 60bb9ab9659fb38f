// Fig. 13 (repo extension) — factorization reuse across lambda chains of
// one bootstrap resample.
//
// Setup: 8 ranks in 2 task groups of 4 ADMM cores; a 4-bootstrap x
// 16-lambda selection grid carved into 4 lambda chains per bootstrap, so
// each group owns every chain of its two bootstraps. Without the solver
// cache each (bootstrap, chain) cell re-gathers the resample and rebuilds
// the Gram + Cholesky from scratch — 4x per bootstrap; with the cache the
// group pays setup once per resample and every later chain starts at the
// factor stage. The measured quantity is the summed per-rank seconds spent
// inside selection cells (gather + setup + ADMM solves), cold vs cached.
//
// The bench also fits distributed UoI_LASSO with the cache enabled and
// disabled under all three schedule policies and verifies the models are
// bit-identical — the cache moves setup work, never numerics. Telemetry
// (BENCH_fig13_factor_reuse.json) carries the acceptance numbers for the
// regression gate.

#include <cstdio>
#include <numeric>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "core/uoi_engine.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "linalg/matrix.hpp"
#include "sched/scheduler.hpp"
#include "sched/task_grid.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/distributed_admm.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/solver_cache.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

constexpr int kRanks = 8;
constexpr int kGroups = 2;
constexpr std::size_t kBootstraps = 4;
constexpr std::size_t kLambdas = 16;
constexpr std::size_t kChains = 4;  ///< lambda chains per bootstrap
constexpr std::size_t kSamples = 1920;
constexpr std::size_t kFeatures = 160;
constexpr std::size_t kCacheMb = 256;

struct SelectionEntry {
  uoi::linalg::Matrix x_local;
  uoi::linalg::Vector y_local;
  std::optional<uoi::solvers::DistributedLassoAdmmSolver> solver;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

struct SelectionMeasurement {
  double cell_seconds_total = 0.0;  ///< summed over ranks
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Runs the selection grid once with a per-rank cache budget of
/// `cache_mb` (0 = the cold, build-per-cell path) and returns the summed
/// per-rank seconds spent inside selection cells.
SelectionMeasurement measure_selection(
    std::size_t cache_mb, const uoi::data::RegressionDataset& data,
    const std::vector<double>& lambdas) {
  const uoi::linalg::ConstMatrixView x = data.x;
  const std::span<const double> y = data.y;
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  uoi::core::UoiLassoOptions resampling;
  resampling.n_selection_bootstraps = kBootstraps;
  resampling.seed = 2026;
  // Few iterations per lambda: the regime the cache targets is short
  // warm-started chains where the O(np^2 + p^3) setup dominates the
  // O(p^2)-per-iteration solves.
  uoi::solvers::AdmmOptions admm;
  admm.max_iterations = 12;

  std::vector<double> cell_seconds(kRanks, 0.0);
  std::vector<std::uint64_t> hits(kRanks, 0), misses(kRanks, 0);
  uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
    const auto tl = uoi::core::detail::make_task_layout(
        comm.rank(), comm.size(), kGroups, 1);
    uoi::sim::Comm task_comm = comm.split(tl.task_group, comm.rank());
    const uoi::sched::GroupInfo info{kGroups, tl.task_group, tl.task_rank,
                                     kGroups, 1};
    const uoi::sched::TaskGrid grid(kBootstraps, kLambdas, kChains, 7);
    uoi::solvers::BootstrapCache cache(cache_mb << 20);

    const auto execute = [&](const uoi::sched::TaskCell& cell) {
      uoi::support::Stopwatch cell_watch;
      const std::size_t k = cell.bootstrap;
      const auto entry = cache.get_or_build<SelectionEntry>(
          uoi::solvers::kSelectionPass, k, [&] {
            auto fresh = std::make_shared<SelectionEntry>();
            const auto idx =
                uoi::core::selection_bootstrap_indices(resampling, n, k);
            uoi::core::detail::gather_local_block(
                x, y, idx,
                uoi::core::detail::block_slice(idx.size(), tl.c_ranks,
                                               tl.task_rank),
                fresh->x_local, fresh->y_local);
            fresh->solver.emplace(task_comm, fresh->x_local, fresh->y_local,
                                  admm);
            fresh->bytes_estimate = (n * (p + 1) + p * p) * sizeof(double);
            return fresh;
          });
      uoi::solvers::DistributedAdmmResult previous;
      bool have_previous = false;
      for (std::size_t j : grid.chain_lambdas(cell.chain)) {
        auto fit =
            entry->solver->solve(lambdas[j], have_previous ? &previous
                                                           : nullptr);
        previous = std::move(fit);
        have_previous = true;
      }
      cell_seconds[static_cast<std::size_t>(comm.rank())] +=
          cell_watch.seconds();
    };

    // Static placement: group = bootstrap % kGroups, so every group owns
    // all four chains of its bootstraps — the maximal-reuse layout.
    const std::vector<double> costs(grid.n_cells(), 1.0);
    std::vector<std::size_t> cells(grid.n_cells());
    std::iota(cells.begin(), cells.end(), 0u);
    const auto placement = uoi::sched::plan_placement(
        uoi::sched::SchedulePolicy::kStatic, grid, cells, costs, info,
        uoi::sched::group_widths(comm.size(), kGroups));
    (void)uoi::sched::run_pass(comm, task_comm, info,
                               uoi::sched::SchedulePolicy::kStatic, grid,
                               placement, costs, {}, execute);
    hits[static_cast<std::size_t>(comm.rank())] = cache.stats().hits;
    misses[static_cast<std::size_t>(comm.rank())] = cache.stats().misses;
  });

  SelectionMeasurement out;
  for (int r = 0; r < kRanks; ++r) {
    out.cell_seconds_total += cell_seconds[static_cast<std::size_t>(r)];
    out.cache_hits += hits[static_cast<std::size_t>(r)];
    out.cache_misses += misses[static_cast<std::size_t>(r)];
  }
  return out;
}

/// Distributed UoI_LASSO beta under `policy` with the given cache budget.
uoi::linalg::Vector fit_beta(uoi::sched::SchedulePolicy policy,
                             long cache_mb,
                             const uoi::data::RegressionDataset& data) {
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 8;
  options.seed = 2026;
  options.schedule = policy;
  options.solver_cache_mb = cache_mb;
  uoi::linalg::Vector beta;
  uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
    const auto result = uoi::core::uoi_lasso_distributed(
        comm, data.x, data.y, options, {2, 2});
    if (comm.rank() == 0) beta = result.model.beta;
  });
  return beta;
}

}  // namespace

int main() {
  uoi::bench::FigureTrace trace("fig13_factor_reuse");
  uoi::bench::BenchReport telemetry("fig13_factor_reuse");
  telemetry.config("ranks", kRanks)
      .config("groups", kGroups)
      .config("bootstraps", kBootstraps)
      .config("lambdas", kLambdas)
      .config("chains_per_bootstrap", kChains)
      .config("samples", kSamples)
      .config("features", kFeatures)
      .config("cache_mb", kCacheMb);
  std::printf(
      "== Fig. 13: factorization reuse across lambda chains "
      "(solver cache) ==\n\n");

  // Model-identity gate first: the cache must not change the numbers.
  uoi::data::RegressionSpec fit_spec;
  fit_spec.n_samples = 60;
  fit_spec.n_features = 12;
  fit_spec.support_size = 4;
  fit_spec.seed = 31;
  const auto fit_data = uoi::data::make_regression(fit_spec);
  bool bit_identical = true;
  const auto reference =
      fit_beta(uoi::sched::SchedulePolicy::kStatic, kCacheMb, fit_data);
  for (const auto policy : {uoi::sched::SchedulePolicy::kStatic,
                            uoi::sched::SchedulePolicy::kCostLpt,
                            uoi::sched::SchedulePolicy::kWorkSteal}) {
    for (const long cache_mb : {static_cast<long>(kCacheMb), 0L}) {
      const auto beta = fit_beta(policy, cache_mb, fit_data);
      if (uoi::linalg::max_abs_diff(reference, beta) != 0.0) {
        bit_identical = false;
      }
    }
  }
  std::printf("model.beta bit-identical across policies x cache on/off: %s\n\n",
              bit_identical ? "yes" : "NO — CACHE BUG");

  // Selection-pass compute sweep: cold (cache disabled) vs cached.
  uoi::data::RegressionSpec spec;
  spec.n_samples = kSamples;
  spec.n_features = kFeatures;
  spec.support_size = 16;
  spec.seed = 47;
  const auto data = uoi::data::make_regression(spec);
  const auto lambdas = uoi::solvers::lambda_grid_for(
      data.x, data.y, kLambdas, 0.05);

  // Warm-up pass (thread pools, allocator), then the measured pair.
  (void)measure_selection(0, data, lambdas);
  const auto cold = measure_selection(0, data, lambdas);
  const auto cached = measure_selection(kCacheMb, data, lambdas);
  const double reduction =
      cold.cell_seconds_total > 0.0
          ? 100.0 *
                (cold.cell_seconds_total - cached.cell_seconds_total) /
                cold.cell_seconds_total
          : 0.0;

  uoi::support::Table table(
      {"variant", "cell seconds (sum)", "hits", "misses"});
  table.add_row({"cold (cache off)",
                 uoi::support::format_fixed(cold.cell_seconds_total, 4),
                 std::to_string(cold.cache_hits),
                 std::to_string(cold.cache_misses)});
  table.add_row({"cached",
                 uoi::support::format_fixed(cached.cell_seconds_total, 4),
                 std::to_string(cached.cache_hits),
                 std::to_string(cached.cache_misses)});
  std::printf("%s\n", table.to_text().c_str());
  std::printf("selection compute reduction (cached vs cold): %.1f%%\n",
              reduction);

  telemetry.config("selection_seconds_cold", cold.cell_seconds_total)
      .config("selection_seconds_cached", cached.cell_seconds_total)
      .config("reduction_pct", reduction)
      .config("cache_hits", cached.cache_hits)
      .config("cache_misses", cached.cache_misses)
      .config("beta_bit_identical", bit_identical ? "yes" : "no");

  // Acceptance: >= 25% selection compute reduction with >= 4 chains per
  // bootstrap, bit-identical models either way.
  if (!bit_identical || reduction < 25.0) {
    std::printf("FAIL: acceptance thresholds not met\n");
    return 1;
  }
  return 0;
}
