// Fig. 16 — sparsity-exploiting solver fast paths: strong-rule screening
// along the selection lambda chain, active-set ADMM over the surviving
// columns, and the runtime-dispatched SIMD level-1 kernels.
//
// Three gate groups, all hard failures (exit 1):
//   speedup  : serial chain at p = 2048, >= 90% of columns screened out
//              and >= 3x less selection compute than an unscreened
//              LassoAdmmSolver walking the same lambdas warm-started under
//              the same refined options, with the same support at every
//              lambda (max |dbeta| printed).
//   bitwise  : the distributed driver under all three scheduling
//              policies emits one byte-identical model.
//   simd     : every dispatched kernel agrees bit-for-bit with the
//              scalar reference on long, unaligned-length vectors.

#include <cstdio>

#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "linalg/simd.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/screening.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

/// Indices of the coefficients above the fits' support tolerance.
std::vector<std::size_t> support_of(const uoi::linalg::Vector& beta) {
  const double tolerance = uoi::core::UoiLassoOptions{}.support_tolerance;
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < beta.size(); ++j) {
    if (std::abs(beta[j]) > tolerance) out.push_back(j);
  }
  return out;
}

}  // namespace

int main() {
  uoi::bench::FigureTrace trace("fig16_screening");
  uoi::bench::BenchReport telemetry("fig16_screening");
  std::printf("== Fig. 16: screening + active-set + SIMD fast paths ==\n");

  // -- selection-compute reduction (serial chain, p = 2048) --
  //
  // The regime the strong rule targets: p >> true support, a descending
  // lambda chain, and the Gram/Cholesky pair dominating. The unscreened
  // chain factors the full p-column system once and warm-starts each
  // solve from the previous lambda's beta; the strong chain never touches
  // the full Gram at all.
  uoi::bench::banner("selection-compute reduction (n=512, p=2048)");
  uoi::data::RegressionSpec spec;
  spec.n_samples = 512;
  spec.n_features = 2048;
  spec.support_size = 16;
  spec.seed = 1602;
  const auto data = uoi::data::make_regression(spec);
  // One decade, 16 points: a chain fine enough that the sequential
  // strong-rule threshold 2*l_k - l_{k-1} stays positive (step ratio
  // > 0.5); coarser chains degrade the rule to a no-op by design.
  const auto lambdas = uoi::solvers::lambda_grid_for(
      data.x, data.y, /*q=*/16, /*eps=*/1e-1);

  uoi::solvers::AdmmOptions admm;
  admm.eps_abs = 1e-5;
  admm.eps_rel = 1e-3;

  std::vector<uoi::linalg::Vector> unscreened_betas;
  double unscreened_seconds = 0.0;
  {
    uoi::support::Stopwatch watch;
    const uoi::solvers::LassoAdmmSolver solver(
        data.x, data.y, uoi::solvers::detail::refined_admm_options(admm));
    uoi::solvers::AdmmResult fit;
    for (const double lambda : lambdas) {
      fit = solver.solve(lambda, &fit);
      unscreened_betas.push_back(fit.beta);
    }
    unscreened_seconds = watch.seconds();
  }
  std::vector<uoi::linalg::Vector> strong_betas;
  double strong_seconds = 0.0;
  uoi::solvers::ScreenStats stats;
  {
    uoi::support::Stopwatch watch;
    uoi::solvers::ScreenedLassoChain chain(data.x, data.y, admm);
    for (const double lambda : lambdas) {
      strong_betas.push_back(chain.solve(lambda).beta);
    }
    strong_seconds = watch.seconds();
    stats = chain.stats();
  }

  double chain_dbeta = 0.0;
  std::size_t support_mismatches = 0;
  for (std::size_t j = 0; j < lambdas.size(); ++j) {
    chain_dbeta = std::max(chain_dbeta,
                           uoi::linalg::max_abs_diff(unscreened_betas[j],
                                                     strong_betas[j]));
    if (support_of(unscreened_betas[j]) != support_of(strong_betas[j])) {
      ++support_mismatches;
    }
  }
  const double survivor_fraction =
      stats.total_columns > 0
          ? static_cast<double>(stats.survivors) /
                static_cast<double>(stats.total_columns)
          : 1.0;
  const double speedup =
      strong_seconds > 0.0 ? unscreened_seconds / strong_seconds : 0.0;

  uoi::support::Table chain_table({"chain", "seconds", "survivors",
                                   "gram cols saved", "kkt violations"});
  chain_table.add_row(
      {"unscreened", uoi::support::format_seconds(unscreened_seconds),
       uoi::support::format_count(lambdas.size() * spec.n_features), "0",
       "-"});
  chain_table.add_row({"strong", uoi::support::format_seconds(strong_seconds),
                       uoi::support::format_count(stats.survivors),
                       uoi::support::format_count(stats.gram_cols_saved),
                       uoi::support::format_count(stats.kkt_violations)});
  std::printf("%s\n", chain_table.to_text().c_str());
  std::printf("screening speedup:        %.2fx (gate: >= 3x)\n", speedup);
  std::printf("survivor fraction:        %.4f (gate: <= 0.10)\n",
              survivor_fraction);
  std::printf("support mismatches:       %zu of %zu lambdas (gate: 0)\n",
              support_mismatches, lambdas.size());
  std::printf("unscreened vs strong max |dbeta|: %.3g\n", chain_dbeta);
  telemetry.config("n_samples", spec.n_samples)
      .config("n_features", spec.n_features)
      .config("q", lambdas.size())
      .config("screen_speedup", speedup)
      .config("screen_survivor_fraction", survivor_fraction)
      .config("screen_kkt_violations",
              static_cast<std::size_t>(stats.kkt_violations));
  if (speedup < 3.0 || survivor_fraction > 0.10 || support_mismatches != 0) {
    std::printf("\nFAIL: screening speedup gates not met\n");
    telemetry.config("screen_bitwise", 0);
    return 1;
  }

  // -- distributed byte-identity across scheduling policies (4 ranks) --
  //
  // One small UoI_LASSO fit under {static, cost_lpt, work_steal}: all
  // three runs must land on one byte-identical model.
  uoi::bench::banner("distributed byte-identity (4 ranks, 3 policies)");
  uoi::data::RegressionSpec dist_spec;
  dist_spec.n_samples = 200;
  dist_spec.n_features = 64;
  dist_spec.support_size = 8;
  dist_spec.seed = 1603;
  const auto dist_data = uoi::data::make_regression(dist_spec);
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 5;

  const auto run_distributed = [&](uoi::sched::SchedulePolicy policy) {
    auto opts = options;
    opts.schedule = policy;
    uoi::linalg::Vector beta;
    uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
      const auto result = uoi::core::uoi_lasso_distributed(
          comm, dist_data.x, dist_data.y, opts);
      if (comm.rank() == 0) beta = result.model.beta;
    });
    return beta;
  };
  const auto reference = run_distributed(uoi::sched::SchedulePolicy::kStatic);
  double dist_dbeta = 0.0;
  for (const auto policy : {uoi::sched::SchedulePolicy::kCostLpt,
                            uoi::sched::SchedulePolicy::kWorkSteal}) {
    dist_dbeta = std::max(
        dist_dbeta, uoi::linalg::max_abs_diff(run_distributed(policy),
                                              reference));
  }
  std::printf("cross-policy max |dbeta|: %.3g (gate: bitwise 0)\n",
              dist_dbeta);
  telemetry.config("screen_bitwise", dist_dbeta == 0.0 ? 1 : 0);
  if (dist_dbeta != 0.0) {
    std::printf("\nFAIL: scheduling changed the model\n");
    return 1;
  }

  // -- SIMD dispatch bit-identity (scalar reference vs active table) --
  //
  // UOI_SIMD is resolved once per process, so the cross-level comparison
  // goes through kernel_table(level) directly. Lengths straddle the
  // 8-lane main loop and its scalar tail.
  uoi::bench::banner("SIMD kernel bit-identity (scalar vs dispatched)");
  const auto& scalar =
      uoi::linalg::simd::kernel_table(uoi::linalg::simd::SimdLevel::kScalar);
  const auto& active = uoi::linalg::simd::active_kernels();
  std::printf("detected level: %s, active level: %s\n",
              uoi::linalg::simd::simd_level_name(
                  uoi::linalg::simd::detect_simd_level()),
              uoi::linalg::simd::simd_level_name(
                  uoi::linalg::simd::resolve_simd_level()));
  bool simd_bitwise = true;
  for (const std::size_t n : {std::size_t{1001}, std::size_t{65536},
                              std::size_t{65543}}) {
    uoi::support::Xoshiro256 rng(1604 + n);
    uoi::linalg::Vector x(n);
    uoi::linalg::Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.normal();
      y[i] = rng.normal();
    }
    simd_bitwise &=
        scalar.dot(x.data(), y.data(), n) == active.dot(x.data(), y.data(), n);
    simd_bitwise &= scalar.dist2_squared(x.data(), y.data(), n) ==
                    active.dist2_squared(x.data(), y.data(), n);
    simd_bitwise &= scalar.nrm1(x.data(), n) == active.nrm1(x.data(), n);
    uoi::linalg::Vector ys = y;
    uoi::linalg::Vector ya = y;
    scalar.axpy(0.37, x.data(), ys.data(), n);
    active.axpy(0.37, x.data(), ya.data(), n);
    simd_bitwise &= uoi::linalg::max_abs_diff(ys, ya) == 0.0;
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < n; i += 7) idx.push_back(i);
    uoi::linalg::Vector gs(idx.size(), 0.0);
    uoi::linalg::Vector ga(idx.size(), 0.0);
    scalar.gather(x.data(), idx.data(), idx.size(), gs.data());
    active.gather(x.data(), idx.data(), idx.size(), ga.data());
    simd_bitwise &= uoi::linalg::max_abs_diff(gs, ga) == 0.0;
    uoi::linalg::Vector ss(n, 0.0);
    uoi::linalg::Vector sa(n, 0.0);
    scalar.scatter(gs.data(), idx.data(), idx.size(), ss.data());
    active.scatter(ga.data(), idx.data(), idx.size(), sa.data());
    simd_bitwise &= uoi::linalg::max_abs_diff(ss, sa) == 0.0;
  }
  std::printf("scalar vs dispatched kernels: %s (gate: bitwise)\n",
              simd_bitwise ? "bit-identical" : "DIVERGED");
  telemetry.config("simd_bitwise", simd_bitwise ? 1 : 0);
  if (!simd_bitwise) {
    std::printf("\nFAIL: dispatched SIMD kernels diverged from scalar\n");
    return 1;
  }
  return 0;
}
