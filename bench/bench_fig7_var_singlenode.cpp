// Fig. 7 — UoI_VAR single-node runtime breakdown.
//
// Paper setup: ~16 GB problem, 68 cores, B1 = B2 = 5, q = 8, sparse
// solver. Reported shape: computation ~88% of runtime; the distributed
// Kronecker product + vectorization is > 98% of the distribution bucket;
// Allreduce communication visible because of the problem-size explosion.

#include <cstdio>

#include "bench_common.hpp"
#include "data/synthetic_var.hpp"
#include "perfmodel/var_cost.hpp"
#include "simcluster/cluster.hpp"
#include "var/var_distributed.hpp"

int main() {
  uoi::bench::FigureTrace trace("fig7_var_singlenode");
  uoi::bench::BenchReport telemetry("fig7_var_singlenode");
  telemetry.config("ranks", 8)
      .config("n_nodes", 12)
      .config("order", 3)
      .config("n_samples", 26)
      .config("b1", 5)
      .config("b2", 5)
      .config("q", 8);
  std::printf("== Fig. 7: UoI_VAR single-node runtime breakdown ==\n");

  uoi::bench::banner(
      "modeled at paper scale (16 GB problem, 68 cores, B1=B2=5, q=8)");
  const uoi::perf::UoiVarCostModel model;
  auto w = uoi::perf::UoiVarWorkload::from_problem_gb(16);
  w.b1 = 5;
  w.b2 = 5;
  w.q = 8;
  w.n_readers = 8;
  const auto breakdown = model.run(w, 68);
  auto table = uoi::bench::breakdown_table("configuration");
  table.add_row(uoi::bench::breakdown_row(
      "16 GB problem (p = " + std::to_string(w.n_features) + ") / 68 cores",
      breakdown));
  std::printf("%s", table.to_text().c_str());
  std::printf(
      "\npaper shape: computation ~88%% of runtime; Kron+vec dominates "
      "distribution; sparsity = 1 - 1/p = %.4f\n",
      w.design_sparsity());

  // A short order-3 series keeps the functional run on the paper's
  // Kron+vec path: d = 3 exceeds a rank's share of the 23 lag rows (2), so
  // the d p x d p Gram would be larger than a rank's row block of I (x) X. A
  // long series (300 samples) takes the Gram path instead.
  uoi::bench::banner("functional (8 sim ranks, p=12, order 3, 26 samples)");
  uoi::data::VarSpec spec;
  spec.n_nodes = 12;
  spec.order = 3;
  spec.seed = 5;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 26;
  sim.seed = 6;
  const auto series = uoi::var::simulate(truth, sim);

  uoi::var::UoiVarOptions options;
  options.order = 3;
  options.n_selection_bootstraps = 5;
  options.n_estimation_bootstraps = 5;
  options.n_lambdas = 8;

  uoi::core::UoiDistributedBreakdown measured;
  auto path = uoi::sched::LinearPath::kConsensus;
  auto stats = uoi::sim::Cluster::run_collect_stats(8, [&](uoi::sim::Comm& comm) {
    const auto result =
        uoi::var::uoi_var_distributed(comm, series, options, {}, 2);
    if (comm.rank() == 0) {
      measured = result.breakdown;
      path = uoi::var::detail::var_linear_path(comm, series, options, {});
    }
  });
  telemetry.config("var_path", uoi::sched::linear_path_name(path));
  double onesided_bytes = 0.0;
  for (const auto& s : stats) {
    onesided_bytes +=
        static_cast<double>(s.of(uoi::sim::CommCategory::kOneSided).bytes);
  }
  const double total = measured.computation_seconds +
                       measured.communication_seconds +
                       measured.distribution_seconds;
  std::printf(
      "path: %s\n"
      "rank-0 buckets: computation %s (%.1f%%), communication %s, "
      "distribution (Kron+vec one-sided) %s\n"
      "one-sided traffic across ranks: %s\n",
      uoi::sched::linear_path_name(path),
      uoi::support::format_seconds(measured.computation_seconds).c_str(),
      total > 0 ? 100.0 * measured.computation_seconds / total : 0.0,
      uoi::support::format_seconds(measured.communication_seconds).c_str(),
      uoi::support::format_seconds(measured.distribution_seconds).c_str(),
      uoi::support::format_bytes(static_cast<std::uint64_t>(onesided_bytes))
          .c_str());
  return 0;
}
