// Fig. 8 — exploiting UoI_VAR's algorithmic parallelism.
//
// Paper setup: problem sizes 16-128 GB, ADMM cores doubling with size,
// B1 = B2 = 32, q = 16, P_B x P_lambda swept. Reported shape: computation
// falls as P_lambda grows; the Kronecker+vectorization (distribution) time
// *rises* as P_B shrinks, because each task group re-assembles the problem
// for every bootstrap it owns.

#include <cstdio>

#include "bench_common.hpp"
#include "data/synthetic_var.hpp"
#include "perfmodel/var_cost.hpp"
#include "simcluster/cluster.hpp"
#include "var/var_distributed.hpp"

int main() {
  uoi::bench::FigureTrace trace("fig8_var_parallelism");
  uoi::bench::BenchReport telemetry("fig8_var_parallelism");
  telemetry.config("ranks", 8)
      .config("n_nodes", 10)
      .config("order", 4)
      .config("n_samples", 11)
      .config("b1", 8)
      .config("b2", 4)
      .config("q", 8)
      .config("layouts", "4x1,2x2,1x4,1x1");
  std::printf("== Fig. 8: UoI_VAR P_B x P_lambda parallelism ==\n");

  uoi::bench::banner("modeled at paper scale (B1=B2=32, q=16)");
  const uoi::perf::UoiVarCostModel model;
  const std::pair<std::size_t, std::size_t> configs[] = {
      {16, 2}, {8, 4}, {4, 8}, {2, 16}};
  auto table = uoi::bench::breakdown_table("size / cores / PB x PL");
  std::uint64_t cores = 2176;
  for (std::uint64_t gb = 16; gb <= 128; gb *= 2, cores *= 2) {
    for (const auto& [pb, pl] : configs) {
      auto w = uoi::perf::UoiVarWorkload::from_problem_gb(
          static_cast<double>(gb));
      w.b1 = 32;
      w.b2 = 32;
      w.q = 16;
      table.add_row(uoi::bench::breakdown_row(
          std::to_string(gb) + " GB / " + std::to_string(cores) + " / " +
              std::to_string(pb) + "x" + std::to_string(pl),
          model.run(w, cores, pb, pl)));
    }
  }
  std::printf("%s", table.to_text().c_str());
  std::printf(
      "\npaper shape: within each size, distribution (Kron+vec) falls as "
      "P_B grows\n(16x2 cheapest distribution, 2x16 dearest) while "
      "computation falls with P_lambda.\n");

  // A short order-4 series keeps every layout on the paper's Kron+vec
  // path: d = 4 exceeds a rank's share of the 7 lag rows (3 in groups of
  // two), so the table below measures the Kron+vec distribution of every
  // layout. A long series (240 samples) takes the Gram path, which moves
  // no one-sided bytes.
  uoi::bench::banner("functional (8 sim ranks, p=10, order 4, 11 samples)");
  uoi::data::VarSpec spec;
  spec.n_nodes = 10;
  spec.order = 4;
  spec.seed = 7;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 11;
  sim.seed = 8;
  const auto series = uoi::var::simulate(truth, sim);
  uoi::var::UoiVarOptions options;
  options.order = 4;
  options.n_selection_bootstraps = 8;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 8;

  uoi::support::Table func({"PB x PL x C", "path", "compute (rank 0)",
                            "distribution (rank 0)", "one-sided bytes"});
  std::string functional_paths;
  for (const auto& [pb, pl] :
       {std::pair<int, int>{4, 1}, {2, 2}, {1, 4}, {1, 1}}) {
    uoi::core::UoiDistributedBreakdown breakdown;
    auto path = uoi::sched::LinearPath::kConsensus;
    auto stats =
        uoi::sim::Cluster::run_collect_stats(8, [&](uoi::sim::Comm& comm) {
          const auto result = uoi::var::uoi_var_distributed(
              comm, series, options, {pb, pl}, 2);
          if (comm.rank() == 0) {
            breakdown = result.breakdown;
            path = uoi::var::detail::var_linear_path(comm, series, options,
                                                     {pb, pl});
          }
        });
    functional_paths += std::string(functional_paths.empty() ? "" : ",") +
                        uoi::sched::linear_path_name(path);
    std::uint64_t bytes = 0;
    for (const auto& s : stats) {
      bytes += s.of(uoi::sim::CommCategory::kOneSided).bytes;
    }
    func.add_row(
        {std::to_string(pb) + " x " + std::to_string(pl) + " x " +
             std::to_string(8 / (pb * pl)),
         uoi::sched::linear_path_name(path),
         uoi::support::format_seconds(breakdown.computation_seconds),
         uoi::support::format_seconds(breakdown.distribution_seconds),
         uoi::support::format_bytes(bytes)});
  }
  std::printf("%s", func.to_text().c_str());
  std::printf(
      "\n(one-sided bytes summed over ranks; the modeled rows above show "
      "the paper's distribution rising as P_B shrinks)\n");
  telemetry.config("var_path", functional_paths);
  return 0;
}
