// Fig. 10 — UoI_VAR strong scaling (1 TB fixed, 4,352 -> 34,816 cores).
//
// Paper shape: computation nearly ideal (halves per doubling, thanks to
// the sparse kernels); communication grows but barely affects the total;
// the distributed Kronecker+vectorization grows steeply with cores, as in
// weak scaling.

#include <cstdio>

#include "bench_common.hpp"
#include "data/synthetic_var.hpp"
#include "perfmodel/var_cost.hpp"
#include "simcluster/cluster.hpp"
#include "var/var_distributed.hpp"

int main() {
  uoi::bench::FigureTrace trace("fig10_var_strong");
  uoi::bench::BenchReport telemetry("fig10_var_strong");
  telemetry.config("rank_sweep", "2,4,8")
      .config("n_nodes", 10)
      .config("n_samples", 360)
      .config("b1", 4)
      .config("b2", 3)
      .config("q", 5);
  std::printf("== Fig. 10: UoI_VAR strong scaling (1 TB fixed) ==\n");

  uoi::bench::banner("modeled at paper scale");
  const uoi::perf::UoiVarCostModel model;
  const auto w = uoi::perf::UoiVarWorkload::from_problem_gb(1024);
  auto table = uoi::bench::breakdown_table("cores");
  double first_compute = 0.0;
  std::uint64_t first_cores = 0;
  for (const auto& point : uoi::perf::table1_var_strong_scaling()) {
    const auto b = model.run(w, point.cores);
    if (first_cores == 0) {
      first_cores = point.cores;
      first_compute = b.computation;
    }
    const double ideal = first_compute *
                         static_cast<double>(first_cores) /
                         static_cast<double>(point.cores);
    auto row = uoi::bench::breakdown_row(
        uoi::support::format_count(point.cores), b);
    row.back() =
        uoi::support::format_fixed(b.computation / ideal, 2) + "x ideal";
    table.add_row(row);
  }
  std::printf("%s", table.to_text().c_str());
  std::printf(
      "\npaper shape: compute ~1.0x ideal throughout; distribution grows "
      "with cores.\n");

  uoi::bench::banner("functional strong scaling (fixed 360-sample series)");
  uoi::data::VarSpec spec;
  spec.n_nodes = 10;
  spec.seed = 11;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 360;
  sim.seed = 12;
  const auto series = uoi::var::simulate(truth, sim);
  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 5;

  uoi::support::Table func({"ranks", "path", "compute (rank 0)",
                            "comm (rank 0)", "distribution (rank 0)"});
  std::string functional_paths;
  for (const int ranks : {2, 4, 8}) {
    uoi::core::UoiDistributedBreakdown breakdown;
    auto path = uoi::sched::LinearPath::kConsensus;
    uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
      const auto result =
          uoi::var::uoi_var_distributed(comm, series, options, {}, 2);
      if (comm.rank() == 0) {
        breakdown = result.breakdown;
        path = uoi::var::detail::var_linear_path(comm, series, options, {});
      }
    });
    functional_paths += std::string(functional_paths.empty() ? "" : ",") +
                        uoi::sched::linear_path_name(path);
    func.add_row(
        {std::to_string(ranks), uoi::sched::linear_path_name(path),
         uoi::support::format_seconds(breakdown.computation_seconds),
         uoi::support::format_seconds(breakdown.communication_seconds),
         uoi::support::format_seconds(breakdown.distribution_seconds)});
  }
  std::printf("%s", func.to_text().c_str());
  std::printf("path per rank count: %s\n", functional_paths.c_str());
  telemetry.config("var_path", functional_paths);
  return 0;
}
