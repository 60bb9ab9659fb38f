// Fig. 9 — UoI_VAR weak scaling (128 GB / 2,176 cores -> 8 TB / 139,264
// cores; B1 = 30, B2 = 20, q = 20; log-scale y axis in the paper).
//
// Paper shape: computation nearly ideal (flat); communication grows with
// cores; the distributed Kronecker+vectorization (distribution) grows
// steeply — proportional to cores x problem size — and *dominates the
// runtime for problems >= 2 TB* (the paper's central UoI_VAR finding).

#include <cstdio>

#include "bench_common.hpp"
#include "data/synthetic_var.hpp"
#include "perfmodel/var_cost.hpp"
#include "simcluster/cluster.hpp"
#include "var/var_distributed.hpp"

int main() {
  uoi::bench::FigureTrace trace("fig9_var_weak");
  uoi::bench::BenchReport telemetry("fig9_var_weak");
  telemetry.config("rank_sweep", "2,4,8")
      .config("n_nodes", 10)
      .config("samples_per_rank", 60)
      .config("b1", 4)
      .config("b2", 3)
      .config("q", 5);
  std::printf("== Fig. 9: UoI_VAR weak scaling (B1=30, B2=20, q=20) ==\n");

  uoi::bench::banner("modeled at paper scale");
  const uoi::perf::UoiVarCostModel model;
  auto table = uoi::bench::breakdown_table("problem / cores / p");
  for (const auto& point : uoi::perf::table1_var_weak_scaling()) {
    const auto w = uoi::perf::UoiVarWorkload::from_problem_gb(
        static_cast<double>(point.data_gb));
    const auto b = model.run(w, point.cores);
    auto row = uoi::bench::breakdown_row(
        uoi::support::format_bytes(point.data_gb << 30) + " / " +
            uoi::support::format_count(point.cores) + " / p=" +
            std::to_string(w.n_features),
        b);
    row.back() = b.distribution > b.computation ? "distr-bound" : "compute-bound";
    table.add_row(row);
  }
  std::printf("%s", table.to_text().c_str());
  std::printf(
      "\npaper shape: compute ~flat; distribution overtakes compute at "
      ">= 2 TB (\"UoI_VAR is distribution bound\").\n");

  uoi::bench::banner(
      "functional weak scaling (series length grows with ranks)");
  uoi::support::Table func({"ranks", "samples", "path", "compute (rank 0)",
                            "comm (rank 0)", "distribution (rank 0)"});
  std::string functional_paths;
  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 5;
  for (const int ranks : {2, 4, 8}) {
    uoi::data::VarSpec spec;
    spec.n_nodes = 10;
    spec.seed = 9;
    const auto truth = uoi::data::make_sparse_var(spec);
    uoi::var::SimulateOptions sim;
    sim.n_samples = static_cast<std::size_t>(ranks) * 60;
    sim.seed = 10;
    const auto series = uoi::var::simulate(truth, sim);
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
    func.add_row({std::to_string(ranks), std::to_string(sim.n_samples),
                  uoi::sched::linear_path_name(path),
                  uoi::support::format_seconds(breakdown.computation_seconds),
                  uoi::support::format_seconds(
                      breakdown.communication_seconds),
                  uoi::support::format_seconds(
                      breakdown.distribution_seconds)});
  }
  std::printf("%s", func.to_text().c_str());
  std::printf("path per rank count: %s\n", functional_paths.c_str());
  telemetry.config("var_path", functional_paths);
  return 0;
}
