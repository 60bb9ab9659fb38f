// Fig. 4 — UoI_LASSO weak scaling (128 GB / 4,352 cores -> 8 TB /
// 278,528 cores; fixed bytes per core, p = 20,101 features).
//
// Paper shape: computation nearly ideal (flat, slight rise at 8 TB);
// communication (~99% MPI_Allreduce) grows with core count.
//
// Functional validation: the same driver on the simulated cluster with
// rank counts 2..16 and data scaled with ranks — the measured Allreduce
// time must grow with ranks while per-rank compute stays flat.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "perfmodel/lasso_cost.hpp"
#include "sched/cost_model.hpp"
#include "simcluster/cluster.hpp"

int main() {
  uoi::bench::FigureTrace trace("fig4_lasso_weak");
  uoi::bench::BenchReport telemetry("fig4_lasso_weak");
  telemetry.config("rank_sweep", "2,4,8,16")
      .config("rows_per_rank", 96)
      .config("n_features", 48)
      .config("b1", 5)
      .config("b2", 3)
      .config("q", 6);
  std::printf("== Fig. 4: UoI_LASSO weak scaling ==\n");

  uoi::bench::banner("modeled at paper scale (bytes/core fixed)");
  const uoi::perf::UoiLassoCostModel model;
  auto table = uoi::bench::breakdown_table("size / cores");
  for (const auto& point : uoi::perf::table1_lasso_weak_scaling()) {
    uoi::perf::UoiLassoWorkload w;
    w.data_bytes = point.data_gb << 30;
    table.add_row(uoi::bench::breakdown_row(
        uoi::support::format_bytes(w.data_bytes) + " / " +
            uoi::support::format_count(point.cores),
        model.run(w, point.cores)));
  }
  std::printf("%s", table.to_text().c_str());
  std::printf(
      "\npaper shape: computation ~flat across the row; communication "
      "strictly grows with cores.\n");

  // The distributed lasso takes the Gram path (one [X'X | X'y | y'y]
  // allreduce per bootstrap, a replicated p x p chain) while the Gram is
  // no larger than a rank's row block, and consensus ADMM (one allreduce
  // per iteration) beyond. Scan p at the first weak-scaling point.
  uoi::bench::banner("path rule at paper scale (128 GB / 4,352 cores)");
  const auto paper = uoi::perf::table1_lasso_weak_scaling().front();
  uoi::perf::UoiLassoWorkload paper_w;
  paper_w.data_bytes = paper.data_gb << 30;
  const std::size_t paper_rows = paper_w.n_samples();
  const auto path_at = [&](std::size_t p) {
    return uoi::sched::choose_linear_path(paper_rows, p, paper.cores);
  };
  std::size_t crossover = 0;
  for (std::size_t p = 1; p <= paper_w.n_features; ++p) {
    if (path_at(p) != uoi::sched::LinearPath::kGram) break;
    crossover = p;
  }
  const std::size_t rows_per_core = paper_rows / paper.cores;
  uoi::support::Table paths(
      {"features p", "row block / rank", "Gram / rank", "path"});
  for (const std::size_t p :
       {std::size_t{48}, crossover, crossover + 1,
        static_cast<std::size_t>(paper_w.n_features)}) {
    paths.add_row({uoi::support::format_count(p),
                   uoi::support::format_bytes(rows_per_core * p *
                                              sizeof(double)),
                   uoi::support::format_bytes(p * p * sizeof(double)),
                   uoi::sched::linear_path_name(path_at(p))});
  }
  std::printf("%s", paths.to_text().c_str());
  const auto paper_path = path_at(paper_w.n_features);
  std::printf(
      "\ncrossover: the Gram path runs up to p = %zu (the rows per core); "
      "the paper's p = %s runs %s ADMM.\n",
      crossover, uoi::support::format_count(paper_w.n_features).c_str(),
      uoi::sched::linear_path_name(paper_path));
  telemetry.config("paper_path", uoi::sched::linear_path_name(paper_path))
      .config("paper_gram_crossover_p", crossover);

  uoi::bench::banner("functional weak scaling (rows grow with ranks)");
  uoi::support::Table func({"ranks", "rows", "compute (rank 0)",
                            "comm (rank 0)", "allreduce bytes/rank"});
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 5;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;
  std::string functional_paths;
  for (const int ranks : {2, 4, 8, 16}) {
    uoi::data::RegressionSpec spec;
    spec.n_samples = static_cast<std::size_t>(ranks) * 96;
    spec.n_features = 48;
    spec.support_size = 6;
    const auto data = uoi::data::make_regression(spec);
    uoi::core::UoiDistributedBreakdown breakdown;
    auto path = uoi::sched::LinearPath::kConsensus;
    auto stats =
        uoi::sim::Cluster::run_collect_stats(ranks, [&](uoi::sim::Comm& comm) {
          const auto result = uoi::core::uoi_lasso_distributed(
              comm, data.x, data.y, options);
          if (comm.rank() == 0) {
            breakdown = result.breakdown;
            path = uoi::core::detail::linear_family_path(comm, data.x,
                                                         options, {});
          }
        });
    functional_paths += std::string(functional_paths.empty() ? "" : ",") +
                        uoi::sched::linear_path_name(path);
    func.add_row({std::to_string(ranks), std::to_string(spec.n_samples),
                  uoi::support::format_seconds(breakdown.computation_seconds),
                  uoi::support::format_seconds(
                      breakdown.communication_seconds),
                  uoi::support::format_bytes(
                      stats[0].of(uoi::sim::CommCategory::kAllreduce).bytes)});
  }
  std::printf("%s", func.to_text().c_str());
  std::printf("path per rank count: %s\n", functional_paths.c_str());
  telemetry.config("lasso_path", functional_paths);
  return 0;
}
