// Fig. 5 — T_min / T_max envelope of one MPI_Allreduce across the weak-
// scaling core counts (performance variability of the collective).
//
// Paper setup: one Allreduce of the p = 20,101-double estimate array at
// every weak-scaling configuration; the T_max/T_min gap widens with scale
// but "despite this we observe good scalability".
//
// Functional part: repeated Allreduces on the simulated cluster, reporting
// the min/max measured per rank count.

#include <cstdio>

#include "bench_common.hpp"
#include "perfmodel/collectives.hpp"
#include "perfmodel/lasso_cost.hpp"
#include "simcluster/cluster.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

int main() {
  uoi::bench::FigureTrace trace("fig5_allreduce_minmax");
  uoi::bench::BenchReport telemetry("fig5_allreduce_minmax");
  telemetry.config("rank_sweep", "2,4,8,16")
      .config("payload_doubles", 20101)
      .config("allreduces_per_config", 50)
      .config("hierarchical_sweep", "2,4,8,16");
  std::printf("== Fig. 5: Allreduce T_min / T_max across weak scaling ==\n\n");

  const auto m = uoi::perf::knl_profile();
  const std::uint64_t bytes = 20101 * sizeof(double);

  std::printf("-- modeled (20,101-double array, paper core counts) --\n\n");
  uoi::support::Table table(
      {"cores", "T_min", "T_mean", "T_max", "spread (max/min)"});
  for (const auto& point : uoi::perf::table1_lasso_weak_scaling()) {
    const auto envelope =
        uoi::perf::allreduce_minmax(m, point.cores, bytes);
    table.add_row({uoi::support::format_count(point.cores),
                   uoi::support::format_seconds(envelope.t_min),
                   uoi::support::format_seconds(envelope.t_mean),
                   uoi::support::format_seconds(envelope.t_max),
                   uoi::support::format_fixed(
                       envelope.t_max / envelope.t_min, 2) +
                       "x"});
  }
  std::printf("%s\n", table.to_text().c_str());

  std::printf("-- functional (50 Allreduces per rank count, measured) --\n\n");
  uoi::support::Table func({"ranks", "T_min", "T_max"});
  for (const int ranks : {2, 4, 8, 16}) {
    double t_min = 1e300, t_max = 0.0;
    uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
      std::vector<double> payload(20101, 1.0);
      for (int i = 0; i < 50; ++i) {
        uoi::support::Stopwatch watch;
        comm.allreduce(payload, uoi::sim::ReduceOp::kSum);
        const double t = watch.seconds();
        if (comm.rank() == 0) {
          t_min = std::min(t_min, t);
          t_max = std::max(t_max, t);
        }
      }
    });
    func.add_row({std::to_string(ranks),
                  uoi::support::format_seconds(t_min),
                  uoi::support::format_seconds(t_max)});
  }
  std::printf("%s\n", func.to_text().c_str());

  // -- hierarchical allreduce: modeled crossover at paper scale --
  //
  // Splitting the flat algorithms' P-wide straggler chain into an
  // intra-group level (g ~ sqrt(P)) and a leaders-only level (P/g ranks)
  // turns the P^1.5 straggler term into g^1.5 + (P/g)^1.5, which is where
  // the two-level tree overtakes the best flat algorithm at large P.
  std::printf(
      "-- modeled hierarchical crossover (20,101-double array) --\n\n");
  uoi::support::Table hier({"cores", "flat best", "hierarchical (g)",
                            "speedup"});
  double largest_speedup = 0.0;
  for (const auto& point : uoi::perf::table1_lasso_weak_scaling()) {
    const double flat = uoi::perf::allreduce_best_time(m, point.cores, bytes);
    const double two_level =
        uoi::perf::allreduce_hierarchical_time(m, point.cores, bytes);
    const int g =
        uoi::sim::hierarchical_group_size(static_cast<int>(point.cores));
    largest_speedup = flat / two_level;
    hier.add_row({uoi::support::format_count(point.cores),
                  uoi::support::format_seconds(flat),
                  uoi::support::format_seconds(two_level) + " (g=" +
                      uoi::support::format_count(g) + ")",
                  uoi::support::format_fixed(flat / two_level, 2) + "x"});
  }
  std::printf("%s\n", hier.to_text().c_str());
  telemetry.config("hier_speedup_at_largest_scale", largest_speedup);

  // Functional: staged vs hierarchical on the simulated cluster, with a
  // correctness cross-check on the reduced values (integer payloads make
  // every reduction order exact).
  std::printf(
      "-- functional (staged vs hierarchical, 20 Allreduces each) --\n\n");
  uoi::support::Table algo_table({"ranks", "staged T_min", "hier T_min"});
  bool algos_agree = true;
  for (const int ranks : {8, 16}) {
    double staged_min = 1e300, hier_min = 1e300;
    double staged_sum = 0.0, hier_sum = 0.0;
    for (const bool hierarchical : {false, true}) {
      double local_min = 1e300;
      double checksum = 0.0;
      uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
        std::vector<double> payload(20101);
        for (int i = 0; i < 20; ++i) {
          for (std::size_t j = 0; j < payload.size(); ++j) {
            payload[j] = static_cast<double>(comm.rank() + 1) +
                         static_cast<double>(j % 7);
          }
          uoi::support::Stopwatch watch;
          if (hierarchical) {
            comm.allreduce_hierarchical(payload, uoi::sim::ReduceOp::kSum);
          } else {
            comm.allreduce(payload, uoi::sim::ReduceOp::kSum);
          }
          const double t = watch.seconds();
          if (comm.rank() == 0) {
            local_min = std::min(local_min, t);
            if (i == 0) {
              checksum = payload[0] + payload[1] + payload.back();
            }
          }
        }
      });
      if (hierarchical) {
        hier_min = local_min;
        hier_sum = checksum;
      } else {
        staged_min = local_min;
        staged_sum = checksum;
      }
    }
    if (staged_sum != hier_sum) algos_agree = false;
    algo_table.add_row({std::to_string(ranks),
                        uoi::support::format_seconds(staged_min),
                        uoi::support::format_seconds(hier_min)});
  }
  std::printf("%s", algo_table.to_text().c_str());
  telemetry.config("hier_matches_staged", algos_agree ? 1 : 0);
  if (!algos_agree) {
    std::printf("\nFAIL: hierarchical allreduce disagrees with staged\n");
    return 1;
  }
  return 0;
}
