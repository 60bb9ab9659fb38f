// Tests for the cost-guided task scheduler: grid/seed determinism, the
// remainder-tolerant group split (prime communicator sizes), placement
// policies, cost calibration, the one-sided ticket board under concurrent
// claims (TSan-labeled), and end-to-end schedule invariance of the
// distributed drivers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/uoi_engine.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "linalg/matrix.hpp"
#include "perfmodel/lasso_cost.hpp"
#include "perfmodel/var_cost.hpp"
#include "sched/cost_model.hpp"
#include "sched/schedule_policy.hpp"
#include "sched/scheduler.hpp"
#include "sched/task_grid.hpp"
#include "sched/work_queue.hpp"
#include "simcluster/cluster.hpp"
#include "var/var_distributed.hpp"

namespace {

using uoi::sched::GroupInfo;
using uoi::sched::SchedulePolicy;
using uoi::sched::TaskGrid;

TEST(TaskGrid, CellIdRoundTripAndChainOwnership) {
  const TaskGrid grid(4, 10, 3, 42);
  EXPECT_EQ(grid.n_cells(), 12u);
  for (std::size_t id = 0; id < grid.n_cells(); ++id) {
    const auto cell = grid.cell(id);
    EXPECT_EQ(grid.cell_id(cell.bootstrap, cell.chain), id);
  }
  // Chains partition the lambda indices by j % n_chains, ascending.
  std::set<std::size_t> seen;
  for (std::size_t c = 0; c < grid.n_chains(); ++c) {
    const auto lambdas = grid.chain_lambdas(c);
    EXPECT_TRUE(std::is_sorted(lambdas.begin(), lambdas.end()));
    for (const std::size_t j : lambdas) {
      EXPECT_EQ(j % grid.n_chains(), c);
      EXPECT_TRUE(seen.insert(j).second);
    }
  }
  EXPECT_EQ(seen.size(), grid.n_lambdas());
}

TEST(TaskGrid, CellSeedsKeyedByCellIdOnly) {
  const TaskGrid grid(6, 8, 4, 12345);
  const TaskGrid same(6, 8, 4, 12345);
  const TaskGrid other_seed(6, 8, 4, 54321);
  std::set<std::uint64_t> seeds;
  for (std::size_t id = 0; id < grid.n_cells(); ++id) {
    // Identical grids give identical seeds (placement-invariant replay);
    // distinct cells and distinct master seeds give distinct streams.
    EXPECT_EQ(grid.cell_seed(id), same.cell_seed(id));
    EXPECT_NE(grid.cell_seed(id), other_seed.cell_seed(id));
    EXPECT_TRUE(seeds.insert(grid.cell_seed(id)).second);
  }
}

// Regression for the group-split degeneration: prime communicator sizes
// used to collapse to a single group because only exact divisors were
// accepted. The remainder-tolerant split keeps all requested groups, with
// the first size % n_groups groups one rank wider.
TEST(GroupWidths, RemainderTolerantAtPrimeSize7) {
  const auto widths = uoi::sched::group_widths(7, 4);
  ASSERT_EQ(widths.size(), 4u);
  EXPECT_EQ(std::accumulate(widths.begin(), widths.end(), 0), 7);
  EXPECT_EQ(widths, (std::vector<int>{2, 2, 2, 1}));
}

TEST(GroupWidths, RemainderTolerantAtPrimeSize11) {
  const auto widths = uoi::sched::group_widths(11, 4);
  ASSERT_EQ(widths.size(), 4u);
  EXPECT_EQ(std::accumulate(widths.begin(), widths.end(), 0), 11);
  EXPECT_EQ(widths, (std::vector<int>{3, 3, 3, 2}));
}

TEST(TaskLayout, UnevenSplitCoversEveryRankAtPrimeSizes) {
  for (const int comm_size : {7, 11}) {
    const int n_groups = 4;  // pb = 2, pl = 2
    const auto widths = uoi::sched::group_widths(comm_size, n_groups);
    std::vector<int> members(static_cast<std::size_t>(n_groups), 0);
    int previous_group = 0;
    for (int rank = 0; rank < comm_size; ++rank) {
      const auto tl =
          uoi::core::detail::make_task_layout(rank, comm_size, 2, 2);
      ASSERT_GE(tl.task_group, 0);
      ASSERT_LT(tl.task_group, n_groups);
      EXPECT_GE(tl.task_group, previous_group);  // contiguous blocks
      previous_group = tl.task_group;
      EXPECT_EQ(tl.c_ranks,
                widths[static_cast<std::size_t>(tl.task_group)]);
      EXPECT_EQ(tl.task_rank,
                members[static_cast<std::size_t>(tl.task_group)]);
      ++members[static_cast<std::size_t>(tl.task_group)];
    }
    for (int g = 0; g < n_groups; ++g) {
      EXPECT_EQ(members[static_cast<std::size_t>(g)],
                widths[static_cast<std::size_t>(g)])
          << "comm_size " << comm_size << " group " << g;
    }
  }
}

TEST(Placement, StaticMatchesHistoricalOwnershipMap) {
  const TaskGrid grid(4, 6, 2, 1);
  std::vector<std::size_t> cells(grid.n_cells());
  std::iota(cells.begin(), cells.end(), 0u);
  const std::vector<double> costs(grid.n_cells(), 1.0);
  const GroupInfo info{4, 0, 0, 2, 2};
  const auto widths = uoi::sched::group_widths(8, 4);
  const auto placement = uoi::sched::plan_placement(
      SchedulePolicy::kStatic, grid, cells, costs, info, widths);
  ASSERT_EQ(placement.size(), 4u);
  for (std::size_t g = 0; g < placement.size(); ++g) {
    for (const std::size_t id : placement[g]) {
      const auto cell = grid.cell(id);
      EXPECT_EQ((cell.bootstrap % 2) * 2 + (cell.chain % 2), g);
    }
  }
}

TEST(Placement, LptIsDeterministicBalancedAndSorted) {
  const TaskGrid grid(8, 8, 4, 7);
  std::vector<std::size_t> cells(grid.n_cells());
  std::iota(cells.begin(), cells.end(), 0u);
  // Heavily skewed costs: chain 0 dominates.
  std::vector<double> costs(grid.n_cells(), 1.0);
  for (std::size_t id = 0; id < costs.size(); ++id) {
    if (grid.cell(id).chain == 0) costs[id] = 10.0;
  }
  const GroupInfo info{4, 0, 0, 2, 2};
  const auto widths = uoi::sched::group_widths(8, 4);
  const auto placement = uoi::sched::plan_placement(
      SchedulePolicy::kCostLpt, grid, cells, costs, info, widths);
  const auto again = uoi::sched::plan_placement(
      SchedulePolicy::kCostLpt, grid, cells, costs, info, widths);
  EXPECT_EQ(placement, again);  // pure function of replicated inputs

  double max_load = 0.0, total = 0.0;
  std::size_t placed = 0;
  for (const auto& queue : placement) {
    EXPECT_TRUE(std::is_sorted(queue.begin(), queue.end()));
    double load = 0.0;
    for (const std::size_t id : queue) load += costs[id];
    max_load = std::max(max_load, load);
    total += load;
    placed += queue.size();
  }
  EXPECT_EQ(placed, grid.n_cells());
  // LPT guarantee: max load <= (4/3 - 1/3m) * OPT <= 4/3 * mean * ... keep
  // a loose bound that static placement (chain 0 -> one group, 80 vs 8)
  // grossly violates.
  EXPECT_LT(max_load / (total / 4.0), 1.5);
}

TEST(CostModel, LambdaWeightsFavorSmallLambdas) {
  const std::vector<double> lambdas{8.0, 4.0, 2.0, 1.0, 0.5};
  const auto weights = uoi::sched::lambda_weights(lambdas);
  ASSERT_EQ(weights.size(), lambdas.size());
  double mean = 0.0;
  for (std::size_t j = 0; j + 1 < weights.size(); ++j) {
    EXPECT_LT(weights[j], weights[j + 1]);  // smaller lambda, more work
  }
  for (const double w : weights) mean += w;
  EXPECT_NEAR(mean / static_cast<double>(weights.size()), 1.0, 1e-12);
}

TEST(CostModel, CalibrationRecoversScaleAndChainSkew) {
  const TaskGrid grid(6, 4, 2, 3);
  const std::vector<double> lambdas{4.0, 2.0, 1.0, 0.5};
  auto predicted = uoi::sched::seeded_costs(grid, lambdas, 10.0);
  // Ground truth: everything 2x the prediction, chain 1 another 3x.
  std::vector<double> measured(predicted.size());
  for (std::size_t id = 0; id < predicted.size(); ++id) {
    measured[id] =
        2.0 * predicted[id] * (grid.cell(id).chain == 1 ? 3.0 : 1.0);
  }
  const auto calibration = uoi::sched::calibrate(grid, predicted, measured);
  EXPECT_GT(calibration.scale, 1.0);
  ASSERT_EQ(calibration.chain_multiplier.size(), grid.n_chains());
  EXPECT_NEAR(
      calibration.chain_multiplier[1] / calibration.chain_multiplier[0], 3.0,
      1e-9);
  // After applying the calibration, the refined costs match the measured
  // pass up to a single global factor.
  auto refined = predicted;
  uoi::sched::apply_calibration(grid, calibration, refined);
  const double ratio0 = measured[0] / refined[0];
  for (std::size_t id = 0; id < refined.size(); ++id) {
    EXPECT_NEAR(measured[id] / refined[id], ratio0, 1e-9 * ratio0);
  }
}

TEST(CostModel, SurvivorWeightsCheapenSparseChains) {
  // 4 lambdas over 2 chains (chain c owns {j : j % 2 == c}). Chain 0's
  // lambdas kept many survivors, chain 1's almost none: after the
  // reweighting chain 1's cells must be proportionally cheaper, with the
  // grid total preserved up to the mean-1 normalization.
  const TaskGrid grid(3, 4, 2, 5);
  std::vector<double> costs(grid.n_cells(), 1.0);
  const std::vector<double> survivors{200.0, 2.0, 200.0, 2.0};
  uoi::sched::apply_survivor_weights(grid, survivors, costs);
  double chain0 = 0.0, chain1 = 0.0;
  for (std::size_t id = 0; id < costs.size(); ++id) {
    (grid.cell(id).chain == 0 ? chain0 : chain1) += costs[id];
  }
  EXPECT_GT(chain0, chain1);
  // weights: chain 0 = 1+200, chain 1 = 1+2, normalized by the mean 102;
  // chain 1's 3/102 hits the 0.1 clamp floor.
  EXPECT_NEAR(chain0 / chain1, (201.0 / 102.0) / 0.1, 1e-9);

  // Unmeasured lambdas (negative) leave their chains untouched.
  std::vector<double> untouched(grid.n_cells(), 1.0);
  const std::vector<double> unmeasured{-1.0, -1.0, -1.0, -1.0};
  uoi::sched::apply_survivor_weights(grid, unmeasured, untouched);
  for (const double cost : untouched) EXPECT_DOUBLE_EQ(cost, 1.0);

  // Partially measured: chain 1 has no measured lambda and keeps weight
  // 1 while chain 0 is normalized against itself (weight exactly 1 when
  // it is the only measured chain).
  std::vector<double> partial(grid.n_cells(), 1.0);
  const std::vector<double> half{50.0, -1.0, 10.0, -1.0};
  uoi::sched::apply_survivor_weights(grid, half, partial);
  for (const double cost : partial) EXPECT_DOUBLE_EQ(cost, 1.0);
}

// ------------------------------------------------- ticket board (TSan)

// Every ticket of a shared victim queue must be claimed exactly once no
// matter how pops and steals interleave. All 8 ranks hammer the same
// counter concurrently; the claim sets must partition [0, N).
TEST(TicketBoardTsan, ConcurrentClaimsAreExactlyOnce) {
  constexpr int kRanks = 8;
  constexpr std::size_t kTickets = 64;
  uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
    uoi::sched::TicketBoard board(comm, /*n_groups=*/1, {});
    std::vector<double> claimed(kTickets, 0.0);
    for (;;) {
      const std::size_t ticket = board.take_ticket(0);
      if (ticket >= kTickets) break;  // drained; counter keeps counting
      claimed[ticket] += 1.0;
    }
    EXPECT_GE(board.peek(0), kTickets);
    comm.allreduce(claimed, uoi::sim::ReduceOp::kSum);
    for (std::size_t t = 0; t < kTickets; ++t) {
      EXPECT_EQ(claimed[t], 1.0) << "ticket " << t;
    }
    board.fence();
  });
}

TEST(TicketBoardTsan, PerGroupCountersAreIndependent) {
  constexpr int kRanks = 4;
  uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
    uoi::sched::TicketBoard board(comm, /*n_groups=*/kRanks, {});
    // Each rank drains only its own group's queue.
    const int mine = comm.rank();
    const std::size_t depth = 5 + static_cast<std::size_t>(mine);
    std::size_t taken = 0;
    while (board.take_ticket(mine) < depth) ++taken;
    EXPECT_EQ(taken, depth);
    board.fence();
    // Counters advanced independently: each group's board shows exactly
    // its own claims (depth + the final past-the-end probe).
    EXPECT_EQ(board.peek(mine), depth + 1);
    board.fence();
  });
}

// ------------------------------------------ end-to-end schedule invariance

// The three policies must produce bit-identical models on an even layout
// (uniform group width keeps the distributed-ADMM reduction grouping
// fixed). This is the acceptance gate for "placement never enters the
// numerics".
TEST(ScheduleInvariance, LassoModelBitIdenticalAcrossPolicies) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 60;
  spec.n_features = 12;
  spec.support_size = 4;
  spec.seed = 17;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 6;
  options.seed = 2024;

  std::vector<uoi::linalg::Vector> betas;
  std::vector<std::vector<std::size_t>> winners;
  for (const SchedulePolicy policy :
       {SchedulePolicy::kStatic, SchedulePolicy::kCostLpt,
        SchedulePolicy::kWorkSteal}) {
    options.schedule = policy;
    uoi::sim::Cluster::run(8, [&](uoi::sim::Comm& comm) {
      const auto result = uoi::core::uoi_lasso_distributed(
          comm, data.x, data.y, options, {2, 2});
      if (comm.rank() == 0) {
        betas.push_back(result.model.beta);
        winners.push_back(result.model.chosen_support_per_bootstrap);
      }
    });
  }
  ASSERT_EQ(betas.size(), 3u);
  for (std::size_t i = 1; i < betas.size(); ++i) {
    EXPECT_EQ(uoi::linalg::max_abs_diff(betas[0], betas[i]), 0.0)
        << "policy index " << i;
    EXPECT_EQ(winners[0], winners[i]);
  }
}

// ---- The distributed lasso family's path rule ----------------------------

TEST(LinearPath, LassoDistShapeTakesGram) {
  // perfbench lasso_dist: n = 1024 bootstrap rows, p = 64, one task group
  // of C = 4 ranks, 256 rows per rank.
  EXPECT_EQ(uoi::sched::choose_linear_path(1024, 64, 4),
            uoi::sched::LinearPath::kGram);
}

TEST(LinearPath, GramWhileNoLargerThanTheRowBlock) {
  // The boundary: p = floor(n_boot / C) is Gram, one more is consensus.
  EXPECT_EQ(uoi::sched::choose_linear_path(90, 30, 3),
            uoi::sched::LinearPath::kGram);
  EXPECT_EQ(uoi::sched::choose_linear_path(90, 31, 3),
            uoi::sched::LinearPath::kConsensus);
  EXPECT_EQ(uoi::sched::choose_linear_path(91, 30, 3),
            uoi::sched::LinearPath::kGram);
  EXPECT_EQ(uoi::sched::choose_linear_path(24, 32, 1),
            uoi::sched::LinearPath::kConsensus);
}

TEST(LinearPath, PaperFig4ShapeStaysOnConsensus) {
  // Every fig4 weak-scaling point: p = 20,101 (a 3.2 GB Gram), bytes per
  // core fixed, one task group over all cores.
  for (const auto& point : uoi::perf::table1_lasso_weak_scaling()) {
    uoi::perf::UoiLassoWorkload w;
    w.data_bytes = point.data_gb << 30;
    EXPECT_EQ(uoi::sched::choose_linear_path(w.n_samples(), w.n_features,
                                             point.cores),
              uoi::sched::LinearPath::kConsensus)
        << point.data_gb << " GB on " << point.cores << " cores";
  }
}

TEST(LinearPath, IdenticalOnEveryRank) {
  // 96 rows, 32 features on 4 ranks: one group of four (24 rows per rank)
  // is consensus, two groups of two (48) Gram, and {3, 1} is as wide as
  // its widest group (two ranks, 48 rows each): Gram.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 96;
  spec.n_features = 32;
  const auto data = uoi::data::make_regression(spec);
  uoi::core::UoiLassoOptions options;
  options.n_lambdas = 6;
  const std::pair<uoi::core::UoiParallelLayout, uoi::sched::LinearPath>
      cases[] = {{{1, 1}, uoi::sched::LinearPath::kConsensus},
                 {{2, 1}, uoi::sched::LinearPath::kGram},
                 {{3, 1}, uoi::sched::LinearPath::kGram}};
  for (const auto& [layout, expected] : cases) {
    std::vector<uoi::sched::LinearPath> paths(4);
    uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
      paths[static_cast<std::size_t>(comm.rank())] =
          uoi::core::detail::linear_family_path(comm, data.x, layout);
    });
    for (const auto path : paths) {
      EXPECT_EQ(path, expected) << "P_B " << layout.bootstrap_groups;
    }
  }
}

// ---- UoI_VAR's path rule: the same rule at the lag regression's shape ----

TEST(LinearPath, VarDistShapeTakesGram) {
  // perfbench var_dist: 48 nodes, 600 samples at order 1 (599 lag rows)
  // on 4 ranks in layout 1 x 2: groups of C = 2, 299 lag rows per rank
  // against d = 1. One group of all four still fits (149 rows per rank).
  const uoi::linalg::Matrix series(600, 48);
  uoi::var::UoiVarOptions options;
  for (const auto& layout : {uoi::core::UoiParallelLayout{1, 2},
                             uoi::core::UoiParallelLayout{1, 1}}) {
    uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
      EXPECT_EQ(uoi::var::detail::var_linear_path(comm, series, options,
                                                  layout),
                uoi::sched::LinearPath::kGram);
    });
  }
}

TEST(LinearPath, VarRuleCountsLagRowsAndEveryLag) {
  // Groups of two: the d p x d p Gram is no larger than a rank's row
  // block of I (x) X (floor((N - d) / 2) lag rows, d p nonzeros each)
  // while d <= floor((N - d) / 2). At order 2, N = 6 is Gram and N = 5
  // consensus; at order 4, N = 12 is Gram and N = 11 consensus; at order
  // 1, N = 3 is Gram. The node count does not enter: 12 nodes at order 2
  // over 40 samples (d p = 24 columns, 19 rows per rank) is Gram.
  const auto order = [](std::size_t d) {
    uoi::var::UoiVarOptions options;
    options.order = d;
    return options;
  };
  const std::tuple<std::size_t, std::size_t, uoi::sched::LinearPath>
      cases[] = {{6, 2, uoi::sched::LinearPath::kGram},
                 {5, 2, uoi::sched::LinearPath::kConsensus},
                 {12, 4, uoi::sched::LinearPath::kGram},
                 {11, 4, uoi::sched::LinearPath::kConsensus},
                 {3, 1, uoi::sched::LinearPath::kGram},
                 {40, 2, uoi::sched::LinearPath::kGram}};
  for (const auto& [samples, d, expected] : cases) {
    for (const std::size_t nodes : {std::size_t{3}, std::size_t{12}}) {
      const uoi::linalg::Matrix series(samples, nodes);
      uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
        EXPECT_EQ(uoi::var::detail::var_linear_path(comm, series, order(d),
                                                    {2, 1}),
                  expected)
            << samples << " samples of " << nodes << " nodes at order " << d;
      });
    }
  }
}

TEST(LinearPath, PaperVarShapesStayOnConsensus) {
  // Figs 9 and 10 at paper scale, the rule applied by hand at I (x) X's
  // shape (p (N - d) rows, d p nonzeros each): at order 1, one task group
  // over all cores has fewer lag rows (p of them in the paper's
  // accounting) than ranks.
  const auto path = [](const uoi::perf::UoiVarWorkload& w, std::size_t c) {
    return uoi::sched::choose_linear_path(w.lag_rows() * w.n_features,
                                          w.order * w.n_features, c);
  };
  for (const auto& point : uoi::perf::table1_var_weak_scaling()) {
    const auto w = uoi::perf::UoiVarWorkload::from_problem_gb(
        static_cast<double>(point.data_gb));
    EXPECT_EQ(path(w, point.cores), uoi::sched::LinearPath::kConsensus)
        << point.data_gb << " GB on " << point.cores << " cores";
  }
  const auto strong = uoi::perf::UoiVarWorkload::from_problem_gb(1024);
  for (const auto& point : uoi::perf::table1_var_strong_scaling()) {
    EXPECT_EQ(path(strong, point.cores), uoi::sched::LinearPath::kConsensus)
        << point.cores << " cores";
  }
}

TEST(ScheduleInvariance, VarModelBitIdenticalAcrossPolicies) {
  // Groups of two on both wide-group paths: 5 nodes over 59 lag rows sum
  // a Gram; 8 nodes at order 4 over 7 lag rows (d = 4 against 3 rows per
  // rank) run Kron+vec and consensus ADMM.
  struct Shape {
    std::size_t nodes, order, samples;
    uoi::sched::LinearPath path;
  };
  for (const Shape shape :
       {Shape{5, 1, 60, uoi::sched::LinearPath::kGram},
        Shape{8, 4, 11, uoi::sched::LinearPath::kConsensus}}) {
    uoi::data::VarSpec spec;
    spec.n_nodes = shape.nodes;
    spec.order = shape.order;
    spec.seed = 7;
    const auto truth = uoi::data::make_sparse_var(spec);
    uoi::var::SimulateOptions sim;
    sim.n_samples = shape.samples;
    sim.seed = 8;
    const auto series = uoi::var::simulate(truth, sim);

    uoi::var::UoiVarOptions options;
    options.order = shape.order;
    options.n_selection_bootstraps = 5;
    options.n_estimation_bootstraps = 3;
    options.n_lambdas = 5;
    options.seed = 99;

    std::vector<uoi::linalg::Vector> betas;
    for (const SchedulePolicy policy :
         {SchedulePolicy::kStatic, SchedulePolicy::kCostLpt,
          SchedulePolicy::kWorkSteal}) {
      options.schedule = policy;
      uoi::sim::Cluster::run(8, [&](uoi::sim::Comm& comm) {
        EXPECT_EQ(uoi::var::detail::var_linear_path(comm, series, options,
                                                    {2, 2}),
                  shape.path);
        const auto result =
            uoi::var::uoi_var_distributed(comm, series, options, {2, 2}, 2);
        if (comm.rank() == 0) betas.push_back(result.model.vec_beta);
      });
    }
    ASSERT_EQ(betas.size(), 3u);
    for (std::size_t i = 1; i < betas.size(); ++i) {
      EXPECT_EQ(uoi::linalg::max_abs_diff(betas[0], betas[i]), 0.0)
          << "path " << uoi::sched::linear_path_name(shape.path)
          << ", policy index " << i;
    }
  }
}

}  // namespace
