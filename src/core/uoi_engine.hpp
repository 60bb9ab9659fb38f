#pragma once
// The UoI engine (internal): the one skeleton every UoI estimator runs —
// bootstrap selection, intersection, bootstrap estimation, union
// (arXiv:1705.07585; the paper's Algorithms 1 and 2). The lasso,
// elastic-net, logistic, Poisson and VAR drivers are thin families on top
// of it: each supplies a selection hook, an estimation hook, and turns the
// replicated winners matrix into its own model. A serial fit is a run on
// a one-rank communicator (run_on_local_rank) with serial hooks.
//
// Per pass attempt the engine splits the communicator into task groups
// (P_B x P_lambda groups of C ranks), owns a fresh BootstrapCache, plans
// placement and runs the scheduler. Across attempts it owns the merged
// selection counts, checkpointing, shrink-and-resume after a rank failure
// and quorum-degraded completion. It also issues the phase's global
// collectives and exports the fit metrics once for every family. See
// docs/ARCHITECTURE.md §4 for the hook contract and collective schedule.

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/support_set.hpp"
#include "core/uoi_lasso.hpp"  // UoiRecoveryOptions
#include "linalg/matrix.hpp"
#include "sched/schedule_policy.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/comm.hpp"
#include "solvers/screening.hpp"
#include "solvers/solver_cache.hpp"

namespace uoi::core {

/// How the ranks of a communicator are arranged (paper Fig. 3's
/// "P_B x P_lambda" configurations). C is derived: comm.size() / (pb * pl).
struct UoiParallelLayout {
  int bootstrap_groups = 1;  ///< P_B
  int lambda_groups = 1;     ///< P_lambda
};

/// Per-rank timing breakdown, mirroring the paper's runtime buckets.
/// Derived from the process-wide Tracer: communication / distribution /
/// data-I/O / Gram-setup are the rank's span totals over the phase,
/// computation is the wall-time remainder (clamped at zero), so the
/// buckets sum to the phase wall time.
struct UoiDistributedBreakdown {
  double computation_seconds = 0.0;
  double communication_seconds = 0.0;  ///< collectives (Allreduce-dominated)
  double distribution_seconds = 0.0;   ///< data movement into task groups
  double data_io_seconds = 0.0;        ///< dataset reads/writes (uoi::io)
  double gram_seconds = 0.0;  ///< Gram + Cholesky setup (solver-cache misses)
};

namespace detail {

/// This rank's slice [begin, end) of a length-m index list split over C.
struct Slice {
  std::size_t begin;
  std::size_t end;
};

inline Slice block_slice(std::size_t m, int c_ranks, int c_rank) {
  const auto c = static_cast<std::size_t>(c_ranks);
  const auto r = static_cast<std::size_t>(c_rank);
  return {m * r / c, m * (r + 1) / c};
}

/// Gathers the rows of `x` (and entries of `y`) listed in idx[begin, end).
inline void gather_local_block(uoi::linalg::ConstMatrixView x,
                               std::span<const double> y,
                               std::span<const std::size_t> idx, Slice slice,
                               uoi::linalg::Matrix& x_out,
                               uoi::linalg::Vector& y_out) {
  const std::size_t m = slice.end - slice.begin;
  x_out.resize(m, x.cols());
  y_out.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t src = idx[slice.begin + i];
    const auto row = x.row(src);
    std::copy(row.begin(), row.end(), x_out.row(i).begin());
    y_out[i] = y[src];
  }
}

/// This rank's place in the task-group split of a communicator.
struct TaskLayout {
  int c_ranks;     ///< ADMM cores in THIS rank's group
  int task_group;  ///< this rank's group id
  int task_rank;   ///< rank within the group
};

/// Remainder-tolerant group split: G = pb * pl contiguous groups; the first
/// `comm_size % G` groups get one extra rank. When G divides comm_size this
/// is the even split. Requires comm_size >= G so every group has at least
/// one rank (prime sizes yield G groups of uneven width).
inline TaskLayout make_task_layout(int rank, int comm_size, int pb, int pl) {
  TaskLayout out{};
  const int n_groups = pb * pl;
  const int base = comm_size / n_groups;
  const int extra = comm_size % n_groups;
  const int wide_span = extra * (base + 1);  // ranks covered by wide groups
  if (rank < wide_span) {
    out.c_ranks = base + 1;
    out.task_group = rank / (base + 1);
    out.task_rank = rank % (base + 1);
  } else {
    out.c_ranks = base;
    out.task_group = extra + (rank - wide_span) / base;
    out.task_rank = (rank - wide_span) % base;
  }
  return out;
}

}  // namespace detail

/// Additive fit counters a family reports from its hooks; the engine sums
/// them over the fit and exports them once (admm.*, screen.*, solver.*).
struct UoiFitCounters {
  std::uint64_t local_flops = 0;
  std::uint64_t iterations = 0;
  std::uint64_t rho_updates = 0;
  std::uint64_t allreduce_calls = 0;
  std::uint64_t allreduce_bytes = 0;
  std::uint64_t consensus_rounds = 0;
  std::uint64_t lazy_iterations = 0;
  std::uint64_t setup_flops_charged = 0;
  std::uint64_t setup_flops_amortized = 0;
  uoi::solvers::ScreenStats screen;

  /// Adds one fit's counters: a consensus fit (ADMM or l1-logistic) or a
  /// serial one, which reports `flops` and no collectives.
  template <class Fit>
  void add(const Fit& fit) {
    if constexpr (requires { fit.local_flops; }) {
      local_flops += fit.local_flops;
    } else if constexpr (requires { fit.flops; }) {
      local_flops += fit.flops;
    }
    iterations += fit.iterations;
    if constexpr (requires { fit.rho_updates; }) rho_updates += fit.rho_updates;
    if constexpr (requires { fit.allreduce_calls; }) {
      allreduce_calls += fit.allreduce_calls;
      allreduce_bytes += fit.allreduce_bytes;
      consensus_rounds += fit.consensus_rounds;
      lazy_iterations += fit.lazy_iterations;
    }
  }
};

/// One scheduled selection cell: bootstrap k and the chain's still-pending
/// grid cells, in warm-start order.
struct UoiSelectionTask {
  uoi::sim::Comm& task_comm;
  const detail::TaskLayout& layout;
  std::size_t bootstrap;
  std::span<const std::size_t> cells;
  /// This pass attempt's cache; entries hold views of `task_comm`.
  uoi::solvers::BootstrapCache& cache;
  /// cells.size() lists, empty on entry: list m receives the coordinates
  /// the fit at cells[m] selects. Only group rank 0's lists are committed.
  std::vector<std::vector<std::size_t>>& selected;
  UoiFitCounters& counters;

  /// Records the fit at cells[m], once per m: every coordinate with
  /// |beta_i| > tolerance enters list m (group rank 0 only).
  void mark_selected(std::size_t m, std::span<const double> beta,
                     double tolerance) const;
};

/// This rank's running winner of one (bootstrap, chain) estimation cell:
/// the engine keeps one share per such cell, not one per grid cell.
struct UoiChainWinner {
  std::size_t cell = 0;
  double loss = std::numeric_limits<double>::infinity();
  uoi::linalg::Vector share;
};

/// One scheduled estimation cell: bootstrap k over a chain of grid cells.
struct UoiEstimationTask {
  uoi::sim::Comm& task_comm;
  const detail::TaskLayout& layout;
  std::size_t bootstrap;
  std::span<const std::size_t> cells;
  uoi::solvers::BootstrapCache& cache;
  /// Replicated candidate support of every grid cell.
  std::span<const SupportSet> supports;
  UoiFitCounters& counters;
  /// Engine-owned: losses indexed by grid cell, and the chain's winner.
  std::span<double> losses;
  UoiChainWinner& winner;

  /// Records the fit at grid cell c; call once per entry of `cells`, in
  /// order. `loss` is the group's (identical) loss, `share` this rank's
  /// share of the winner row — empty when the rank contributes nothing.
  /// Shares of one cell must be disjoint across the group, so the winners
  /// Sum-reduce is exact. Only the chain's running winner is kept, under
  /// the engine's rule: the lowest loss wins, a tie goes to the lower
  /// cell, and NaN or +inf never wins.
  void record(std::size_t c, double loss, uoi::linalg::Vector share) const;
};

/// What a family tells the engine about its problem.
struct UoiEngineSpec {
  const char* name = "UoI";         ///< log label, e.g. "UoI_LASSO"
  const char* computation_span = "uoi-computation";  ///< tracer span name
  std::size_t n_selection_bootstraps = 0;   ///< B1
  std::size_t n_estimation_bootstraps = 0;  ///< B2
  /// Penalty of each grid cell (q entries, or q x ratios for the elastic
  /// net): seeds the scheduler's costs and is recorded in checkpoints.
  std::vector<double> cell_lambdas;
  std::size_t selection_width = 0;  ///< coordinates per selection row
  std::size_t winner_width = 0;     ///< entries per winner row
  double pass_seconds_seed = 0.0;   ///< cost-model estimate of one pass
  std::uint64_t seed = 0;
  double intersection_fraction = 1.0;
  sched::SchedulePolicy schedule = sched::SchedulePolicy::kAuto;
  long solver_cache_mb = -1;
  UoiParallelLayout layout;
  UoiRecoveryOptions recovery;
  /// Identifies compatible checkpoints; unused without a checkpoint path.
  std::uint64_t fingerprint = 0;
  /// Exported as admm.consensus_interval (resolved).
  std::size_t consensus_interval = 0;
  /// Resolved screening mode, exported with the screen.* metrics; families
  /// without screening leave it unset.
  std::optional<uoi::solvers::ScreenMode> screen_mode;
};

struct UoiEngineResult {
  std::vector<SupportSet> candidate_supports;  ///< per grid cell
  /// Per estimation bootstrap: the winning grid cell and its loss (cell 0
  /// and +inf when no loss is finite).
  std::vector<std::size_t> chosen_support_per_bootstrap;
  std::vector<double> best_loss_per_bootstrap;
  /// B2 x winner_width, replicated: row k is bootstrap k's winning fit
  /// (zeros when it has no winner).
  uoi::linalg::Matrix winners;
  /// Merged cells x selection_width counts, replicated.
  uoi::linalg::Matrix selection_counts;
  std::uint64_t total_flops = 0;  ///< summed over every rank
  UoiDistributedBreakdown breakdown;
  bool degraded = false;
  double achieved_quorum = 1.0;
  std::vector<std::pair<std::size_t, std::size_t>> lost_cells;
};

using UoiSelectHook = std::function<void(UoiSelectionTask&)>;
using UoiEstimateHook = std::function<void(UoiEstimationTask&)>;

/// Runs the UoI skeleton. Collective over `comm`; every rank passes the
/// same spec. Throws RankFailedError once the recovery budget is spent.
[[nodiscard]] UoiEngineResult run_uoi_engine(uoi::sim::Comm& comm,
                                             const UoiEngineSpec& spec,
                                             const UoiSelectHook& select,
                                             const UoiEstimateHook& estimate);

/// Runs a family's driver body on a one-rank communicator built in the
/// calling thread (sim::Cluster::run_local) and returns what it returns:
/// the serial entry points.
template <class Body>
[[nodiscard]] auto run_on_local_rank(Body&& body) {
  std::optional<std::invoke_result_t<Body&, uoi::sim::Comm&>> out;
  uoi::sim::Cluster::run_local(
      [&](uoi::sim::Comm& comm) { out.emplace(body(comm)); });
  return std::move(*out);
}

}  // namespace uoi::core
