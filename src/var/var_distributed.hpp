#pragma once
// Distributed UoI_VAR (paper §III-B2, §IV-B): the distributed Kronecker
// product + vectorization over one-sided windows, the block-structured
// distributed consensus LASSO-ADMM, and the full distributed driver.
//
// The paper's key observation: the input series is small (MBs), but the
// vectorized problem (I (x) X, vec Y) explodes ~ p^3. So a handful of
// n_reader ranks construct (X, Y) for each bootstrap and expose them
// through MPI one-sided windows; every compute rank assembles only its own
// row block of the vectorized problem by remote gets — the full operator is
// never materialized anywhere.
//
// Row r of the vectorized problem maps to (equation e = r / (N-d),
// lag-matrix row t = r mod (N-d)): its nonzeros are X row t at column
// offset e * dp, and its response is Y(t, e). Because columns from
// different equations never co-occur in a row, each rank's local Gram
// matrix is block diagonal, so the consensus-ADMM x-update factorizes into
// at most ceil(rows-per-rank / (N-d)) + 1 small dp x dp systems, solved
// eight at a time across SIMD lanes (solvers::BlockRidgeSolver).
//
// The same structure gives (I (x) X)'(I (x) X) = I (x) X'X: the p
// equations share one d p x d p Gram and differ only in X'y_e. While that
// Gram is no larger than a rank's row block of I (x) X (d at most the lag
// rows per rank), a task group skips the windows and the consensus: one
// allreduce of [X'X | X'Y] per bootstrap, then every rank solves
// its own equations locally. A one-rank group (and so a serial fit) holds
// the whole bootstrap and takes the Gram at every shape, with no
// collective (see uoi_var_distributed).

#include "core/uoi_engine.hpp"  // UoiParallelLayout, breakdown
#include "sched/cost_model.hpp"   // LinearPath
#include "simcluster/comm.hpp"
#include "simcluster/window.hpp"
#include "solvers/distributed_admm.hpp"
#include "solvers/screening.hpp"
#include "var/lag_matrix.hpp"
#include "var/uoi_var.hpp"

namespace uoi::solvers {
class BlockRidgeSolver;
}  // namespace uoi::solvers

namespace uoi::var {

/// This rank's assembled row block of the vectorized VAR problem.
struct VarLocalBlock {
  uoi::linalg::Matrix x_rows;            ///< local rows x dp (dense payload)
  uoi::linalg::Vector y;                 ///< local responses
  std::vector<std::size_t> equation_of_row;  ///< e per local row (ascending)
  std::size_t dp = 0;                    ///< block width (d * p)
  std::size_t n_equations = 0;           ///< p
  std::size_t global_row_begin = 0;      ///< first global row owned

  [[nodiscard]] std::size_t n_coefficients() const noexcept {
    return dp * n_equations;
  }
};

/// Parallel series load (the paper's "small number of processes read the
/// data file in parallel"): reader ranks [0, n_readers) read disjoint row
/// slabs of an H5-lite dataset and the (small) series is replicated to
/// every rank through a one-sided window. Collective over `comm`.
/// Transient one-sided failures injected by a fault plan are absorbed by
/// bounded exponential-backoff retries (`retry`).
[[nodiscard]] uoi::linalg::Matrix load_series_distributed(
    uoi::sim::Comm& comm, const std::string& dataset_base, int n_readers,
    const uoi::sim::RetryOptions& retry = {});

/// Distributed Kronecker product + vectorization. Collective over `comm`.
/// Readers are ranks [0, n_readers); `lag` must contain the full lag
/// regression on reader ranks (ignored elsewhere). Every rank receives its
/// contiguous row block of (I (x) X, vec Y). One-sided traffic is charged
/// to the caller's CommStats "Distribution" bucket. Assembly gets retry
/// transient faults under `retry`'s bounded backoff budget.
[[nodiscard]] VarLocalBlock distributed_kron_vectorize(
    uoi::sim::Comm& comm, const LagRegression& lag, int n_readers,
    const uoi::sim::RetryOptions& retry = {});

/// Block-structured distributed consensus LASSO-ADMM over assembled blocks.
/// Semantics match solvers::DistributedLassoAdmmSolver with the Gram
/// factorization specialized to the block-diagonal structure.
class DistributedVarAdmmSolver {
 public:
  DistributedVarAdmmSolver(uoi::sim::Comm& comm, const VarLocalBlock& block,
                           const uoi::solvers::AdmmOptions& options = {});
  /// Reduced (active-set) solver over the sorted global coefficient
  /// subset `working`: the consensus vector, warm starts and the returned
  /// beta live in compacted coordinates (entry i <-> coefficient
  /// working[i]), shrinking the fused consensus allreduce from
  /// (d p^2 + 3) to (|working| + 3) doubles. Per equation, the surviving
  /// columns are gathered into a dense sub-block (or the original view
  /// when all dp columns survive). `working` must be identical on every
  /// rank — screened working sets are, being pure functions of
  /// replicated data (see solvers/screening.hpp).
  DistributedVarAdmmSolver(uoi::sim::Comm& comm, const VarLocalBlock& block,
                           std::span<const std::size_t> working,
                           const uoi::solvers::AdmmOptions& options = {});
  ~DistributedVarAdmmSolver();
  DistributedVarAdmmSolver(DistributedVarAdmmSolver&&) = default;

  [[nodiscard]] uoi::solvers::DistributedAdmmResult solve(
      double lambda,
      const uoi::solvers::DistributedAdmmResult* warm_start = nullptr) const;

 private:
  uoi::sim::Comm* comm_;
  const VarLocalBlock* block_;
  uoi::solvers::AdmmOptions options_;
  /// Solve-coordinate A'b from local rows; its length is the consensus
  /// vector's: n_coefficients() for the full solver, |working| for the
  /// reduced one.
  uoi::linalg::Vector atb_;
  /// Gathered surviving columns of reduced equations narrower than dp;
  /// system_'s wide blocks may view them.
  std::vector<uoi::linalg::Matrix> cols_;
  /// One block per equation with local rows: the x-update's systems.
  std::unique_ptr<uoi::solvers::BlockRidgeSolver> system_;
  // FLOPs this rank spent building its per-equation Gram factorizations,
  // charged to the first solve() only, so a chain of lambdas pays setup
  // once.
  mutable std::uint64_t pending_setup_flops_ = 0;
};

struct UoiVarDistributedResult {
  UoiVarResult model;
  uoi::core::UoiDistributedBreakdown breakdown;
  /// Final merged q x (d p^2) selection-count matrix (replicated);
  /// exposed so fault-injection tests can assert bit-identical counts
  /// against a fault-free run.
  uoi::linalg::Matrix selection_counts;
  /// Quorum-degraded completion record; same semantics as
  /// UoiLassoDistributedResult (see UoiRecoveryOptions::
  /// min_bootstrap_quorum).
  bool degraded = false;
  double achieved_quorum = 1.0;
  std::vector<std::pair<std::size_t, std::size_t>> lost_cells;
};

/// Distributed UoI_VAR driver. Collective over `comm`; the full series is
/// replicated (reader ranks use it to stand in for the HDF5 file, compute
/// ranks only touch it through windows and for the estimation resamples).
/// A family of the shared engine (core/uoi_engine.hpp): layout,
/// scheduling, checkpointing and shrink-and-resume (options.recovery) work
/// as in uoi_lasso_distributed, with P = P_B x P_lambda x C. Selection
/// takes one of two solvers per task group:
///   Gram walk   [X'X | X'Y] of the bootstrap's lag rows
///               ((I (x) X)'(I (x) X) = I (x) X'X), then every rank runs a
///               solvers::GramLassoChain (coordinate descent) per equation
///               it owns, one after another. A one-rank group sums the
///               Gram locally at any shape and makes no collective, so
///               one-rank groups reproduce UoiVar::fit, which is this
///               driver on a one-rank communicator. A wider group
///               on the kGram path sums its readers' rows in one allreduce
///               per bootstrap, and one more allreduce assembles the cells'
///               betas;
///   Kron+vec    a wider group on the kConsensus path: the Kron+vec windows
///               and DistributedVarAdmmSolver, one allreduce per ADMM
///               iteration (paper scale, short high-order series).
/// The path is detail::var_linear_path. options.backend is not read. Every
/// group shares the estimation hook.
[[nodiscard]] UoiVarDistributedResult uoi_var_distributed(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView series,
    const UoiVarOptions& options = {},
    const uoi::core::UoiParallelLayout& layout = {}, int n_readers = 2);

namespace detail {

/// The selection path of task groups wider than one rank for a fit of
/// `series` on `comm` under `layout`: the sched::choose_linear_path rule at
/// the vectorized design's shape (I (x) X: p (N - d) rows, each d p
/// nonzeros wide) and the widest task group's width C. The d p x d p Gram
/// is then no larger than a rank's row block of I (x) X, so the path is
/// Gram while d <= floor((N - d) / C). The same on every rank.
[[nodiscard]] uoi::sched::LinearPath var_linear_path(
    const uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView series,
    const UoiVarOptions& options, const uoi::core::UoiParallelLayout& layout);

/// This rank's share of the vectorized problem's A'b (d p^2 doubles):
/// column g = e*dp + c lives only in equation e's rows. One allreduce of
/// the shares gives the replicated screening inputs of the Kron+vec path.
[[nodiscard]] uoi::linalg::Vector var_screen_sums(const VarLocalBlock& block);

/// The Kron+vec path's backend of the strong-rule screened chain
/// (solvers::detail::ScreenedChain) over the block-structured VAR solver:
/// reduced solves go to the active-set DistributedVarAdmmSolver, so the
/// fused consensus payload shrinks from (dp*p + 3) to (|W| + 3) doubles;
/// each correlation is one local pass over the block plus one nc-length
/// allreduce. The VAR lasso has no l2 penalty, so lambda2 is ignored.
class DistributedVarBackend {
 public:
  using Fit = uoi::solvers::DistributedAdmmResult;

  DistributedVarBackend(const uoi::solvers::AdmmOptions& admm,
                        uoi::sim::Comm& comm, const VarLocalBlock& block,
                        const uoi::solvers::ScreenInputs& shared);

  [[nodiscard]] const uoi::solvers::ScreenInputs& inputs() const noexcept {
    return *shared_;
  }
  [[nodiscard]] Fit subset_solve(std::span<const std::size_t> cols,
                                 double lambda, double lambda2,
                                 const Fit& warm) const;
  void kkt_correlation(std::span<const double> beta_w,
                       std::span<const std::size_t> working,
                       uoi::linalg::Vector& c, Fit& spent) const;
  void refresh_correlation(std::span<const double> beta,
                           std::span<const std::size_t> support,
                           uoi::linalg::Vector& c, Fit& result) const;

 private:
  uoi::solvers::AdmmOptions admm_;
  uoi::sim::Comm* comm_;
  const VarLocalBlock* block_;
  const uoi::solvers::ScreenInputs* shared_;
};

}  // namespace detail

}  // namespace uoi::var

extern template class uoi::solvers::detail::ScreenedChain<
    uoi::var::detail::DistributedVarBackend>;
