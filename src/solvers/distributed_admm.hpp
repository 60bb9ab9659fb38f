#pragma once
// Distributed consensus LASSO-ADMM (Boyd et al. 2011, §8.2: splitting across
// examples) on the uoi::sim runtime — the solver whose MPI_Allreduce traffic
// dominates the paper's communication time (§IV-A, Figs. 2, 4-6).
//
// Rank i holds a row block (A_i, b_i) of the design; the ranks jointly solve
//
//   minimize sum_i (1/2)||A_i x_i - b_i||^2 + lambda ||z||_1
//   subject to x_i = z for all i
//
//   x_i <- (A_i'A_i + rho I)^{-1}(A_i'b_i + rho(z - u_i))   [local]
//   z   <- S_{lambda/(rho P)}(mean_i(x_i + u_i))            [one Allreduce]
//   u_i <- u_i + x_i - z                                    [local]
//
// The per-iteration Allreduce carries p doubles (p = 20,101 in the paper's
// UoI_LASSO runs) plus a small residual reduction. Setting lambda = 0 gives
// the distributed OLS used in model estimation (paper §II-C).

#include <span>

#include "linalg/matrix.hpp"
#include "simcluster/comm.hpp"
#include "solvers/admm_lasso.hpp"

namespace uoi::solvers {

/// Result of a distributed solve, including communication accounting.
struct DistributedAdmmResult {
  uoi::linalg::Vector beta;  ///< consensus z (identical on every rank)
  /// Completed ADMM iterations covered by the reported verdict (the
  /// residuals below refer to exactly this many iterations, in every
  /// mode — blocking and fused report the same count for the same
  /// trajectory; speculative work discarded at a stale harvest is not
  /// counted).
  std::size_t iterations = 0;
  bool converged = false;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  std::uint64_t local_flops = 0;  ///< this rank's compute
  /// Reduction rounds performed: consensus reductions plus every residual
  /// reduction (the blocking 3-double reduction and the fused-payload
  /// flush both count).
  std::uint64_t allreduce_calls = 0;
  std::uint64_t allreduce_bytes = 0;   ///< bytes this rank contributed
  std::uint64_t consensus_rounds = 0;  ///< p(+3)-length consensus reductions
  std::size_t rho_updates = 0;         ///< residual-balancing rescales applied
};

/// Factorization-caching distributed solver; `local_a`/`local_b` are this
/// rank's row block. All ranks must construct and call it collectively.
class DistributedLassoAdmmSolver {
 public:
  DistributedLassoAdmmSolver(uoi::sim::Comm& comm,
                             uoi::linalg::ConstMatrixView local_a,
                             std::span<const double> local_b,
                             const AdmmOptions& options = {});
  ~DistributedLassoAdmmSolver();
  DistributedLassoAdmmSolver(DistributedLassoAdmmSolver&&) = default;

  [[nodiscard]] DistributedAdmmResult solve(
      double lambda, const DistributedAdmmResult* warm_start = nullptr) const;

  /// Distributed elastic net: lambda1 |z|_1 + (lambda2/2)|z|_2^2.
  [[nodiscard]] DistributedAdmmResult solve_elastic_net(
      double lambda1, double lambda2,
      const DistributedAdmmResult* warm_start = nullptr) const;

 private:
  uoi::sim::Comm* comm_;
  uoi::linalg::ConstMatrixView a_;
  std::span<const double> b_;
  AdmmOptions options_;
  uoi::linalg::Vector atb_;
  std::unique_ptr<class RidgeSystemSolver> system_;
  // This rank's setup FLOPs (gather-side A'b + Gram + factor), charged to
  // the first solve() only.
  mutable std::uint64_t pending_setup_flops_ = 0;
};

/// One-shot distributed solve.
[[nodiscard]] DistributedAdmmResult distributed_lasso_admm(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView local_a,
    std::span<const double> local_b, double lambda,
    const AdmmOptions& options = {});

}  // namespace uoi::solvers
