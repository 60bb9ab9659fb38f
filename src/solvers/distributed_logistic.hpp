#pragma once
// Distributed L1-logistic regression by consensus ADMM — the GLM analogue
// of the paper's distributed LASSO-ADMM, demonstrating that the scaling
// machinery (row-block splitting + one Allreduce per iteration) carries
// over to the whole UoI family.
//
// Rank i holds (X_i, y_i) and its x-update minimizes
//   logloss_i(x) + (rho/2) ||x - z + u_i||^2
// by damped Newton (the local Hessian D'WD + rho I is SPD, so each step is
// a Cholesky solve). The consensus vector carries the coefficients plus an
// unpenalized intercept as the final coordinate.

#include <span>

#include "linalg/matrix.hpp"
#include "simcluster/comm.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/distributed_admm.hpp"

namespace uoi::solvers {

struct DistributedLogisticResult {
  uoi::linalg::Vector beta;  ///< consensus coefficients (identical per rank)
  double intercept = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  std::size_t rho_updates = 0;
  std::uint64_t allreduce_calls = 0;
  std::uint64_t allreduce_bytes = 0;
  std::uint64_t consensus_rounds = 0;
};

/// Collective over `comm`; each rank passes its local row block. `lambda`
/// penalizes only the coefficients, never the intercept.
/// `newton_steps` inner iterations per x-update (2-3 suffice: ADMM
/// tolerates inexact minimization).
[[nodiscard]] DistributedLogisticResult distributed_logistic_lasso(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView local_x,
    std::span<const double> local_y, double lambda,
    const AdmmOptions& options = {}, std::size_t newton_steps = 3);

}  // namespace uoi::solvers
