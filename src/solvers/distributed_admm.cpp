#include "solvers/distributed_admm.hpp"

#include "linalg/blas.hpp"
#include "solvers/consensus_loop.hpp"
#include "solvers/ridge_system.hpp"
#include "support/error.hpp"

namespace uoi::solvers {

using uoi::linalg::Vector;

DistributedLassoAdmmSolver::DistributedLassoAdmmSolver(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView local_a,
    std::span<const double> local_b, const AdmmOptions& options)
    : comm_(&comm), a_(local_a), b_(local_b), options_(options) {
  UOI_CHECK_DIMS(local_a.rows() == local_b.size(),
                 "distributed LASSO: local rows != local b size");
  UOI_CHECK(local_a.cols() > 0, "distributed LASSO: zero features");

  atb_.assign(a_.cols(), 0.0);
  if (a_.rows() > 0) {
    uoi::linalg::gemv_transposed(1.0, a_, b_, 0.0, atb_);
    system_ = std::make_unique<RidgeSystemSolver>(a_, options_.rho);
    pending_setup_flops_ = uoi::linalg::gemv_flops(a_.rows(), a_.cols()) +
                           system_->setup_flops();
  }
}

DistributedLassoAdmmSolver::~DistributedLassoAdmmSolver() = default;

DistributedAdmmResult DistributedLassoAdmmSolver::solve(
    double lambda, const DistributedAdmmResult* warm_start) const {
  return solve_elastic_net(lambda, 0.0, warm_start);
}

DistributedAdmmResult DistributedLassoAdmmSolver::solve_elastic_net(
    double lambda1, double lambda2,
    const DistributedAdmmResult* warm_start) const {
  const double lambda = lambda1;
  const std::size_t p = a_.cols();
  Vector q(p);
  std::unique_ptr<RidgeSystemSolver> rebuilt;
  double current_rho = options_.rho;
  std::uint64_t refactor_flops = 0;
  const std::uint64_t charged_setup = pending_setup_flops_;
  pending_setup_flops_ = 0;
  auto result = detail::run_consensus_admm_loop(
      *comm_, p, lambda, options_,
      [&](const Vector& z, const Vector& u, Vector& x, double rho) {
        // A rank with no rows (possible for tiny test splits) contributes
        // the unregularized minimizer of the proximal term, z - u.
        if (system_ == nullptr) {
          for (std::size_t i = 0; i < p; ++i) x[i] = z[i] - u[i];
          return;
        }
        if (rho != current_rho) {
          // Diagonal-shift refactorization of the cached rho-free Gram:
          // O(p^3/3), no O(n p^2) Gram rebuild.
          rebuilt = system_->refactored(rho);
          refactor_flops += rebuilt->setup_flops();
          current_rho = rho;
        }
        for (std::size_t i = 0; i < p; ++i) {
          q[i] = atb_[i] + rho * (z[i] - u[i]);
        }
        (rebuilt ? *rebuilt : *system_).solve(q, x);
      },
      charged_setup, system_ != nullptr ? system_->solve_flops() : 0,
      warm_start, /*n_unpenalized_tail=*/0, lambda2);
  result.local_flops += refactor_flops;
  return result;
}

DistributedAdmmResult distributed_lasso_admm(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView local_a,
    std::span<const double> local_b, double lambda,
    const AdmmOptions& options) {
  DistributedLassoAdmmSolver solver(comm, local_a, local_b, options);
  return solver.solve(lambda);
}

}  // namespace uoi::solvers
