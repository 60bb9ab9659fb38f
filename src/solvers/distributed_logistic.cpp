#include "solvers/distributed_logistic.hpp"

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "solvers/consensus_loop.hpp"
#include "solvers/logistic.hpp"
#include "support/error.hpp"

namespace uoi::solvers {

using uoi::linalg::Matrix;
using uoi::linalg::Vector;

DistributedLogisticResult distributed_logistic_lasso(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView local_x,
    std::span<const double> local_y, double lambda,
    const AdmmOptions& options, std::size_t newton_steps) {
  UOI_CHECK_DIMS(local_x.rows() == local_y.size(),
                 "distributed logistic: local shapes differ");
  UOI_CHECK(newton_steps >= 1, "need at least one Newton step");
  const std::size_t n = local_x.rows();
  const std::size_t p = local_x.cols();
  const std::size_t dim = p + 1;  // coefficients + intercept (last)

  // Local x-update: damped Newton with backtracking on
  //   f(t) = sum_r log(1 + exp(d_r' t)) - y_r d_r' t + rho/2 ||t - v||^2
  // where d_r = (x_r, 1) and v = z - u. The iterate persists across ADMM
  // iterations (the consensus loop hands back the same buffer), so Newton
  // warm-starts from the previous solution — essential for stability when
  // the local subsample is separable and the unregularized minimizer
  // diverges.
  const auto objective = [&](const Vector& t, const Vector& z,
                             const Vector& u, double rho) {
    double f = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double eta =
          uoi::linalg::dot(local_x.row(r),
                           std::span<const double>(t).subspan(0, p)) +
          t[p];
      // log(1 + e^eta) - y eta, computed stably.
      f += (eta > 0.0 ? eta + std::log1p(std::exp(-eta))
                      : std::log1p(std::exp(eta))) -
           local_y[r] * eta;
    }
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = t[i] - (z[i] - u[i]);
      f += 0.5 * rho * d * d;
    }
    return f;
  };

  const auto x_update = [&](const Vector& z, const Vector& u, Vector& x,
                            double rho) {
    if (n == 0) {
      for (std::size_t i = 0; i < dim; ++i) x[i] = z[i] - u[i];
      return;
    }
    for (std::size_t step = 0; step < newton_steps; ++step) {
      // Gradient and Hessian at x.
      Vector grad(dim, 0.0);
      Matrix hess(dim, dim);
      for (std::size_t r = 0; r < n; ++r) {
        const auto row = local_x.row(r);
        double t = x[p];  // intercept
        t += uoi::linalg::dot(row, std::span<const double>(x).subspan(0, p));
        const double mu = sigmoid(t);
        const double residual = mu - local_y[r];
        const double w = std::max(mu * (1.0 - mu), 1e-10);
        for (std::size_t i = 0; i < p; ++i) {
          grad[i] += residual * row[i];
          for (std::size_t j = i; j < p; ++j) {
            hess(i, j) += w * row[i] * row[j];
          }
          hess(i, p) += w * row[i];
        }
        grad[p] += residual;
        hess(p, p) += w;
      }
      for (std::size_t i = 0; i < dim; ++i) {
        grad[i] += rho * (x[i] - (z[i] - u[i]));
        hess(i, i) += rho;
        for (std::size_t j = 0; j < i; ++j) hess(i, j) = hess(j, i);
      }
      const Vector delta = uoi::linalg::cholesky_solve(hess, grad);

      // Backtracking: halve the step until the objective decreases.
      const double base = objective(x, z, u, rho);
      double scale = 1.0;
      Vector candidate(dim);
      bool accepted = false;
      for (int halving = 0; halving < 30; ++halving) {
        for (std::size_t i = 0; i < dim; ++i) {
          candidate[i] = x[i] - scale * delta[i];
        }
        if (objective(candidate, z, u, rho) <= base) {
          accepted = true;
          break;
        }
        scale *= 0.5;
      }
      if (!accepted) break;  // numerically converged
      double max_step = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        max_step = std::max(max_step, std::abs(x[i] - candidate[i]));
        x[i] = candidate[i];
      }
      if (max_step < 1e-12) break;
    }
  };

  const auto consensus = detail::run_consensus_admm_loop(
      comm, dim, lambda, options, x_update,
      /*setup_flops=*/0,
      /*per_iteration_flops=*/newton_steps *
          (2 * n * dim + dim * dim * dim / 3),
      /*warm_start=*/nullptr,
      /*n_unpenalized_tail=*/1);

  DistributedLogisticResult out;
  out.beta.assign(consensus.beta.begin(), consensus.beta.begin() +
                                              static_cast<std::ptrdiff_t>(p));
  out.intercept = consensus.beta[p];
  out.iterations = consensus.iterations;
  out.converged = consensus.converged;
  out.rho_updates = consensus.rho_updates;
  out.allreduce_calls = consensus.allreduce_calls;
  out.allreduce_bytes = consensus.allreduce_bytes;
  out.consensus_rounds = consensus.consensus_rounds;
  return out;
}

}  // namespace uoi::solvers
