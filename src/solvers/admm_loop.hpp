#pragma once
// Shared ADMM iteration loop (internal). The dense, sparse, structured, and
// distributed solvers differ only in how the x-update linear system
// (A'A + rho I) x = q is solved; everything else — over-relaxation, the
// z/u updates, Boyd's §3.3 stopping test, and §3.4.1 residual-balancing
// adaptation of rho — lives here once.

#include <cmath>
#include <span>

#include "linalg/blas.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/prox.hpp"
#include "support/error.hpp"

namespace uoi::solvers::detail {

/// Decides the §3.4.1 residual-balancing update. Returns the factor to
/// multiply rho by (1.0 = unchanged).
inline double rho_rescale_factor(const AdmmOptions& options, std::size_t iter,
                                 std::size_t updates_done, double r_norm,
                                 double s_norm) {
  if (!options.adaptive_rho || updates_done >= options.max_rho_updates ||
      options.rho_update_interval == 0 ||
      (iter + 1) % options.rho_update_interval != 0) {
    return 1.0;
  }
  if (r_norm > options.rho_mu * s_norm) return options.rho_tau;
  if (s_norm > options.rho_mu * r_norm) return 1.0 / options.rho_tau;
  return 1.0;
}

/// Runs the ADMM loop. `solve_ls(q, x, rho)` must solve
/// (A'A + rho I) x = q, rebuilding any cached factorization when rho
/// differs from the previous call. `per_iteration_flops` is added to the
/// result's FLOP count each iteration. `l2_penalty` > 0 turns the LASSO
/// z-update into the elastic-net prox (lambda |z|_1 + l2/2 |z|_2^2).
template <typename LinearSolve>
AdmmResult run_admm_loop(std::size_t p, double lambda,
                         const AdmmOptions& options,
                         std::span<const double> atb, LinearSolve&& solve_ls,
                         std::uint64_t setup_flops,
                         std::uint64_t per_iteration_flops,
                         const AdmmResult* warm_start,
                         double l2_penalty = 0.0) {
  UOI_CHECK(lambda >= 0.0, "lambda must be non-negative");
  UOI_CHECK(l2_penalty >= 0.0, "l2 penalty must be non-negative");
  UOI_CHECK(options.rho > 0.0, "rho must be positive");
  double rho = options.rho;
  const double relax = options.alpha;

  uoi::linalg::Vector x(p, 0.0), z(p, 0.0), u(p, 0.0), z_old(p), q(p),
      x_hat(p);
  if (warm_start != nullptr && warm_start->beta.size() == p) {
    z = warm_start->beta;
  }

  AdmmResult result;
  result.flops = setup_flops;
  const double sqrt_p = std::sqrt(static_cast<double>(p));
  std::size_t rho_updates = 0;

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    for (std::size_t i = 0; i < p; ++i) q[i] = atb[i] + rho * (z[i] - u[i]);
    solve_ls(std::span<const double>(q), std::span<double>(x), rho);
    result.flops += per_iteration_flops;

    z_old = z;
    for (std::size_t i = 0; i < p; ++i) {
      x_hat[i] = relax * x[i] + (1.0 - relax) * z_old[i];
      z[i] = elastic_net_prox(x_hat[i] + u[i], lambda, l2_penalty, rho);
    }
    for (std::size_t i = 0; i < p; ++i) u[i] += x_hat[i] - z[i];

    double r_norm_sq = 0.0, s_norm_sq = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      const double r = x[i] - z[i];
      const double s = rho * (z[i] - z_old[i]);
      r_norm_sq += r * r;
      s_norm_sq += s * s;
    }
    const double eps_pri =
        sqrt_p * options.eps_abs +
        options.eps_rel *
            std::max(uoi::linalg::nrm2(x), uoi::linalg::nrm2(z));
    const double eps_dual = sqrt_p * options.eps_abs +
                            options.eps_rel * rho * uoi::linalg::nrm2(u);
    result.primal_residual = std::sqrt(r_norm_sq);
    result.dual_residual = std::sqrt(s_norm_sq);
    result.iterations = iter + 1;
    if (result.primal_residual <= eps_pri &&
        result.dual_residual <= eps_dual) {
      result.converged = true;
      break;
    }

    const double factor =
        rho_rescale_factor(options, iter, rho_updates,
                           result.primal_residual, result.dual_residual);
    if (factor != 1.0) {
      rho *= factor;
      for (auto& v : u) v /= factor;  // u is the scaled dual y / rho
      ++rho_updates;
    }
  }
  result.rho_updates = rho_updates;

  if (!result.converged && options.throw_on_nonconvergence) {
    throw uoi::support::ConvergenceError(
        "LASSO-ADMM did not converge within the iteration budget");
  }
  result.beta = std::move(z);
  return result;
}

}  // namespace uoi::solvers::detail
