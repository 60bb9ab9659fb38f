#pragma once
// Shared ADMM iteration loop (internal). The dense, sparse, structured, and
// distributed solvers differ only in how the x-update linear system
// (A'A + rho I) x = q is solved; everything else — over-relaxation, the
// z/u updates, Boyd's §3.3 stopping test, and §3.4.1 residual-balancing
// adaptation of rho — lives here once.

#include <cmath>
#include <cstdint>
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

/// One system's ADMM iterate, advanced one iteration at a time: the
/// per-iteration body of run_admm_loop, written once, so the lone loop
/// below and the lane-batched walk (walk_gram_chains) step systems
/// through the same arithmetic. The caller owns the x-update: form_rhs()
/// writes q, the caller solves (A'A + rho() I) x = q, and advance(x) runs
/// the over-relaxation, the z/u updates, the stopping test and the rho
/// rule. `l2_penalty` > 0 turns the LASSO z-update into the elastic-net
/// prox (lambda |z|_1 + l2/2 |z|_2^2).
class AdmmIterate {
 public:
  AdmmIterate(std::size_t p, double lambda, double l2_penalty,
              const AdmmOptions& options, const AdmmResult* warm_start,
              std::uint64_t setup_flops)
      : options_(&options), lambda_(lambda), l2_penalty_(l2_penalty),
        rho_(options.rho), sqrt_p_(std::sqrt(static_cast<double>(p))),
        z_(p, 0.0), u_(p, 0.0) {
    UOI_CHECK(lambda >= 0.0, "lambda must be non-negative");
    UOI_CHECK(l2_penalty >= 0.0, "l2 penalty must be non-negative");
    UOI_CHECK(options.rho > 0.0, "rho must be positive");
    if (warm_start != nullptr && warm_start->beta.size() == p) {
      z_ = warm_start->beta;
    }
    result_.flops = setup_flops;
  }

  /// Whether another iteration is due: not converged, budget left.
  [[nodiscard]] bool running() const noexcept {
    return !result_.converged &&
           result_.iterations < options_->max_iterations;
  }
  /// The rho the next x-update must solve at.
  [[nodiscard]] double rho() const noexcept { return rho_; }

  /// q = A'b + rho (z - u): the x-update's right-hand side.
  void form_rhs(std::span<const double> atb, std::span<double> q) const {
    for (std::size_t i = 0; i < z_.size(); ++i) {
      q[i] = atb[i] + rho_ * (z_[i] - u_[i]);
    }
  }

  /// Everything after the x-update wrote x, charging its FLOPs.
  void advance(std::span<const double> x, std::uint64_t x_update_flops) {
    const std::size_t p = z_.size();
    const double relax = options_->alpha;
    result_.flops += x_update_flops;
    // One pass: each coordinate's over-relaxation, z/u update and residual
    // terms, the residual sums accumulated in coordinate order.
    double r_norm_sq = 0.0, s_norm_sq = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      const double z_old = z_[i];
      const double x_hat = relax * x[i] + (1.0 - relax) * z_old;
      const double z =
          elastic_net_prox(x_hat + u_[i], lambda_, l2_penalty_, rho_);
      z_[i] = z;
      u_[i] += x_hat - z;
      const double r = x[i] - z;
      const double s = rho_ * (z - z_old);
      r_norm_sq += r * r;
      s_norm_sq += s * s;
    }
    const double eps_pri =
        sqrt_p_ * options_->eps_abs +
        options_->eps_rel *
            std::max(uoi::linalg::nrm2(x), uoi::linalg::nrm2(z_));
    const double eps_dual = sqrt_p_ * options_->eps_abs +
                            options_->eps_rel * rho_ * uoi::linalg::nrm2(u_);
    result_.primal_residual = std::sqrt(r_norm_sq);
    result_.dual_residual = std::sqrt(s_norm_sq);
    const std::size_t iter = result_.iterations++;
    if (result_.primal_residual <= eps_pri &&
        result_.dual_residual <= eps_dual) {
      result_.converged = true;
      return;
    }

    const double factor =
        rho_rescale_factor(*options_, iter, result_.rho_updates,
                           result_.primal_residual, result_.dual_residual);
    if (factor != 1.0) {
      rho_ *= factor;
      for (auto& v : u_) v /= factor;  // u is the scaled dual y / rho
      ++result_.rho_updates;
    }
  }

  /// The fit (beta = z) once running() is false; `extra_flops` (x-update
  /// refactorizations) are added to its count.
  [[nodiscard]] AdmmResult finish(std::uint64_t extra_flops = 0) {
    if (!result_.converged && options_->throw_on_nonconvergence) {
      throw uoi::support::ConvergenceError(
          "LASSO-ADMM did not converge within the iteration budget");
    }
    result_.flops += extra_flops;
    result_.beta = std::move(z_);
    return std::move(result_);
  }

 private:
  const AdmmOptions* options_;
  double lambda_;
  double l2_penalty_;
  double rho_;
  double sqrt_p_;
  uoi::linalg::Vector z_, u_;
  AdmmResult result_;
};

/// Runs the ADMM loop. `solve_ls(q, x, rho)` must solve
/// (A'A + rho I) x = q, rebuilding any cached factorization when rho
/// differs from the previous call. `per_iteration_flops` is added to the
/// result's FLOP count each iteration.
template <typename LinearSolve>
AdmmResult run_admm_loop(std::size_t p, double lambda,
                         const AdmmOptions& options,
                         std::span<const double> atb, LinearSolve&& solve_ls,
                         std::uint64_t setup_flops,
                         std::uint64_t per_iteration_flops,
                         const AdmmResult* warm_start,
                         double l2_penalty = 0.0) {
  AdmmIterate iterate(p, lambda, l2_penalty, options, warm_start,
                      setup_flops);
  uoi::linalg::Vector x(p, 0.0), q(p);
  while (iterate.running()) {
    iterate.form_rhs(atb, q);
    solve_ls(std::span<const double>(q), std::span<double>(x),
             iterate.rho());
    iterate.advance(x, per_iteration_flops);
  }
  return iterate.finish();
}

}  // namespace uoi::solvers::detail
