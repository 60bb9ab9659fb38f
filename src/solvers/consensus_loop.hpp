#pragma once
// Shared consensus-ADMM loop (internal). The dense distributed solver and
// the block-structured VAR solver differ only in their local x-update; the
// z-update Allreduce, dual update, global stopping test, and the §3.4.1
// residual-balancing rho adaptation live here once.
//
// Communication avoidance (arXiv:1808.06992's reduced-rounds direction):
// fused reductions (AdmmOptions::fused_residual_reduction, default on).
// The 3 residual sums of the previous iteration ride the p-length
// consensus Allreduce as one (p+3)-double payload — one reduction round per
// iteration instead of two. The staged allreduce reduces elementwise in
// rank order, so each scalar slot reduces exactly as the separate 3-double
// reduction would. The verdict is evaluated right after the fused
// reduction, before the z-update, where z still equals the z the pending
// sums were computed against. When the stale verdict triggers a rho
// rescale, the speculative x-update already ran with the pre-rescale
// (rho, u); one redo of the x-update + reduction replays it under the
// rescaled values, keeping the whole trajectory bitwise identical to the
// unfused blocking loop.
//
// rho updates are driven by globally reduced residuals, so every rank
// takes the same branch — no extra communication is needed to stay in
// lock step.

#include <cmath>

#include "linalg/blas.hpp"
#include "simcluster/comm.hpp"
#include "solvers/admm_loop.hpp"  // rho_rescale_factor
#include "solvers/distributed_admm.hpp"
#include "solvers/prox.hpp"
#include "support/error.hpp"

namespace uoi::solvers::detail {

/// Runs the consensus loop on `comm`. `x_update(z, u, x, rho)` must set
/// this rank's local minimizer of
/// (1/2)||A_i x - b_i||^2 + (rho/2)||x - z + u||^2, rebuilding any cached
/// factorization when rho changed since the previous call.
/// `n_unpenalized_tail`: the last k coordinates (e.g. an intercept) are
/// averaged in the z-update without soft-thresholding. `l2_penalty` > 0
/// turns the z-update into the elastic-net prox (ridge component applied
/// to the penalized coordinates only).
template <typename XUpdate>
DistributedAdmmResult run_consensus_admm_loop(
    uoi::sim::Comm& comm, std::size_t p, double lambda,
    const AdmmOptions& options, XUpdate&& x_update,
    std::uint64_t setup_flops, std::uint64_t per_iteration_flops,
    const DistributedAdmmResult* warm_start,
    std::size_t n_unpenalized_tail = 0, double l2_penalty = 0.0) {
  UOI_CHECK(l2_penalty >= 0.0, "l2 penalty must be non-negative");
  UOI_CHECK(lambda >= 0.0, "lambda must be non-negative");
  UOI_CHECK(options.rho > 0.0, "rho must be positive");
  double rho = options.rho;
  const auto n_ranks = static_cast<double>(comm.size());

  uoi::linalg::Vector x(p, 0.0), z(p, 0.0), u(p, 0.0), z_old(p);
  if (warm_start != nullptr && warm_start->beta.size() == p) {
    z = warm_start->beta;
  }

  DistributedAdmmResult result;
  result.local_flops = setup_flops;
  const double sqrt_p = std::sqrt(static_cast<double>(p));
  std::size_t rho_updates = 0;

  const auto account = [&result](std::size_t doubles) {
    ++result.allreduce_calls;
    result.allreduce_bytes += doubles * sizeof(double);
  };

  // Stopping test from globally reduced sums; identical on every rank.
  // Must run while z still equals the z the sums were computed against
  // (the fused harvest evaluates before the z-update). `rho_captured` is the rho in
  // effect when the sums were computed — a rescale between capture and a
  // stale evaluation must not move the eps_dual goalposts.
  const auto check_convergence = [&](const double sums[3], double s_norm,
                                     double rho_captured) {
    const double r_norm = std::sqrt(sums[0]);
    const double z_stack_norm = std::sqrt(n_ranks) * uoi::linalg::nrm2(z);
    const double eps_pri =
        sqrt_p * std::sqrt(n_ranks) * options.eps_abs +
        options.eps_rel * std::max(std::sqrt(sums[1]), z_stack_norm);
    const double eps_dual = sqrt_p * std::sqrt(n_ranks) * options.eps_abs +
                            options.eps_rel * rho_captured *
                                std::sqrt(sums[2]);
    result.primal_residual = r_norm;
    result.dual_residual = s_norm;
    return r_norm <= eps_pri && s_norm <= eps_dual;
  };
  // §3.4.1 residual balancing on the just-evaluated verdict (loop index
  // `iter`). Returns true when rho changed.
  const auto maybe_rescale = [&](std::size_t iter) {
    const double factor =
        rho_rescale_factor(options, iter, rho_updates,
                           result.primal_residual, result.dual_residual);
    if (factor == 1.0) return false;
    rho *= factor;
    for (auto& v : u) v /= factor;
    ++rho_updates;
    return true;
  };
  const auto consensus_z_update = [&](const double* xu_sum) {
    z_old = z;
    const std::size_t penalized = p - n_unpenalized_tail;
    // z = argmin lambda|z|_1 + (l2/2)|z|^2 + sum_i (rho/2)(z - (x_i+u_i))^2
    //   = S(rho * sum_i(x_i+u_i), lambda) / (rho N + l2).
    const double denom = rho * n_ranks + l2_penalty;
    for (std::size_t i = 0; i < penalized; ++i) {
      z[i] = soft_threshold(rho * xu_sum[i], lambda) / denom;
    }
    for (std::size_t i = penalized; i < p; ++i) {
      z[i] = xu_sum[i] / n_ranks;
    }
    for (std::size_t i = 0; i < p; ++i) u[i] += x[i] - z[i];
  };
  // Local residual accumulators for the stopping test (Boyd §7.1 for
  // consensus): r^2, x^2, u^2 sums plus the already-global s_norm.
  const auto local_sums = [&](double sums[3]) {
    sums[0] = sums[1] = sums[2] = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      const double r = x[i] - z[i];
      sums[0] += r * r;
      sums[1] += x[i] * x[i];
      sums[2] += u[i] * u[i];
    }
  };
  const auto dual_s_norm = [&] {
    double s_sq = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      const double dz = z[i] - z_old[i];
      s_sq += dz * dz;
    }
    return rho * std::sqrt(n_ranks) * std::sqrt(s_sq);
  };
  if (options.fused_residual_reduction) {
    // ---- Fused path (default): one (p+3)-double reduction per iteration
    // carrying both the consensus sum and the previous iteration's
    // residual sums.
    uoi::linalg::Vector payload(p + 3, 0.0);
    double pending_local[3] = {0.0, 0.0, 0.0};
    double pending_s_norm = 0.0;
    double pending_rho = rho;
    std::size_t pending_iters = 0;
    bool have_pending = false;
    const auto fused_allreduce = [&] {
      for (std::size_t i = 0; i < p; ++i) payload[i] = x[i] + u[i];
      payload[p] = pending_local[0];
      payload[p + 1] = pending_local[1];
      payload[p + 2] = pending_local[2];
      comm.allreduce(payload, uoi::sim::ReduceOp::kSum);
      account(p + 3);
      ++result.consensus_rounds;
    };

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
      x_update(z, u, x, rho);
      result.local_flops += per_iteration_flops;

      fused_allreduce();
      if (have_pending) {
        // Harvest the stale verdict: z is untouched since the sums were
        // computed, so the test is exact for the iterate it refers to.
        have_pending = false;
        const double sums[3] = {payload[p], payload[p + 1], payload[p + 2]};
        result.iterations = pending_iters;
        if (check_convergence(sums, pending_s_norm, pending_rho)) {
          result.converged = true;
          break;
        }
        if (maybe_rescale(pending_iters - 1)) {
          // The speculative x-update above ran with the pre-rescale
          // (rho, u); the unfused loop applies the rescale *before* this
          // iteration's x-update. Replay it under the rescaled values —
          // the scalar slots ride along unused — so the trajectory stays
          // bitwise identical to the blocking path.
          x_update(z, u, x, rho);
          result.local_flops += per_iteration_flops;
          fused_allreduce();
        }
      }

      consensus_z_update(payload.data());
      local_sums(pending_local);
      pending_s_norm = dual_s_norm();
      pending_rho = rho;
      pending_iters = iter + 1;
      have_pending = true;
      result.iterations = iter + 1;
    }
    if (!result.converged && have_pending) {
      // Flush: the final iteration's sums never rode a payload.
      double sums[3] = {pending_local[0], pending_local[1], pending_local[2]};
      comm.allreduce(std::span<double>(sums, 3), uoi::sim::ReduceOp::kSum);
      account(3);
      result.iterations = pending_iters;
      if (check_convergence(sums, pending_s_norm, pending_rho)) {
        result.converged = true;
      } else {
        maybe_rescale(pending_iters - 1);  // parity with the unfused loop
      }
    }
  } else {
    // ---- Unfused blocking path: separate consensus and residual
    // reductions, the reference the fused path is pinned against.
    uoi::linalg::Vector xu_sum(p);
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
      x_update(z, u, x, rho);
      result.local_flops += per_iteration_flops;

      // Consensus z-update: one p-length Allreduce of (x_i + u_i).
      for (std::size_t i = 0; i < p; ++i) xu_sum[i] = x[i] + u[i];
      comm.allreduce(xu_sum, uoi::sim::ReduceOp::kSum);
      account(p);
      ++result.consensus_rounds;

      consensus_z_update(xu_sum.data());

      double sums[3];
      local_sums(sums);
      const double s_norm = dual_s_norm();
      result.iterations = iter + 1;
      comm.allreduce(std::span<double>(sums, 3), uoi::sim::ReduceOp::kSum);
      account(3);
      if (check_convergence(sums, s_norm, rho)) {
        result.converged = true;
        break;
      }
      maybe_rescale(iter);
    }
  }

  if (!result.converged && options.throw_on_nonconvergence) {
    throw uoi::support::ConvergenceError(
        "consensus LASSO-ADMM did not converge within the iteration budget");
  }
  result.rho_updates = rho_updates;
  result.beta = std::move(z);
  return result;
}

}  // namespace uoi::solvers::detail
