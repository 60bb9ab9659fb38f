#pragma once
// Dense LASSO via the Alternating Direction Method of Multipliers
// (Boyd et al. 2011, §6.4) — the core solver of UoI_LASSO (paper eq. 5).
//
//   minimize (1/2)||Ax - b||^2 + lambda ||z||_1   s.t.  x - z = 0
//
//   x^{k+1} = (A'A + rho I)^{-1} (A'b + rho (z^k - u^k))
//   z^{k+1} = S_{lambda/rho}(alpha x^{k+1} + (1-alpha) z^k + u^k)
//   u^{k+1} = u^k + alpha x^{k+1} + (1-alpha) z^k - z^{k+1}
//
// The (A'A + rho I) factorization is computed once per problem and cached;
// when n < p the matrix-inversion lemma reduces it to an n x n factorization
// of (A A' + rho I). Setting lambda = 0 turns the solver into the OLS the
// paper uses for model estimation (§II-C).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace uoi::solvers {

/// Stopping / relaxation parameters shared by all ADMM variants.
struct AdmmOptions {
  double rho = 1.0;            ///< initial augmented-Lagrangian penalty
  double alpha = 1.5;          ///< over-relaxation (1.0 disables)
  double eps_abs = 1e-6;       ///< absolute tolerance
  double eps_rel = 1e-4;       ///< relative tolerance
  std::size_t max_iterations = 2000;
  bool throw_on_nonconvergence = false;  ///< else: return best effort

  /// Residual balancing (Boyd §3.4.1): rho is scaled by rho_tau whenever
  /// one residual exceeds rho_mu times the other, every
  /// rho_update_interval iterations (bounded by max_rho_updates). The
  /// scaled dual u is rescaled accordingly and the cached factorization
  /// rebuilt. Greatly reduces iteration counts on poorly scaled problems
  /// (and, for the distributed solvers, the number of Allreduce rounds).
  bool adaptive_rho = true;
  double rho_mu = 10.0;
  double rho_tau = 2.0;
  std::size_t rho_update_interval = 10;
  std::size_t max_rho_updates = 24;

  /// Distributed solvers only: fold the 3-scalar residual reduction into
  /// the p-length consensus Allreduce as one (p+3)-double payload,
  /// halving the reduction rounds per iteration (arXiv:1808.06992's
  /// reduced-communication direction). The stopping verdict is then one
  /// consensus iteration stale; a rho rescale triggers one redo of the
  /// speculative x-update + reduction so the iterate trajectory stays
  /// bitwise identical to the unfused blocking loop.
  bool fused_residual_reduction = true;
};

/// Solver output: the estimate plus convergence diagnostics.
struct AdmmResult {
  uoi::linalg::Vector beta;    ///< the z iterate (sparse by construction)
  std::size_t iterations = 0;
  bool converged = false;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  std::uint64_t flops = 0;     ///< FLOPs spent (for perfmodel calibration)
  std::size_t rho_updates = 0;  ///< §3.4.1 residual-balancing rescales applied
};

/// One-shot solve.
[[nodiscard]] AdmmResult lasso_admm(uoi::linalg::ConstMatrixView a,
                                    std::span<const double> b, double lambda,
                                    const AdmmOptions& options = {});

class RidgeGram;

/// Factorization-caching solver for regularization paths: the expensive
/// (A'A + rho I) factorization is shared across all lambda values on the
/// same data (the inner loop of UoI model selection, Algorithm 1 lines 4-7).
class LassoAdmmSolver {
 public:
  LassoAdmmSolver(uoi::linalg::ConstMatrixView a, std::span<const double> b,
                  const AdmmOptions& options = {});

  /// The same solver over a precomputed p x p Gram A'A and A'b: the lasso
  /// depends on the data only through them. Charges the factorization,
  /// not the Gram.
  LassoAdmmSolver(std::shared_ptr<const RidgeGram> gram,
                  uoi::linalg::Vector atb, const AdmmOptions& options = {});
  ~LassoAdmmSolver();
  LassoAdmmSolver(LassoAdmmSolver&&) = default;
  LassoAdmmSolver& operator=(LassoAdmmSolver&&) = default;

  /// Solves for one lambda; `warm_start` seeds z and u from the previous
  /// solution on the path when non-null.
  [[nodiscard]] AdmmResult solve(double lambda,
                                 const AdmmResult* warm_start = nullptr) const;

  /// Elastic net: (1/2)||Ax - b||^2 + lambda1 ||z||_1 +
  /// (lambda2/2)||z||_2^2. lambda2 = 0 reduces to solve().
  [[nodiscard]] AdmmResult solve_elastic_net(
      double lambda1, double lambda2,
      const AdmmResult* warm_start = nullptr) const;

 private:
  AdmmOptions options_;
  uoi::linalg::Vector atb_;  // A'b
  std::unique_ptr<class RidgeSystemSolver> system_;
  std::uint64_t setup_flops_ = 0;
  // Setup flops not yet charged to a result: the first solve() on this
  // instance consumes them, so a lambda path charges its one-time setup
  // exactly once instead of once per lambda.
  mutable std::uint64_t pending_setup_flops_ = 0;
};

}  // namespace uoi::solvers
