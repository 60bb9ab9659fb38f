#include "solvers/admm_lasso_sparse.hpp"

#include <cmath>

#include "linalg/blas.hpp"
#include "solvers/admm_loop.hpp"
#include "support/error.hpp"

namespace uoi::solvers {

using uoi::linalg::CholeskyBatch;
using uoi::linalg::CholeskyFactor;
using uoi::linalg::KroneckerIdentityOp;
using uoi::linalg::Matrix;
using uoi::linalg::SparseMatrix;
using uoi::linalg::Vector;

namespace {

/// Matrix-free conjugate gradients on (A'A + rho I) x = q.
std::size_t conjugate_gradient(const SparseMatrix& a, double rho,
                               std::span<const double> q, std::span<double> x,
                               double tolerance, std::size_t max_iterations) {
  const std::size_t p = a.cols();
  const std::size_t n = a.rows();
  Vector r(q.begin(), q.end());  // r = q - M x, with x starting at 0
  std::fill(x.begin(), x.end(), 0.0);
  Vector d(r), md(p), ad(n, 0.0);
  double rs_old = uoi::linalg::nrm2_squared(r);
  const double threshold = tolerance * tolerance * std::max(rs_old, 1e-300);
  std::size_t iterations = 0;
  for (; iterations < max_iterations && rs_old > threshold; ++iterations) {
    a.gemv(1.0, d, 0.0, ad);
    a.gemv_transposed(1.0, ad, 0.0, md);
    uoi::linalg::axpy(rho, d, md);
    const double dmd = uoi::linalg::dot(d, md);
    UOI_CHECK(dmd > 0.0, "CG: operator is not positive definite");
    const double step = rs_old / dmd;
    uoi::linalg::axpy(step, d, x);
    uoi::linalg::axpy(-step, md, r);
    const double rs_new = uoi::linalg::nrm2_squared(r);
    const double ratio = rs_new / rs_old;
    for (std::size_t i = 0; i < p; ++i) d[i] = r[i] + ratio * d[i];
    rs_old = rs_new;
  }
  return iterations;
}

}  // namespace

SparseLassoAdmmSolver::SparseLassoAdmmSolver(const SparseMatrix& a,
                                             std::span<const double> b,
                                             const AdmmOptions& options,
                                             std::size_t dense_gram_max_cols)
    : a_(a), b_(b), options_(options) {
  UOI_CHECK_DIMS(a.rows() == b.size(), "sparse LASSO: A rows != b size");
  UOI_CHECK(a.rows() > 0 && a.cols() > 0, "sparse LASSO: empty problem");

  const std::size_t p = a.cols();
  atb_.assign(p, 0.0);
  a.gemv_transposed(1.0, b, 0.0, atb_);
  setup_flops_ += 2 * a.nnz();

  if (p <= dense_gram_max_cols) {
    gram_ = std::make_unique<Matrix>(a.gram());
    factor_ = std::make_unique<CholeskyFactor>(*gram_, options_.rho);
    setup_flops_ += uoi::linalg::cholesky_flops(p);
  }
  // else: matrix-free CG per x-update (factor_ stays null).
}

SparseLassoAdmmSolver::~SparseLassoAdmmSolver() = default;

AdmmResult SparseLassoAdmmSolver::solve(double lambda,
                                        const AdmmResult* warm_start) const {
  const std::size_t p = a_.cols();
  const std::uint64_t per_iteration_flops =
      factor_ != nullptr ? 2 * uoi::linalg::trsv_flops(p) : 8 * a_.nnz();
  std::unique_ptr<CholeskyFactor> rebuilt;
  double current_rho = options_.rho;
  std::uint64_t refactor_flops = 0;
  auto result = detail::run_admm_loop(
      p, lambda, options_, atb_,
      [&](std::span<const double> q, std::span<double> x, double rho) {
        if (factor_ == nullptr) {
          // CG needs no factorization; rho enters the operator directly.
          conjugate_gradient(a_, rho, q, x, options_.eps_rel * 1e-2,
                             /*max_iterations=*/10 * a_.cols());
          return;
        }
        if (rho != current_rho) {
          rebuilt = std::make_unique<CholeskyFactor>(*gram_, rho);
          refactor_flops += uoi::linalg::cholesky_flops(p);
          current_rho = rho;
        }
        (rebuilt ? *rebuilt : *factor_).solve(q, x);
      },
      setup_flops_, per_iteration_flops, warm_start);
  result.flops += refactor_flops;
  return result;
}

KronLassoAdmmSolver::KronLassoAdmmSolver(const KroneckerIdentityOp& op,
                                         std::span<const double> b,
                                         const AdmmOptions& options)
    : op_(op), b_(b), options_(options) {
  UOI_CHECK_DIMS(op.rows() == b.size(), "kron LASSO: op rows != b size");
  const std::size_t p = op.cols();
  atb_.assign(p, 0.0);
  op.gemv_transposed(1.0, b, 0.0, atb_);

  // One small factorization serves every diagonal block:
  // (I (x) X)'(I (x) X) + rho I = I (x) (X'X + rho I).
  block_gram_ = std::make_unique<Matrix>(op.block_gram());
  block_factor_ = std::make_unique<CholeskyBatch>(*block_gram_, options_.rho,
                                                  op.block_count());
  setup_flops_ +=
      uoi::linalg::gemm_flops(block_gram_->rows(), op.block().rows(),
                              block_gram_->rows()) /
          2 +
      block_factor_->factor_flops();
}

KronLassoAdmmSolver::~KronLassoAdmmSolver() = default;

AdmmResult KronLassoAdmmSolver::solve(double lambda,
                                      const AdmmResult* warm_start) const {
  std::unique_ptr<CholeskyBatch> rebuilt;
  double current_rho = options_.rho;
  std::uint64_t refactor_flops = 0;
  auto result = detail::run_admm_loop(
      op_.cols(), lambda, options_, atb_,
      [&](std::span<const double> q, std::span<double> x, double rho) {
        if (rho != current_rho) {
          rebuilt = std::make_unique<CholeskyBatch>(*block_gram_, rho,
                                                    op_.block_count());
          refactor_flops += rebuilt->factor_flops();
          current_rho = rho;
        }
        (rebuilt ? *rebuilt : *block_factor_).solve(q, x);
      },
      setup_flops_, block_factor_->solve_flops(), warm_start);
  result.flops += refactor_flops;
  return result;
}

}  // namespace uoi::solvers
