#pragma once
// Sparse and structured LASSO-ADMM variants for the UoI_VAR problem.
//
// The vectorized VAR design matrix I (x) X is block diagonal with sparsity
// 1 - 1/p (paper §IV-B1). Two solvers exploit this:
//
//  * SparseLassoAdmmSolver — generic CSR path (what the paper's Sparse
//    Eigen C++ implementation does): the x-update linear system is solved
//    with a dense Cholesky of the Gram matrix when the column count is
//    small, otherwise matrix-free conjugate gradients on (A'A + rho I).
//
//  * KronLassoAdmmSolver — structure-aware path: because
//    (I (x) X)'(I (x) X) = I (x) (X'X), ONE dp x dp Cholesky factorization
//    serves all p diagonal blocks, which a CholeskyBatch solves eight at a
//    time with the factor broadcast to every lane. This is the "local
//    computation + communication-avoiding" design the paper's Discussion
//    proposes; the ablation bench quantifies its advantage.

#include <memory>
#include <span>

#include "linalg/cholesky.hpp"
#include "linalg/kron.hpp"
#include "linalg/sparse.hpp"
#include "solvers/admm_lasso.hpp"

namespace uoi::solvers {

/// LASSO-ADMM on a CSR matrix.
class SparseLassoAdmmSolver {
 public:
  /// `dense_gram_max_cols`: above this column count the x-update switches
  /// from Cholesky-of-Gram to matrix-free CG.
  SparseLassoAdmmSolver(const uoi::linalg::SparseMatrix& a,
                        std::span<const double> b,
                        const AdmmOptions& options = {},
                        std::size_t dense_gram_max_cols = 4096);
  ~SparseLassoAdmmSolver();
  SparseLassoAdmmSolver(SparseLassoAdmmSolver&&) = default;

  [[nodiscard]] AdmmResult solve(double lambda,
                                 const AdmmResult* warm_start = nullptr) const;

 private:
  const uoi::linalg::SparseMatrix& a_;
  std::span<const double> b_;
  AdmmOptions options_;
  uoi::linalg::Vector atb_;
  std::unique_ptr<uoi::linalg::Matrix> gram_;            // null => CG path
  std::unique_ptr<uoi::linalg::CholeskyFactor> factor_;  // null => CG path
  std::uint64_t setup_flops_ = 0;
};

/// LASSO-ADMM where the design matrix is I_count (x) X, never materialized.
class KronLassoAdmmSolver {
 public:
  KronLassoAdmmSolver(const uoi::linalg::KroneckerIdentityOp& op,
                      std::span<const double> b,
                      const AdmmOptions& options = {});
  ~KronLassoAdmmSolver();
  KronLassoAdmmSolver(KronLassoAdmmSolver&&) = default;

  [[nodiscard]] AdmmResult solve(double lambda,
                                 const AdmmResult* warm_start = nullptr) const;

 private:
  const uoi::linalg::KroneckerIdentityOp& op_;
  std::span<const double> b_;
  AdmmOptions options_;
  uoi::linalg::Vector atb_;
  std::unique_ptr<uoi::linalg::Matrix> block_gram_;  // dp x dp
  /// The dp x dp factor, shared by all blocks.
  std::unique_ptr<uoi::linalg::CholeskyBatch> block_factor_;
  std::uint64_t setup_flops_ = 0;
};

}  // namespace uoi::solvers
