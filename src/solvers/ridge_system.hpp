#pragma once
// Cached solver for the ADMM x-update system (A'A + rho I) x = q.
//
// Split into two stages so the expensive part is reusable:
//   - RidgeGram: the rho-free Gram (A'A at p x p when n >= p, or A A' at
//     n x n on the Woodbury path when n < p). Depends only on the data
//     matrix, i.e. only on the bootstrap resample — shareable across every
//     lambda chain and every adaptive-rho step of that resample.
//   - RidgeSystemSolver: the factor stage. Holds a shared RidgeGram and a
//     Cholesky of (gram + rho I) built with the diagonal-shift
//     factorization, so a rho change refactorizes at O(p^3/3) instead of
//     recomputing the Gram at O(n p^2 + p^3/3).
//
// Shared by the serial and the distributed consensus LASSO-ADMM solvers.
// BlockRidgeSolver composes the two stages for block-diagonal designs,
// solving all tall blocks at once through a CholeskyBatch.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace uoi::solvers {

/// Stage 1: the rho-free Gram of a data matrix. Immutable once built;
/// intended to be held by shared_ptr<const RidgeGram> and reused across
/// factorizations.
class RidgeGram {
 public:
  explicit RidgeGram(uoi::linalg::ConstMatrixView a);

  /// A precomputed p x p Gram A'A (e.g. summed over the ranks of a task
  /// group). Whoever computed it charges its FLOPs, so gram_flops() is 0.
  explicit RidgeGram(uoi::linalg::Matrix gram);

  /// The Gram matrix: A'A (p x p) or, on the Woodbury path, A A' (n x n).
  [[nodiscard]] const uoi::linalg::Matrix& gram() const noexcept {
    return gram_;
  }
  [[nodiscard]] bool woodbury() const noexcept { return woodbury_; }

  /// FLOPs it cost to build the Gram (charged once by whoever built it;
  /// reusers report it as amortized).
  [[nodiscard]] std::uint64_t gram_flops() const noexcept {
    return gram_flops_;
  }

  /// Heap footprint, for the driver-level LRU byte budget.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return gram_.size() * sizeof(double);
  }

 private:
  uoi::linalg::Matrix gram_;
  bool woodbury_;
  std::uint64_t gram_flops_ = 0;
};

/// Stage 2: factorization of (gram + rho I) plus the solve path.
class RidgeSystemSolver {
 public:
  /// Cold start: builds the Gram and factors it.
  RidgeSystemSolver(uoi::linalg::ConstMatrixView a, double rho);

  /// Factor stage only: reuses `gram` (which must have been built from
  /// this same `a`) and charges just the O(dim^3/3) refactorization.
  RidgeSystemSolver(uoi::linalg::ConstMatrixView a, double rho,
                    std::shared_ptr<const RidgeGram> gram);

  /// Factor stage over a p x p Gram alone (no data matrix, so never the
  /// Woodbury path).
  RidgeSystemSolver(double rho, std::shared_ptr<const RidgeGram> gram);

  /// The same system refactored at a new rho from the shared Gram (the
  /// adaptive-rho rebuild).
  [[nodiscard]] std::unique_ptr<RidgeSystemSolver> refactored(
      double rho) const;

  /// Solves (A'A + rho I) x = q. Uses solver-owned scratch on the
  /// Woodbury path, so concurrent solve() calls on one instance are not
  /// safe (each solver instance belongs to one rank).
  void solve(std::span<const double> q, std::span<double> x) const;

  /// FLOPs actually spent by this solver's construction: the
  /// factorization, plus the Gram build iff this solver built it.
  [[nodiscard]] std::uint64_t setup_flops() const noexcept {
    return setup_flops_;
  }
  /// FLOPs this solver reused from a shared Gram instead of spending
  /// (zero on a cold start). setup + amortized = what a cold start costs.
  [[nodiscard]] std::uint64_t amortized_setup_flops() const noexcept {
    return amortized_setup_flops_;
  }
  /// FLOPs of one solve() call.
  [[nodiscard]] std::uint64_t solve_flops() const noexcept;

  [[nodiscard]] bool uses_woodbury() const noexcept {
    return gram_->woodbury();
  }

  /// The shared rho-free Gram — hand this to the factor-stage constructor
  /// to rebuild at a new rho without recomputing the Gram.
  [[nodiscard]] const std::shared_ptr<const RidgeGram>& gram() const noexcept {
    return gram_;
  }

 private:
  void factor();

  uoi::linalg::ConstMatrixView a_;  ///< empty for a Gram-only system
  double rho_;
  std::shared_ptr<const RidgeGram> gram_;
  std::unique_ptr<uoi::linalg::CholeskyFactor> factor_;
  std::uint64_t setup_flops_ = 0;
  std::uint64_t amortized_setup_flops_ = 0;
  // Woodbury solve scratch (aq, t: n; att: p), hoisted out of the
  // per-ADMM-iteration solve() call.
  mutable uoi::linalg::Vector aq_;
  mutable uoi::linalg::Vector t_;
  mutable uoi::linalg::Vector att_;
};

/// The x-update of a block-diagonal design such as UoI_VAR's I (x) X:
/// independent systems (A_k'A_k + rho I) x_k = q_k on disjoint slices of
/// one vector. Tall blocks (rows >= cols) are solved together by one
/// lane-packed CholeskyBatch; wide blocks take the Woodbury path of a
/// per-block RidgeSystemSolver. Every result is bit-identical to a
/// per-block RidgeSystemSolver.
class BlockRidgeSolver {
 public:
  struct Block {
    uoi::linalg::ConstMatrixView a;
    std::size_t offset;  ///< the block's slice is [offset, offset + a.cols())
  };

  /// Cold start: builds every block's Gram and factors at rho. Wide
  /// blocks' views must outlive the solver.
  BlockRidgeSolver(std::span<const Block> blocks, double rho);

  /// Factor stage: `cached`'s blocks at a new rho, refactored from its
  /// Grams (the adaptive-rho rebuild).
  BlockRidgeSolver(const BlockRidgeSolver& cached, double rho);

  /// Solves every block's system; coordinates outside the blocks are left
  /// untouched. Not safe to call concurrently on one instance.
  void solve(std::span<const double> q, std::span<double> x) const;

  /// FLOPs this solver's construction spent: the factorizations, plus the
  /// Grams on a cold start.
  [[nodiscard]] std::uint64_t setup_flops() const noexcept {
    return setup_flops_;
  }
  /// FLOPs of one solve() call.
  [[nodiscard]] std::uint64_t solve_flops() const noexcept;

 private:
  struct TallBlock {
    std::shared_ptr<const RidgeGram> gram;
    std::size_t offset;
  };
  struct WideBlock {
    uoi::linalg::ConstMatrixView a;
    std::size_t offset;
    std::unique_ptr<RidgeSystemSolver> solver;
  };
  void factor_tall(double rho);

  std::vector<TallBlock> tall_;
  std::vector<WideBlock> wide_;
  std::optional<uoi::linalg::CholeskyBatch> batch_;  // set by factor_tall
  std::uint64_t setup_flops_ = 0;
};

}  // namespace uoi::solvers
