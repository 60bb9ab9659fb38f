#pragma once
// Cholesky factorization and triangular solves.
//
// LASSO-ADMM's x-update solves (X'X + rho I) x = q every iteration with a
// factorization computed once per (bootstrap, lambda) task — exactly the
// "triangular solve function used by LASSO-ADMM for matrix decomposition"
// the paper profiles (0.011 GFLOPS, AI 0.075: memory bound).
//
// The factorization is blocked right-looking (panel width 64) with a tiled
// multi-accumulator trailing update, so factoring a cached Gram at a new
// rho costs O(n^3/3) on cache-resident tiles instead of a strided sweep.
//
// A single solve is a chain of dependent operations: each forward row
// needs every earlier y, and each backward row is one serial chain of
// subtractions. The UoI_VAR design I (x) X is block diagonal, so its
// x-update is many INDEPENDENT small systems (one per equation), and
// CholeskyBatch runs eight of them at once, one per SIMD lane. Factors
// are packed lane-major in groups of eight — element (i, j) of a group's
// eight factors is eight consecutive doubles — sorted by dimension, with
// each lane padded to its group's largest dimension by identity rows.
// Lane groups go to the kernel in pairs of one padded dimension, so a
// kernel can interleave two chains. Per lane the arithmetic is
// CholeskyFactor::solve's, so a batched solve is bit-identical to solving
// each system on its own (see simd::KernelTable::cholesky_solve8).
//
// The same holds for systems that are not known up front. UoI_VAR's
// selection on the Gram path runs one lasso chain per equation, and the
// chains' ADMM solves run side by side as the lanes of one batch
// (solvers::walk_gram_chains): each lane is refactored on its own when
// its rho or its working set changes, in place while it fits its
// kernel group's padded dimension and by a regroup of every live lane
// otherwise, and it is retired while its chain has no solve running.
// Lane groups of eight with no live lane are skipped, and a kernel group
// down to one live lane solves it as a lone CholeskyFactor would, on a
// contiguous copy of its factor: the kernel's arithmetic for that lane, at
// the lone factor's speed.

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace uoi::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
class CholeskyFactor {
 public:
  /// Factors `a` (which must be SPD). Throws uoi::support::InvalidArgument
  /// if a non-positive pivot is met (matrix not SPD to working precision).
  explicit CholeskyFactor(const Matrix& a);

  /// Factors `a + diagonal_shift * I` without materializing the shifted
  /// matrix: only the lower triangle of `a` is read, so a rho change can
  /// refactor a cached (shift-free) Gram in place at O(n^3/3).
  CholeskyFactor(const Matrix& a, double diagonal_shift);

  [[nodiscard]] std::size_t dim() const noexcept { return l_.rows(); }

  /// The lower-triangular factor L (entries above the diagonal are zero).
  [[nodiscard]] const Matrix& lower() const noexcept { return l_; }

  /// Solves A x = b via L y = b then L' x = y. b and x may alias. Uses a
  /// scratch buffer owned by the factor, so concurrent solve() calls on
  /// one instance are not safe (each solver instance belongs to one rank).
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Solves A X = B column-by-column. B is (dim x k), X is (dim x k).
  void solve_matrix(const Matrix& b, Matrix& x) const;

  /// Forward substitution only: L y = b.
  void solve_lower(std::span<const double> b, std::span<double> y) const;

  /// Backward substitution only: L' x = y.
  void solve_upper(std::span<const double> y, std::span<double> x) const;

 private:
  Matrix l_;
  // Intermediate y of the two-triangle solve; mutable so the per-iteration
  // ADMM solve path stays allocation-free through a const interface.
  mutable std::vector<double> solve_scratch_;
};

/// Independent SPD systems (gram_k + shift I) x_k = b_k on disjoint slices
/// of one concatenated vector, solved eight at a time across SIMD lanes.
/// Holds the only copy of each factor (the per-system CholeskyFactor is
/// packed and dropped), at about half its square storage.
///
/// A batch can also change while it is used: refactor() gives one system
/// a new factor, and possibly a new dimension, and retire() takes it out
/// of the solves until the next refactor().
class CholeskyBatch {
 public:
  /// System k of the batch: `gram` is factored with the shift, and its
  /// solve owns [offset, offset + gram->rows()) of the solve vectors.
  struct System {
    const Matrix* gram;
    std::size_t offset;
  };

  /// An empty batch, filled by refactor().
  CholeskyBatch() = default;

  /// Factors every system with CholeskyFactor(*gram, diagonal_shift), so
  /// each lane carries exactly the factor a lone CholeskyFactor would.
  CholeskyBatch(std::span<const System> systems, double diagonal_shift);

  /// `count` consecutive blocks of width gram.rows() sharing ONE factor of
  /// gram + diagonal_shift * I (the I (x) X design's x-update): the factor
  /// is stored once and broadcast to every lane.
  CholeskyBatch(const Matrix& gram, double diagonal_shift, std::size_t count);

  /// Gives system k the factor CholeskyFactor(gram, diagonal_shift) and
  /// the slice [offset, offset + gram.rows()), and makes it live (a k past
  /// the last system adds it, and retired systems before it). The factor
  /// is packed in place when its kernel group is at least as wide;
  /// otherwise the batch regroups its live systems by dimension before the
  /// next solve. Not for a shared-factor batch.
  void refactor(std::size_t k, const Matrix& gram, double diagonal_shift,
                std::size_t offset);

  /// refactor() with a factor the caller already holds: system k gets a
  /// copy of `factor` (no factorization, none counted in factor_flops).
  void assign(std::size_t k, const CholeskyFactor& factor,
              std::size_t offset);

  /// Takes system k out of the solves until refactor() gives it a new
  /// factor: solve() leaves its slice untouched.
  void retire(std::size_t k);

  /// FLOPs of the factorizations this batch ran (one per distinct factor).
  [[nodiscard]] std::uint64_t factor_flops() const noexcept {
    return factor_flops_;
  }
  /// FLOPs of one solve(): both sweeps of every live system.
  [[nodiscard]] std::uint64_t solve_flops() const noexcept;

  /// Solves every live system: x[slice_k] = (gram_k + shift I)^{-1}
  /// b[slice_k]. Coordinates outside every live slice are left untouched.
  /// b and x may alias. Uses batch-owned scratch, like
  /// CholeskyFactor::solve, and regroups first if a refactor() asked for it
  /// (so concurrent solve() calls on one batch are not safe).
  void solve(std::span<const double> b, std::span<double> x) const;

  /// solve() through an explicit kernel table (cross-level bitwise tests).
  void solve(std::span<const double> b, std::span<double> x,
             const simd::KernelTable& kernels) const;

 private:
  static constexpr std::size_t kLanes = 8;  ///< systems per lane group
  /// Systems per kernel call: two lane groups of one padded dimension,
  /// which the kernel may interleave to keep two chains in flight.
  static constexpr std::size_t kGroupLanes = 2 * kLanes;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Slot {
    std::size_t offset = 0;
    std::size_t dim = 0;
    bool live = false;
    std::size_t group = kNone;  ///< kernel group holding its factor
    std::size_t lane = 0;
    /// A factor too wide for its kernel group, packed by row (i(i+1)/2 + j)
    /// until the next regroup places it.
    std::vector<double> pending;
    /// Its factor packed by row, copied out of the lanes the first time it
    /// is the one live system of its kernel group; dropped on a new factor.
    std::vector<double> lone;
  };
  struct Group {
    std::size_t n = 0;            ///< padded dimension (largest lane)
    std::size_t packed = 0;       ///< first double of its factors
    std::size_t lane_groups = 0;  ///< lane groups of eight in use
    std::size_t slots[kGroupLanes] = {};  ///< system per lane, kNone if unused
  };
  /// Where lane `lane` of a group starts when each lane group takes
  /// `block` doubles: lanes of one lane group are interleaved.
  static std::size_t lane_base(std::size_t lane, std::size_t block) {
    return lane / kLanes * block + lane % kLanes;
  }
  /// First double of a placed slot's factor in packed_.
  [[nodiscard]] double* lane_factor(const Slot& slot) const;
  /// Groups `order` (slot indices, widest first) in kernel groups of
  /// kGroupLanes and sizes packed_ for them; the factors are not written.
  void lay_out(std::span<const std::size_t> order) const;
  /// Lays the live systems out anew, moving every placed factor and
  /// placing the pending ones.
  void regroup() const;

  bool shared_ = false;
  // The layout: solve() regroups lazily after a refactor() asked for it.
  mutable bool dirty_ = false;
  mutable std::vector<Slot> slots_;
  mutable std::vector<Group> groups_;
  mutable std::vector<double> packed_;
  std::size_t extent_ = 0;  ///< solve vectors must be at least this long
  std::uint64_t factor_flops_ = 0;
  mutable std::vector<double> scratch_;  ///< one group's lanes, n each
};

/// One-shot SPD solve: x = A^{-1} b.
[[nodiscard]] Vector cholesky_solve(const Matrix& a, std::span<const double> b);

}  // namespace uoi::linalg
