// Unit + property tests for uoi::linalg: dense kernels against naive
// references, Cholesky round-trips, sparse CSR semantics, and the
// Kronecker/vectorization identities the VAR rearrangement relies on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "linalg/blas.hpp"
#include "support/error.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kron.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "linalg/sparse.hpp"
#include "support/rng.hpp"

namespace {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::SparseMatrix;
using uoi::linalg::Vector;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  uoi::support::Xoshiro256 rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  }
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  uoi::support::Xoshiro256 rng(seed);
  Vector v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), uoi::support::DimensionMismatch);
}

TEST(Matrix, GatherRowsAndCols) {
  Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const std::vector<std::size_t> rows{2, 0};
  const Matrix gr = m.gather_rows(rows);
  EXPECT_DOUBLE_EQ(gr(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(gr(1, 2), 3.0);
  const std::vector<std::size_t> cols{1};
  const Matrix gc = m.gather_cols(cols);
  EXPECT_EQ(gc.cols(), 1u);
  EXPECT_DOUBLE_EQ(gc(2, 0), 8.0);
}

TEST(Matrix, TransposedRoundTrip) {
  const Matrix m = random_matrix(5, 3, 1);
  EXPECT_EQ(uoi::linalg::max_abs_diff(m.transposed().transposed(), m), 0.0);
}

TEST(Matrix, RowBlockViewsShareData) {
  const Matrix m = random_matrix(6, 4, 2);
  const ConstMatrixView block = m.row_block(2, 3);
  EXPECT_EQ(block.rows(), 3u);
  EXPECT_DOUBLE_EQ(block(0, 1), m(2, 1));
  const Matrix copy = Matrix::from_view(block);
  EXPECT_DOUBLE_EQ(copy(2, 3), m(4, 3));
}

TEST(Blas, DotAxpyNrm) {
  const Vector x{1.0, 2.0, 3.0};
  Vector y{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(uoi::linalg::dot(x, y), 32.0);
  uoi::linalg::axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_DOUBLE_EQ(uoi::linalg::nrm1(x), 6.0);
  EXPECT_DOUBLE_EQ(uoi::linalg::nrm2_squared(x), 14.0);
  EXPECT_NEAR(uoi::linalg::nrm2(x), std::sqrt(14.0), 1e-15);
}

TEST(Blas, Dist2Nrm1AxpyVectorizedPathsMatchNaive) {
  // Lengths straddling the four-accumulator unroll (remainders 0..3).
  for (const std::size_t n : {1u, 5u, 127u, 128u, 130u, 1000u}) {
    const Vector x = random_vector(n, 40 + n);
    const Vector y = random_vector(n, 41 + n);
    double d2 = 0.0, l1 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d2 += (x[i] - y[i]) * (x[i] - y[i]);
      l1 += std::abs(x[i]);
    }
    EXPECT_NEAR(uoi::linalg::dist2(x, y), std::sqrt(d2), 1e-12 * (1.0 + d2));
    EXPECT_NEAR(uoi::linalg::nrm1(x), l1, 1e-12 * (1.0 + l1));
    Vector z = y;
    uoi::linalg::axpy(2.5, x, z);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(z[i], y[i] + 2.5 * x[i]);
    }
  }
}

TEST(Blas, SyrkBlockedCrossesTileBoundaries) {
  // Sizes around the 64-wide panel / 256-deep k blocking of syrk_at_a,
  // including remainders in both dimensions.
  for (const auto [rows, cols] :
       {std::array<std::size_t, 2>{300, 150}, {256, 64}, {257, 65},
        {64, 130}}) {
    const Matrix a = random_matrix(rows, cols, 50 + rows);
    Matrix g(cols, cols);
    uoi::linalg::syrk_at_a(1.0, a, 0.0, g);
    const Matrix expect = naive_gemm(a.transposed(), a);
    EXPECT_LT(uoi::linalg::max_abs_diff(g, expect),
              1e-10 * static_cast<double>(rows))
        << rows << "x" << cols;
    // Symmetry must hold exactly: the lower triangle is mirrored.
    for (std::size_t i = 0; i < cols; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_EQ(g(i, j), g(j, i));
      }
    }
  }
}

TEST(Blas, GemvMatchesNaive) {
  const Matrix a = random_matrix(7, 5, 3);
  const Vector x = random_vector(5, 4);
  Vector y(7, 1.0);
  uoi::linalg::gemv(2.0, a, x, 0.5, y);
  for (std::size_t i = 0; i < 7; ++i) {
    double expect = 0.5;
    for (std::size_t j = 0; j < 5; ++j) expect += 2.0 * a(i, j) * x[j];
    EXPECT_NEAR(y[i], expect, 1e-12);
  }
}

TEST(Blas, GemvTransposedMatchesNaive) {
  const Matrix a = random_matrix(7, 5, 5);
  const Vector x = random_vector(7, 6);
  Vector y(5, 0.0);
  uoi::linalg::gemv_transposed(1.0, a, x, 0.0, y);
  for (std::size_t j = 0; j < 5; ++j) {
    double expect = 0.0;
    for (std::size_t i = 0; i < 7; ++i) expect += a(i, j) * x[i];
    EXPECT_NEAR(y[j], expect, 1e-12);
  }
}

TEST(Blas, GemmMatchesNaiveAcrossShapes) {
  for (const auto [m, k, n] :
       {std::array<std::size_t, 3>{3, 4, 5}, {1, 7, 2}, {65, 70, 33},
        {128, 300, 17}}) {
    const Matrix a = random_matrix(m, k, m * 100 + k);
    const Matrix b = random_matrix(k, n, n * 100 + k);
    Matrix c(m, n);
    uoi::linalg::gemm(1.0, a, b, 0.0, c);
    EXPECT_LT(uoi::linalg::max_abs_diff(c, naive_gemm(a, b)), 1e-10)
        << "shape " << m << "x" << k << "x" << n;
  }
}

TEST(Blas, GemmAccumulatesWithBeta) {
  const Matrix a = random_matrix(4, 4, 10);
  const Matrix b = random_matrix(4, 4, 11);
  Matrix c(4, 4, 1.0);
  uoi::linalg::gemm(1.0, a, b, 2.0, c);
  const Matrix ab = naive_gemm(a, b);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(c(i, j), ab(i, j) + 2.0, 1e-12);
    }
  }
}

TEST(Blas, SyrkMatchesAtA) {
  const Matrix a = random_matrix(9, 6, 12);
  Matrix g(6, 6);
  uoi::linalg::syrk_at_a(1.0, a, 0.0, g);
  const Matrix expect = naive_gemm(a.transposed(), a);
  EXPECT_LT(uoi::linalg::max_abs_diff(g, expect), 1e-11);
}

TEST(Blas, GemmAtBMatchesNaive) {
  const Matrix a = random_matrix(8, 3, 13);
  const Matrix b = random_matrix(8, 5, 14);
  Matrix c(3, 5);
  uoi::linalg::gemm_at_b(1.0, a, b, 0.0, c);
  EXPECT_LT(uoi::linalg::max_abs_diff(c, naive_gemm(a.transposed(), b)),
            1e-11);
}

TEST(Blas, ShapeMismatchThrows) {
  const Matrix a = random_matrix(3, 4, 15);
  const Matrix b = random_matrix(5, 2, 16);
  Matrix c(3, 2);
  EXPECT_THROW(uoi::linalg::gemm(1.0, a, b, 0.0, c),
               uoi::support::DimensionMismatch);
}

class CholeskyParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskyParam, FactorReconstructsAndSolves) {
  const std::size_t n = GetParam();
  const Matrix a = random_matrix(n + 3, n, 17 + n);
  Matrix spd(n, n);
  uoi::linalg::syrk_at_a(1.0, a, 0.0, spd);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;

  const uoi::linalg::CholeskyFactor factor(spd);
  // L L' == A
  const Matrix l = factor.lower();
  const Matrix reconstructed = naive_gemm(l, l.transposed());
  EXPECT_LT(uoi::linalg::max_abs_diff(reconstructed, spd), 1e-9);

  // Solve check: A x = b.
  const Vector b = random_vector(n, 18 + n);
  Vector x(n);
  factor.solve(b, x);
  Vector ax(n, 0.0);
  uoi::linalg::gemv(1.0, spd, x, 0.0, ax);
  EXPECT_LT(uoi::linalg::max_abs_diff(ax, b), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyParam,
                         ::testing::Values(1, 2, 5, 17, 40, 100, 150));

TEST(Cholesky, RejectsNonSpd) {
  Matrix not_spd{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(uoi::linalg::CholeskyFactor factor(not_spd),
               uoi::support::InvalidArgument);
}

// ---- CholeskyBatch: lane-packed solves against lone CholeskyFactors ----

/// X'X of a random (n + 3) x n matrix: SPD, with a spread of magnitudes.
Matrix random_gram(std::size_t n, std::uint64_t seed) {
  const Matrix a = random_matrix(n + 3, n, seed);
  Matrix gram(n, n);
  uoi::linalg::syrk_at_a(1.0, a, 0.0, gram);
  return gram;
}

bool same_bytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

constexpr uoi::linalg::simd::SimdLevel kAllLevels[] = {
    uoi::linalg::simd::SimdLevel::kScalar, uoi::linalg::simd::SimdLevel::kAvx2,
    uoi::linalg::simd::SimdLevel::kAvx512};

/// Solves every system of `systems` on its own with CholeskyFactor, then
/// checks the batch reproduces those bytes under every kernel level and
/// leaves coordinates outside the slices alone.
void expect_batch_matches_lone_factors(
    std::span<const uoi::linalg::CholeskyBatch::System> systems,
    std::size_t length, double shift, std::uint64_t seed) {
  namespace simd = uoi::linalg::simd;
  const Vector b = random_vector(length, seed);
  const double untouched = -123.25;
  Vector expected(length, untouched);
  std::uint64_t factor_flops = 0;
  for (const auto& sys : systems) {
    const std::size_t n = sys.gram->rows();
    const uoi::linalg::CholeskyFactor factor(*sys.gram, shift);
    factor.solve(std::span<const double>(b).subspan(sys.offset, n),
                 std::span<double>(expected).subspan(sys.offset, n));
    factor_flops += uoi::linalg::cholesky_flops(n);
  }
  const uoi::linalg::CholeskyBatch batch(systems, shift);
  EXPECT_EQ(batch.factor_flops(), factor_flops);
  for (const simd::SimdLevel level : kAllLevels) {
    Vector x(length, untouched);
    batch.solve(b, x, simd::kernel_table(level));
    EXPECT_TRUE(same_bytes(x, expected))
        << simd::simd_level_name(level) << " systems=" << systems.size();
    // b and x may alias.
    Vector inplace = b;
    for (std::size_t i = 0; i < length; ++i) {
      if (expected[i] == untouched) inplace[i] = untouched;
    }
    batch.solve(inplace, inplace, simd::kernel_table(level));
    EXPECT_TRUE(same_bytes(inplace, expected))
        << simd::simd_level_name(level) << " in place";
  }
}

TEST(CholeskyBatch, EqualWidthsMatchLoneFactorsBitwise) {
  for (const std::size_t dim : {1, 7, 8, 9, 50, 64, 65}) {
    for (const std::size_t count : {1, 7, 8, 9, 50}) {
      std::vector<Matrix> grams;
      for (std::size_t k = 0; k < count; ++k) {
        grams.push_back(random_gram(dim, 100 * dim + k));
      }
      std::vector<uoi::linalg::CholeskyBatch::System> systems;
      for (std::size_t k = 0; k < count; ++k) {
        systems.push_back({&grams[k], k * dim});
      }
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " count=" + std::to_string(count));
      expect_batch_matches_lone_factors(systems, count * dim, 0.7,
                                        dim + count);
    }
  }
}

TEST(CholeskyBatch, MixedWidthsWithGapsMatchLoneFactorsBitwise) {
  // Widths from 1 to 65 in scrambled order, so groups mix dimensions and
  // every lane but the widest is padded; a gap after each slice checks
  // that uncovered coordinates stay untouched.
  for (const std::size_t count : {1, 7, 8, 9, 50}) {
    uoi::support::Xoshiro256 rng(900 + count);
    std::vector<Matrix> grams;
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t dim = 1 + rng.uniform_below(65);
      grams.push_back(random_gram(dim, 700 + k));
    }
    std::vector<uoi::linalg::CholeskyBatch::System> systems;
    std::size_t length = 0;
    for (const auto& gram : grams) {
      systems.push_back({&gram, length});
      length += gram.rows() + 2;
    }
    SCOPED_TRACE("count=" + std::to_string(count));
    expect_batch_matches_lone_factors(systems, length, 1.3, count);
  }
}

TEST(CholeskyBatch, SharedFactorMatchesLoneFactorBitwise) {
  namespace simd = uoi::linalg::simd;
  for (const std::size_t dim : {1, 9, 50, 65}) {
    const Matrix gram = random_gram(dim, 40 + dim);
    const uoi::linalg::CholeskyFactor factor(gram, 2.5);
    for (const std::size_t count : {1, 7, 8, 9, 50}) {
      const Vector b = random_vector(count * dim, 50 + count);
      Vector expected(count * dim);
      for (std::size_t k = 0; k < count; ++k) {
        factor.solve(std::span<const double>(b).subspan(k * dim, dim),
                     std::span<double>(expected).subspan(k * dim, dim));
      }
      const uoi::linalg::CholeskyBatch batch(gram, 2.5, count);
      EXPECT_EQ(batch.factor_flops(), uoi::linalg::cholesky_flops(dim));
      EXPECT_EQ(batch.solve_flops(),
                count * 2 * uoi::linalg::trsv_flops(dim));
      for (const simd::SimdLevel level : kAllLevels) {
        Vector x(count * dim, 0.0);
        batch.solve(b, x, simd::kernel_table(level));
        EXPECT_TRUE(same_bytes(x, expected))
            << simd::simd_level_name(level) << " dim=" << dim
            << " count=" << count;
      }
    }
  }
}

TEST(CholeskyBatch, EmptyBatchAndShortVectors) {
  const uoi::linalg::CholeskyBatch empty(
      std::span<const uoi::linalg::CholeskyBatch::System>{}, 1.0);
  Vector none;
  empty.solve(none, none);
  EXPECT_EQ(empty.solve_flops(), 0u);
  const Matrix gram = random_gram(4, 3);
  const uoi::linalg::CholeskyBatch batch(gram, 1.0, 2);
  Vector shorter(7), x(8);
  EXPECT_THROW(batch.solve(shorter, x), uoi::support::DimensionMismatch);
}

TEST(Cholesky, SolveMatrixMultipleRhs) {
  Matrix spd{{4.0, 1.0}, {1.0, 3.0}};
  Matrix b{{1.0, 0.0}, {0.0, 1.0}};
  const uoi::linalg::CholeskyFactor factor(spd);
  Matrix x;
  factor.solve_matrix(b, x);
  // spd * x should equal identity.
  const Matrix prod = naive_gemm(spd, x);
  EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(prod(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(prod(1, 1), 1.0, 1e-12);
}

TEST(Sparse, FromTripletsSumsDuplicates) {
  auto s = SparseMatrix::from_triplets(
      2, 3, {{0, 1, 1.5}, {1, 2, 2.0}, {0, 1, 0.5}});
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(s.at(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(s.at(0, 0), 0.0);
}

TEST(Sparse, FromDenseRoundTrip) {
  Matrix dense{{0.0, 1.0}, {2.0, 0.0}};
  const auto s = SparseMatrix::from_dense(dense);
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_EQ(uoi::linalg::max_abs_diff(s.to_dense(), dense), 0.0);
}

TEST(Sparse, GemvMatchesDense) {
  const Matrix dense = random_matrix(10, 8, 20);
  const auto s = SparseMatrix::from_dense(dense);
  const Vector x = random_vector(8, 21);
  Vector y_sparse(10, 0.0), y_dense(10, 0.0);
  s.gemv(1.0, x, 0.0, y_sparse);
  uoi::linalg::gemv(1.0, dense, x, 0.0, y_dense);
  EXPECT_LT(uoi::linalg::max_abs_diff(y_sparse, y_dense), 1e-12);
}

TEST(Sparse, GemvTransposedMatchesDense) {
  const Matrix dense = random_matrix(10, 8, 22);
  const auto s = SparseMatrix::from_dense(dense);
  const Vector x = random_vector(10, 23);
  Vector y_sparse(8, 0.0), y_dense(8, 0.0);
  s.gemv_transposed(1.0, x, 0.0, y_sparse);
  uoi::linalg::gemv_transposed(1.0, dense, x, 0.0, y_dense);
  EXPECT_LT(uoi::linalg::max_abs_diff(y_sparse, y_dense), 1e-12);
}

TEST(Sparse, GramMatchesDense) {
  const Matrix dense = random_matrix(12, 5, 24);
  const auto s = SparseMatrix::from_dense(dense);
  Matrix expect(5, 5);
  uoi::linalg::syrk_at_a(1.0, dense, 0.0, expect);
  EXPECT_LT(uoi::linalg::max_abs_diff(s.gram(), expect), 1e-11);
}

TEST(Sparse, BlockDiagonalSparsityFormula) {
  // The paper §IV-B1: I (x) X has sparsity exactly 1 - 1/p for dense X.
  const std::size_t p = 16;
  const Matrix x = random_matrix(6, 4, 25);
  const auto s = SparseMatrix::block_diagonal(x, p);
  EXPECT_EQ(s.rows(), 6 * p);
  EXPECT_EQ(s.cols(), 4 * p);
  EXPECT_NEAR(s.sparsity(), 1.0 - 1.0 / static_cast<double>(p), 1e-12);
}

TEST(Sparse, AppendRowStreaming) {
  SparseMatrix s(0, 4);
  const std::vector<std::size_t> cols{1, 3};
  const std::vector<double> vals{2.0, -1.0};
  s.append_row(cols, vals);
  s.append_row({}, {});
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s.at(0, 3), -1.0);
  EXPECT_DOUBLE_EQ(s.at(1, 2), 0.0);
}

TEST(Sparse, EmptyRowsAndZeroNnzEdgeCases) {
  // Rows with no stored entries must overwrite y under beta == 0 even when
  // y starts as NaN (BLAS overwrite semantics), matching gemv_transposed.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto s = SparseMatrix::from_triplets(3, 2, {{1, 0, 2.0}});
  const Vector x{1.5, -1.0};
  Vector y(3, nan);
  s.gemv(1.0, x, 0.0, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);

  // Zero-nnz matrix: both spmv directions, gram, and at() are well defined.
  const SparseMatrix empty(4, 3);
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_DOUBLE_EQ(empty.sparsity(), 1.0);
  Vector ye(4, nan);
  empty.gemv(1.0, Vector(3, 1.0), 0.0, ye);
  for (const double v : ye) EXPECT_DOUBLE_EQ(v, 0.0);
  Vector yt(3, nan);
  empty.gemv_transposed(1.0, Vector(4, 1.0), 0.0, yt);
  for (const double v : yt) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_EQ(uoi::linalg::max_abs_diff(empty.gram(), Matrix(3, 3)), 0.0);
  EXPECT_DOUBLE_EQ(empty.at(3, 2), 0.0);

  // 0 x n and degenerate 0 x 0 shapes round-trip through the kernels.
  const SparseMatrix zero_rows(0, 3);
  Vector yz(3, nan);
  zero_rows.gemv_transposed(1.0, Vector{}, 0.0, yz);
  for (const double v : yz) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_DOUBLE_EQ(SparseMatrix().sparsity(), 0.0);

  // Trailing all-empty rows from triplets keep the row pointers coherent.
  auto trailing = SparseMatrix::from_triplets(5, 2, {{0, 1, 4.0}});
  EXPECT_EQ(trailing.row_offsets().size(), 6u);
  EXPECT_EQ(trailing.row_offsets()[5], 1u);
  EXPECT_DOUBLE_EQ(trailing.at(4, 1), 0.0);
}

TEST(Sparse, AppendRowRejectsDuplicateColumns) {
  SparseMatrix s(0, 4);
  const std::vector<std::size_t> dup{1, 1, 3};
  const std::vector<double> vals{1.0, 2.0, 3.0};
  EXPECT_THROW(s.append_row(dup, vals), uoi::support::InvalidArgument);
  const std::vector<std::size_t> unsorted{3, 1};
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW(s.append_row(unsorted, two), uoi::support::InvalidArgument);
  EXPECT_EQ(s.rows(), 0u);
  EXPECT_EQ(s.nnz(), 0u);
}

TEST(Kron, VecUnvecRoundTrip) {
  const Matrix m = random_matrix(4, 3, 26);
  const Vector v = uoi::linalg::vec(m);
  // Column-major stacking: v[c * rows + r] = m(r, c).
  EXPECT_DOUBLE_EQ(v[0], m(0, 0));
  EXPECT_DOUBLE_EQ(v[4], m(0, 1));
  const Matrix back = uoi::linalg::unvec(v, 4, 3);
  EXPECT_EQ(uoi::linalg::max_abs_diff(back, m), 0.0);
}

TEST(Kron, ImplicitOpMatchesExplicitSparse) {
  const Matrix x = random_matrix(5, 3, 27);
  const std::size_t count = 4;
  const uoi::linalg::KroneckerIdentityOp op(x, count);
  const auto explicit_sparse = uoi::linalg::kron_identity_sparse(x, count);

  const Vector v = random_vector(op.cols(), 28);
  Vector y_op(op.rows(), 0.0), y_sparse(op.rows(), 0.0);
  op.gemv(1.0, v, 0.0, y_op);
  explicit_sparse.gemv(1.0, v, 0.0, y_sparse);
  EXPECT_LT(uoi::linalg::max_abs_diff(y_op, y_sparse), 1e-12);

  const Vector w = random_vector(op.rows(), 29);
  Vector z_op(op.cols(), 0.0), z_sparse(op.cols(), 0.0);
  op.gemv_transposed(1.0, w, 0.0, z_op);
  explicit_sparse.gemv_transposed(1.0, w, 0.0, z_sparse);
  EXPECT_LT(uoi::linalg::max_abs_diff(z_op, z_sparse), 1e-12);
}

TEST(Kron, BlockGramIsXtX) {
  const Matrix x = random_matrix(6, 4, 30);
  const uoi::linalg::KroneckerIdentityOp op(x, 3);
  Matrix expect(4, 4);
  uoi::linalg::syrk_at_a(1.0, x, 0.0, expect);
  EXPECT_LT(uoi::linalg::max_abs_diff(op.block_gram(), expect), 1e-11);
}

// --------------------------------------------------- SIMD kernel dispatch

// Every compiled ISA level must produce bit-identical results: the same 8
// accumulator lanes, tail handling, and reduction tree, with FP contraction
// disabled. Sizes straddle the vector width (tails of every length) and the
// dispatch boundaries (0, 1, below/at/above 8, and a large odd size).
TEST(Simd, KernelsAreBitIdenticalAcrossLevels) {
  namespace simd = uoi::linalg::simd;
  const simd::SimdLevel detected = simd::detect_simd_level();
  const std::vector<std::size_t> sizes{0, 1, 3, 7, 8, 9, 15, 16, 17,
                                       63, 64, 65, 257, 1001};
  for (const std::size_t n : sizes) {
    const Vector x = random_vector(n, 1000 + n);
    const Vector y = random_vector(n, 2000 + n);
    const auto& scalar = simd::kernel_table(simd::SimdLevel::kScalar);
    for (const simd::SimdLevel level :
         {simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512}) {
      if (level > detected || !simd::level_compiled(level)) continue;
      const auto& table = simd::kernel_table(level);
      EXPECT_EQ(scalar.dot(x.data(), y.data(), n),
                table.dot(x.data(), y.data(), n))
          << simd::simd_level_name(level) << " dot n=" << n;
      EXPECT_EQ(scalar.dist2_squared(x.data(), y.data(), n),
                table.dist2_squared(x.data(), y.data(), n))
          << simd::simd_level_name(level) << " dist2 n=" << n;
      EXPECT_EQ(scalar.nrm1(x.data(), n), table.nrm1(x.data(), n))
          << simd::simd_level_name(level) << " nrm1 n=" << n;
      Vector y_scalar = y, y_vec = y;
      scalar.axpy(0.37, x.data(), y_scalar.data(), n);
      table.axpy(0.37, x.data(), y_vec.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(y_scalar[i], y_vec[i])
            << simd::simd_level_name(level) << " axpy n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Simd, GatherScatterRoundTripAcrossLevels) {
  namespace simd = uoi::linalg::simd;
  const simd::SimdLevel detected = simd::detect_simd_level();
  const std::size_t p = 97;
  const Vector full = random_vector(p, 31);
  // A strided working set whose size exercises the vector tail.
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < p; i += 3) idx.push_back(i);
  for (const simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2,
        simd::SimdLevel::kAvx512}) {
    if (level > detected) continue;
    const auto& table = simd::kernel_table(level);
    Vector packed(idx.size(), 0.0);
    table.gather(full.data(), idx.data(), idx.size(), packed.data());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      ASSERT_EQ(packed[i], full[idx[i]])
          << simd::simd_level_name(level) << " gather i=" << i;
    }
    Vector expanded(p, 0.0);
    table.scatter(packed.data(), idx.data(), idx.size(), expanded.data());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      ASSERT_EQ(expanded[idx[i]], full[idx[i]])
          << simd::simd_level_name(level) << " scatter i=" << i;
    }
    // Empty working set: both directions are no-ops.
    table.gather(full.data(), idx.data(), 0, packed.data());
    table.scatter(packed.data(), idx.data(), 0, expanded.data());
  }
}

TEST(Simd, ResolutionIsClampedAndNamed) {
  namespace simd = uoi::linalg::simd;
  EXPECT_LE(simd::resolve_simd_level(), simd::detect_simd_level());
  EXPECT_TRUE(simd::level_compiled(simd::SimdLevel::kScalar));
  EXPECT_STREQ(simd::simd_level_name(simd::SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::simd_level_name(simd::SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd::simd_level_name(simd::SimdLevel::kAvx512), "avx512");
  // The active table is exactly the resolved level's table.
  EXPECT_EQ(&simd::active_kernels(),
            &simd::kernel_table(simd::resolve_simd_level()));
}

}  // namespace
