#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/simd.hpp"

namespace uoi::linalg {

// Level-1 hot loops dispatch through the runtime-selected SIMD kernel
// table (see simd.hpp). All levels implement identical arithmetic — eight
// accumulator lanes, fixed reduction tree, no FMA — so the dispatch choice
// never changes a result bit, only how fast it arrives.

double dot(std::span<const double> x, std::span<const double> y) {
  UOI_CHECK_DIMS(x.size() == y.size(), "dot length mismatch");
  return simd::active_kernels().dot(x.data(), y.data(), x.size());
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  UOI_CHECK_DIMS(x.size() == y.size(), "axpy length mismatch");
  simd::active_kernels().axpy(alpha, x.data(), y.data(), x.size());
}

void scal(double alpha, std::span<double> x) {
  for (auto& v : x) v *= alpha;
}

double nrm2(std::span<const double> x) { return std::sqrt(nrm2_squared(x)); }

double nrm2_squared(std::span<const double> x) { return dot(x, x); }

double dist2(std::span<const double> x, std::span<const double> y) {
  UOI_CHECK_DIMS(x.size() == y.size(), "dist2 length mismatch");
  return std::sqrt(
      simd::active_kernels().dist2_squared(x.data(), y.data(), x.size()));
}

double nrm1(std::span<const double> x) {
  return simd::active_kernels().nrm1(x.data(), x.size());
}

void gather_compact(std::span<const double> src,
                    std::span<const std::size_t> idx, std::span<double> dst) {
  UOI_CHECK_DIMS(idx.size() == dst.size(), "gather_compact length mismatch");
  simd::active_kernels().gather(src.data(), idx.data(), idx.size(),
                                dst.data());
}

void scatter_expand(std::span<const double> src,
                    std::span<const std::size_t> idx, std::span<double> dst) {
  UOI_CHECK_DIMS(idx.size() == src.size(), "scatter_expand length mismatch");
  simd::active_kernels().scatter(src.data(), idx.data(), idx.size(),
                                 dst.data());
}

void gemv(double alpha, ConstMatrixView a, std::span<const double> x,
          double beta, std::span<double> y) {
  UOI_CHECK_DIMS(a.cols() == x.size(), "gemv: A.cols != x.size");
  UOI_CHECK_DIMS(a.rows() == y.size(), "gemv: A.rows != y.size");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double ax = dot(a.row(r), x);
    y[r] = beta * y[r] + alpha * ax;
  }
}

void gemv_transposed(double alpha, ConstMatrixView a, std::span<const double> x,
                     double beta, std::span<double> y) {
  UOI_CHECK_DIMS(a.rows() == x.size(), "gemv_t: A.rows != x.size");
  UOI_CHECK_DIMS(a.cols() == y.size(), "gemv_t: A.cols != y.size");
  if (beta == 0.0) {
    std::fill(y.begin(), y.end(), 0.0);
  } else if (beta != 1.0) {
    scal(beta, y);
  }
  // Row-wise accumulation keeps accesses to A contiguous; each row update
  // is an axpy, so it rides the dispatched kernel.
  const auto& kernels = simd::active_kernels();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double xr = alpha * x[r];
    if (xr == 0.0) continue;
    const auto row = a.row(r);
    kernels.axpy(xr, row.data(), y.data(), row.size());
  }
}

namespace {

// Cache-block sizes tuned for ~32 KB L1 / 1 MB L2 on commodity x86. The
// micro-kernel updates a 4-row strip of C at once.
constexpr std::size_t kBlockM = 64;
constexpr std::size_t kBlockK = 256;
constexpr std::size_t kBlockN = 512;

void gemm_block(double alpha, ConstMatrixView a, ConstMatrixView b, Matrix& c,
                std::size_t m0, std::size_t m1, std::size_t k0, std::size_t k1,
                std::size_t n0, std::size_t n1) {
  for (std::size_t i = m0; i < m1; ++i) {
    const auto arow = a.row(i);
    double* crow = &c(i, 0);
    std::size_t k = k0;
    // Process two k values per iteration to amortize the C row traffic.
    for (; k + 1 < k1; k += 2) {
      const double aik0 = alpha * arow[k];
      const double aik1 = alpha * arow[k + 1];
      const auto brow0 = b.row(k);
      const auto brow1 = b.row(k + 1);
      for (std::size_t j = n0; j < n1; ++j) {
        crow[j] += aik0 * brow0[j] + aik1 * brow1[j];
      }
    }
    for (; k < k1; ++k) {
      const double aik = alpha * arow[k];
      const auto brow = b.row(k);
      for (std::size_t j = n0; j < n1; ++j) crow[j] += aik * brow[j];
    }
  }
}

}  // namespace

void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          Matrix& c) {
  UOI_CHECK_DIMS(a.cols() == b.rows(), "gemm: inner dimensions differ");
  UOI_CHECK_DIMS(c.rows() == a.rows() && c.cols() == b.cols(),
                 "gemm: C has the wrong shape");
  if (beta == 0.0) {
    c.fill(0.0);
  } else if (beta != 1.0) {
    scal(beta, {c.data(), c.size()});
  }
  for (std::size_t k0 = 0; k0 < a.cols(); k0 += kBlockK) {
    const std::size_t k1 = std::min(a.cols(), k0 + kBlockK);
    for (std::size_t m0 = 0; m0 < a.rows(); m0 += kBlockM) {
      const std::size_t m1 = std::min(a.rows(), m0 + kBlockM);
      for (std::size_t n0 = 0; n0 < b.cols(); n0 += kBlockN) {
        const std::size_t n1 = std::min(b.cols(), n0 + kBlockN);
        gemm_block(alpha, a, b, c, m0, m1, k0, k1, n0, n1);
      }
    }
  }
}

namespace {

// Column-block width and k-panel depth for the packed syrk. A packed panel
// is kSyrkIb x kSyrkKb doubles (128 KB), two of which fit in L2; the
// micro-kernel streams both panels contiguously.
constexpr std::size_t kSyrkIb = 64;
constexpr std::size_t kSyrkKb = 256;

/// Packs the transpose of A[k0:k1, i0:i1] into `panel` (row-major,
/// (i1-i0) x (k1-k0)): packed row t is the contiguous k-slice of column
/// i0 + t. This turns the strided column walks of A' A into unit-stride
/// dot products.
void syrk_pack_panel(ConstMatrixView a, std::size_t k0, std::size_t k1,
                     std::size_t i0, std::size_t i1, double* panel) {
  const std::size_t kk = k1 - k0;
  for (std::size_t k = k0; k < k1; ++k) {
    const auto row = a.row(k);
    double* col = panel + (k - k0);
    for (std::size_t i = i0; i < i1; ++i) {
      col[(i - i0) * kk] = row[i];
    }
  }
}

/// C[i0:i1, j0:j1] += alpha * Pi Pj' for packed panels Pi ((i1-i0) x kk)
/// and Pj ((j1-j0) x kk). Each output is one unit-stride dot over the
/// packed rows, routed through the dispatched SIMD kernel so the Gram
/// build vectorizes to the runtime ISA while staying bit-identical to the
/// scalar path (every level shares the dot arithmetic contract).
void syrk_block(double alpha, const double* pi, std::size_t ilen,
                const double* pj, std::size_t jlen, std::size_t kk,
                double* c, std::size_t ldc, std::size_t ci0,
                std::size_t cj0) {
  const auto& kernels = simd::active_kernels();
  for (std::size_t i = 0; i < ilen; ++i) {
    const double* ai = pi + i * kk;
    double* ci = c + (ci0 + i) * ldc + cj0;
    for (std::size_t j = 0; j < jlen; ++j) {
      ci[j] += alpha * kernels.dot(ai, pj + j * kk, kk);
    }
  }
}

/// Diagonal block of the syrk: only j >= i contributes; the strict lower
/// part of the block is filled by the final mirror pass.
void syrk_diag_block(double alpha, const double* p, std::size_t ilen,
                     std::size_t kk, double* c, std::size_t ldc,
                     std::size_t c0) {
  const auto& kernels = simd::active_kernels();
  for (std::size_t i = 0; i < ilen; ++i) {
    const double* ai = p + i * kk;
    double* ci = c + (c0 + i) * ldc + c0;
    for (std::size_t j = i; j < ilen; ++j) {
      ci[j] += alpha * kernels.dot(ai, p + j * kk, kk);
    }
  }
}

}  // namespace

void syrk_at_a(double alpha, ConstMatrixView a, double beta, Matrix& c) {
  const std::size_t n = a.cols();
  UOI_CHECK_DIMS(c.rows() == n && c.cols() == n, "syrk: C has the wrong shape");
  if (beta == 0.0) {
    c.fill(0.0);
  } else if (beta != 1.0) {
    scal(beta, {c.data(), c.size()});
  }
  // Cache-blocked packed Gram: for each k-panel of rows of A, pack the
  // transposed column blocks so the micro-kernel runs on unit-stride data
  // (the old rank-1 row sweep walked all n^2/2 entries of C per row of A
  // and thrashed for large n). Upper block triangle only, mirrored below.
  // Panels are sized to the problem, not the block caps: a small Gram
  // (a bootstrap's p x p on the lasso Gram path) would otherwise zero
  // 256 KB of packing space per call.
  const std::size_t panel =
      std::min(kSyrkIb, n) * std::min(kSyrkKb, a.rows());
  std::vector<double> pack_i(panel);
  std::vector<double> pack_j(n > kSyrkIb ? panel : 0);
  const std::size_t ldc = c.cols();
  for (std::size_t k0 = 0; k0 < a.rows(); k0 += kSyrkKb) {
    const std::size_t k1 = std::min(a.rows(), k0 + kSyrkKb);
    const std::size_t kk = k1 - k0;
    for (std::size_t i0 = 0; i0 < n; i0 += kSyrkIb) {
      const std::size_t i1 = std::min(n, i0 + kSyrkIb);
      syrk_pack_panel(a, k0, k1, i0, i1, pack_i.data());
      syrk_diag_block(alpha, pack_i.data(), i1 - i0, kk, c.data(), ldc, i0);
      for (std::size_t j0 = i1; j0 < n; j0 += kSyrkIb) {
        const std::size_t j1 = std::min(n, j0 + kSyrkIb);
        syrk_pack_panel(a, k0, k1, j0, j1, pack_j.data());
        syrk_block(alpha, pack_i.data(), i1 - i0, pack_j.data(), j1 - j0, kk,
                   c.data(), ldc, i0, j0);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) c(i, j) = c(j, i);
  }
}

void gemm_at_b(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
               Matrix& c) {
  UOI_CHECK_DIMS(a.rows() == b.rows(), "gemm_at_b: row counts differ");
  UOI_CHECK_DIMS(c.rows() == a.cols() && c.cols() == b.cols(),
                 "gemm_at_b: C has the wrong shape");
  if (beta == 0.0) {
    c.fill(0.0);
  } else if (beta != 1.0) {
    scal(beta, {c.data(), c.size()});
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto arow = a.row(r);
    const auto brow = b.row(r);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double air = alpha * arow[i];
      if (air == 0.0) continue;
      double* ci = &c(i, 0);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += air * brow[j];
    }
  }
}

}  // namespace uoi::linalg
