#pragma once
// Reference scalar kernels for the SIMD dispatch layer. These define the
// arithmetic contract every vector variant must reproduce bit-for-bit:
// eight accumulator lanes (lane l sums elements i+l, i stepping by 8), the
// tail folded into lane 0 BEFORE reduction, and the fixed reduction tree
// ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)). Header-inline so the AVX
// translation units can alias these when the toolchain lacks the ISA; the
// definitions are token-identical in every TU, and all kernel TUs (and
// cholesky.cpp, whose one-system sweeps share this arithmetic) build with
// -ffp-contract=off, so any linker-chosen copy computes the same IEEE
// result (no contraction, no reassociation).

#include <cmath>
#include <cstddef>

#include "linalg/simd.hpp"

namespace uoi::linalg::simd::detail {

inline double dot_scalar(const double* x, const double* y, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
    s4 += x[i + 4] * y[i + 4];
    s5 += x[i + 5] * y[i + 5];
    s6 += x[i + 6] * y[i + 6];
    s7 += x[i + 7] * y[i + 7];
  }
  for (; i < n; ++i) s0 += x[i] * y[i];
  return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
}

inline void axpy_scalar(double alpha, const double* x, double* y,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

inline double dist2_squared_scalar(const double* x, const double* y,
                                   std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    const double d0 = x[i] - y[i];
    const double d1 = x[i + 1] - y[i + 1];
    const double d2 = x[i + 2] - y[i + 2];
    const double d3 = x[i + 3] - y[i + 3];
    const double d4 = x[i + 4] - y[i + 4];
    const double d5 = x[i + 5] - y[i + 5];
    const double d6 = x[i + 6] - y[i + 6];
    const double d7 = x[i + 7] - y[i + 7];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
    s4 += d4 * d4;
    s5 += d5 * d5;
    s6 += d6 * d6;
    s7 += d7 * d7;
  }
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    s0 += d * d;
  }
  return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
}

inline double nrm1_scalar(const double* x, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    s0 += std::abs(x[i]);
    s1 += std::abs(x[i + 1]);
    s2 += std::abs(x[i + 2]);
    s3 += std::abs(x[i + 3]);
    s4 += std::abs(x[i + 4]);
    s5 += std::abs(x[i + 5]);
    s6 += std::abs(x[i + 6]);
    s7 += std::abs(x[i + 7]);
  }
  for (; i < n; ++i) s0 += std::abs(x[i]);
  return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
}

inline void gather_scalar(const double* src, const std::size_t* idx,
                          std::size_t n, double* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[idx[i]];
}

inline void scatter_scalar(const double* src, const std::size_t* idx,
                           std::size_t n, double* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[idx[i]] = src[i];
}

/// Both sweeps of one system in place: element (i, j <= i) of its packed
/// factor at f[ls (i(i+1)/2 + j)], element i of its vector at x[xs i].
/// The forward sweep is exactly dot_scalar over row i's first i entries,
/// the backward sweep the serial chain of CholeskyFactor::solve_upper.
inline void cholesky_solve_lane_scalar(const double* f, std::size_t ls,
                                       std::size_t n, double* x,
                                       std::size_t xs) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = f + packed_row(i) * ls;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
    std::size_t j = 0;
    const std::size_t i8 = i & ~std::size_t{7};
    for (; j < i8; j += 8) {
      s0 += row[j * ls] * x[xs * j];
      s1 += row[(j + 1) * ls] * x[xs * (j + 1)];
      s2 += row[(j + 2) * ls] * x[xs * (j + 2)];
      s3 += row[(j + 3) * ls] * x[xs * (j + 3)];
      s4 += row[(j + 4) * ls] * x[xs * (j + 4)];
      s5 += row[(j + 5) * ls] * x[xs * (j + 5)];
      s6 += row[(j + 6) * ls] * x[xs * (j + 6)];
      s7 += row[(j + 7) * ls] * x[xs * (j + 7)];
    }
    for (; j < i; ++j) s0 += row[j * ls] * x[xs * j];
    const double partial = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
    x[xs * i] = (x[xs * i] - partial) / row[i * ls];
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = x[xs * i];
    for (std::size_t k = i + 1; k < n; ++k) {
      sum -= f[(packed_row(k) + i) * ls] * x[xs * k];
    }
    x[xs * i] = sum / f[(packed_row(i) + i) * ls];
  }
}

/// One lane at a time through cholesky_solve_lane_scalar.
inline void cholesky_solve8_scalar(const double* l, std::size_t n,
                                   std::size_t groups, bool shared,
                                   double* v) {
  const std::size_t ls = shared ? 1 : 8;  // stride between factor elements
  const std::size_t lstride = shared ? 0 : 8 * packed_row(n);
  for (std::size_t lane = 0; lane < 8 * groups; ++lane) {
    const std::size_t g = lane / 8;
    cholesky_solve_lane_scalar(l + g * lstride + (shared ? 0 : lane % 8), ls,
                               n, v + g * 8 * n + lane % 8, 8);
  }
}

}  // namespace uoi::linalg::simd::detail
