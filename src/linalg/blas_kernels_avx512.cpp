// AVX-512 kernel table. One zmm register carries all eight lanes of the
// scalar reference directly (lane l = accumulator s_l); the tail folds
// into lane 0 after the vector loop and the reduction runs the same
// ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) tree, with explicit mul-then-add
// (no FMA), so results are bit-identical to the scalar and AVX2 tables.
// The Cholesky lane kernel holds one system per zmm lane and interleaves
// two lane groups. Compiled with -mavx512f -ffp-contract=off; when the
// toolchain lacks AVX-512 the table aliases the scalar kernels.

#include "linalg/simd_scalar_kernels.hpp"
#include "linalg/simd_tables.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>

#include <cmath>

namespace uoi::linalg::simd::detail {
namespace {

double dot_avx512(const double* x, const double* y, std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    acc = _mm512_add_pd(
        acc, _mm512_mul_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  alignas(64) double s[8];
  _mm512_store_pd(s, acc);
  for (; i < n; ++i) s[0] += x[i] * y[i];
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void axpy_avx512(double alpha, const double* x, double* y, std::size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                             _mm512_mul_pd(va, _mm512_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

double dist2_squared_avx512(const double* x, const double* y, std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    const __m512d d =
        _mm512_sub_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
  }
  alignas(64) double s[8];
  _mm512_store_pd(s, acc);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    s[0] += d * d;
  }
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

double nrm1_avx512(const double* x, std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    acc = _mm512_add_pd(acc, _mm512_abs_pd(_mm512_loadu_pd(x + i)));
  }
  alignas(64) double s[8];
  _mm512_store_pd(s, acc);
  for (; i < n; ++i) s[0] += std::abs(x[i]);
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void gather_avx512(const double* src, const std::size_t* idx, std::size_t n,
                   double* dst) {
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    const __m512i vi =
        _mm512_loadu_si512(reinterpret_cast<const void*>(idx + i));
    // Fully-masked form: the unmasked intrinsic leaves its pass-through
    // operand formally uninitialized, which GCC's header flags.
    _mm512_storeu_pd(dst + i, _mm512_mask_i64gather_pd(_mm512_setzero_pd(),
                                                       0xFF, vi, src, 8));
  }
  for (; i < n; ++i) dst[i] = src[idx[i]];
}

void scatter_avx512(const double* src, const std::size_t* idx, std::size_t n,
                    double* dst) {
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    const __m512i vi =
        _mm512_loadu_si512(reinterpret_cast<const void*>(idx + i));
    _mm512_i64scatter_pd(dst, vi, _mm512_loadu_pd(src + i), 8);
  }
  for (; i < n; ++i) dst[idx[i]] = src[i];
}

/// Factor element at `p` for all eight lanes: one lane-packed vector, or a
/// broadcast of the shared factor's scalar.
template <bool kShared>
__m512d load_factor(const double* p) {
  if constexpr (kShared) {
    return _mm512_set1_pd(*p);
  } else {
    return _mm512_loadu_pd(p);
  }
}

/// One zmm holds element i of a lane group's eight systems, so each scalar
/// step of cholesky_solve8_scalar becomes one vector instruction. Both
/// sweeps are chains of dependent steps, so G lane groups run interleaved
/// to keep G chains in flight; group g's factor starts `lstride` doubles
/// after group g-1's, its vector 8n doubles after.
template <bool kShared, std::size_t G>
void cholesky_solve8_lanes(const double* l, std::size_t lstride,
                           std::size_t n, double* v) {
  constexpr std::size_t ls = kShared ? 1 : 8;
  const std::size_t vs = 8 * n;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = l + packed_row(i) * ls;
    const auto term = [&](std::size_t g, std::size_t j) {
      return _mm512_mul_pd(load_factor<kShared>(row + g * lstride + j * ls),
                           _mm512_loadu_pd(v + g * vs + 8 * j));
    };
    __m512d s[G][8];
#pragma GCC unroll 16
    for (std::size_t g = 0; g < G; ++g) {
#pragma GCC unroll 8
      for (std::size_t a = 0; a < 8; ++a) s[g][a] = _mm512_setzero_pd();
    }
    std::size_t j = 0;
    const std::size_t i8 = i & ~std::size_t{7};
    for (; j < i8; j += 8) {
#pragma GCC unroll 16
      for (std::size_t g = 0; g < G; ++g) {
#pragma GCC unroll 8
        for (std::size_t a = 0; a < 8; ++a) {
          s[g][a] = _mm512_add_pd(s[g][a], term(g, j + a));
        }
      }
    }
    for (; j < i; ++j) {
#pragma GCC unroll 16
      for (std::size_t g = 0; g < G; ++g) {
        s[g][0] = _mm512_add_pd(s[g][0], term(g, j));
      }
    }
#pragma GCC unroll 16
    for (std::size_t g = 0; g < G; ++g) {
      const __m512d partial = _mm512_add_pd(
          _mm512_add_pd(_mm512_add_pd(s[g][0], s[g][1]),
                        _mm512_add_pd(s[g][2], s[g][3])),
          _mm512_add_pd(_mm512_add_pd(s[g][4], s[g][5]),
                        _mm512_add_pd(s[g][6], s[g][7])));
      double* vi = v + g * vs + 8 * i;
      _mm512_storeu_pd(
          vi, _mm512_div_pd(_mm512_sub_pd(_mm512_loadu_pd(vi), partial),
                            load_factor<kShared>(row + g * lstride + i * ls)));
    }
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    __m512d sum[G];
#pragma GCC unroll 16
    for (std::size_t g = 0; g < G; ++g) {
      sum[g] = _mm512_loadu_pd(v + g * vs + 8 * i);
    }
    for (std::size_t k = i + 1; k < n; ++k) {
      const double* lki = l + (packed_row(k) + i) * ls;
#pragma GCC unroll 16
      for (std::size_t g = 0; g < G; ++g) {
        sum[g] = _mm512_sub_pd(
            sum[g], _mm512_mul_pd(load_factor<kShared>(lki + g * lstride),
                                  _mm512_loadu_pd(v + g * vs + 8 * k)));
      }
    }
    const double* lii = l + (packed_row(i) + i) * ls;
#pragma GCC unroll 16
    for (std::size_t g = 0; g < G; ++g) {
      _mm512_storeu_pd(v + g * vs + 8 * i,
                       _mm512_div_pd(sum[g], load_factor<kShared>(
                                                 lii + g * lstride)));
    }
  }
}

template <bool kShared>
void cholesky_solve8_groups(const double* l, std::size_t n,
                            std::size_t groups, double* v) {
  const std::size_t lstride = kShared ? 0 : 8 * packed_row(n);
  std::size_t g = 0;
  for (; g + 2 <= groups; g += 2) {
    cholesky_solve8_lanes<kShared, 2>(l + g * lstride, lstride, n,
                                      v + g * 8 * n);
  }
  if (g < groups) {
    cholesky_solve8_lanes<kShared, 1>(l + g * lstride, lstride, n,
                                      v + g * 8 * n);
  }
}

void cholesky_solve8_avx512(const double* l, std::size_t n,
                            std::size_t groups, bool shared, double* v) {
  if (shared) {
    cholesky_solve8_groups<true>(l, n, groups, v);
  } else {
    cholesky_solve8_groups<false>(l, n, groups, v);
  }
}

}  // namespace

const KernelTable kAvx512Table = {
    &dot_avx512,  &axpy_avx512,   &dist2_squared_avx512,
    &nrm1_avx512, &gather_avx512, &scatter_avx512,
    &cholesky_solve8_avx512,
};
const bool kAvx512Compiled = true;

}  // namespace uoi::linalg::simd::detail

#else  // !__AVX512F__

namespace uoi::linalg::simd::detail {

const KernelTable kAvx512Table = {
    &dot_scalar,  &axpy_scalar,   &dist2_squared_scalar,
    &nrm1_scalar, &gather_scalar, &scatter_scalar,
    &cholesky_solve8_scalar,
};
const bool kAvx512Compiled = false;

}  // namespace uoi::linalg::simd::detail

#endif
