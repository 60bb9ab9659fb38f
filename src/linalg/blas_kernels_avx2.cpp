// AVX2 kernel table. Two ymm accumulators carry the eight lanes of the
// scalar reference (low register = lanes 0-3, high register = lanes 4-7);
// the tail is folded into lane 0 after the vector loop and the reduction
// runs the same ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) tree, all with
// explicit mul-then-add (no FMA), so every result is bit-identical to the
// scalar table. The Cholesky lane kernel carries its eight systems the
// same way, as a (lanes 0-3, lanes 4-7) register pair. Compiled with
// -mavx2 -ffp-contract=off; when the toolchain lacks AVX2 the table
// aliases the scalar kernels.

#include "linalg/simd_scalar_kernels.hpp"
#include "linalg/simd_tables.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include <cmath>

namespace uoi::linalg::simd::detail {
namespace {

double dot_avx2(const double* x, const double* y, std::size_t n) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    lo = _mm256_add_pd(
        lo, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                                         _mm256_loadu_pd(y + i + 4)));
  }
  alignas(32) double s[8];
  _mm256_store_pd(s, lo);
  _mm256_store_pd(s + 4, hi);
  for (; i < n; ++i) s[0] += x[i] * y[i];
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void axpy_avx2(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

double dist2_squared_avx2(const double* x, const double* y, std::size_t n) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4));
    lo = _mm256_add_pd(lo, _mm256_mul_pd(d0, d0));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(d1, d1));
  }
  alignas(32) double s[8];
  _mm256_store_pd(s, lo);
  _mm256_store_pd(s + 4, hi);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    s[0] += d * d;
  }
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

double nrm1_avx2(const double* x, std::size_t n) {
  // |v| by clearing the sign bit — bitwise identical to std::abs(double).
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  std::size_t i = 0;
  const std::size_t n8 = n & ~std::size_t{7};
  for (; i < n8; i += 8) {
    lo = _mm256_add_pd(lo, _mm256_andnot_pd(sign, _mm256_loadu_pd(x + i)));
    hi = _mm256_add_pd(hi, _mm256_andnot_pd(sign, _mm256_loadu_pd(x + i + 4)));
  }
  alignas(32) double s[8];
  _mm256_store_pd(s, lo);
  _mm256_store_pd(s + 4, hi);
  for (; i < n; ++i) s[0] += std::abs(x[i]);
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void gather_avx2(const double* src, const std::size_t* idx, std::size_t n,
                 double* dst) {
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    _mm256_storeu_pd(dst + i, _mm256_i64gather_pd(src, vi, 8));
  }
  for (; i < n; ++i) dst[i] = src[idx[i]];
}

/// Eight lanes as a (lanes 0-3, lanes 4-7) register pair.
struct Lanes8 {
  __m256d lo;
  __m256d hi;
};

Lanes8 zero8() { return {_mm256_setzero_pd(), _mm256_setzero_pd()}; }
Lanes8 load8(const double* p) {
  return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
}
void store8(double* p, Lanes8 a) {
  _mm256_storeu_pd(p, a.lo);
  _mm256_storeu_pd(p + 4, a.hi);
}
Lanes8 add8(Lanes8 a, Lanes8 b) {
  return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
}
Lanes8 sub8(Lanes8 a, Lanes8 b) {
  return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
}
Lanes8 mul8(Lanes8 a, Lanes8 b) {
  return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
}
Lanes8 div8(Lanes8 a, Lanes8 b) {
  return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
}

/// Factor element at `p` for all eight lanes: one lane-packed vector, or a
/// broadcast of the shared factor's scalar.
template <bool kShared>
Lanes8 load_factor(const double* p) {
  if constexpr (kShared) {
    const __m256d b = _mm256_set1_pd(*p);
    return {b, b};
  } else {
    return load8(p);
  }
}

/// Element i of all eight systems is one register pair, so each scalar
/// step of cholesky_solve8_scalar becomes one pair of vector instructions.
template <bool kShared>
void cholesky_solve8_lanes(const double* l, std::size_t n, double* v) {
  constexpr std::size_t ls = kShared ? 1 : 8;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = l + packed_row(i) * ls;
    Lanes8 s0 = zero8(), s1 = zero8(), s2 = zero8(), s3 = zero8();
    Lanes8 s4 = zero8(), s5 = zero8(), s6 = zero8(), s7 = zero8();
    const auto term = [&](std::size_t j) {
      return mul8(load_factor<kShared>(row + j * ls), load8(v + 8 * j));
    };
    std::size_t j = 0;
    const std::size_t i8 = i & ~std::size_t{7};
    for (; j < i8; j += 8) {
      s0 = add8(s0, term(j));
      s1 = add8(s1, term(j + 1));
      s2 = add8(s2, term(j + 2));
      s3 = add8(s3, term(j + 3));
      s4 = add8(s4, term(j + 4));
      s5 = add8(s5, term(j + 5));
      s6 = add8(s6, term(j + 6));
      s7 = add8(s7, term(j + 7));
    }
    for (; j < i; ++j) s0 = add8(s0, term(j));
    const Lanes8 partial = add8(add8(add8(s0, s1), add8(s2, s3)),
                                add8(add8(s4, s5), add8(s6, s7)));
    store8(v + 8 * i, div8(sub8(load8(v + 8 * i), partial),
                           load_factor<kShared>(row + i * ls)));
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    Lanes8 sum = load8(v + 8 * i);
    for (std::size_t k = i + 1; k < n; ++k) {
      sum = sub8(sum, mul8(load_factor<kShared>(l + (packed_row(k) + i) * ls),
                           load8(v + 8 * k)));
    }
    store8(v + 8 * i,
           div8(sum, load_factor<kShared>(l + (packed_row(i) + i) * ls)));
  }
}

/// One lane group at a time: a group already fills all sixteen ymm
/// registers with accumulators.
void cholesky_solve8_avx2(const double* l, std::size_t n, std::size_t groups,
                          bool shared, double* v) {
  const std::size_t lstride = shared ? 0 : 8 * packed_row(n);
  for (std::size_t g = 0; g < groups; ++g) {
    if (shared) {
      cholesky_solve8_lanes<true>(l, n, v + g * 8 * n);
    } else {
      cholesky_solve8_lanes<false>(l + g * lstride, n, v + g * 8 * n);
    }
  }
}

}  // namespace

const KernelTable kAvx2Table = {
    &dot_avx2, &axpy_avx2,   &dist2_squared_avx2,
    &nrm1_avx2, &gather_avx2, &scatter_scalar,
    &cholesky_solve8_avx2,
};
const bool kAvx2Compiled = true;

}  // namespace uoi::linalg::simd::detail

#else  // !__AVX2__

namespace uoi::linalg::simd::detail {

const KernelTable kAvx2Table = {
    &dot_scalar,  &axpy_scalar,   &dist2_squared_scalar,
    &nrm1_scalar, &gather_scalar, &scatter_scalar,
    &cholesky_solve8_scalar,
};
const bool kAvx2Compiled = false;

}  // namespace uoi::linalg::simd::detail

#endif
