#pragma once
// Runtime-dispatched SIMD kernel layer for the level-1 hot loops in
// blas.cpp (dot/axpy/dist2/nrm1 plus the gather/scatter-compact pair the
// screening path uses to move between full-p and working-set vectors), and
// the lane-packed triangular sweeps behind CholeskyBatch.
//
// Every ISA level implements the SAME arithmetic: eight independent
// accumulator lanes (lane l sums elements i+l for i stepping by 8), a
// scalar tail folded into lane 0 after the main loop, and the fixed
// reduction tree ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)). The vector
// variants use explicit mul-then-add intrinsics (no FMA contraction) and
// the kernel translation units are compiled with -ffp-contract=off, so
// results are bit-identical across scalar, AVX2 (2 x 4 lanes) and
// AVX-512 (1 x 8 lanes). That identity is what lets UOI_SIMD=scalar CI
// legs pin the numerics of the vectorized production path.
//
// Level selection: detect_simd_level() queries the CPU once;
// resolve_simd_level() applies the UOI_SIMD={auto,avx512,avx2,scalar}
// override, clamped to what the CPU supports. Tests compare levels in one
// process through kernel_table(level).

#include <cstddef>

namespace uoi::linalg::simd {

enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// First element of row i of a packed lower triangle (so n rows take
/// packed_row(n) elements): the factor layout of cholesky_solve8.
constexpr std::size_t packed_row(std::size_t i) { return i * (i + 1) / 2; }

/// Function-pointer table for one ISA level. Raw-pointer signatures keep
/// the indirect call overhead to a single load + call in the wrappers.
struct KernelTable {
  double (*dot)(const double* x, const double* y, std::size_t n);
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  double (*dist2_squared)(const double* x, const double* y, std::size_t n);
  double (*nrm1)(const double* x, std::size_t n);
  /// dst[i] = src[idx[i]] — compact full-p data onto a working set.
  void (*gather)(const double* src, const std::size_t* idx, std::size_t n,
                 double* dst);
  /// dst[idx[i]] = src[i] — expand working-set data back to full p.
  void (*scatter)(const double* src, const std::size_t* idx, std::size_t n,
                  double* dst);
  /// Both triangular sweeps of Cholesky solves in lane groups of eight,
  /// one system per lane (the CholeskyBatch kernel). Group g's vector is
  /// the n x 8 doubles at v + 8 n g, element i of lane k at [8 i + k]:
  /// the right-hand sides in, the solutions out. Its factor is the packed
  /// triangle at l + 8 g n(n+1)/2, element (i, j <= i) of lane k at
  /// [8 (i(i+1)/2 + j) + k]; with `shared` set, l instead holds one packed
  /// factor, element (i, j) at l[i(i+1)/2 + j], that every lane uses. Per
  /// lane the arithmetic is CholeskyFactor::solve's: the forward sweep is
  /// `dot` (accumulator lanes, tail into lane 0, fixed tree), the backward
  /// sweep one ascending serial chain per row.
  void (*cholesky_solve8)(const double* l, std::size_t n, std::size_t groups,
                          bool shared, double* v);
};

/// Highest ISA level this CPU supports (queried once, cached).
[[nodiscard]] SimdLevel detect_simd_level();

/// Level after applying the UOI_SIMD env override, clamped to
/// detect_simd_level(). Parsed once on first use.
[[nodiscard]] SimdLevel resolve_simd_level();

/// "scalar" / "avx2" / "avx512".
[[nodiscard]] const char* simd_level_name(SimdLevel level);

/// The kernel table for an explicit level (for cross-level bitwise tests;
/// levels above detect_simd_level() fall back to the detected level).
[[nodiscard]] const KernelTable& kernel_table(SimdLevel level);

/// The table blas.cpp dispatches through: kernel_table(resolve_simd_level()).
[[nodiscard]] const KernelTable& active_kernels();

/// Whether each level was compiled with its real intrinsics (false means
/// the toolchain lacked the ISA and the level aliases scalar code).
[[nodiscard]] bool level_compiled(SimdLevel level);

/// Data-cache sizes in bytes (-1 when the platform will not say).
struct CacheSizes {
  long l1d = -1;
  long l2 = -1;
  long l3 = -1;
};
[[nodiscard]] CacheSizes cache_sizes();

}  // namespace uoi::linalg::simd
