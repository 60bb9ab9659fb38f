// Scalar kernel table — the reference arithmetic every vector level must
// match bit-for-bit. Compiled with -ffp-contract=off (see CMakeLists) so
// the compiler cannot fuse mul+add into FMA and perturb the contract.

#include "linalg/simd_scalar_kernels.hpp"
#include "linalg/simd_tables.hpp"

namespace uoi::linalg::simd::detail {

const KernelTable kScalarTable = {
    &dot_scalar,    &axpy_scalar,   &dist2_squared_scalar,
    &nrm1_scalar,   &gather_scalar, &scatter_scalar,
    &cholesky_solve8_scalar,
};

}  // namespace uoi::linalg::simd::detail
