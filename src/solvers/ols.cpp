#include "solvers/ols.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"
#include "support/error.hpp"

namespace uoi::solvers {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

namespace {

/// Pivots of a factor of (G + jitter I) that have lost all but this
/// fraction of their diagonal mark G as numerically singular (an exactly
/// duplicated column leaves a pivot at rounding level, not below zero).
constexpr double kRelativePivotFloor = 1e-12;

bool well_conditioned(const uoi::linalg::CholeskyFactor& factor,
                      const Matrix& gram, double jitter) {
  const Matrix& l = factor.lower();
  for (std::size_t i = 0; i < l.rows(); ++i) {
    if (l(i, i) * l(i, i) <= kRelativePivotFloor * (gram(i, i) + jitter)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Vector ols_from_gram(const Matrix& gram, std::span<const double> xty) {
  const std::size_t p = gram.rows();
  UOI_CHECK_DIMS(gram.cols() == p && xty.size() == p,
                 "OLS: Gram and X'y shapes differ");
  // Scale the jitter to the Gram diagonal so it is dimensionless.
  double diag_max = 0.0;
  for (std::size_t i = 0; i < p; ++i) diag_max = std::max(diag_max, gram(i, i));
  double jitter = 0.0;
  for (int attempt = 0; attempt < 4; ++attempt) {
    try {
      const uoi::linalg::CholeskyFactor factor(gram, jitter);
      if (well_conditioned(factor, gram, jitter)) {
        Vector beta(p);
        factor.solve(xty, beta);
        return beta;
      }
    } catch (const uoi::support::InvalidArgument&) {
      // A non-positive pivot: retry with a larger jitter.
    }
    jitter = jitter == 0.0 ? 1e-10 * std::max(diag_max, 1.0) : jitter * 100.0;
  }
  throw uoi::support::ConvergenceError(
      "OLS: Gram matrix is numerically singular even with jitter");
}

Vector ols_direct(ConstMatrixView x, std::span<const double> y) {
  UOI_CHECK_DIMS(x.rows() == y.size(), "OLS: X rows != y size");
  UOI_CHECK(x.cols() > 0, "OLS: zero features");
  Matrix gram(x.cols(), x.cols());
  uoi::linalg::syrk_at_a(1.0, x, 0.0, gram);
  Vector xty(x.cols(), 0.0);
  uoi::linalg::gemv_transposed(1.0, x, y, 0.0, xty);
  try {
    return uoi::linalg::cholesky_solve(gram, xty);
  } catch (const uoi::support::InvalidArgument&) {
    // Singular Gram (duplicated bootstrap rows, collinear support
    // columns): fall back to rank-revealing least squares when the shape
    // allows, otherwise to the ridge-jitter ladder.
    if (x.rows() >= x.cols()) {
      return uoi::linalg::qr_least_squares(x, y);
    }
    return ols_from_gram(gram, xty);
  }
}

Vector ols_direct_on_support(ConstMatrixView x, std::span<const double> y,
                             std::span<const std::size_t> support) {
  Vector beta(x.cols(), 0.0);
  if (support.empty()) return beta;  // the empty model predicts zero
  const Matrix x_restricted =
      Matrix::from_view(x).gather_cols(support);
  const Vector sub = ols_direct(x_restricted, y);
  for (std::size_t i = 0; i < support.size(); ++i) beta[support[i]] = sub[i];
  return beta;
}

double mean_squared_error(ConstMatrixView x, std::span<const double> y,
                          std::span<const double> beta) {
  UOI_CHECK_DIMS(x.rows() == y.size() && x.cols() == beta.size(),
                 "MSE: shape mismatch");
  if (x.rows() == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double err = uoi::linalg::dot(x.row(r), beta) - y[r];
    acc += err * err;
  }
  return acc / static_cast<double>(x.rows());
}

double r_squared(ConstMatrixView x, std::span<const double> y,
                 std::span<const double> beta) {
  UOI_CHECK_DIMS(x.rows() == y.size() && x.cols() == beta.size(),
                 "R^2: shape mismatch");
  UOI_CHECK(x.rows() > 0, "R^2 of an empty sample");
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double err = uoi::linalg::dot(x.row(r), beta) - y[r];
    ss_res += err * err;
    const double dev = y[r] - mean;
    ss_tot += dev * dev;
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace uoi::solvers
