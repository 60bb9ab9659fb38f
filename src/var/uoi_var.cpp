#include "var/uoi_var.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "solvers/lambda_grid.hpp"
#include "support/error.hpp"
#include "var/var_distributed.hpp"

namespace uoi::var {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

BlockBootstrapOptions var_bootstrap_options(const UoiVarOptions& options,
                                            VarBootstrapStage stage,
                                            std::size_t k) {
  BlockBootstrapOptions out;
  out.block_length = options.block_length;
  out.seed = options.seed;
  out.task_a = static_cast<std::size_t>(stage);
  out.task_b = k;
  return out;
}

std::vector<double> resolve_var_lambda_grid(const UoiVarOptions& options,
                                            const Matrix& y, const Matrix& x) {
  if (!options.lambdas.empty()) {
    auto grid = options.lambdas;
    std::sort(grid.rbegin(), grid.rend());
    return grid;
  }
  // lambda_max of the vectorized problem = max over equations e of
  // ||X' y_e||_inf; no Kronecker product needed.
  double hi = 0.0;
  Vector xty(x.cols(), 0.0);
  for (std::size_t e = 0; e < y.cols(); ++e) {
    const Vector y_e = y.col(e);
    uoi::linalg::gemv_transposed(1.0, x, y_e, 0.0, xty);
    for (const double v : xty) hi = std::max(hi, std::abs(v));
  }
  UOI_CHECK(hi > 0.0, "lambda_max is zero: X'Y vanishes");
  return uoi::solvers::log_spaced_lambdas(hi, options.lambda_min_ratio,
                                          options.n_lambdas);
}

double UoiVarResult::edge_stability(std::size_t target,
                                    std::size_t source) const {
  const std::size_t p = model.dim();
  const std::size_t d = model.order();
  UOI_CHECK(target < p && source < p, "edge index out of range");
  const std::size_t dp = d * p;
  double best = 0.0;
  // Coefficient a_{target,source} at lag j lives at vec index
  // target * dp + j * p + source (see VarModel::vec_b).
  for (std::size_t j = 0; j < d; ++j) {
    best = std::max(best,
                    selection_frequency[target * dp + j * p + source]);
  }
  return best;
}

UoiVar::UoiVar(UoiVarOptions options) : options_(std::move(options)) {
  UOI_CHECK(options_.order >= 1, "VAR order must be >= 1");
  UOI_CHECK(options_.n_selection_bootstraps >= 1, "B1 must be >= 1");
  UOI_CHECK(options_.n_estimation_bootstraps >= 1, "B2 must be >= 1");
}

UoiVarResult UoiVar::fit(ConstMatrixView series) const {
  return uoi::core::run_on_local_rank([&](uoi::sim::Comm& comm) {
           return uoi_var_distributed(comm, series, options_);
         })
      .model;
}

}  // namespace uoi::var
