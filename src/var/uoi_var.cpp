#include "var/uoi_var.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "linalg/blas.hpp"
#include "linalg/sparse.hpp"
#include "solvers/admm_lasso_sparse.hpp"
#include "solvers/admm_loop.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/ridge_system.hpp"
#include "solvers/screening.hpp"
#include "support/error.hpp"
#include "var/lag_matrix.hpp"
#include "var/var_distributed.hpp"

namespace uoi::var {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

namespace {

// Stage tag of the selection block-bootstrap stream (estimation draws
// stages 1 and 2; see var_bootstrap_options).
constexpr std::size_t kSelectionStage = 0;

/// Replicable screening quantities of the vectorized VAR problem (the
/// serial mirror of the distributed driver's fused allreduce): coefficient
/// g = e*dp + c sees column c of the shared lag matrix in equation e's
/// rows only, so the per-column norms tile p times.
uoi::solvers::ScreenInputs var_screen_inputs(
    const LagRegression& lag, std::span<const double> vec_y) {
  const std::size_t rows = lag.x.rows();
  const std::size_t dp = lag.x.cols();
  const std::size_t p = lag.y.cols();
  const std::size_t nc = dp * p;
  Vector sums(2 * nc + 1, 0.0);  // [A'b | column norms^2 | b'b]
  Vector colsq(dp, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row = lag.x.row(r);
    for (std::size_t c = 0; c < dp; ++c) colsq[c] += row[c] * row[c];
  }
  for (std::size_t e = 0; e < p; ++e) {
    uoi::linalg::gemv_transposed(
        1.0, lag.x, vec_y.subspan(e * rows, rows), 0.0,
        std::span<double>(sums).subspan(e * dp, dp));
    std::copy(colsq.begin(), colsq.end(),
              sums.begin() + static_cast<std::ptrdiff_t>(nc + e * dp));
  }
  sums[2 * nc] = uoi::linalg::nrm2_squared(vec_y);
  return uoi::solvers::screen_inputs_from_sums(sums);
}

/// c = A'(b - A beta) of the vectorized problem for a full-length beta.
Vector var_correlation(const LagRegression& lag, std::span<const double> vec_y,
                       std::span<const double> beta_full,
                       std::uint64_t& flops) {
  const std::size_t rows = lag.x.rows();
  const std::size_t dp = lag.x.cols();
  const std::size_t p = lag.y.cols();
  Vector c(dp * p, 0.0);
  Vector r(rows);
  for (std::size_t e = 0; e < p; ++e) {
    const auto y_e = vec_y.subspan(e * rows, rows);
    std::copy(y_e.begin(), y_e.end(), r.begin());
    uoi::linalg::gemv(-1.0, lag.x, beta_full.subspan(e * dp, dp), 1.0, r);
    uoi::linalg::gemv_transposed(1.0, lag.x, r, 0.0,
                                 std::span<double>(c).subspan(e * dp, dp));
    flops += 2 * uoi::linalg::gemv_flops(rows, dp);
  }
  return c;
}

/// Serial active-set solver over a sorted subset of the vectorized VAR
/// coefficients: the joint ADMM runs in compacted working coordinates and
/// the x-update solves one system per equation over the surviving columns
/// (a view of the shared lag matrix when all dp survive, a gathered copy
/// otherwise), all equations at once through a BlockRidgeSolver — the
/// serial mirror of the reduced DistributedVarAdmmSolver.
class VarWorkingSetSolver {
 public:
  VarWorkingSetSolver(const LagRegression& lag, std::span<const double> vec_y,
                      std::span<const std::size_t> working,
                      const uoi::solvers::AdmmOptions& options)
      : options_(options), nw_(working.size()),
        system_(blocks(lag, vec_y, working), options.rho),
        pending_setup_flops_(system_.setup_flops()) {}

  [[nodiscard]] uoi::solvers::AdmmResult solve(
      double lambda, const uoi::solvers::AdmmResult* warm_start) const {
    double current_rho = options_.rho;
    std::optional<uoi::solvers::BlockRidgeSolver> rebuilt;
    std::uint64_t refactor_flops = 0;
    const std::uint64_t charged = pending_setup_flops_;
    pending_setup_flops_ = 0;
    const auto solve_ls = [&](std::span<const double> q, std::span<double> x,
                              double rho) {
      if (rho != current_rho) {
        rebuilt.emplace(system_, rho);
        refactor_flops += rebuilt->setup_flops();
        current_rho = rho;
      }
      (rebuilt ? *rebuilt : system_).solve(q, x);
    };
    auto result = uoi::solvers::detail::run_admm_loop(
        nw_, lambda, options_, atb_, solve_ls, charged, system_.solve_flops(),
        warm_start);
    result.flops += refactor_flops;
    return result;
  }

 private:
  /// Gathers each equation's surviving columns (kept in cols_) and its
  /// slice of A'b; returns the equations as blocks.
  std::vector<uoi::solvers::BlockRidgeSolver::Block> blocks(
      const LagRegression& lag, std::span<const double> vec_y,
      std::span<const std::size_t> working) {
    const std::size_t rows = lag.x.rows();
    const std::size_t p = lag.y.cols();
    atb_.assign(nw_, 0.0);
    cols_.reserve(p);
    std::vector<uoi::solvers::BlockRidgeSolver::Block> out;
    for (std::size_t e = 0; e < p; ++e) {
      detail::append_equation_block(lag.x, vec_y.subspan(e * rows, rows), e,
                                    working, cols_, out, atb_);
    }
    return out;
  }

  uoi::solvers::AdmmOptions options_;
  std::size_t nw_;
  Vector atb_;
  /// Gathered column subsets of the equations with width < dp; reserved
  /// up front so the blocks' views stay valid.
  std::vector<Matrix> cols_;
  uoi::solvers::BlockRidgeSolver system_;
  mutable std::uint64_t pending_setup_flops_ = 0;
};

/// Serial backend of the screened chain (solvers::detail::ScreenedChain)
/// for the vectorized VAR problem: reduced solves go to the active-set
/// VarWorkingSetSolver, correlations to var_correlation, and the off-mode
/// full solve to the structured or sparse solver, built lazily so
/// screened runs never pay for it.
class SerialVarBackend {
 public:
  using Fit = uoi::solvers::AdmmResult;

  SerialVarBackend(const uoi::solvers::AdmmOptions& admm,
                   const LagRegression& lag, const VectorizedProblem& problem,
                   VarSolverBackend kind)
      : admm_(admm), lag_(&lag), problem_(&problem), kind_(kind),
        inputs_(var_screen_inputs(lag, problem.vec_y)) {}

  [[nodiscard]] const uoi::solvers::ScreenInputs& inputs() const noexcept {
    return inputs_;
  }

  [[nodiscard]] Fit full_solve(double lambda, double /*lambda2*/,
                               const Fit& warm) {
    if (kind_ == VarSolverBackend::kStructured) {
      if (!kron_solver_) {
        kron_solver_.emplace(problem_->design, problem_->vec_y, admm_);
      }
      return kron_solver_->solve(lambda, &warm);
    }
    if (!sparse_solver_) {
      // The paper's sparse path: materialize I (x) X as CSR.
      design_.emplace(uoi::linalg::SparseMatrix::block_diagonal(
          lag_->x, lag_->y.cols()));
      sparse_solver_.emplace(*design_, problem_->vec_y, admm_);
    }
    return sparse_solver_->solve(lambda, &warm);
  }

  [[nodiscard]] Fit subset_solve(std::span<const std::size_t> cols,
                                 double lambda, double /*lambda2*/,
                                 const Fit& warm) const {
    const VarWorkingSetSolver sub(*lag_, problem_->vec_y, cols, admm_);
    return sub.solve(lambda, &warm);
  }

  void kkt_correlation(std::span<const double> beta_w,
                       std::span<const std::size_t> working, Vector& c,
                       Fit& spent) const {
    const Vector beta_full = uoi::solvers::detail::expand_vector(
        beta_w, working, inputs_.atb.size());
    c = var_correlation(*lag_, problem_->vec_y, beta_full, spent.flops);
  }

  void refresh_correlation(std::span<const double> beta,
                           std::span<const std::size_t> /*support*/,
                           Vector& c, Fit& result) const {
    c = var_correlation(*lag_, problem_->vec_y, beta, result.flops);
  }

 private:
  uoi::solvers::AdmmOptions admm_;
  const LagRegression* lag_;
  const VectorizedProblem* problem_;
  VarSolverBackend kind_;
  uoi::solvers::ScreenInputs inputs_;
  std::optional<uoi::linalg::SparseMatrix> design_;
  std::optional<uoi::solvers::KronLassoAdmmSolver> kron_solver_;
  std::optional<uoi::solvers::SparseLassoAdmmSolver> sparse_solver_;
};

}  // namespace

BlockBootstrapOptions var_bootstrap_options(const UoiVarOptions& options,
                                            std::size_t stage, std::size_t k) {
  BlockBootstrapOptions out;
  out.block_length = options.block_length;
  out.seed = options.seed;
  out.task_a = stage;
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
           return detail::fit_var(comm, series, options_, {}, /*n_readers=*/1,
                                  /*serial=*/true);
         })
      .model;
}

namespace detail {

uoi::core::UoiSelectHook serial_var_select_hook(
    const Matrix& series, const UoiVarOptions& options,
    std::span<const double> lambdas) {
  return [&series, &options, lambdas](uoi::core::UoiSelectionTask& task) {
    const Matrix sample = block_bootstrap_sample(
        series, var_bootstrap_options(options, kSelectionStage,
                                      task.bootstrap));
    const LagRegression lag = build_lag_regression(sample, options.order);
    const VectorizedProblem problem = vectorize(lag);
    // The screened chain owns the warm starts and the two-stage solve.
    uoi::solvers::detail::ScreenedChain<SerialVarBackend> chain(
        options.admm, options.screen, lag, problem, options.backend);
    for (std::size_t m = 0; m < task.cells.size(); ++m) {
      const auto fit = chain.solve(lambdas[task.cells[m]]);
      task.counters.add(fit);
      task.mark_selected(m, fit.beta, options.support_tolerance);
    }
    task.counters.screen += chain.stats();
  };
}

void append_equation_block(
    ConstMatrixView rows, std::span<const double> y, std::size_t e,
    std::span<const std::size_t> working, std::vector<Matrix>& gathered,
    std::vector<uoi::solvers::BlockRidgeSolver::Block>& blocks,
    std::span<double> atb) {
  // Coefficients g = e*dp + c ascend with e, so a sorted working set keeps
  // each equation's survivors contiguous.
  const std::size_t dp = rows.cols();
  const auto lo = std::lower_bound(working.begin(), working.end(), e * dp);
  const auto hi = std::lower_bound(lo, working.end(), (e + 1) * dp);
  const auto offset = static_cast<std::size_t>(lo - working.begin());
  const auto width = static_cast<std::size_t>(hi - lo);
  if (width == 0) return;
  ConstMatrixView v = rows;
  if (width < dp) {
    std::vector<std::size_t> cols(width);
    for (std::size_t i = 0; i < width; ++i) cols[i] = lo[i] - e * dp;
    v = gathered.emplace_back(
        uoi::solvers::detail::gather_cols_view(rows, cols));
  }
  uoi::linalg::gemv_transposed(1.0, v, y, 0.0, atb.subspan(offset, width));
  blocks.push_back({v, offset});
}

}  // namespace detail

}  // namespace uoi::var
