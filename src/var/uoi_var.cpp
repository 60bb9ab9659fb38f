#include "var/uoi_var.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>

#include "linalg/blas.hpp"
#include "linalg/sparse.hpp"
#include "solvers/admm_lasso_sparse.hpp"
#include "solvers/admm_loop.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/ols.hpp"
#include "solvers/ridge_system.hpp"
#include "solvers/screening.hpp"
#include "support/error.hpp"
#include "var/lag_matrix.hpp"

namespace uoi::var {

using uoi::core::SupportSet;
using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

namespace {

// Stage tags for the block-bootstrap streams.
constexpr std::size_t kSelectionStage = 0;
constexpr std::size_t kEstimationTrainStage = 1;
constexpr std::size_t kEstimationEvalStage = 2;

/// Subtracts column means in place; returns the means.
Vector center_columns(Matrix& series) {
  Vector means(series.cols(), 0.0);
  for (std::size_t r = 0; r < series.rows(); ++r) {
    const auto row = series.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) means[c] += row[c];
  }
  for (auto& m : means) m /= static_cast<double>(series.rows());
  for (std::size_t r = 0; r < series.rows(); ++r) {
    auto row = series.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] -= means[c];
  }
  return means;
}

/// Replicable screening quantities of the vectorized VAR problem (the
/// serial mirror of the distributed driver's fused allreduce): coefficient
/// g = e*dp + c sees column c of the shared lag matrix in equation e's
/// rows only, so the per-column norms tile p times.
uoi::solvers::DistributedScreenInputs var_screen_inputs(
    const LagRegression& lag, std::span<const double> vec_y) {
  const std::size_t rows = lag.x.rows();
  const std::size_t dp = lag.x.cols();
  const std::size_t p = lag.y.cols();
  const std::size_t nc = dp * p;
  uoi::solvers::DistributedScreenInputs in;
  in.atb.assign(nc, 0.0);
  in.col_sq_norms.assign(nc, 0.0);
  Vector colsq(dp, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row = lag.x.row(r);
    for (std::size_t c = 0; c < dp; ++c) colsq[c] += row[c] * row[c];
  }
  for (std::size_t e = 0; e < p; ++e) {
    uoi::linalg::gemv_transposed(
        1.0, lag.x, vec_y.subspan(e * rows, rows), 0.0,
        std::span<double>(in.atb).subspan(e * dp, dp));
    std::copy(colsq.begin(), colsq.end(),
              in.col_sq_norms.begin() + static_cast<std::ptrdiff_t>(e * dp));
  }
  in.b_norm_sq = uoi::linalg::nrm2_squared(vec_y);
  for (const double v : in.atb) {
    in.lambda_max = std::max(in.lambda_max, std::abs(v));
  }
  return in;
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
    const std::size_t dp = lag.x.cols();
    const std::size_t p = lag.y.cols();
    atb_.assign(nw_, 0.0);
    cols_.reserve(p);
    std::vector<uoi::solvers::BlockRidgeSolver::Block> out;
    std::size_t w = 0;
    for (std::size_t e = 0; e < p && w < nw_; ++e) {
      const std::size_t lo = w;
      while (w < nw_ && working[w] < (e + 1) * dp) ++w;
      const std::size_t width = w - lo;
      if (width == 0) continue;
      ConstMatrixView v = lag.x;
      if (width < dp) {
        std::vector<std::size_t> cols(width);
        for (std::size_t i = 0; i < width; ++i) {
          cols[i] = working[lo + i] - e * dp;
        }
        v = cols_.emplace_back(
            uoi::solvers::detail::gather_cols_view(lag.x, cols));
      }
      uoi::linalg::gemv_transposed(
          1.0, v, vec_y.subspan(e * rows, rows), 0.0,
          std::span<double>(atb_).subspan(lo, width));
      out.push_back({v, lo});
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

/// Serial screened lambda-chain driver for the vectorized VAR problem:
/// the same canonical two-stage contract as solvers::ScreenedLassoChain
/// (working solve over W, KKT re-admission, |S|-restricted canonical
/// polish), shared by both serial backends — only the off-mode full solve
/// is backend-specific, injected via `full_solve`.
class SerialScreenedVarChain {
 public:
  using FullSolve = std::function<uoi::solvers::AdmmResult(
      double, const uoi::solvers::AdmmResult*)>;

  SerialScreenedVarChain(const LagRegression& lag,
                         std::span<const double> vec_y,
                         const uoi::solvers::AdmmOptions& admm,
                         const uoi::solvers::ScreenOptions& screen,
                         FullSolve full_solve)
      : lag_(&lag), vec_y_(vec_y),
        admm_(uoi::solvers::detail::refined_admm_options(admm, screen)),
        screen_(screen),
        mode_(uoi::solvers::resolve_screen_mode(screen.mode)),
        full_solve_(std::move(full_solve)),
        inputs_(var_screen_inputs(lag, vec_y)) {
    state_.reset(inputs_.atb.size());
  }

  [[nodiscard]] uoi::solvers::AdmmResult solve(double lambda);

  [[nodiscard]] const uoi::solvers::ScreenStats& stats() const noexcept {
    return stats_;
  }

 private:
  const LagRegression* lag_;
  std::span<const double> vec_y_;
  uoi::solvers::AdmmOptions admm_;
  uoi::solvers::ScreenOptions screen_;
  uoi::solvers::ScreenMode mode_;
  FullSolve full_solve_;
  uoi::solvers::DistributedScreenInputs inputs_;
  uoi::solvers::detail::ChainScreenState state_;
  uoi::solvers::ScreenStats stats_;
};

uoi::solvers::AdmmResult SerialScreenedVarChain::solve(double lambda) {
  namespace sdetail = uoi::solvers::detail;
  using uoi::solvers::AdmmResult;
  using uoi::solvers::ScreenMode;
  const std::size_t nc = inputs_.atb.size();
  if (state_.has_prev && lambda > state_.lambda_prev) state_.reset(nc);
  ++stats_.lambdas;
  stats_.total_columns += nc;

  std::vector<std::size_t> working = sdetail::screen_working_set(
      mode_, nc, lambda, inputs_.atb, inputs_.col_sq_norms,
      inputs_.b_norm_sq, inputs_.lambda_max, state_);
  std::vector<char> in_working(nc, 0);
  for (const std::size_t j : working) in_working[j] = 1;

  AdmmResult work;
  Vector c(nc, 0.0);
  bool have_c = false;
  std::uint64_t total_flops = 0;
  std::uint64_t total_iterations = 0;
  std::uint64_t total_rho_updates = 0;

  const auto accumulate = [&](const AdmmResult& fit) {
    total_flops += fit.flops;
    total_iterations += fit.iterations;
    total_rho_updates += fit.rho_updates;
  };
  const auto expand = [&](std::span<const double> reduced,
                          std::span<const std::size_t> idx) {
    Vector full(nc, 0.0);
    if (!reduced.empty()) uoi::linalg::scatter_expand(reduced, idx, full);
    return full;
  };

  for (std::size_t round = 0;; ++round) {
    if (mode_ == ScreenMode::kOff) {
      AdmmResult ws;
      ws.beta = state_.beta_prev;
      work = full_solve_(lambda, &ws);
    } else if (working.empty()) {
      work = AdmmResult{};
      work.converged = true;
    } else {
      const VarWorkingSetSolver sub(*lag_, vec_y_, working, admm_);
      AdmmResult ws;
      ws.beta = sdetail::gather_vector(state_.beta_prev, working);
      work = sub.solve(lambda, &ws);
    }
    accumulate(work);
    if (mode_ == ScreenMode::kOff) break;

    const Vector beta_full = expand(work.beta, working);
    c = var_correlation(*lag_, vec_y_, beta_full, total_flops);
    have_c = true;
    if (round >= screen_.max_kkt_rounds) break;
    const auto violators =
        sdetail::kkt_violators(c, in_working, lambda, screen_);
    if (violators.empty()) break;
    stats_.kkt_violations += violators.size();
    ++stats_.kkt_rounds;
    for (const std::size_t j : violators) in_working[j] = 1;
    std::vector<std::size_t> merged;
    merged.reserve(working.size() + violators.size());
    std::merge(working.begin(), working.end(), violators.begin(),
               violators.end(), std::back_inserter(merged));
    working = std::move(merged);
  }
  stats_.survivors += working.size();
  stats_.gram_cols_saved += nc - working.size();

  std::vector<std::size_t> support;
  if (mode_ == ScreenMode::kOff) {
    for (std::size_t j = 0; j < nc; ++j) {
      if (work.beta[j] != 0.0) support.push_back(j);
    }
  } else {
    for (std::size_t i = 0; i < working.size(); ++i) {
      if (work.beta[i] != 0.0) support.push_back(working[i]);
    }
  }

  AdmmResult final_result;
  bool canonical_ran = false;
  if (support.size() == working.size()) {
    // The working solve IS the canonical solve, bit for bit.
    final_result = std::move(work);
    if (mode_ != ScreenMode::kOff) {
      final_result.beta = expand(final_result.beta, working);
    }
  } else {
    ++stats_.canonical_solves;
    canonical_ran = true;
    if (support.empty()) {
      final_result = AdmmResult{};
      final_result.converged = true;
      final_result.beta.assign(nc, 0.0);
    } else {
      const VarWorkingSetSolver sub(*lag_, vec_y_, support, admm_);
      AdmmResult ws;
      ws.beta = sdetail::gather_vector(state_.beta_prev, support);
      final_result = sub.solve(lambda, &ws);
      accumulate(final_result);
      final_result.beta = expand(final_result.beta, support);
    }
  }
  final_result.flops = total_flops;
  final_result.iterations = total_iterations;
  final_result.rho_updates = total_rho_updates;

  state_.has_prev = true;
  state_.lambda_prev = lambda;
  state_.beta_prev = final_result.beta;
  for (const std::size_t j : support) state_.ever_active[j] = 1;
  if (mode_ == ScreenMode::kStrong) {
    if (canonical_ran || !have_c) {
      c = var_correlation(*lag_, vec_y_, final_result.beta,
                          final_result.flops);
    }
    state_.c_prev = c;
  }
  return final_result;
}

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

Vector var_restricted_ols(const Matrix& y, const Matrix& x,
                          const SupportSet& support) {
  const std::size_t dp = x.cols();
  const std::size_t p = y.cols();
  Vector beta(dp * p, 0.0);
  // The block-diagonal design decouples the OLS per equation: coordinates
  // [e * dp, (e+1) * dp) only ever multiply X against y_e.
  std::vector<std::size_t> eq_support;
  for (std::size_t e = 0; e < p; ++e) {
    eq_support.clear();
    for (const std::size_t c : support.indices()) {
      if (c >= e * dp && c < (e + 1) * dp) eq_support.push_back(c - e * dp);
    }
    if (eq_support.empty()) continue;
    const Vector y_e = y.col(e);
    const Vector sub =
        uoi::solvers::ols_direct_on_support(x, y_e, eq_support);
    for (std::size_t c = 0; c < dp; ++c) beta[e * dp + c] = sub[c];
  }
  return beta;
}

double var_mse(const Matrix& y, const Matrix& x,
               std::span<const double> vec_beta) {
  const std::size_t dp = x.cols();
  const std::size_t p = y.cols();
  UOI_CHECK_DIMS(vec_beta.size() == dp * p, "var_mse: vec_beta length");
  double acc = 0.0;
  for (std::size_t e = 0; e < p; ++e) {
    const auto beta_e = vec_beta.subspan(e * dp, dp);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const double err = uoi::linalg::dot(x.row(r), beta_e) - y(r, e);
      acc += err * err;
    }
  }
  return acc / (static_cast<double>(x.rows()) * static_cast<double>(p));
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

UoiVarResult UoiVar::fit(ConstMatrixView series_view) const {
  const std::size_t n = series_view.rows();
  const std::size_t p = series_view.cols();
  const std::size_t d = options_.order;
  UOI_CHECK(n > d + 2, "series too short for the requested order");

  Matrix series = Matrix::from_view(series_view);
  Vector means(p, 0.0);
  if (options_.center) means = center_columns(series);

  const LagRegression full = build_lag_regression(series, d);
  const std::size_t dp = d * p;
  const std::size_t n_coeffs = dp * p;

  UoiVarResult result{VarModel(std::vector<Matrix>(d, Matrix(p, p))),
                      Vector(n_coeffs, 0.0),
                      {},
                      {},
                      {},
                      {},
                      {},
                      0,
                      1.0 - 1.0 / static_cast<double>(p),
                      {}};
  result.lambdas = resolve_var_lambda_grid(options_, full.y, full.x);
  const std::size_t q = result.lambdas.size();

  // ---- Model selection (Algorithm 2, lines 1-13) ----
  // counts(j, i): how many block-bootstraps selected coefficient i at
  // lambda_j (strict intersection = count reaching B1).
  Matrix selection_counts(q, n_coeffs, 0.0);
  for (std::size_t k = 0; k < options_.n_selection_bootstraps; ++k) {
    const Matrix sample = block_bootstrap_sample(
        series, var_bootstrap_options(options_, kSelectionStage, k));
    const LagRegression lag = build_lag_regression(sample, d);
    const VectorizedProblem problem = vectorize(lag);

    auto record = [&](std::size_t j, const uoi::solvers::AdmmResult& fit) {
      result.total_flops += fit.flops;
      auto row = selection_counts.row(j);
      for (std::size_t i = 0; i < n_coeffs; ++i) {
        if (std::abs(fit.beta[i]) > options_.support_tolerance) row[i] += 1.0;
      }
    };

    // Both backends drive the canonical screened chain (warm starts and
    // the two-stage solve live there); they differ only in how an off-mode
    // full solve is produced. The full solver — and for the sparse path
    // the materialized CSR I (x) X — is built lazily, so screened runs
    // never pay for it.
    std::optional<uoi::linalg::SparseMatrix> design;
    std::optional<uoi::solvers::KronLassoAdmmSolver> kron_solver;
    std::optional<uoi::solvers::SparseLassoAdmmSolver> sparse_solver;
    // Off-mode full solvers serve chain working solves, so they must run
    // under the chain's refined stopping rules.
    const uoi::solvers::AdmmOptions chain_admm =
        uoi::solvers::detail::refined_admm_options(options_.admm,
                                                   options_.screen);
    SerialScreenedVarChain chain(
        lag, problem.vec_y, options_.admm, options_.screen,
        [&](double lambda, const uoi::solvers::AdmmResult* warm) {
          if (options_.backend == VarSolverBackend::kStructured) {
            if (!kron_solver) {
              kron_solver.emplace(problem.design, problem.vec_y, chain_admm);
            }
            return kron_solver->solve(lambda, warm);
          }
          if (!sparse_solver) {
            // The paper's sparse path: materialize I (x) X as CSR.
            design.emplace(
                uoi::linalg::SparseMatrix::block_diagonal(lag.x, p));
            sparse_solver.emplace(*design, problem.vec_y, chain_admm);
          }
          return sparse_solver->solve(lambda, warm);
        });
    for (std::size_t j = 0; j < q; ++j) {
      record(j, chain.solve(result.lambdas[j]));
    }
  }
  const double count_threshold = std::max(
      1.0, std::ceil(options_.intersection_fraction *
                         static_cast<double>(options_.n_selection_bootstraps) -
                     1e-12));
  result.candidate_supports.reserve(q);
  for (std::size_t j = 0; j < q; ++j) {
    std::vector<std::size_t> selected;
    const auto row = selection_counts.row(j);
    for (std::size_t i = 0; i < n_coeffs; ++i) {
      if (row[i] >= count_threshold) selected.push_back(i);
    }
    result.candidate_supports.emplace_back(std::move(selected));
  }

  // ---- Model estimation (Algorithm 2, lines 14-30) ----
  const std::size_t b2 = options_.n_estimation_bootstraps;
  result.chosen_support_per_bootstrap.assign(b2, 0);
  result.best_loss_per_bootstrap.assign(
      b2, std::numeric_limits<double>::infinity());
  Vector beta_sum(n_coeffs, 0.0);
  Vector selection_counts_est(n_coeffs, 0.0);

  for (std::size_t k = 0; k < b2; ++k) {
    const Matrix train_sample = block_bootstrap_sample(
        series, var_bootstrap_options(options_, kEstimationTrainStage, k));
    const Matrix eval_sample = block_bootstrap_sample(
        series, var_bootstrap_options(options_, kEstimationEvalStage, k));
    const LagRegression train = build_lag_regression(train_sample, d);
    const LagRegression eval = build_lag_regression(eval_sample, d);

    Vector best_beta(n_coeffs, 0.0);
    for (std::size_t j = 0; j < q; ++j) {
      const Vector beta =
          var_restricted_ols(train.y, train.x, result.candidate_supports[j]);
      const double mse = var_mse(eval.y, eval.x, beta);
      const double loss = uoi::core::estimation_score(
          options_.criterion, mse,
          static_cast<double>(eval.x.rows()) * static_cast<double>(p),
          result.candidate_supports[j].size());
      if (loss < result.best_loss_per_bootstrap[k]) {
        result.best_loss_per_bootstrap[k] = loss;
        result.chosen_support_per_bootstrap[k] = j;
        best_beta = beta;
      }
    }
    for (std::size_t i = 0; i < n_coeffs; ++i) {
      beta_sum[i] += best_beta[i];
      if (std::abs(best_beta[i]) > options_.support_tolerance) {
        selection_counts_est[i] += 1.0;
      }
    }
  }

  for (std::size_t i = 0; i < n_coeffs; ++i) {
    result.vec_beta[i] = beta_sum[i] / static_cast<double>(b2);
  }
  result.selection_frequency.assign(n_coeffs, 0.0);
  for (std::size_t i = 0; i < n_coeffs; ++i) {
    result.selection_frequency[i] =
        selection_counts_est[i] / static_cast<double>(b2);
  }
  result.support =
      SupportSet::from_beta(result.vec_beta, options_.support_tolerance);

  // Rebuild (A_1..A_d) and mu (Algorithm 2, lines 31-32). With centered
  // data, mu_hat = (I - sum_j A_j) x_bar.
  VarModel fitted = VarModel::from_vec_b(result.vec_beta, p, d);
  Vector mu(p, 0.0);
  if (options_.center) {
    mu = means;
    for (std::size_t j = 0; j < d; ++j) {
      const auto& a = fitted.coefficient(j);
      for (std::size_t i = 0; i < p; ++i) {
        mu[i] -= uoi::linalg::dot(a.row(i), means);
      }
    }
  }
  result.model = VarModel(fitted.coefficients(), std::move(mu));
  return result;
}

}  // namespace uoi::var
