#include "solvers/screening.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "linalg/blas.hpp"
#include "solvers/admm_loop.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace uoi::solvers {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

ScreenMode resolve_screen_mode(ScreenMode requested) {
  if (requested != ScreenMode::kAuto) return requested;
  const char* env = std::getenv("UOI_SCREEN");
  if (env != nullptr && env[0] != '\0') {
    if (std::strcmp(env, "off") == 0) return ScreenMode::kOff;
    if (std::strcmp(env, "safe") == 0) return ScreenMode::kSafe;
    if (std::strcmp(env, "strong") == 0) return ScreenMode::kStrong;
    if (std::strcmp(env, "auto") != 0) {
      UOI_LOG_WARN.field("UOI_SCREEN", env)
          << "unknown screening mode; using strong";
    }
  }
  return ScreenMode::kStrong;
}

const char* screen_mode_name(ScreenMode mode) {
  switch (mode) {
    case ScreenMode::kOff:
      return "off";
    case ScreenMode::kSafe:
      return "safe";
    case ScreenMode::kStrong:
      return "strong";
    case ScreenMode::kAuto:
      break;
  }
  return "auto";
}

void ScreenStats::operator+=(const ScreenStats& other) {
  lambdas += other.lambdas;
  survivors += other.survivors;
  kkt_violations += other.kkt_violations;
  kkt_rounds += other.kkt_rounds;
  gram_cols_saved += other.gram_cols_saved;
  canonical_solves += other.canonical_solves;
  total_columns += other.total_columns;
}

// ---- Screening inputs ---------------------------------------------------

Vector screen_sums(ConstMatrixView a, std::span<const double> b) {
  const std::size_t p = a.cols();
  Vector buffer(2 * p + 1, 0.0);
  uoi::linalg::gemv_transposed(1.0, a, b, 0.0,
                               std::span<double>(buffer.data(), p));
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    for (std::size_t j = 0; j < p; ++j) buffer[p + j] += row[j] * row[j];
  }
  buffer[2 * p] = uoi::linalg::nrm2_squared(b);
  return buffer;
}

ScreenInputs screen_inputs_from_sums(std::span<const double> buffer) {
  const std::size_t p = (buffer.size() - 1) / 2;
  ScreenInputs inputs;
  inputs.atb.assign(buffer.begin(),
                    buffer.begin() + static_cast<std::ptrdiff_t>(p));
  inputs.col_sq_norms.assign(
      buffer.begin() + static_cast<std::ptrdiff_t>(p),
      buffer.begin() + static_cast<std::ptrdiff_t>(2 * p));
  inputs.b_norm_sq = buffer[2 * p];
  for (const double v : inputs.atb) {
    inputs.lambda_max = std::max(inputs.lambda_max, std::abs(v));
  }
  return inputs;
}

Vector gram_sums(ConstMatrixView a, ConstMatrixView b) {
  UOI_CHECK_DIMS(a.rows() == b.rows(), "Gram sums: A and B rows differ");
  const std::size_t p = a.cols();
  const std::size_t m = b.cols();
  Vector sums(p * p + m * p + m, 0.0);
  Matrix gram(p, p);
  uoi::linalg::syrk_at_a(1.0, a, 0.0, gram);
  std::copy(gram.data(), gram.data() + p * p, sums.begin());
  Vector column(b.rows());
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t r = 0; r < b.rows(); ++r) column[r] = b(r, j);
    uoi::linalg::gemv_transposed(
        1.0, a, column, 0.0, std::span<double>(sums).subspan(p * p + j * p, p));
    sums[p * p + m * p + j] = uoi::linalg::nrm2_squared(column);
  }
  return sums;
}

std::uint64_t gram_sums_flops(std::size_t n, std::size_t p, std::size_t m) {
  return uoi::linalg::gemm_flops(p, n, p) / 2 +
         m * (uoi::linalg::gemv_flops(n, p) + 2 * n);
}

std::vector<GramProblem> gram_problems_from_sums(std::span<const double> sums,
                                                 std::size_t p,
                                                 std::size_t m) {
  UOI_CHECK_DIMS(sums.size() == p * p + m * p + m, "Gram sums shape mismatch");
  Matrix gram(p, p);
  std::copy(sums.begin(), sums.begin() + static_cast<std::ptrdiff_t>(p * p),
            gram.data());
  Vector diag(p);
  for (std::size_t j = 0; j < p; ++j) diag[j] = gram(j, j);
  const auto shared = std::make_shared<const RidgeGram>(std::move(gram));
  std::vector<GramProblem> problems(m);
  for (std::size_t j = 0; j < m; ++j) {
    GramProblem& problem = problems[j];
    const auto atb = sums.subspan(p * p + j * p, p);
    problem.gram = shared;
    problem.inputs.atb.assign(atb.begin(), atb.end());
    problem.inputs.col_sq_norms = diag;
    problem.inputs.b_norm_sq = sums[p * p + m * p + j];
    for (const double v : atb) {
      problem.inputs.lambda_max =
          std::max(problem.inputs.lambda_max, std::abs(v));
    }
  }
  return problems;
}

namespace detail {

void ChainScreenState::reset(std::size_t p) {
  has_prev = false;
  lambda_prev = 0.0;
  beta_prev.assign(p, 0.0);
  c_prev.assign(p, 0.0);
  ever_active.assign(p, 0);
}

std::vector<std::size_t> screen_working_set(ScreenMode mode, double lambda1,
                                            const ScreenInputs& in,
                                            const ChainScreenState& state) {
  const std::size_t p = in.atb.size();
  std::vector<std::size_t> working;
  if (mode == ScreenMode::kOff) {
    working.resize(p);
    for (std::size_t j = 0; j < p; ++j) working[j] = j;
    return working;
  }
  working.reserve(p / 4);
  if (mode == ScreenMode::kSafe) {
    // El Ghaoui et al. 2010, basic SAFE test: discard j when
    //   |a_j' b| < lambda - ||a_j|| ||b|| (lambda_max - lambda)/lambda_max.
    // A certificate, not a heuristic — discarded columns are provably
    // zero at lambda, so the KKT loop never re-admits them.
    const double b_norm = std::sqrt(std::max(0.0, in.b_norm_sq));
    const double shrink =
        in.lambda_max > 0.0 ? (in.lambda_max - lambda1) / in.lambda_max : 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      const double slack =
          std::sqrt(std::max(0.0, in.col_sq_norms[j])) * b_norm * shrink;
      if (state.ever_active[j] != 0 ||
          std::abs(in.atb[j]) >= lambda1 - slack) {
        working.push_back(j);
      }
    }
    return working;
  }
  // Sequential strong rule (Tibshirani et al. 2012): keep j when
  // |c_prev_j| >= 2 lambda - lambda_prev, where c_prev is the residual
  // correlation at the previous chain solution; the first step uses
  // c = A'b and lambda_prev = lambda_max. Can discard active columns in
  // pathological designs — the KKT post-check re-admits them.
  const bool first = !state.has_prev;
  const double prev = first ? in.lambda_max : state.lambda_prev;
  const double threshold = 2.0 * lambda1 - prev;
  const std::span<const double> corr =
      first ? std::span<const double>(in.atb)
            : std::span<const double>(state.c_prev);
  for (std::size_t j = 0; j < p; ++j) {
    if (state.ever_active[j] != 0 || std::abs(corr[j]) >= threshold) {
      working.push_back(j);
    }
  }
  return working;
}

std::vector<std::size_t> kkt_violators(std::span<const double> c,
                                       std::span<const char> in_working,
                                       double lambda1,
                                       const ScreenOptions& options) {
  const double slack =
      options.kkt_tolerance * std::max(1.0, lambda1);
  std::vector<std::size_t> violators;
  for (std::size_t j = 0; j < c.size(); ++j) {
    if (in_working[j] == 0 && std::abs(c[j]) > lambda1 + slack) {
      violators.push_back(j);
    }
  }
  return violators;
}

Vector gather_vector(std::span<const double> src,
                     std::span<const std::size_t> idx) {
  Vector out(idx.size());
  uoi::linalg::gather_compact(src, idx, out);
  return out;
}

Matrix gather_cols_view(ConstMatrixView a, std::span<const std::size_t> idx) {
  Matrix out(a.rows(), idx.size());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    uoi::linalg::gather_compact(a.row(r), idx, out.row(r));
  }
  return out;
}

Matrix gather_submatrix(const Matrix& a, std::span<const std::size_t> idx) {
  Matrix out(idx.size(), idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    uoi::linalg::gather_compact(a.row(idx[i]), idx, out.row(i));
  }
  return out;
}

AdmmOptions refined_admm_options(AdmmOptions admm,
                                 const ScreenOptions& screen) {
  admm.eps_abs *= screen.refine_tolerance_scale;
  admm.eps_rel *= screen.refine_tolerance_scale;
  admm.max_iterations *= screen.refine_iteration_scale;
  return admm;
}

void merge_violators(std::vector<std::size_t>& working,
                     std::vector<char>& in_working,
                     const std::vector<std::size_t>& violators) {
  for (const std::size_t j : violators) in_working[j] = 1;
  std::vector<std::size_t> merged;
  merged.reserve(working.size() + violators.size());
  std::merge(working.begin(), working.end(), violators.begin(),
             violators.end(), std::back_inserter(merged));
  working = std::move(merged);
}

Vector expand_vector(std::span<const double> src,
                     std::span<const std::size_t> idx, std::size_t p) {
  Vector full(p, 0.0);
  if (!src.empty()) uoi::linalg::scatter_expand(src, idx, full);
  return full;
}

void allreduce_correlation(uoi::sim::Comm& comm, Vector& c,
                           DistributedAdmmResult& fit) {
  comm.allreduce(std::span<double>(c), uoi::sim::ReduceOp::kSum);
  fit.allreduce_calls += 1;
  fit.allreduce_bytes += c.size() * sizeof(double);
}

namespace {

/// b - A beta, subtracting the support's columns one at a time.
Vector support_residual(ConstMatrixView a, std::span<const double> b,
                        std::span<const double> beta,
                        std::span<const std::size_t> support) {
  Vector r(b.begin(), b.end());
  for (const std::size_t j : support) {
    const double bj = beta[j];
    for (std::size_t row = 0; row < a.rows(); ++row) r[row] -= bj * a(row, j);
  }
  return r;
}

}  // namespace

// ---- Serial lasso backend -----------------------------------------------

SerialLassoBackend::SerialLassoBackend(const AdmmOptions& admm,
                                       ConstMatrixView a,
                                       std::span<const double> b)
    : a_(a), b_(b), admm_(admm),
      inputs_(screen_inputs_from_sums(screen_sums(a, b))) {}

AdmmResult SerialLassoBackend::full_solve(double lambda1, double lambda2,
                                          const AdmmResult& warm) {
  if (!full_solver_) full_solver_.emplace(a_, b_, admm_);
  return full_solver_->solve_elastic_net(lambda1, lambda2, &warm);
}

AdmmResult SerialLassoBackend::subset_solve(std::span<const std::size_t> cols,
                                            double lambda1, double lambda2,
                                            const AdmmResult& warm) {
  gathered_ = gather_cols_view(a_, cols);
  const LassoAdmmSolver sub(gathered_, b_, admm_);
  return sub.solve_elastic_net(lambda1, lambda2, &warm);
}

void SerialLassoBackend::kkt_correlation(std::span<const double> beta_w,
                                         std::span<const std::size_t> working,
                                         Vector& c, AdmmResult& spent) const {
  const std::size_t n = a_.rows();
  Vector r(b_.begin(), b_.end());
  if (!beta_w.empty()) {
    uoi::linalg::gemv(-1.0, gathered_, beta_w, 1.0, r);
    spent.flops += uoi::linalg::gemv_flops(n, working.size());
  }
  uoi::linalg::gemv_transposed(1.0, a_, r, 0.0, c);
  spent.flops += uoi::linalg::gemv_flops(n, a_.cols());
}

void SerialLassoBackend::refresh_correlation(
    std::span<const double> beta, std::span<const std::size_t> support,
    Vector& c, AdmmResult& result) const {
  const Vector r = support_residual(a_, b_, beta, support);
  uoi::linalg::gemv_transposed(1.0, a_, r, 0.0, c);
  result.flops += uoi::linalg::gemv_flops(a_.rows(), a_.cols());
}

// ---- Distributed lasso backend ------------------------------------------

DistributedLassoBackend::DistributedLassoBackend(
    const AdmmOptions& admm, uoi::sim::Comm& comm, ConstMatrixView local_a,
    std::span<const double> local_b, const ScreenInputs& shared,
    const DistributedLassoAdmmSolver* full_solver)
    : comm_(&comm), a_(local_a), b_(local_b), admm_(admm), shared_(&shared),
      full_solver_(full_solver) {
  UOI_CHECK_DIMS(shared.atb.size() == local_a.cols(),
                 "screen inputs shape mismatch");
}

DistributedAdmmResult DistributedLassoBackend::full_solve(
    double lambda1, double lambda2, const DistributedAdmmResult& warm) {
  if (full_solver_ == nullptr && !owned_full_solver_) {
    owned_full_solver_.emplace(*comm_, a_, b_, admm_);
  }
  const DistributedLassoAdmmSolver& solver =
      full_solver_ != nullptr ? *full_solver_ : *owned_full_solver_;
  return solver.solve_elastic_net(lambda1, lambda2, &warm);
}

DistributedAdmmResult DistributedLassoBackend::subset_solve(
    std::span<const std::size_t> cols, double lambda1, double lambda2,
    const DistributedAdmmResult& warm) {
  gathered_ = gather_cols_view(a_, cols);
  // No collectives in this constructor, so building a fresh reduced
  // solver per lambda stays collective-safe.
  const DistributedLassoAdmmSolver sub(*comm_, gathered_, b_, admm_);
  return sub.solve_elastic_net(lambda1, lambda2, &warm);
}

void DistributedLassoBackend::kkt_correlation(
    std::span<const double> beta_w, std::span<const std::size_t> working,
    Vector& c, DistributedAdmmResult& spent) const {
  // c = sum_ranks A_i'(b_i - A_{i,W} z_W).
  Vector r(b_.begin(), b_.end());
  if (!beta_w.empty() && a_.rows() > 0) {
    uoi::linalg::gemv(-1.0, gathered_, beta_w, 1.0, r);
    spent.local_flops += uoi::linalg::gemv_flops(a_.rows(), working.size());
  }
  correlate(r, c, spent);
}

void DistributedLassoBackend::refresh_correlation(
    std::span<const double> beta, std::span<const std::size_t> support,
    Vector& c, DistributedAdmmResult& result) const {
  correlate(support_residual(a_, b_, beta, support), c, result);
}

void DistributedLassoBackend::correlate(std::span<const double> r, Vector& c,
                                        DistributedAdmmResult& fit) const {
  c.assign(a_.cols(), 0.0);
  if (a_.rows() > 0) {
    uoi::linalg::gemv_transposed(1.0, a_, r, 0.0, c);
    fit.local_flops += uoi::linalg::gemv_flops(a_.rows(), a_.cols());
  }
  allreduce_correlation(*comm_, c, fit);
}

// ---- Gram lasso backend -------------------------------------------------

GramLassoBackend::GramLassoBackend(const AdmmOptions& admm,
                                   const GramProblem& problem)
    : problem_(&problem), admm_(admm) {
  UOI_CHECK(problem.gram != nullptr, "Gram problem without a Gram");
  UOI_CHECK_DIMS(problem.gram->gram().rows() == problem.inputs.atb.size(),
                 "Gram problem shape mismatch");
}

AdmmResult GramLassoBackend::full_solve(double lambda1, double lambda2,
                                        const AdmmResult& warm) {
  if (!full_solver_) {
    full_solver_.emplace(problem_->gram, problem_->inputs.atb, admm_);
  }
  return full_solver_->solve_elastic_net(lambda1, lambda2, &warm);
}

AdmmResult GramLassoBackend::subset_solve(std::span<const std::size_t> cols,
                                          double lambda1, double lambda2,
                                          const AdmmResult& warm) {
  const LassoAdmmSolver sub(
      std::make_shared<const RidgeGram>(
          gather_submatrix(problem_->gram->gram(), cols)),
      gather_vector(problem_->inputs.atb, cols), admm_);
  return sub.solve_elastic_net(lambda1, lambda2, &warm);
}

std::uint64_t GramLassoBackend::take_setup_flops(bool full,
                                                std::size_t width) {
  if (!full) return uoi::linalg::cholesky_flops(width);
  if (full_setup_taken_) return 0;
  full_setup_taken_ = true;
  return uoi::linalg::cholesky_flops(width);
}

void GramLassoBackend::kkt_correlation(std::span<const double> beta_w,
                                       std::span<const std::size_t> working,
                                       Vector& c, AdmmResult& spent) const {
  correlate(beta_w, working, c, spent);
}

void GramLassoBackend::refresh_correlation(
    std::span<const double> beta, std::span<const std::size_t> support,
    Vector& c, AdmmResult& result) const {
  correlate(gather_vector(beta, support), support, c, result);
}

void GramLassoBackend::correlate(std::span<const double> coef,
                                 std::span<const std::size_t> cols, Vector& c,
                                 AdmmResult& fit) const {
  const Matrix& gram = problem_->gram->gram();
  c = problem_->inputs.atb;
  // G is symmetric, so column j of G_{:,W} is row W_j: contiguous axpys.
  for (std::size_t i = 0; i < cols.size(); ++i) {
    uoi::linalg::axpy(-coef[i], gram.row(cols[i]), c);
  }
  fit.flops += 2ULL * gram.rows() * cols.size();
}

template class ScreenedChain<SerialLassoBackend>;
template class ScreenedChain<DistributedLassoBackend>;
template class ScreenedChain<GramLassoBackend>;

}  // namespace detail

namespace {

/// One chain's place in walk_gram_chains: the lambda it is on and the
/// solve it runs, if any.
struct WalkLane {
  std::size_t cell = 0;
  std::optional<detail::AdmmIterate> iterate;
  Vector atb;  ///< A'b over the solve's columns
  std::size_t dim = 0;
  double factored_rho = 0.0;
  std::uint64_t refactor_flops = 0;
  /// Off mode: G + rho I at the options' rho, kept for the chain's full
  /// solves as the lone chain's cached full solver keeps it.
  std::optional<uoi::linalg::CholeskyFactor> full_factor;
};

}  // namespace

void walk_gram_chains(
    std::span<GramLassoChain> chains, std::span<const double> lambdas,
    const std::function<void(std::size_t, std::size_t, AdmmResult)>& take) {
  if (lambdas.empty()) return;
  std::size_t stride = 0;
  for (auto& chain : chains) {
    stride = std::max(stride, chain.backend().inputs().atb.size());
  }
  uoi::linalg::CholeskyBatch batch;
  Vector q(chains.size() * stride);
  Vector x(chains.size() * stride);
  std::vector<WalkLane> lanes(chains.size());
  std::size_t live = 0;

  // Factors lane k's x-update system at rho, as a lone solve over the
  // same columns does.
  const auto factor = [&](std::size_t k, double rho) {
    const auto& pending = chains[k].pending();
    const auto& backend = chains[k].backend();
    const Matrix& gram = backend.problem().gram->gram();
    WalkLane& lane = lanes[k];
    lane.factored_rho = rho;
    if (pending.full && rho == backend.options().rho) {
      if (!lane.full_factor) lane.full_factor.emplace(gram, rho);
      batch.assign(k, *lane.full_factor, k * stride);
      return;
    }
    batch.refactor(
        k, pending.full ? gram : detail::gather_submatrix(gram, pending.cols),
        rho, k * stride);
  };
  // Moves chain k on to its next solve, handing the steps that finish on
  // the way to `take`.
  const auto next_solve = [&](std::size_t k, bool pending) {
    WalkLane& lane = lanes[k];
    auto& backend = chains[k].backend();
    for (;;) {
      while (!pending) {
        take(k, lane.cell, chains[k].take_result());
        if (++lane.cell == lambdas.size()) return;
        pending = chains[k].start(lambdas[lane.cell]);
      }
      const auto& solve = chains[k].pending();
      const Vector& atb = backend.problem().inputs.atb;
      lane.dim = solve.full ? atb.size() : solve.cols.size();
      lane.atb = solve.full ? atb : detail::gather_vector(atb, solve.cols);
      lane.iterate.emplace(lane.dim, solve.lambda1, solve.lambda2,
                           backend.options(), &solve.warm,
                           backend.take_setup_flops(solve.full, lane.dim));
      lane.refactor_flops = 0;
      if (lane.iterate->running()) break;
      // No iteration budget: the fit is the warm start, as a lone solve's.
      AdmmResult fit = lane.iterate->finish();
      lane.iterate.reset();
      pending = chains[k].resume(std::move(fit));
    }
    factor(k, backend.options().rho);
    ++live;
  };

  for (std::size_t k = 0; k < chains.size(); ++k) {
    next_solve(k, chains[k].start(lambdas[0]));
  }
  while (live > 0) {
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      WalkLane& lane = lanes[k];
      if (!lane.iterate) continue;
      if (lane.iterate->rho() != lane.factored_rho) {
        factor(k, lane.iterate->rho());
        lane.refactor_flops += uoi::linalg::cholesky_flops(lane.dim);
      }
      lane.iterate->form_rhs(
          lane.atb, std::span<double>(q).subspan(k * stride, lane.dim));
    }
    batch.solve(q, x);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      WalkLane& lane = lanes[k];
      if (!lane.iterate) continue;
      lane.iterate->advance(
          std::span<const double>(x).subspan(k * stride, lane.dim),
          2 * uoi::linalg::trsv_flops(lane.dim));
      if (lane.iterate->running()) continue;
      AdmmResult fit = lane.iterate->finish(lane.refactor_flops);
      lane.iterate.reset();
      batch.retire(k);
      --live;
      next_solve(k, chains[k].resume(std::move(fit)));
    }
  }
}

}  // namespace uoi::solvers
