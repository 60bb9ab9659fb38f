#include "solvers/screening.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "linalg/blas.hpp"
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

namespace {

/// The fused local pass [A'b | per-column ||.||^2 | b'b] of a row block.
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

}  // namespace

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

ScreenInputs build_screen_inputs(uoi::sim::Comm& comm, ConstMatrixView local_a,
                                 std::span<const double> local_b) {
  Vector buffer = screen_sums(local_a, local_b);
  comm.allreduce(std::span<double>(buffer), uoi::sim::ReduceOp::kSum);
  return screen_inputs_from_sums(buffer);
}

Vector gram_sums(ConstMatrixView a, std::span<const double> b) {
  const std::size_t p = a.cols();
  Vector sums(p * p + p + 1, 0.0);
  Matrix gram(p, p);
  uoi::linalg::syrk_at_a(1.0, a, 0.0, gram);
  std::copy(gram.data(), gram.data() + p * p, sums.begin());
  uoi::linalg::gemv_transposed(1.0, a, b, 0.0,
                               std::span<double>(sums.data() + p * p, p));
  sums[p * p + p] = uoi::linalg::nrm2_squared(b);
  return sums;
}

std::uint64_t gram_sums_flops(std::size_t n, std::size_t p) {
  return uoi::linalg::gemm_flops(p, n, p) / 2 + uoi::linalg::gemv_flops(n, p) +
         2 * n;
}

GramProblem gram_problem_from_sums(std::span<const double> sums,
                                   std::size_t p) {
  UOI_CHECK_DIMS(sums.size() == p * p + p + 1, "Gram sums shape mismatch");
  Matrix gram(p, p);
  std::copy(sums.begin(), sums.begin() + static_cast<std::ptrdiff_t>(p * p),
            gram.data());
  GramProblem problem;
  problem.inputs.atb.assign(
      sums.begin() + static_cast<std::ptrdiff_t>(p * p),
      sums.begin() + static_cast<std::ptrdiff_t>(p * p + p));
  problem.inputs.col_sq_norms.resize(p);
  for (std::size_t j = 0; j < p; ++j) problem.inputs.col_sq_norms[j] = gram(j, j);
  problem.inputs.b_norm_sq = sums[p * p + p];
  for (const double v : problem.inputs.atb) {
    problem.inputs.lambda_max =
        std::max(problem.inputs.lambda_max, std::abs(v));
  }
  problem.gram = std::make_shared<const RidgeGram>(std::move(gram));
  return problem;
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

}  // namespace uoi::solvers
