#include "solvers/screening.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "solvers/prox.hpp"
#include "support/error.hpp"

namespace uoi::solvers {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

namespace {

/// KKT slack: column j outside W violates when
/// |c_j| > lambda1 + kKktTolerance * max(1, lambda1).
constexpr double kKktTolerance = 1e-7;
/// refined_admm_options: eps_abs / eps_rel scale and iteration budget scale.
constexpr double kRefineToleranceScale = 1e-3;
constexpr std::size_t kRefineIterationScale = 10;

}  // namespace

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
  Vector atb(a.cols(), 0.0);
  uoi::linalg::gemv_transposed(1.0, a, b, 0.0, atb);
  return atb;
}

ScreenInputs screen_inputs_from_sums(std::span<const double> sums) {
  ScreenInputs inputs;
  inputs.atb.assign(sums.begin(), sums.end());
  for (const double v : inputs.atb) {
    inputs.lambda_max = std::max(inputs.lambda_max, std::abs(v));
  }
  return inputs;
}

Vector gram_sums(ConstMatrixView a, ConstMatrixView b) {
  UOI_CHECK_DIMS(a.rows() == b.rows(), "Gram sums: A and B rows differ");
  const std::size_t p = a.cols();
  const std::size_t m = b.cols();
  Vector sums(p * p + m * p, 0.0);
  Matrix gram(p, p);
  uoi::linalg::syrk_at_a(1.0, a, 0.0, gram);
  std::copy(gram.data(), gram.data() + p * p, sums.begin());
  Vector column(b.rows());
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t r = 0; r < b.rows(); ++r) column[r] = b(r, j);
    uoi::linalg::gemv_transposed(
        1.0, a, column, 0.0, std::span<double>(sums).subspan(p * p + j * p, p));
  }
  return sums;
}

std::uint64_t gram_sums_flops(std::size_t n, std::size_t p, std::size_t m) {
  return uoi::linalg::gemm_flops(p, n, p) / 2 +
         m * uoi::linalg::gemv_flops(n, p);
}

std::vector<GramProblem> gram_problems_from_sums(std::span<const double> sums,
                                                 std::size_t p,
                                                 std::size_t m) {
  UOI_CHECK_DIMS(sums.size() == p * p + m * p, "Gram sums shape mismatch");
  Matrix gram(p, p);
  std::copy(sums.begin(), sums.begin() + static_cast<std::ptrdiff_t>(p * p),
            gram.data());
  const auto shared = std::make_shared<const RidgeGram>(std::move(gram));
  std::vector<GramProblem> problems(m);
  for (std::size_t j = 0; j < m; ++j) {
    GramProblem& problem = problems[j];
    const auto atb = sums.subspan(p * p + j * p, p);
    problem.gram = shared;
    problem.inputs = screen_inputs_from_sums(atb);
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

std::vector<std::size_t> screen_working_set(double lambda1,
                                            const ScreenInputs& in,
                                            const ChainScreenState& state) {
  const std::size_t p = in.atb.size();
  std::vector<std::size_t> working;
  working.reserve(p / 4);
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
                                       double lambda1) {
  const double slack = kKktTolerance * std::max(1.0, lambda1);
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

AdmmOptions refined_admm_options(AdmmOptions admm) {
  admm.eps_abs *= kRefineToleranceScale;
  admm.eps_rel *= kRefineToleranceScale;
  admm.max_iterations *= kRefineIterationScale;
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
    std::span<const double> local_b, const ScreenInputs& shared)
    : comm_(&comm), a_(local_a), b_(local_b), admm_(admm), shared_(&shared) {
  UOI_CHECK_DIMS(shared.atb.size() == local_a.cols(),
                 "screen inputs shape mismatch");
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

template class ScreenedChain<SerialLassoBackend>;
template class ScreenedChain<DistributedLassoBackend>;

}  // namespace detail

// ---- Gram lasso chain ---------------------------------------------------

GramLassoChain::GramLassoChain(const GramProblem& problem,
                               const AdmmOptions& admm)
    : problem_(&problem), admm_(detail::refined_admm_options(admm)) {
  UOI_CHECK(problem.gram != nullptr, "Gram problem without a Gram");
  const Matrix& gram = problem.gram->gram();
  const std::size_t p = problem.inputs.atb.size();
  UOI_CHECK_DIMS(gram.rows() == p, "Gram problem shape mismatch");
  all_.resize(p);
  scale_.resize(p);
  for (std::size_t j = 0; j < p; ++j) {
    all_[j] = j;
    scale_[j] = std::sqrt(gram(j, j));
  }
  reset();
}

void GramLassoChain::reset() {
  const std::size_t p = all_.size();
  beta_.assign(p, 0.0);
  grad_.resize(p);
  for (std::size_t j = 0; j < p; ++j) grad_[j] = -problem_->inputs.atb[j];
  is_active_.assign(p, 0);
  active_.clear();
  has_prev_ = false;
}

AdmmResult GramLassoChain::solve(double lambda1, double lambda2) {
  return solve(lambda1, lambda2, uoi::linalg::simd::active_kernels());
}

AdmmResult GramLassoChain::solve(
    double lambda1, double lambda2,
    const uoi::linalg::simd::KernelTable& kernels) {
  UOI_CHECK(lambda1 >= 0.0, "lambda must be non-negative");
  UOI_CHECK(lambda2 >= 0.0, "l2 penalty must be non-negative");
  if (has_prev_ && lambda1 > lambda_prev_) reset();
  has_prev_ = true;
  lambda_prev_ = lambda1;

  AdmmResult fit;
  bool full = true;
  while (fit.iterations < admm_.max_iterations) {
    const double step = sweep(full ? std::span<const std::size_t>(all_)
                                   : std::span<const std::size_t>(active_),
                              lambda1, lambda2, kernels, fit);
    ++fit.iterations;
    fit.primal_residual = step;
    if (full) {
      active_.clear();
      for (std::size_t j = 0; j < all_.size(); ++j) {
        if (is_active_[j] != 0) active_.push_back(j);
      }
      if (step <= admm_.eps_abs) {
        fit.converged = true;
        break;
      }
    }
    // Back to a full sweep once the active set settles.
    full = step <= admm_.eps_abs;
  }
  if (!fit.converged && admm_.throw_on_nonconvergence) {
    throw uoi::support::ConvergenceError(
        "Gram coordinate descent did not converge within the sweep budget");
  }
  fit.beta = beta_;
  ++stats_.lambdas;
  stats_.total_columns += all_.size();
  stats_.survivors += active_.size();
  return fit;
}

double GramLassoChain::sweep(std::span<const std::size_t> coords,
                             double lambda1, double lambda2,
                             const uoi::linalg::simd::KernelTable& kernels,
                             AdmmResult& fit) {
  const Matrix& gram = problem_->gram->gram();
  const std::size_t p = all_.size();
  double largest = 0.0;
  for (const std::size_t j : coords) {
    fit.flops += 4;
    const double diag = gram(j, j);
    if (!(diag + lambda2 > 0.0)) continue;
    const double old = beta_[j];
    const double next =
        soft_threshold(diag * old - grad_[j], lambda1) / (diag + lambda2);
    if (next == old) continue;
    beta_[j] = next;
    if (next != 0.0) is_active_[j] = 1;
    const double delta = next - old;
    kernels.axpy(delta, gram.row(j).data(), grad_.data(), p);
    fit.flops += 2 * p;
    largest = std::max(largest, scale_[j] * std::abs(delta));
  }
  return largest;
}

}  // namespace uoi::solvers
