#include "var/var_distributed.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/uoi_engine.hpp"
#include "io/h5lite.hpp"
#include "linalg/blas.hpp"
#include "sched/cost_model.hpp"
#include "solvers/consensus_loop.hpp"
#include "solvers/ols.hpp"
#include "solvers/ridge_system.hpp"
#include "solvers/screening.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"
#include "var/lag_matrix.hpp"

namespace uoi::var {

using uoi::core::SupportSet;
using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;
using uoi::sim::Comm;
using uoi::sim::ReduceOp;
using uoi::sim::Window;

namespace {

struct Range {
  std::size_t begin;
  std::size_t end;
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

Range even_slice(std::size_t total, int parts, int index) {
  const auto k = static_cast<std::size_t>(parts);
  const auto i = static_cast<std::size_t>(index);
  return {total * i / k, total * (i + 1) / k};
}

/// Which reader owns lag-matrix row t under even row partitioning.
int reader_of_row(std::size_t t, std::size_t rows, int n_readers) {
  // Inverse of even_slice: the smallest reader whose range contains t.
  for (int r = 0; r < n_readers; ++r) {
    const Range range = even_slice(rows, n_readers, r);
    if (t >= range.begin && t < range.end) return r;
  }
  UOI_CHECK(false, "row has no reader");
  return -1;
}

}  // namespace

Matrix load_series_distributed(Comm& comm, const std::string& dataset_base,
                               int n_readers,
                               const uoi::sim::RetryOptions& retry) {
  UOI_CHECK(n_readers >= 1, "need at least one reader rank");
  n_readers = std::min(n_readers, comm.size());
  const bool is_reader = comm.rank() < n_readers;

  std::size_t dims[2] = {0, 0};
  if (comm.rank() == 0) {
    const uoi::io::DatasetInfo info = uoi::io::read_info(dataset_base);
    dims[0] = info.rows;
    dims[1] = info.cols;
  }
  comm.bcast(std::span<std::size_t>(dims, 2), 0);
  const std::size_t rows = dims[0];
  const std::size_t cols = dims[1];

  // Every rank exposes the full series buffer; readers fill their slabs
  // locally and push them to every peer.
  Matrix series(rows, cols);
  uoi::sim::Window window(comm, {series.data(), series.size()});
  window.fence();
  if (is_reader) {
    const Range share = even_slice(rows, n_readers, comm.rank());
    uoi::io::DatasetReader reader(dataset_base);
    Matrix slab;
    reader.read_rows(share.begin, share.size(), slab);
    for (std::size_t r = 0; r < slab.rows(); ++r) {
      const auto src = slab.row(r);
      std::copy(src.begin(), src.end(), series.row(share.begin + r).begin());
      for (int target = 0; target < comm.size(); ++target) {
        if (target == comm.rank()) continue;
        uoi::sim::retry_onesided(comm, retry, [&] {
          window.put(target, (share.begin + r) * cols, src);
        });
      }
    }
  }
  window.fence();
  return series;
}

VarLocalBlock distributed_kron_vectorize(Comm& comm, const LagRegression& lag,
                                         int n_readers,
                                         const uoi::sim::RetryOptions& retry) {
  UOI_CHECK(n_readers >= 1, "need at least one reader rank");
  n_readers = std::min(n_readers, comm.size());
  const bool is_reader = comm.rank() < n_readers;

  // Readers publish the problem shape.
  std::size_t dims[3] = {0, 0, 0};  // rows (N-d), dp, p
  if (comm.rank() == 0) {
    UOI_CHECK(lag.x.rows() > 0, "reader rank 0 has an empty lag regression");
    dims[0] = lag.x.rows();
    dims[1] = lag.x.cols();
    dims[2] = lag.y.cols();
  }
  comm.bcast(std::span<std::size_t>(dims, 3), 0);
  const std::size_t rows = dims[0];
  const std::size_t dp = dims[1];
  const std::size_t p = dims[2];

  // Each reader exposes its share of X's rows and Y's rows through windows.
  const Range my_share =
      is_reader ? even_slice(rows, n_readers, comm.rank()) : Range{0, 0};
  Vector x_buffer, y_buffer;
  if (is_reader) {
    UOI_CHECK_DIMS(lag.x.rows() == rows && lag.y.cols() == p,
                   "reader lag regression shape mismatch");
    x_buffer.resize(my_share.size() * dp);
    y_buffer.resize(my_share.size() * p);
    for (std::size_t t = my_share.begin; t < my_share.end; ++t) {
      const auto x_src = lag.x.row(t);
      std::copy(x_src.begin(), x_src.end(),
                x_buffer.begin() +
                    static_cast<std::ptrdiff_t>((t - my_share.begin) * dp));
      const auto y_src = lag.y.row(t);
      std::copy(y_src.begin(), y_src.end(),
                y_buffer.begin() +
                    static_cast<std::ptrdiff_t>((t - my_share.begin) * p));
    }
  }
  Window x_window(comm, x_buffer);
  Window y_window(comm, y_buffer);

  // Assemble this rank's contiguous rows of the vectorized problem.
  const std::size_t total_rows = rows * p;
  const Range mine = even_slice(total_rows, comm.size(), comm.rank());

  VarLocalBlock block;
  block.dp = dp;
  block.n_equations = p;
  block.global_row_begin = mine.begin;
  block.x_rows.resize(mine.size(), dp);
  block.y.resize(mine.size());
  block.equation_of_row.resize(mine.size());

  x_window.fence();
  y_window.fence();
  Vector y_cell(1);
  for (std::size_t r = mine.begin; r < mine.end; ++r) {
    const std::size_t local = r - mine.begin;
    const std::size_t e = r / rows;       // equation (block) index
    const std::size_t t = r % rows;       // lag-matrix row
    block.equation_of_row[local] = e;
    const int reader = reader_of_row(t, rows, n_readers);
    const Range reader_share = even_slice(rows, n_readers, reader);
    const std::size_t local_t = t - reader_share.begin;
    uoi::sim::retry_onesided(comm, retry, [&] {
      x_window.get(reader, local_t * dp, block.x_rows.row(local));
    });
    uoi::sim::retry_onesided(comm, retry, [&] {
      y_window.get(reader, local_t * p + e, y_cell);
    });
    block.y[local] = y_cell[0];
  }
  x_window.fence();
  y_window.fence();
  return block;
}

namespace {

/// Calls f(e, begin, end) for each equation's range [begin, end) of local
/// rows: global rows are contiguous, so local rows arrive grouped by
/// equation.
template <class F>
void for_each_equation(const VarLocalBlock& block, F&& f) {
  const std::vector<std::size_t>& eq = block.equation_of_row;
  for (std::size_t begin = 0, end = 0; begin < eq.size(); begin = end) {
    while (end < eq.size() && eq[end] == eq[begin]) ++end;
    f(eq[begin], begin, end);
  }
}

/// The full solver's working set: every coefficient.
std::vector<std::size_t> all_coefficients(const VarLocalBlock& block) {
  std::vector<std::size_t> all(block.n_coefficients());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

}  // namespace

DistributedVarAdmmSolver::DistributedVarAdmmSolver(
    Comm& comm, const VarLocalBlock& block,
    const uoi::solvers::AdmmOptions& options)
    : DistributedVarAdmmSolver(comm, block, all_coefficients(block),
                               options) {}

DistributedVarAdmmSolver::DistributedVarAdmmSolver(
    Comm& comm, const VarLocalBlock& block,
    std::span<const std::size_t> working,
    const uoi::solvers::AdmmOptions& options)
    : comm_(&comm), block_(&block), options_(options),
      atb_(working.size(), 0.0) {
  std::vector<uoi::solvers::BlockRidgeSolver::Block> blocks;
  cols_.reserve(block.n_equations);
  for_each_equation(block, [&](std::size_t e, std::size_t begin,
                               std::size_t end) {
    detail::append_equation_block(
        block.x_rows.row_block(begin, end - begin),
        std::span<const double>(block.y).subspan(begin, end - begin), e,
        working, cols_, blocks, atb_);
  });
  system_ =
      std::make_unique<uoi::solvers::BlockRidgeSolver>(blocks, options_.rho);
  setup_flops_ = system_->setup_flops();
  pending_setup_flops_ = setup_flops_;
}

DistributedVarAdmmSolver::~DistributedVarAdmmSolver() = default;

uoi::solvers::DistributedAdmmResult DistributedVarAdmmSolver::solve(
    double lambda,
    const uoi::solvers::DistributedAdmmResult* warm_start) const {
  const std::size_t n_coeffs = atb_.size();

  Vector q(n_coeffs);
  std::optional<uoi::solvers::BlockRidgeSolver> rebuilt;
  double current_rho = options_.rho;
  std::uint64_t refactor_flops = 0;
  const std::uint64_t charged_setup = pending_setup_flops_;
  pending_setup_flops_ = 0;
  auto result = uoi::solvers::detail::run_consensus_admm_loop(
      *comm_, n_coeffs, lambda, options_,
      [&](const Vector& z, const Vector& u, Vector& x, double rho) {
        if (rho != current_rho) {
          // Adaptive rho: refactor every equation's local system from its
          // cached rho-free Gram (diagonal-shift Cholesky only — the
          // O(rows * dp^2) Gram builds are not repeated).
          rebuilt.emplace(*system_, rho);
          refactor_flops += rebuilt->setup_flops();
          current_rho = rho;
        }
        // Coordinates with no local rows: x = z - u (prox-only minimizer);
        // the equation solves below overwrite every other coordinate.
        for (std::size_t i = 0; i < n_coeffs; ++i) {
          x[i] = z[i] - u[i];
          q[i] = atb_[i] + rho * (z[i] - u[i]);
        }
        (rebuilt ? *rebuilt : *system_).solve(q, x);
      },
      charged_setup, system_->solve_flops(), warm_start);
  result.local_flops += refactor_flops;
  return result;
}

namespace {

/// Equations handled by task-group rank `c` of `c_ranks` during estimation.
bool owns_equation(std::size_t e, int c_ranks, int c_rank) {
  return static_cast<int>(e % static_cast<std::size_t>(c_ranks)) == c_rank;
}

/// Replicated screening inputs for the vectorized VAR problem: one fused
/// (2 dp p + 1)-double allreduce over [A'b | column ||.||^2 | b'b], where
/// column g = e*dp + c lives only in equation e's rows.
uoi::solvers::ScreenInputs build_var_screen_inputs(
    Comm& comm, const VarLocalBlock& block) {
  const std::size_t nc = block.n_coefficients();
  const std::size_t dp = block.dp;
  Vector buffer(2 * nc + 1, 0.0);
  for_each_equation(block, [&](std::size_t e, std::size_t begin,
                               std::size_t end) {
    const ConstMatrixView rows = block.x_rows.row_block(begin, end - begin);
    uoi::linalg::gemv_transposed(
        1.0, rows, std::span<const double>(block.y).subspan(begin, end - begin),
        0.0, std::span<double>(buffer).subspan(e * dp, dp));
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      const auto row = rows.row(r);
      for (std::size_t c = 0; c < dp; ++c) {
        buffer[nc + e * dp + c] += row[c] * row[c];
      }
    }
  });
  buffer[2 * nc] = uoi::linalg::nrm2_squared(block.y);
  comm.allreduce(std::span<double>(buffer), ReduceOp::kSum);
  return uoi::solvers::screen_inputs_from_sums(buffer);
}

/// Local contribution to c = A'(b - A beta) for a full-length beta,
/// exploiting the block structure (equation e's rows touch only the
/// coefficient block [e*dp, (e+1)*dp)).
Vector var_correlation_local(const VarLocalBlock& block,
                             std::span<const double> beta_full,
                             std::uint64_t& flops) {
  const std::size_t dp = block.dp;
  Vector c(block.n_coefficients(), 0.0);
  for_each_equation(block, [&](std::size_t e, std::size_t begin,
                               std::size_t end) {
    const ConstMatrixView rows = block.x_rows.row_block(begin, end - begin);
    Vector r(block.y.begin() + static_cast<std::ptrdiff_t>(begin),
             block.y.begin() + static_cast<std::ptrdiff_t>(end));
    uoi::linalg::gemv(-1.0, rows, beta_full.subspan(e * dp, dp), 1.0, r);
    uoi::linalg::gemv_transposed(1.0, rows, r, 0.0,
                                 std::span<double>(c).subspan(e * dp, dp));
    flops += 2 * uoi::linalg::gemv_flops(end - begin, dp);
  });
  return c;
}

/// Distributed backend of the screened chain (solvers::detail::
/// ScreenedChain) over the block-structured VAR solver: reduced solves go
/// to the active-set DistributedVarAdmmSolver, so the fused consensus
/// payload shrinks from (dp*p + 3) to (|W| + 3) doubles; each correlation
/// is var_correlation_local plus one nc-length allreduce.
class DistributedVarBackend {
 public:
  using Fit = uoi::solvers::DistributedAdmmResult;

  DistributedVarBackend(const uoi::solvers::AdmmOptions& admm, Comm& comm,
                        const VarLocalBlock& block,
                        const uoi::solvers::ScreenInputs& shared,
                        const DistributedVarAdmmSolver* full_solver)
      : admm_(admm), comm_(&comm), block_(&block), shared_(&shared),
        full_solver_(full_solver) {}

  [[nodiscard]] const uoi::solvers::ScreenInputs& inputs() const noexcept {
    return *shared_;
  }

  [[nodiscard]] Fit full_solve(double lambda, double /*lambda2*/,
                               const Fit& warm) {
    if (full_solver_ == nullptr && !owned_full_solver_) {
      owned_full_solver_.emplace(*comm_, *block_, admm_);
    }
    const DistributedVarAdmmSolver& solver =
        full_solver_ != nullptr ? *full_solver_ : *owned_full_solver_;
    return solver.solve(lambda, &warm);
  }

  [[nodiscard]] Fit subset_solve(std::span<const std::size_t> cols,
                                 double lambda, double /*lambda2*/,
                                 const Fit& warm) const {
    // No collectives in the reduced constructor, so building a fresh
    // active-set solver per lambda stays collective-safe; its setup FLOPs
    // are charged to the first solve.
    const DistributedVarAdmmSolver sub(*comm_, *block_, cols, admm_);
    return sub.solve(lambda, &warm);
  }

  void kkt_correlation(std::span<const double> beta_w,
                       std::span<const std::size_t> working, Vector& c,
                       Fit& spent) const {
    const Vector beta_full = uoi::solvers::detail::expand_vector(
        beta_w, working, block_->n_coefficients());
    c = var_correlation_local(*block_, beta_full, spent.local_flops);
    uoi::solvers::detail::allreduce_correlation(*comm_, c, spent);
  }

  void refresh_correlation(std::span<const double> beta,
                           std::span<const std::size_t> /*support*/,
                           Vector& c, Fit& result) const {
    c = var_correlation_local(*block_, beta, result.local_flops);
    uoi::solvers::detail::allreduce_correlation(*comm_, c, result);
  }

 private:
  uoi::solvers::AdmmOptions admm_;
  Comm* comm_;
  const VarLocalBlock* block_;
  const uoi::solvers::ScreenInputs* shared_;
  const DistributedVarAdmmSolver* full_solver_;
  std::optional<DistributedVarAdmmSolver> owned_full_solver_;
};

// Per-bootstrap cache entries. bytes() returns an estimate computed from
// the *global* problem shape, not the local row counts: the selection
// build is collective over the task group, so every rank must make the
// identical LRU keep/evict decision or a hit/miss divergence would leave
// part of the group waiting in a collective forever.
struct VarSelectionEntry {
  VarLocalBlock block;
  /// Replicated screening inputs shared by every chain of the bootstrap.
  uoi::solvers::ScreenInputs screen_inputs;
  /// Full-coefficient solver; built only in off mode (screened chains
  /// build reduced active-set solvers per lambda instead).
  std::optional<DistributedVarAdmmSolver> solver;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

struct VarEstimationEntry {
  LagRegression train;
  LagRegression eval;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

/// Subtracts the column means in place when `center`; returns the means
/// (zeros otherwise).
Vector center_series(Matrix& series, bool center) {
  Vector means(series.cols(), 0.0);
  if (!center) return means;
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

/// Algorithm 2, lines 29-32, from the B2 estimation winners (one row
/// each): vec_beta is their mean, selection_frequency the fraction that
/// select each coefficient; then the support and the model (A_1..A_d,
/// mu), where centered data gives mu = (I - sum_j A_j) x_bar.
void finish_var_result(UoiVarResult& result, const Matrix& winners,
                       std::span<const double> means,
                       const UoiVarOptions& options) {
  const std::size_t b2 = winners.rows();
  const std::size_t n_coeffs = winners.cols();
  const std::size_t p = means.size();
  const std::size_t d = options.order;
  Vector beta_sum(n_coeffs, 0.0);
  Vector freq_sum(n_coeffs, 0.0);
  for (std::size_t k = 0; k < b2; ++k) {
    const auto row = winners.row(k);
    for (std::size_t i = 0; i < n_coeffs; ++i) {
      beta_sum[i] += row[i];
      if (std::abs(row[i]) > options.support_tolerance) freq_sum[i] += 1.0;
    }
  }
  result.vec_beta.assign(n_coeffs, 0.0);
  result.selection_frequency.assign(n_coeffs, 0.0);
  for (std::size_t i = 0; i < n_coeffs; ++i) {
    result.selection_frequency[i] = freq_sum[i] / static_cast<double>(b2);
    result.vec_beta[i] = beta_sum[i] / static_cast<double>(b2);
  }
  result.support =
      SupportSet::from_beta(result.vec_beta, options.support_tolerance);

  const VarModel fitted = VarModel::from_vec_b(result.vec_beta, p, d);
  Vector mu(p, 0.0);
  if (options.center) {
    mu.assign(means.begin(), means.end());
    for (std::size_t j = 0; j < d; ++j) {
      const auto& a = fitted.coefficient(j);
      for (std::size_t i = 0; i < p; ++i) {
        mu[i] -= uoi::linalg::dot(a.row(i), means);
      }
    }
  }
  result.model = VarModel(fitted.coefficients(), std::move(mu));
}

}  // namespace

UoiVarDistributedResult detail::fit_var(
    Comm& comm, ConstMatrixView series_view, const UoiVarOptions& options,
    const uoi::core::UoiParallelLayout& layout, int n_readers, bool serial) {
  const std::size_t p = series_view.cols();
  const std::size_t d = options.order;
  UOI_CHECK(series_view.rows() > d + 2,
            "series too short for the requested order");

  Matrix series = Matrix::from_view(series_view);
  const Vector means = center_series(series, options.center);

  const std::size_t dp = d * p;
  const std::size_t n_coeffs = dp * p;

  UoiVarDistributedResult out{{VarModel(std::vector<Matrix>(d, Matrix(p, p))),
                               {}, {}, {}, {}, {}, {}, 0,
                               1.0 - 1.0 / static_cast<double>(p), {}},
                              {}, {}, false, 1.0, {}};
  UoiVarResult& model = out.model;

  const LagRegression full = build_lag_regression(series, d);
  model.lambdas = resolve_var_lambda_grid(options, full.y, full.x);
  const std::size_t q = model.lambdas.size();
  const std::size_t b1 = options.n_selection_bootstraps;
  const std::size_t b2 = options.n_estimation_bootstraps;
  const uoi::sim::RetryOptions retry = options.recovery.retry_options();

  uoi::core::UoiEngineSpec spec;
  spec.name = "UoI_VAR";
  spec.computation_span = "uoi-var-computation";
  spec.n_selection_bootstraps = b1;
  spec.n_estimation_bootstraps = b2;
  spec.cell_lambdas = model.lambdas;
  spec.selection_width = n_coeffs;
  spec.winner_width = n_coeffs;
  spec.pass_seconds_seed = sched::var_pass_seconds_estimate(
      p, series.rows(), d, b1, b2, q, options.admm.max_iterations,
      comm.size());
  spec.seed = options.seed;
  spec.intersection_fraction = options.intersection_fraction;
  spec.schedule = options.schedule;
  // One rank visits each bootstrap once per pass: nothing to cache.
  spec.solver_cache_mb = serial ? 0 : options.solver_cache_mb;
  spec.layout = layout;
  spec.recovery = options.recovery;
  spec.consensus_interval = options.admm.consensus_interval;
  // Resolved once: the cache entry's shape (full solver or not) must be
  // identical on every rank.
  uoi::solvers::ScreenOptions screen_opts = options.screen;
  screen_opts.mode = uoi::solvers::resolve_screen_mode(options.screen.mode);
  const bool screening_on =
      screen_opts.mode != uoi::solvers::ScreenMode::kOff;
  spec.screen_mode = screen_opts.mode;
  uoi::core::FingerprintBuilder fp;
  // Tag keeps VAR checkpoints apart from LASSO ones.
  fp.add(static_cast<std::uint64_t>(0x766172ULL))
      .add(options.seed)
      .add(static_cast<std::uint64_t>(d))
      .add(static_cast<std::uint64_t>(b1))
      .add(static_cast<std::uint64_t>(options.block_length))
      .add(static_cast<std::uint64_t>(series.rows()))
      .add(static_cast<std::uint64_t>(p))
      .add(options.support_tolerance)
      .add(static_cast<std::uint64_t>(screen_opts.mode));
  for (const double l : model.lambdas) fp.add(l);
  spec.fingerprint = fp.value();

  // Selection: readers construct the bootstrap sample's lag regression;
  // compute ranks assemble their vectorized row blocks through the
  // windows. The block and its factorizations are cached per bootstrap,
  // so any chain of the same k — adjacent, interleaved, or stolen —
  // reuses them.
  const std::size_t vec_rows = (series.rows() - d) * p;
  const auto distributed_select = [&](uoi::core::UoiSelectionTask& task) {
    const auto& tl = task.layout;
    const int trace_rank = task.task_comm.global_rank();
    const int group_readers = std::min(n_readers, tl.c_ranks);
    const std::size_t k = task.bootstrap;
    const std::uint64_t hits_before = task.cache.stats().hits;
    const auto entry = task.cache.get_or_build<VarSelectionEntry>(
        uoi::solvers::kSelectionPass, k, [&] {
          auto fresh = std::make_shared<VarSelectionEntry>();
          LagRegression lag;
          if (tl.task_rank < group_readers) {
            const Matrix sample = block_bootstrap_sample(
                series, var_bootstrap_options(options, /*stage=*/0, k));
            lag = build_lag_regression(sample, d);
          }
          fresh->block = distributed_kron_vectorize(task.task_comm, lag,
                                                    group_readers, retry);
          {
            support::TraceScope gram_span("var-selection-gram",
                                          support::TraceCategory::kGram,
                                          trace_rank);
            fresh->screen_inputs =
                build_var_screen_inputs(task.task_comm, fresh->block);
            if (!screening_on) {
              // Off-mode chains reuse this cached full solver; it must
              // run under the chain's refined stopping rules.
              fresh->solver.emplace(
                  task.task_comm, fresh->block,
                  uoi::solvers::detail::refined_admm_options(options.admm,
                                                             screen_opts));
            }
          }
          fresh->bytes_estimate =
              (vec_rows * (dp + 1) + (screening_on ? 0 : dp * dp) +
               2 * n_coeffs + 1) *
              sizeof(double);
          return fresh;
        });
    if (entry->solver.has_value()) {
      if (task.cache.stats().hits != hits_before) {
        task.counters.setup_flops_amortized += entry->solver->setup_flops();
      } else {
        task.counters.setup_flops_charged += entry->solver->setup_flops();
      }
    }
    // The screened chain owns the warm start; reduced active-set solves
    // shrink the consensus payload to (|W|+3) doubles.
    uoi::solvers::detail::ScreenedChain<DistributedVarBackend> screened(
        options.admm, screen_opts, task.task_comm, entry->block,
        entry->screen_inputs,
        entry->solver.has_value() ? &*entry->solver : nullptr);
    for (std::size_t m = 0; m < task.cells.size(); ++m) {
      const auto fit = screened.solve(model.lambdas[task.cells[m]]);
      task.counters.add(fit);
      task.mark_selected(m, fit.beta, options.support_tolerance);
    }
    task.counters.screen += screened.stats();
  };

  const uoi::core::UoiSelectHook select =
      serial ? detail::serial_var_select_hook(series, options, model.lambdas)
             : uoi::core::UoiSelectHook(distributed_select);

  // Estimation: (bootstrap, chain) cells over the task groups, equations
  // over the C ranks of each group (the vectorized OLS decomposes exactly
  // per equation). Each rank's share of a winner row is its own
  // equations, so the winners Sum-reduce has one contributor per entry
  // and the aggregation is placement-independent. On one rank this is the
  // serial estimator: per-equation OLS on the training resample, scored
  // by the MSE over every equation's evaluation rows.
  const auto estimate = [&](uoi::core::UoiEstimationTask& task) {
    const auto& tl = task.layout;
    const std::size_t k = task.bootstrap;
    const auto entry = task.cache.get_or_build<VarEstimationEntry>(
        uoi::solvers::kEstimationPass, k, [&] {
          auto fresh = std::make_shared<VarEstimationEntry>();
          const Matrix train_sample = block_bootstrap_sample(
              series, var_bootstrap_options(options, /*stage=*/1, k));
          const Matrix eval_sample = block_bootstrap_sample(
              series, var_bootstrap_options(options, /*stage=*/2, k));
          fresh->train = build_lag_regression(train_sample, d);
          fresh->eval = build_lag_regression(eval_sample, d);
          fresh->bytes_estimate =
              2 * (series.rows() - d) * (dp + p) * sizeof(double);
          return fresh;
        });
    const LagRegression& train = entry->train;
    const LagRegression& eval = entry->eval;
    std::vector<std::size_t> eq_support;
    for (const std::size_t j : task.cells) {
      Vector beta_local(n_coeffs, 0.0);
      double sse[2] = {0.0, 0.0};  // (sum of squared errors, row count)
      for (std::size_t e = 0; e < p; ++e) {
        if (!owns_equation(e, tl.c_ranks, tl.task_rank)) continue;
        eq_support.clear();
        for (const std::size_t cc : task.supports[j].indices()) {
          if (cc >= e * dp && cc < (e + 1) * dp) {
            eq_support.push_back(cc - e * dp);
          }
        }
        Vector beta_e(dp, 0.0);
        if (!eq_support.empty()) {
          const Vector y_e = train.y.col(e);
          beta_e =
              uoi::solvers::ols_direct_on_support(train.x, y_e, eq_support);
        }
        for (std::size_t cc = 0; cc < dp; ++cc) {
          beta_local[e * dp + cc] = beta_e[cc];
        }
        for (std::size_t r = 0; r < eval.x.rows(); ++r) {
          const double err =
              uoi::linalg::dot(eval.x.row(r), beta_e) - eval.y(r, e);
          sse[0] += err * err;
        }
        sse[1] += static_cast<double>(eval.x.rows());
      }
      task.task_comm.allreduce(std::span<double>(sse, 2), ReduceOp::kSum);
      const double mse = sse[1] > 0.0 ? sse[0] / sse[1] : 0.0;
      task.record(j,
                  uoi::core::estimation_score(options.criterion, mse, sse[1],
                                              task.supports[j].size()),
                  std::move(beta_local));
    }
  };

  auto run = uoi::core::run_uoi_engine(comm, spec, select, estimate);

  model.candidate_supports = std::move(run.candidate_supports);
  model.chosen_support_per_bootstrap =
      std::move(run.chosen_support_per_bootstrap);
  model.best_loss_per_bootstrap = std::move(run.best_loss_per_bootstrap);
  model.total_flops = run.total_flops;
  finish_var_result(model, run.winners, means, options);

  out.breakdown = run.breakdown;
  out.selection_counts = std::move(run.selection_counts);
  out.degraded = run.degraded;
  out.achieved_quorum = run.achieved_quorum;
  out.lost_cells = std::move(run.lost_cells);
  return out;
}

UoiVarDistributedResult uoi_var_distributed(
    Comm& comm, ConstMatrixView series, const UoiVarOptions& options,
    const uoi::core::UoiParallelLayout& layout, int n_readers) {
  return detail::fit_var(comm, series, options, layout, n_readers,
                         /*serial=*/false);
}

}  // namespace uoi::var
