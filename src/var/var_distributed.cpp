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

/// Appends equation e's x-update block to a solve over the sorted subset
/// `working` of the vectorized coefficients (g = e*dp + c, dp =
/// rows.cols()): the equation's `rows` restricted to its surviving
/// columns — a view when all dp survive, else a copy appended to
/// `gathered` (reserved by the caller so earlier views stay valid) — at
/// its offset in working coordinates, whose slice of `atb` becomes
/// rows' y. An equation with no surviving column adds nothing: its
/// coordinates vanish from the reduced problem.
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
    append_equation_block(
        block.x_rows.row_block(begin, end - begin),
        std::span<const double>(block.y).subspan(begin, end - begin), e,
        working, cols_, blocks, atb_);
  });
  system_ =
      std::make_unique<uoi::solvers::BlockRidgeSolver>(blocks, options_.rho);
  pending_setup_flops_ = system_->setup_flops();
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

}  // namespace

namespace detail {

Vector var_screen_sums(const VarLocalBlock& block) {
  const std::size_t dp = block.dp;
  Vector atb(block.n_coefficients(), 0.0);
  for_each_equation(block, [&](std::size_t e, std::size_t begin,
                               std::size_t end) {
    uoi::linalg::gemv_transposed(
        1.0, block.x_rows.row_block(begin, end - begin),
        std::span<const double>(block.y).subspan(begin, end - begin), 0.0,
        std::span<double>(atb).subspan(e * dp, dp));
  });
  return atb;
}

DistributedVarBackend::DistributedVarBackend(
    const uoi::solvers::AdmmOptions& admm, Comm& comm,
    const VarLocalBlock& block, const uoi::solvers::ScreenInputs& shared)
    : admm_(admm), comm_(&comm), block_(&block), shared_(&shared) {}

uoi::solvers::DistributedAdmmResult DistributedVarBackend::subset_solve(
    std::span<const std::size_t> cols, double lambda, double /*lambda2*/,
    const Fit& warm) const {
  // No collectives in the reduced constructor, so building a fresh
  // active-set solver per lambda stays collective-safe; its setup FLOPs
  // are charged to the first solve.
  const DistributedVarAdmmSolver sub(*comm_, *block_, cols, admm_);
  return sub.solve(lambda, &warm);
}

void DistributedVarBackend::kkt_correlation(
    std::span<const double> beta_w, std::span<const std::size_t> working,
    Vector& c, Fit& spent) const {
  const Vector beta_full = uoi::solvers::detail::expand_vector(
      beta_w, working, block_->n_coefficients());
  c = var_correlation_local(*block_, beta_full, spent.local_flops);
  uoi::solvers::detail::allreduce_correlation(*comm_, c, spent);
}

void DistributedVarBackend::refresh_correlation(
    std::span<const double> beta, std::span<const std::size_t> /*support*/,
    Vector& c, Fit& result) const {
  c = var_correlation_local(*block_, beta, result.local_flops);
  uoi::solvers::detail::allreduce_correlation(*comm_, c, result);
}

}  // namespace detail

namespace {

// Per-bootstrap cache entries. bytes() returns an estimate computed from
// the *global* problem shape, not the local row counts: the selection
// build is collective over the task group, so every rank must make the
// identical LRU keep/evict decision or a hit/miss divergence would leave
// part of the group waiting in a collective forever.
struct VarSelectionEntry {
  /// Gram walk: one problem per equation, sharing the bootstrap's X'X.
  std::vector<uoi::solvers::GramProblem> grams;
  /// Wider group, Kron+vec path: this rank's assembled row block of the
  /// vectorized problem and the replicated screening inputs shared by
  /// every chain of the bootstrap.
  VarLocalBlock block;
  uoi::solvers::ScreenInputs screen_inputs;
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

UoiVarDistributedResult uoi_var_distributed(
    Comm& comm, ConstMatrixView series_view, const UoiVarOptions& options,
    const uoi::core::UoiParallelLayout& layout, int n_readers) {
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
  spec.solver_cache_mb = comm.size() == 1 ? 0 : options.solver_cache_mb;
  spec.layout = layout;
  spec.recovery = options.recovery;
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
      .add(uoi::core::kStrongRuleFingerprintTag);
  for (const double l : model.lambdas) fp.add(l);
  const sched::LinearPath path =
      detail::var_linear_path(comm, series_view, options, layout);
  const bool gram_path = path == sched::LinearPath::kGram;
  // Checkpoints name the selection solver, so a file written by another
  // one restarts instead of mixing solvers. Groups that split a
  // bootstrap's rows take `path`. A layout of one-rank groups only (a
  // serial fit too) sums every Gram on one rank, whose rounding differs
  // from a group's reduced Gram, and takes the tag after the two paths.
  // Both Gram cases then name the Gram chain's solver.
  constexpr std::uint64_t kLocalGramTag = 2;
  const bool one_rank_groups =
      comm.size() <=
      std::max(1, layout.bootstrap_groups * layout.lambda_groups);
  fp.add(one_rank_groups ? kLocalGramTag : static_cast<std::uint64_t>(path));
  if (one_rank_groups || gram_path) fp.add(uoi::core::kGramCdFingerprintTag);
  spec.fingerprint = fp.value();

  // Selection: readers construct the bootstrap sample's lag regression.
  // The vectorized lasso separates by equation ((I (x) X)'(I (x) X) =
  // I (x) X'X), so a group whose ranks can hold the d p x d p Gram walks
  // one Gram chain per equation. A one-rank group holds the whole
  // bootstrap and sums its Gram locally at any shape: no window, no
  // collective. On the Gram path the readers of a wider group sum the Gram
  // of their share of the lag rows, and one allreduce replicates it over
  // the group; on the Kron+vec path compute ranks assemble their
  // vectorized row blocks through the windows. The entry (and a Kron
  // group's factorizations) is cached per bootstrap, so any chain of the
  // same k — adjacent, interleaved, or stolen — reuses it.
  const std::size_t lag_rows = series.rows() - d;
  const auto select = [&](uoi::core::UoiSelectionTask& task) {
    const auto& tl = task.layout;
    const int trace_rank = task.task_comm.global_rank();
    const int group_readers = std::min(n_readers, tl.c_ranks);
    const bool gram_walk = tl.c_ranks == 1 || gram_path;
    const std::size_t k = task.bootstrap;
    const auto entry = task.cache.get_or_build<VarSelectionEntry>(
        uoi::solvers::kSelectionPass, k, [&] {
          auto fresh = std::make_shared<VarSelectionEntry>();
          LagRegression lag;
          if (tl.task_rank < group_readers) {
            const Matrix sample = block_bootstrap_sample(
                series,
                var_bootstrap_options(options, VarBootstrapStage::kSelection,
                                      k));
            lag = build_lag_regression(sample, d);
          }
          if (gram_walk) {
            if (tl.c_ranks == 1) {
              support::TraceScope gram_span("var-selection-gram",
                                            support::TraceCategory::kGram,
                                            trace_rank);
              fresh->grams = uoi::solvers::gram_problems_from_sums(
                  uoi::solvers::gram_sums(lag.x, lag.y), dp, p);
              task.counters.local_flops +=
                  uoi::solvers::gram_sums_flops(lag_rows, dp, p);
            } else {
              // Readers sum their share of the lag rows; the other ranks
              // contribute zero-row blocks.
              const bool reader = tl.task_rank < group_readers;
              const Range mine =
                  reader ? even_slice(lag_rows, group_readers, tl.task_rank)
                         : Range{0, 0};
              fresh->grams = uoi::core::detail::reduce_gram(
                  task.task_comm,
                  reader ? lag.x.row_block(mine.begin, mine.size())
                         : ConstMatrixView(nullptr, 0, dp, dp),
                  reader ? lag.y.row_block(mine.begin, mine.size())
                         : ConstMatrixView(nullptr, 0, p, p),
                  "var-selection-gram", task.counters);
            }
            // X'X, then X'y_e per equation.
            fresh->bytes_estimate = (dp * dp + p * dp) * sizeof(double);
            return fresh;
          }
          fresh->block = distributed_kron_vectorize(task.task_comm, lag,
                                                    group_readers, retry);
          Vector sums;
          {
            support::TraceScope gram_span("var-selection-gram",
                                          support::TraceCategory::kGram,
                                          trace_rank);
            sums = detail::var_screen_sums(fresh->block);
          }
          // The reduction is communication: outside the Gram span, as in
          // reduce_gram.
          task.task_comm.allreduce(std::span<double>(sums), ReduceOp::kSum);
          fresh->screen_inputs = uoi::solvers::screen_inputs_from_sums(sums);
          fresh->bytes_estimate =
              (lag_rows * p * (dp + 1) + n_coeffs) * sizeof(double);
          return fresh;
        });
    const auto mark = [&](std::size_t m, std::span<const double> beta) {
      task.mark_selected(m, beta, options.support_tolerance);
    };
    if (gram_walk) {
      // Each rank runs the chains of its own equations on the replicated
      // Gram, one after another and with no collective, into its blocks of
      // the cells' betas.
      Vector betas(task.cells.size() * n_coeffs, 0.0);
      for (std::size_t e = 0; e < p; ++e) {
        if (!owns_equation(e, tl.c_ranks, tl.task_rank)) continue;
        uoi::solvers::GramLassoChain chain(entry->grams[e], options.admm);
        for (std::size_t m = 0; m < task.cells.size(); ++m) {
          const auto fit = chain.solve(model.lambdas[task.cells[m]]);
          task.counters.add(fit);
          std::copy(fit.beta.begin(), fit.beta.end(),
                    betas.begin() + static_cast<std::ptrdiff_t>(
                                        m * n_coeffs + e * dp));
        }
        task.counters.screen += chain.stats();
      }
      // A wider group assembles the blocks with one Sum allreduce; each
      // entry has one contributor, so the sum is exact.
      if (tl.c_ranks > 1) {
        task.task_comm.allreduce(std::span<double>(betas), ReduceOp::kSum);
      }
      for (std::size_t m = 0; m < task.cells.size(); ++m) {
        mark(m, std::span<const double>(betas).subspan(m * n_coeffs,
                                                       n_coeffs));
      }
      return;
    }
    // Reduced active-set solves shrink the consensus payload to (|W|+3)
    // doubles; the screened chain owns the warm starts and the two-stage
    // solve.
    uoi::solvers::detail::ScreenedChain<detail::DistributedVarBackend> chain(
        options.admm, task.task_comm, entry->block, entry->screen_inputs);
    for (std::size_t m = 0; m < task.cells.size(); ++m) {
      const auto fit = chain.solve(model.lambdas[task.cells[m]]);
      task.counters.add(fit);
      mark(m, fit.beta);
    }
    task.counters.screen += chain.stats();
  };

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
              series, var_bootstrap_options(
                          options, VarBootstrapStage::kEstimationTrain, k));
          const Matrix eval_sample = block_bootstrap_sample(
              series, var_bootstrap_options(
                          options, VarBootstrapStage::kEstimationEval, k));
          fresh->train = build_lag_regression(train_sample, d);
          fresh->eval = build_lag_regression(eval_sample, d);
          fresh->bytes_estimate =
              2 * lag_rows * (dp + p) * sizeof(double);
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

namespace detail {

sched::LinearPath var_linear_path(const Comm& comm, ConstMatrixView series,
                                  const UoiVarOptions& options,
                                  const uoi::core::UoiParallelLayout& layout) {
  // The vectorized design I (x) X: p (N - d) rows, each d p nonzeros wide.
  const std::size_t d = options.order;
  const std::size_t p = series.cols();
  return sched::choose_linear_path((series.rows() - d) * p, d * p,
                                   uoi::core::detail::widest_task_group(
                                       comm, layout));
}

}  // namespace detail

}  // namespace uoi::var

template class uoi::solvers::detail::ScreenedChain<
    uoi::var::detail::DistributedVarBackend>;
