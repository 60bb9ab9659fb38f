#pragma once
// SAFE / strong-rule feature screening along a descending lambda chain
// (El Ghaoui et al. 2010; Tibshirani et al. 2012), plus the active-set
// chain that exploits it. At high dimension most columns are provably
// (SAFE) or almost-certainly (strong rule) inactive at most lambda values,
// so the expensive parts of each solve — the RidgeGram / Cholesky pair and
// every ADMM iteration, including the distributed (p+3)-double fused
// consensus allreduce — run over the surviving column subset only.
// Strong-rule survivors are verified with a KKT post-check that re-admits
// any violating column and re-solves, so screening is an optimization,
// never an approximation.
//
// Bitwise contract. A naive "solve only over W" is NOT bit-identical to
// the unscreened solve: the full-p x-update couples every column through
// (A'A + rho I)^{-1}, so even converged iterates differ in the last ulp.
// Every chain therefore runs a canonical two-stage procedure in every
// mode, including off:
//   1. working solve over W (off: W = all p, reusing the cached full
//      factorization; safe/strong: gathered columns only),
//   2. KKT check over all p, re-admitting violators (off mode has none by
//      construction),
//   3. a canonical re-solve restricted to the final support S with the
//      identical warm start — skipped when S == W, because then the
//      working solve *is* the canonical solve bit-for-bit.
// Whenever the modes agree on S (they do whenever the KKT loop converges,
// which the post-check enforces), every mode emits byte-identical betas.
// Off mode keeps the pre-screening cost profile: one cached full-p
// factorization for the whole chain plus a cheap |S|-column polish.
//
// One implementation. detail::ScreenedChain<Backend> is that procedure,
// written once: the chain-state reset on an ascending lambda, the working
// set, the KKT round loop, the support, the polish, the counter totals and
// the strong-rule refresh. A backend supplies only what differs between
// solver topologies, with static dispatch (no virtual call):
//   Fit                      AdmmResult or DistributedAdmmResult
//   ctor(AdmmOptions, ...)   options already refined for the chain
//   inputs()                 the problem's ScreenInputs
//   full_solve(l1, l2, warm)          off mode, over all p coefficients
//   subset_solve(cols, l1, l2, warm)  over sorted columns, compacted warm
//   kkt_correlation(beta_w, working, c, spent)
//       c = A'(b - A_W beta_W) over all p from the working fit
//   refresh_correlation(beta, support, c, result)
//       c = A'(b - A beta) at the step's final beta (strong rule only)
// The correlations charge their cost (flops, allreduces) to the given fit.
// There are five backends: SerialLassoBackend, DistributedLassoBackend and
// GramLassoBackend below (ScreenedLassoChain,
// DistributedScreenedLassoChain, GramLassoChain), and the serial and
// distributed vectorized-VAR backends in var/.
//
// Distributed determinism: the working set is a pure function of
// replicated data (the allreduced A'b / residual correlations and the
// replicated consensus z), so every rank derives the identical index map
// with zero extra communication; the KKT check costs one p-length
// allreduce per round.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "simcluster/comm.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/distributed_admm.hpp"
#include "solvers/ridge_system.hpp"

namespace uoi::solvers {

enum class ScreenMode {
  kAuto,    ///< resolve from $UOI_SCREEN (default: strong)
  kOff,     ///< canonical two-stage solve over all p columns
  kSafe,    ///< El Ghaoui SAFE test (certified; conservative)
  kStrong,  ///< sequential strong rule (aggressive; KKT-checked)
};

/// Resolves ScreenMode::kAuto: $UOI_SCREEN in {off,safe,strong,auto},
/// unset/auto/unparseable falls back to strong. Explicit modes win.
[[nodiscard]] ScreenMode resolve_screen_mode(ScreenMode requested);

/// "off" / "safe" / "strong".
[[nodiscard]] const char* screen_mode_name(ScreenMode mode);

struct ScreenOptions {
  ScreenMode mode = ScreenMode::kAuto;
  /// KKT slack: column j outside W violates when
  /// |c_j| > lambda1 + kkt_tolerance * max(1, lambda1).
  double kkt_tolerance = 1e-7;
  /// Bound on re-admission rounds per lambda (the working set grows
  /// monotonically, so termination is guaranteed regardless; this caps
  /// the pathological worst case of one-column-per-round growth).
  std::size_t max_kkt_rounds = 8;
  /// Internal refinement of the chain's stopping tolerances: every chain
  /// solve multiplies eps_abs / eps_rel by this factor (widening the
  /// iteration budget by refine_iteration_scale to compensate). Support
  /// identification compares soft-threshold zero patterns across solver
  /// topologies (serial joint vs distributed consensus ADMM) and across
  /// lambda-chain chunkings; at prediction-grade tolerances those
  /// patterns flip for marginal coefficients, which strict-intersection
  /// selection amplifies into different supports. 1.0 disables.
  double refine_tolerance_scale = 1e-3;
  std::size_t refine_iteration_scale = 10;
};

/// Chain-level screening counters (exported as screen.* metrics).
struct ScreenStats {
  std::uint64_t lambdas = 0;          ///< chain steps processed
  std::uint64_t survivors = 0;        ///< sum of final |W| over steps
  std::uint64_t kkt_violations = 0;   ///< columns re-admitted by KKT checks
  std::uint64_t kkt_rounds = 0;       ///< re-solve rounds triggered
  std::uint64_t gram_cols_saved = 0;  ///< sum of (p - |W|) over steps
  std::uint64_t canonical_solves = 0; ///< S != W polish re-solves
  std::uint64_t total_columns = 0;    ///< sum of p over steps

  void operator+=(const ScreenStats& other);
};

/// Screening inputs of one problem: A'b, the squared column norms, b'b
/// and lambda_max. A distributed chain's are replicated (one fused
/// allreduce) and cacheable alongside the bootstrap's row block: they
/// depend only on the data, not on lambda or the chain.
struct ScreenInputs {
  uoi::linalg::Vector atb;           ///< A'b
  uoi::linalg::Vector col_sq_norms;  ///< squared column norms
  double b_norm_sq = 0.0;
  double lambda_max = 0.0;           ///< ||A'b||_inf
};

/// Unpacks the fused sums [A'b | col norms^2 | b'b] (2p+1 doubles).
[[nodiscard]] ScreenInputs screen_inputs_from_sums(
    std::span<const double> sums);

/// Collective: the serial chain's local pass [A'b | col norms^2 | b'b]
/// over this rank's row block, summed by one fused allreduce.
[[nodiscard]] ScreenInputs build_screen_inputs(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView local_a,
    std::span<const double> local_b);

/// A least-squares problem compressed to its Gram: the lasso over (A, b)
/// depends on the data only through G = A'A, A'b and b'b, so a task
/// group that sums them once can run a whole lambda chain with no further
/// communication.
struct GramProblem {
  std::shared_ptr<const RidgeGram> gram;  ///< G = A'A (p x p)
  /// atb = A'b, col_sq_norms = diag(G), b_norm_sq = b'b.
  ScreenInputs inputs;
};

/// This row block's share of [A'A | A'b | b'b] (p*p + p + 1 doubles);
/// summing the shares of a sample's row blocks gives the sample's.
[[nodiscard]] uoi::linalg::Vector gram_sums(uoi::linalg::ConstMatrixView a,
                                            std::span<const double> b);

/// FLOPs of gram_sums over an n x p block.
[[nodiscard]] std::uint64_t gram_sums_flops(std::size_t n, std::size_t p);

/// Unpacks summed gram_sums of a p-column problem.
[[nodiscard]] GramProblem gram_problem_from_sums(std::span<const double> sums,
                                                 std::size_t p);

namespace detail {

/// Per-chain screening state; reset whenever lambda stops descending
/// (e.g. the elastic-net grid jumping to a new l1_ratio).
struct ChainScreenState {
  bool has_prev = false;
  double lambda_prev = 0.0;
  uoi::linalg::Vector beta_prev;   ///< canonical beta at lambda_prev (full p)
  uoi::linalg::Vector c_prev;      ///< A'(b - A beta_prev) (full p)
  std::vector<char> ever_active;   ///< union of supports along the chain

  void reset(std::size_t p);
};

/// Builds the screened working set for the next chain step. Always
/// includes ever-active columns and the previous support; kOff returns
/// all p columns. Inputs must be replicated across ranks in distributed
/// use (they are: atb / c_prev come from allreduces, beta_prev from the
/// replicated consensus z).
[[nodiscard]] std::vector<std::size_t> screen_working_set(
    ScreenMode mode, double lambda1, const ScreenInputs& in,
    const ChainScreenState& state);

/// Columns outside the working set whose residual correlation violates
/// the KKT condition |c_j| <= lambda1 (within ScreenOptions slack).
[[nodiscard]] std::vector<std::size_t> kkt_violators(
    std::span<const double> c, std::span<const char> in_working,
    double lambda1, const ScreenOptions& options);

/// Sorted-union merge of KKT violators into the working set.
void merge_violators(std::vector<std::size_t>& working,
                     std::vector<char>& in_working,
                     const std::vector<std::size_t>& violators);

/// dst = src[idx] through the dispatched gather kernel.
[[nodiscard]] uoi::linalg::Vector gather_vector(
    std::span<const double> src, std::span<const std::size_t> idx);

/// The full-length (p) vector with src[i] at idx[i] and zeros elsewhere.
[[nodiscard]] uoi::linalg::Vector expand_vector(
    std::span<const double> src, std::span<const std::size_t> idx,
    std::size_t p);

/// Gathers columns `idx` of `a` into a fresh dense matrix (row-wise
/// gather-compact; works on views, unlike Matrix::gather_cols).
[[nodiscard]] uoi::linalg::Matrix gather_cols_view(
    uoi::linalg::ConstMatrixView a, std::span<const std::size_t> idx);

/// The |idx| x |idx| submatrix a[idx, idx] (a square matrix, idx sorted).
[[nodiscard]] uoi::linalg::Matrix gather_submatrix(
    const uoi::linalg::Matrix& a, std::span<const std::size_t> idx);

/// The options every chain solve runs under: ScreenOptions refinement
/// applied to the caller's AdmmOptions. Drivers that pre-build full-path
/// solvers for a chain to reuse (cached off-mode solvers) must construct
/// them with these options so all modes solve under identical stopping
/// rules.
[[nodiscard]] AdmmOptions refined_admm_options(AdmmOptions admm,
                                               const ScreenOptions& screen);

/// Adds the additive counters of one solve, serial or distributed, into
/// `into`.
template <class Fit>
void add_fit_counters(Fit& into, const Fit& fit) {
  into.iterations += fit.iterations;
  into.rho_updates += fit.rho_updates;
  if constexpr (requires { fit.local_flops; }) {
    into.local_flops += fit.local_flops;
    into.allreduce_calls += fit.allreduce_calls;
    into.allreduce_bytes += fit.allreduce_bytes;
    into.consensus_rounds += fit.consensus_rounds;
    into.lazy_iterations += fit.lazy_iterations;
  } else {
    into.flops += fit.flops;
  }
}

/// Collective: sums a residual correlation over the ranks with one
/// c-length allreduce, charged to `fit`.
void allreduce_correlation(uoi::sim::Comm& comm, uoi::linalg::Vector& c,
                           DistributedAdmmResult& fit);

/// The screened lambda chain over one backend (see the header comment for
/// the procedure and the backend contract). Call solve() with descending
/// lambda1 values; a non-descending lambda1 resets the chain state (fresh
/// strong-rule baseline). lambda2 is the elastic-net l2 penalty
/// (KKT/screening thresholds use lambda1 only, which stays valid: at
/// z_j = 0 the l2 term vanishes); backends without one ignore it.
template <class Backend>
class ScreenedChain {
 public:
  using Fit = typename Backend::Fit;

  /// `backend_args` follow the refined AdmmOptions into the backend.
  template <class... BackendArgs>
  ScreenedChain(const AdmmOptions& admm, const ScreenOptions& screen,
                BackendArgs&&... backend_args)
      : backend_(refined_admm_options(admm, screen),
                 std::forward<BackendArgs>(backend_args)...),
        screen_(screen), mode_(resolve_screen_mode(screen.mode)) {
    state_.reset(backend_.inputs().atb.size());
  }

  [[nodiscard]] Fit solve(double lambda1, double lambda2 = 0.0);

  [[nodiscard]] ScreenMode mode() const noexcept { return mode_; }
  [[nodiscard]] const ScreenStats& stats() const noexcept { return stats_; }

 private:
  Backend backend_;
  ScreenOptions screen_;
  ScreenMode mode_;
  ChainScreenState state_;
  ScreenStats stats_;
};

template <class Backend>
auto ScreenedChain<Backend>::solve(double lambda1, double lambda2) -> Fit {
  const ScreenInputs& in = backend_.inputs();
  const std::size_t p = in.atb.size();
  if (state_.has_prev && lambda1 > state_.lambda_prev) state_.reset(p);
  ++stats_.lambdas;
  stats_.total_columns += p;

  std::vector<std::size_t> working =
      screen_working_set(mode_, lambda1, in, state_);
  std::vector<char> in_working(p, 0);
  for (const std::size_t j : working) in_working[j] = 1;

  // 1-2. Working solve, then KKT re-admission rounds. `spent` collects the
  // counters of superseded solves and of the KKT checks.
  Fit work;
  Fit spent;
  uoi::linalg::Vector c(p, 0.0);
  bool have_c = false;
  for (std::size_t round = 0;; ++round) {
    add_fit_counters(spent, work);
    Fit warm;
    if (mode_ == ScreenMode::kOff) {
      warm.beta = state_.beta_prev;
      work = backend_.full_solve(lambda1, lambda2, warm);
      break;
    }
    if (working.empty()) {
      work = Fit{};
      work.converged = true;
    } else {
      warm.beta = gather_vector(state_.beta_prev, working);
      work = backend_.subset_solve(working, lambda1, lambda2, warm);
    }
    backend_.kkt_correlation(work.beta, working, c, spent);
    have_c = true;
    if (round >= screen_.max_kkt_rounds) break;
    const auto violators = kkt_violators(c, in_working, lambda1, screen_);
    if (violators.empty()) break;
    stats_.kkt_violations += violators.size();
    ++stats_.kkt_rounds;
    merge_violators(working, in_working, violators);
  }
  stats_.survivors += working.size();
  stats_.gram_cols_saved += p - working.size();

  // The final support S (in off mode W is all p, so beta is full length).
  std::vector<std::size_t> support;
  for (std::size_t i = 0; i < working.size(); ++i) {
    if (work.beta[i] != 0.0) support.push_back(working[i]);
  }

  // 3. The canonical polish on S. When S == W the working solve already
  // IS the canonical solve bit-for-bit: same columns, same warm start.
  Fit result;
  const bool canonical_ran = support.size() != working.size();
  if (!canonical_ran) {
    result = std::move(work);
    if (mode_ != ScreenMode::kOff) {
      result.beta = expand_vector(result.beta, working, p);
    }
  } else {
    ++stats_.canonical_solves;
    add_fit_counters(spent, work);
    if (support.empty()) {
      result.converged = true;
      result.beta.assign(p, 0.0);
    } else {
      Fit warm;
      warm.beta = gather_vector(state_.beta_prev, support);
      result = backend_.subset_solve(support, lambda1, lambda2, warm);
      result.beta = expand_vector(result.beta, support, p);
    }
  }
  add_fit_counters(result, spent);

  // Chain state for the next (smaller) lambda.
  state_.has_prev = true;
  state_.lambda_prev = lambda1;
  state_.beta_prev = result.beta;
  for (const std::size_t j : support) state_.ever_active[j] = 1;
  if (mode_ == ScreenMode::kStrong) {
    if (canonical_ran || !have_c) {
      backend_.refresh_correlation(result.beta, support, c, result);
    }
    state_.c_prev = std::move(c);
  }
  return result;
}

/// Serial lasso / elastic net over a dense design. The KKT residual reuses
/// the gathered working columns; the strong-rule refresh subtracts the
/// support column by column.
class SerialLassoBackend {
 public:
  using Fit = AdmmResult;

  SerialLassoBackend(const AdmmOptions& admm, uoi::linalg::ConstMatrixView a,
                     std::span<const double> b);

  [[nodiscard]] const ScreenInputs& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] Fit full_solve(double lambda1, double lambda2,
                               const Fit& warm);
  [[nodiscard]] Fit subset_solve(std::span<const std::size_t> cols,
                                 double lambda1, double lambda2,
                                 const Fit& warm);
  void kkt_correlation(std::span<const double> beta_w,
                       std::span<const std::size_t> working,
                       uoi::linalg::Vector& c, Fit& spent) const;
  void refresh_correlation(std::span<const double> beta,
                           std::span<const std::size_t> support,
                           uoi::linalg::Vector& c, Fit& result) const;

 private:
  uoi::linalg::ConstMatrixView a_;
  std::span<const double> b_;
  AdmmOptions admm_;
  ScreenInputs inputs_;
  /// Off-mode working solver: one full-p factorization per chain.
  std::optional<LassoAdmmSolver> full_solver_;
  /// Columns of the latest subset solve; the KKT residual reuses them.
  uoi::linalg::Matrix gathered_;
};

/// Distributed (consensus) lasso / elastic net over this rank's row block.
/// Reduced solves exchange (|W|+3)-double payloads; each correlation is
/// one p-length allreduce. `full_solver`, when given, serves off-mode
/// solves so a cached full factorization is reused across the chain.
class DistributedLassoBackend {
 public:
  using Fit = DistributedAdmmResult;

  DistributedLassoBackend(const AdmmOptions& admm, uoi::sim::Comm& comm,
                          uoi::linalg::ConstMatrixView local_a,
                          std::span<const double> local_b,
                          const ScreenInputs& shared,
                          const DistributedLassoAdmmSolver* full_solver);

  [[nodiscard]] const ScreenInputs& inputs() const noexcept {
    return *shared_;
  }
  [[nodiscard]] Fit full_solve(double lambda1, double lambda2,
                               const Fit& warm);
  [[nodiscard]] Fit subset_solve(std::span<const std::size_t> cols,
                                 double lambda1, double lambda2,
                                 const Fit& warm);
  void kkt_correlation(std::span<const double> beta_w,
                       std::span<const std::size_t> working,
                       uoi::linalg::Vector& c, Fit& spent) const;
  void refresh_correlation(std::span<const double> beta,
                           std::span<const std::size_t> support,
                           uoi::linalg::Vector& c, Fit& result) const;

 private:
  /// c = sum over ranks of A_i' r_i (zero-filled on a rank without rows).
  void correlate(std::span<const double> r, uoi::linalg::Vector& c,
                 Fit& fit) const;

  uoi::sim::Comm* comm_;
  uoi::linalg::ConstMatrixView a_;
  std::span<const double> b_;
  AdmmOptions admm_;
  const ScreenInputs* shared_;
  const DistributedLassoAdmmSolver* full_solver_;
  std::optional<DistributedLassoAdmmSolver> owned_full_solver_;
  uoi::linalg::Matrix gathered_;
};

/// Lasso / elastic net over a GramProblem, with no data matrix and no
/// communication: every rank of a task group that holds the same Gram
/// walks the same chain. A subset solve factors G_WW + rho I; both
/// correlations are c = A'b - G_{:,W} beta_W. G itself is never factored,
/// so a singular Gram (duplicated bootstrap rows, fewer rows than
/// columns) is fine.
class GramLassoBackend {
 public:
  using Fit = AdmmResult;

  GramLassoBackend(const AdmmOptions& admm, const GramProblem& problem);

  [[nodiscard]] const ScreenInputs& inputs() const noexcept {
    return problem_->inputs;
  }
  [[nodiscard]] Fit full_solve(double lambda1, double lambda2,
                               const Fit& warm);
  [[nodiscard]] Fit subset_solve(std::span<const std::size_t> cols,
                                 double lambda1, double lambda2,
                                 const Fit& warm);
  void kkt_correlation(std::span<const double> beta_w,
                       std::span<const std::size_t> working,
                       uoi::linalg::Vector& c, Fit& spent) const;
  void refresh_correlation(std::span<const double> beta,
                           std::span<const std::size_t> support,
                           uoi::linalg::Vector& c, Fit& result) const;

 private:
  /// c = A'b - sum_i coef[i] G.row(cols[i]).
  void correlate(std::span<const double> coef,
                 std::span<const std::size_t> cols, uoi::linalg::Vector& c,
                 Fit& fit) const;

  const GramProblem* problem_;
  AdmmOptions admm_;
  /// Off-mode working solver: one full-p factorization per chain.
  std::optional<LassoAdmmSolver> full_solver_;
};

extern template class ScreenedChain<SerialLassoBackend>;
extern template class ScreenedChain<DistributedLassoBackend>;
extern template class ScreenedChain<GramLassoBackend>;

}  // namespace detail

/// Serial screened lambda chain for LASSO / elastic net (see
/// detail::ScreenedChain for the solve() contract).
class ScreenedLassoChain
    : public detail::ScreenedChain<detail::SerialLassoBackend> {
 public:
  ScreenedLassoChain(uoi::linalg::ConstMatrixView a,
                     std::span<const double> b, const AdmmOptions& admm,
                     const ScreenOptions& screen = {})
      : ScreenedChain(admm, screen, a, b) {}
};

/// Distributed screened lambda chain. Collective over `comm`: every rank
/// derives the identical working set from the replicated inputs, so the
/// reduced consensus solves (payload (|W|+3) instead of (p+3)) stay in
/// lockstep. `full_solver`, when given, serves off-mode working solves so
/// a cached full factorization is reused across the chain.
class DistributedScreenedLassoChain
    : public detail::ScreenedChain<detail::DistributedLassoBackend> {
 public:
  DistributedScreenedLassoChain(
      uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView local_a,
      std::span<const double> local_b, const ScreenInputs& shared,
      const AdmmOptions& admm, const ScreenOptions& screen = {},
      const DistributedLassoAdmmSolver* full_solver = nullptr)
      : ScreenedChain(admm, screen, comm, local_a, local_b, shared,
                      full_solver) {}
};

/// Screened lambda chain over a GramProblem (see detail::GramLassoBackend).
/// Local: a task group's ranks each run it on their replicated Gram and
/// reach identical bytes. `problem` must outlive the chain.
class GramLassoChain : public detail::ScreenedChain<detail::GramLassoBackend> {
 public:
  GramLassoChain(const GramProblem& problem, const AdmmOptions& admm,
                 const ScreenOptions& screen = {})
      : ScreenedChain(admm, screen, problem) {}
};

}  // namespace uoi::solvers
