#pragma once
// Sequential strong-rule feature screening along a descending lambda chain
// (Tibshirani et al. 2012), plus the active-set chain that exploits it. At
// high dimension most columns are almost certainly inactive at most lambda
// values, so the expensive parts of each solve — the RidgeGram / Cholesky
// pair and every ADMM iteration, including the distributed (p+3)-double
// fused consensus allreduce — run over the surviving column subset only.
// Survivors are verified with a KKT post-check that re-admits any
// violating column and re-solves, so screening is an optimization, never
// an approximation.
//
// Bitwise contract. A naive "solve only over W" is not bit-identical to a
// solve over a larger column set: the x-update couples every column
// through (A'A + rho I)^{-1}, so even converged iterates differ in the last
// ulp. Every chain therefore runs a canonical two-stage procedure:
//   1. working solve over the gathered columns W,
//   2. KKT check over all p, re-admitting violators,
//   3. a canonical re-solve restricted to the final support S with the
//      identical warm start — skipped when S == W, because then the
//      working solve *is* the canonical solve bit-for-bit.
// The polish stays because it makes each step's beta a function of its
// support and warm start only, not of the working set the rule and the
// KKT rounds happened to reach. That is what keeps every consensus-path
// pin across schedule policies, lambda-chain chunkings and fault replay.
//
// One implementation. detail::ScreenedChain<Backend> is that procedure,
// written once: the chain-state reset on an ascending lambda, the working
// set, the KKT round loop, the support, the polish, the counter totals and
// the strong-rule refresh. A backend supplies only what differs between
// solver topologies, with static dispatch (no virtual call):
//   Fit                      AdmmResult or DistributedAdmmResult
//   ctor(AdmmOptions, ...)   options already refined for the chain
//   inputs()                 the problem's ScreenInputs
//   subset_solve(cols, l1, l2, warm)  over sorted columns, compacted warm
//   kkt_correlation(beta_w, working, c, spent)
//       c = A'(b - A_W beta_W) over all p from the working fit
//   refresh_correlation(beta, support, c, result)
//       c = A'(b - A beta) at the step's final beta
// The correlations charge their cost (flops, allreduces) to the given fit.
// There are three backends: SerialLassoBackend and
// DistributedLassoBackend below (ScreenedLassoChain,
// DistributedScreenedLassoChain), and the distributed vectorized-VAR
// backend in var/.
//
// A Gram chain is not screened. GramLassoChain solves the lasso over a
// replicated Gram by cyclic coordinate descent, whose active-set sweeps do
// the screening's work at no extra cost, so the strong rule applies only
// to the chains above, whose ADMM solves pay for every column they carry.
//
// Distributed determinism: the working set is a pure function of
// replicated data (the allreduced A'b / residual correlations and the
// replicated consensus z), so every rank derives the identical index map
// with zero extra communication; the KKT check costs one p-length
// allreduce per round.

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "simcluster/comm.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/distributed_admm.hpp"
#include "solvers/ridge_system.hpp"
#include "support/error.hpp"

namespace uoi::solvers {

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

/// Screening inputs of one problem: A'b and lambda_max. A distributed
/// chain's are replicated (one allreduce of A'b) and cacheable alongside
/// the bootstrap's row block: they depend only on the data, not on lambda
/// or the chain.
struct ScreenInputs {
  uoi::linalg::Vector atb;  ///< A'b
  double lambda_max = 0.0;  ///< ||A'b||_inf
};

/// A'b (p doubles) of a row block: its share of the screening inputs.
[[nodiscard]] uoi::linalg::Vector screen_sums(
    uoi::linalg::ConstMatrixView a, std::span<const double> b);

/// The screening inputs from summed screen_sums (A'b, p doubles).
[[nodiscard]] ScreenInputs screen_inputs_from_sums(
    std::span<const double> sums);

/// A least-squares problem compressed to its Gram: the lasso over (A, b)
/// depends on the data only through G = A'A and A'b, so a task group that
/// sums them once can run a whole lambda chain with no further
/// communication.
struct GramProblem {
  std::shared_ptr<const RidgeGram> gram;  ///< G = A'A (p x p)
  ScreenInputs inputs;                    ///< A'b and lambda_max
};

/// This row block's share of [A'A | A'B] for the m right-hand sides in
/// B's columns: p*p + m*p doubles, column j of A'B at offset p*p + j*p
/// (one column is [A'A | A'b]). Summing the shares of a sample's row
/// blocks gives the sample's.
[[nodiscard]] uoi::linalg::Vector gram_sums(uoi::linalg::ConstMatrixView a,
                                            uoi::linalg::ConstMatrixView b);

/// FLOPs of gram_sums over an n x p block with m right-hand sides.
[[nodiscard]] std::uint64_t gram_sums_flops(std::size_t n, std::size_t p,
                                            std::size_t m = 1);

/// Unpacks summed gram_sums of a p-column problem with m right-hand
/// sides into m GramProblems that share one RidgeGram.
[[nodiscard]] std::vector<GramProblem> gram_problems_from_sums(
    std::span<const double> sums, std::size_t p, std::size_t m = 1);

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

/// Bound on KKT re-admission rounds per lambda (the working set grows
/// monotonically, so termination is guaranteed regardless; this caps the
/// pathological worst case of one-column-per-round growth).
inline constexpr std::size_t kMaxKktRounds = 8;

/// Builds the strong-rule working set for the next chain step. Always
/// includes ever-active columns and the previous support. Inputs must be
/// replicated across ranks in distributed use (they are: atb / c_prev come
/// from allreduces, beta_prev from the replicated consensus z).
[[nodiscard]] std::vector<std::size_t> screen_working_set(
    double lambda1, const ScreenInputs& in, const ChainScreenState& state);

/// Columns outside the working set whose residual correlation violates
/// the KKT condition |c_j| <= lambda1, within a slack of
/// 1e-7 max(1, lambda1).
[[nodiscard]] std::vector<std::size_t> kkt_violators(
    std::span<const double> c, std::span<const char> in_working,
    double lambda1);

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

/// The options every chain solve runs under: the caller's AdmmOptions
/// with eps_abs / eps_rel scaled by 1e-3 and the iteration budget by 10 to
/// compensate. Support identification compares soft-threshold zero
/// patterns across solver topologies (serial joint vs distributed
/// consensus ADMM) and across lambda-chain chunkings; at prediction-grade
/// tolerances those patterns flip for marginal coefficients, which
/// strict-intersection selection amplifies into different supports.
[[nodiscard]] AdmmOptions refined_admm_options(AdmmOptions admm);

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
  explicit ScreenedChain(const AdmmOptions& admm,
                         BackendArgs&&... backend_args)
      : backend_(refined_admm_options(admm),
                 std::forward<BackendArgs>(backend_args)...) {
    state_.reset(backend_.inputs().atb.size());
  }

  [[nodiscard]] Fit solve(double lambda1, double lambda2 = 0.0);

  [[nodiscard]] const ScreenStats& stats() const noexcept { return stats_; }

 private:
  Backend backend_;
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

  std::vector<std::size_t> working = screen_working_set(lambda1, in, state_);
  std::vector<char> in_working(p, 0);
  for (const std::size_t j : working) in_working[j] = 1;

  // 1-2. Working solve, then KKT re-admission rounds. `spent` collects the
  // counters of superseded solves and of the KKT checks.
  Fit work;
  Fit spent;
  uoi::linalg::Vector c(p, 0.0);
  for (std::size_t round = 0;; ++round) {
    add_fit_counters(spent, work);
    if (working.empty()) {
      work = Fit{};
      work.converged = true;
    } else {
      Fit warm;
      warm.beta = gather_vector(state_.beta_prev, working);
      work = backend_.subset_solve(working, lambda1, lambda2, warm);
    }
    backend_.kkt_correlation(work.beta, working, c, spent);
    if (round >= kMaxKktRounds) break;
    const auto violators = kkt_violators(c, in_working, lambda1);
    if (violators.empty()) break;
    stats_.kkt_violations += violators.size();
    ++stats_.kkt_rounds;
    merge_violators(working, in_working, violators);
  }
  stats_.survivors += working.size();
  stats_.gram_cols_saved += p - working.size();

  // The final support S.
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
    result.beta = expand_vector(result.beta, working, p);
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
  if (canonical_ran) {
    backend_.refresh_correlation(result.beta, support, c, result);
  }
  state_.c_prev = std::move(c);
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
  /// Columns of the latest subset solve; the KKT residual reuses them.
  uoi::linalg::Matrix gathered_;
};

/// Distributed (consensus) lasso / elastic net over this rank's row block.
/// Reduced solves exchange (|W|+3)-double payloads; each correlation is
/// one p-length allreduce.
class DistributedLassoBackend {
 public:
  using Fit = DistributedAdmmResult;

  DistributedLassoBackend(const AdmmOptions& admm, uoi::sim::Comm& comm,
                          uoi::linalg::ConstMatrixView local_a,
                          std::span<const double> local_b,
                          const ScreenInputs& shared);

  [[nodiscard]] const ScreenInputs& inputs() const noexcept {
    return *shared_;
  }
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
  uoi::linalg::Matrix gathered_;
};

extern template class ScreenedChain<SerialLassoBackend>;
extern template class ScreenedChain<DistributedLassoBackend>;

}  // namespace detail

/// Serial screened lambda chain for LASSO / elastic net (see
/// detail::ScreenedChain for the solve() contract).
class ScreenedLassoChain
    : public detail::ScreenedChain<detail::SerialLassoBackend> {
 public:
  ScreenedLassoChain(uoi::linalg::ConstMatrixView a,
                     std::span<const double> b, const AdmmOptions& admm)
      : ScreenedChain(admm, a, b) {}
};

/// Distributed screened lambda chain. Collective over `comm`: every rank
/// derives the identical working set from the replicated inputs, so the
/// reduced consensus solves (payload (|W|+3) instead of (p+3)) stay in
/// lockstep.
class DistributedScreenedLassoChain
    : public detail::ScreenedChain<detail::DistributedLassoBackend> {
 public:
  DistributedScreenedLassoChain(uoi::sim::Comm& comm,
                                uoi::linalg::ConstMatrixView local_a,
                                std::span<const double> local_b,
                                const ScreenInputs& shared,
                                const AdmmOptions& admm)
      : ScreenedChain(admm, comm, local_a, local_b, shared) {}
};

/// Lasso / elastic net over a GramProblem by cyclic coordinate descent
/// with covariance updates (glmnet: Friedman, Hastie and Tibshirani, J.
/// Stat. Softw. 2010). Local: no data matrix and no communication, so
/// every rank of a task group that holds the same Gram walks the same
/// chain to the same bytes. `problem` must outlive the chain.
///
/// The chain keeps beta and the gradient g = G beta - A'b. Updating
/// coordinate j sets
///   beta_j = S(G_jj beta_j - g_j, lambda1) / (G_jj + lambda2)
/// (S the soft threshold) and then g += (new - old beta_j) G.row(j)
/// through the dispatched axpy, so every SIMD level gives the same bytes.
/// Coordinates run in ascending order in glmnet's active-set sweeps: a
/// full sweep over all p, then sweeps over the active set (every
/// coordinate nonzero at some point since the chain last started) until
/// one settles, then a full sweep again. A step stops after a full sweep
/// that moves no coordinate by more than the refined eps_abs, measured as
/// sqrt(G_jj) |delta beta_j|: that sweep is the KKT check. The refined
/// max_iterations caps a step's sweeps. G is never factored, so a
/// singular Gram (duplicated bootstrap rows, fewer rows than columns) is
/// fine, and a coordinate with G_jj + lambda2 = 0 (a zero column) stays 0.
///
/// Each step warm-starts from the previous step's beta and g while lambda1
/// descends; a larger lambda1 starts over from zero, as a fresh chain
/// does. The chain runs under refined_admm_options(admm). A fit's AdmmResult counts sweeps as
/// iterations, has rho_updates = 0, the last sweep's largest scaled step
/// as primal_residual and dual_residual = 0, and charges 2p FLOPs per
/// gradient update plus 4 per coordinate visit. stats() counts lambdas,
/// total_columns and, as survivors, the active set's size after each step.
class GramLassoChain {
 public:
  GramLassoChain(const GramProblem& problem, const AdmmOptions& admm);

  [[nodiscard]] AdmmResult solve(double lambda1, double lambda2 = 0.0);
  /// solve() through an explicit kernel table (cross-level bitwise tests).
  [[nodiscard]] AdmmResult solve(
      double lambda1, double lambda2,
      const uoi::linalg::simd::KernelTable& kernels);

  [[nodiscard]] const ScreenStats& stats() const noexcept { return stats_; }

 private:
  /// beta = 0, g = -A'b, an empty active set.
  void reset();
  /// One sweep over `coords`; returns its largest sqrt(G_jj) |delta beta_j|.
  double sweep(std::span<const std::size_t> coords, double lambda1,
               double lambda2, const uoi::linalg::simd::KernelTable& kernels,
               AdmmResult& fit);

  const GramProblem* problem_;
  AdmmOptions admm_;  ///< refined
  std::vector<std::size_t> all_;     ///< 0, 1, ..., p - 1
  uoi::linalg::Vector scale_;        ///< sqrt(G_jj)
  uoi::linalg::Vector beta_;
  uoi::linalg::Vector grad_;         ///< G beta - A'b
  std::vector<char> is_active_;
  std::vector<std::size_t> active_;  ///< ascending
  bool has_prev_ = false;
  double lambda_prev_ = 0.0;
  ScreenStats stats_;
};

}  // namespace uoi::solvers
