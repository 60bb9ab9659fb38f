#include "solvers/ridge_system.hpp"

#include "linalg/blas.hpp"
#include "support/error.hpp"

namespace uoi::solvers {

using uoi::linalg::CholeskyFactor;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

RidgeGram::RidgeGram(uoi::linalg::ConstMatrixView a)
    : woodbury_(a.rows() < a.cols()) {
  UOI_CHECK(a.rows() > 0 && a.cols() > 0, "empty system");
  const std::size_t n = a.rows();
  const std::size_t p = a.cols();
  if (woodbury_) {
    // A A' (n x n): rows of A are contiguous, so symmetric dots suffice.
    gram_.resize(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double v = uoi::linalg::dot(a.row(i), a.row(j));
        gram_(i, j) = v;
        gram_(j, i) = v;
      }
    }
    gram_flops_ = uoi::linalg::gemm_flops(n, p, n) / 2;
  } else {
    gram_.resize(p, p);
    uoi::linalg::syrk_at_a(1.0, a, 0.0, gram_);
    gram_flops_ = uoi::linalg::gemm_flops(p, n, p) / 2;
  }
}

RidgeGram::RidgeGram(Matrix gram)
    : gram_(std::move(gram)), woodbury_(false) {
  UOI_CHECK(gram_.rows() > 0 && gram_.rows() == gram_.cols(),
            "a precomputed Gram must be square and non-empty");
}

RidgeSystemSolver::RidgeSystemSolver(uoi::linalg::ConstMatrixView a,
                                     double rho)
    : RidgeSystemSolver(a, rho, std::make_shared<const RidgeGram>(a)) {
  // A cold start built its own Gram, so the Gram flops are charged, not
  // amortized.
  setup_flops_ += amortized_setup_flops_;
  amortized_setup_flops_ = 0;
}

RidgeSystemSolver::RidgeSystemSolver(uoi::linalg::ConstMatrixView a,
                                     double rho,
                                     std::shared_ptr<const RidgeGram> gram)
    : a_(a), rho_(rho), gram_(std::move(gram)) {
  UOI_CHECK(rho > 0.0, "rho must be positive");
  UOI_CHECK(a.rows() > 0 && a.cols() > 0, "empty system");
  UOI_CHECK(gram_ != nullptr, "null RidgeGram");
  const std::size_t dim = gram_->gram().rows();
  UOI_CHECK_DIMS(dim == (gram_->woodbury() ? a.rows() : a.cols()),
                 "RidgeGram does not match the data matrix");
  factor();
  if (gram_->woodbury()) {
    aq_.assign(a.rows(), 0.0);
    t_.assign(a.rows(), 0.0);
    att_.assign(a.cols(), 0.0);
  }
}

RidgeSystemSolver::RidgeSystemSolver(double rho,
                                     std::shared_ptr<const RidgeGram> gram)
    : rho_(rho), gram_(std::move(gram)) {
  UOI_CHECK(rho > 0.0, "rho must be positive");
  UOI_CHECK(gram_ != nullptr && !gram_->woodbury(),
            "a Gram-only system needs a p x p Gram");
  factor();
}

void RidgeSystemSolver::factor() {
  factor_ = std::make_unique<CholeskyFactor>(gram_->gram(), rho_);
  setup_flops_ = uoi::linalg::cholesky_flops(gram_->gram().rows());
  amortized_setup_flops_ = gram_->gram_flops();
}

std::unique_ptr<RidgeSystemSolver> RidgeSystemSolver::refactored(
    double rho) const {
  return a_.cols() > 0 ? std::make_unique<RidgeSystemSolver>(a_, rho, gram_)
                       : std::make_unique<RidgeSystemSolver>(rho, gram_);
}

void RidgeSystemSolver::solve(std::span<const double> q,
                              std::span<double> x) const {
  if (!gram_->woodbury()) {
    factor_->solve(q, x);
    return;
  }
  const std::size_t p = a_.cols();
  UOI_CHECK_DIMS(q.size() == p && x.size() == p, "ridge system size mismatch");
  // x = (q - A'((AA' + rho I)^{-1} (A q))) / rho
  uoi::linalg::gemv(1.0, a_, q, 0.0, aq_);
  factor_->solve(aq_, t_);
  uoi::linalg::gemv_transposed(1.0, a_, t_, 0.0, att_);
  const double inv_rho = 1.0 / rho_;
  for (std::size_t i = 0; i < p; ++i) x[i] = (q[i] - att_[i]) * inv_rho;
}

std::uint64_t RidgeSystemSolver::solve_flops() const noexcept {
  const std::size_t n = a_.rows();
  const std::size_t p = a_.cols();
  return gram_->woodbury()
             ? 2 * uoi::linalg::trsv_flops(n) + 2 * uoi::linalg::gemv_flops(n, p)
             : 2 * uoi::linalg::trsv_flops(gram_->gram().rows());
}

BlockRidgeSolver::BlockRidgeSolver(std::span<const Block> blocks, double rho) {
  UOI_CHECK(rho > 0.0, "rho must be positive");
  for (const Block& block : blocks) {
    auto gram = std::make_shared<const RidgeGram>(block.a);
    setup_flops_ += gram->gram_flops();
    if (gram->woodbury()) {
      auto solver = std::make_unique<RidgeSystemSolver>(block.a, rho, gram);
      setup_flops_ += solver->setup_flops();
      wide_.push_back({block.a, block.offset, std::move(solver)});
    } else {
      tall_.push_back({std::move(gram), block.offset});
    }
  }
  factor_tall(rho);
}

BlockRidgeSolver::BlockRidgeSolver(const BlockRidgeSolver& cached, double rho)
    : tall_(cached.tall_) {
  UOI_CHECK(rho > 0.0, "rho must be positive");
  for (const WideBlock& block : cached.wide_) {
    auto solver =
        std::make_unique<RidgeSystemSolver>(block.a, rho, block.solver->gram());
    setup_flops_ += solver->setup_flops();
    wide_.push_back({block.a, block.offset, std::move(solver)});
  }
  factor_tall(rho);
}

void BlockRidgeSolver::factor_tall(double rho) {
  std::vector<uoi::linalg::CholeskyBatch::System> systems;
  systems.reserve(tall_.size());
  for (const TallBlock& block : tall_) {
    systems.push_back({&block.gram->gram(), block.offset});
  }
  batch_.emplace(systems, rho);
  setup_flops_ += batch_->factor_flops();
}

void BlockRidgeSolver::solve(std::span<const double> q,
                             std::span<double> x) const {
  batch_->solve(q, x);
  for (const WideBlock& block : wide_) {
    const std::size_t width = block.a.cols();
    block.solver->solve(q.subspan(block.offset, width),
                        x.subspan(block.offset, width));
  }
}

std::uint64_t BlockRidgeSolver::solve_flops() const noexcept {
  std::uint64_t flops = batch_->solve_flops();
  for (const WideBlock& block : wide_) flops += block.solver->solve_flops();
  return flops;
}

}  // namespace uoi::solvers
