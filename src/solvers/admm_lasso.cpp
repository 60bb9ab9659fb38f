#include "solvers/admm_lasso.hpp"

#include "linalg/blas.hpp"
#include "solvers/admm_loop.hpp"
#include "solvers/ridge_system.hpp"
#include "support/error.hpp"

namespace uoi::solvers {

using uoi::linalg::ConstMatrixView;

LassoAdmmSolver::LassoAdmmSolver(ConstMatrixView a, std::span<const double> b,
                                 const AdmmOptions& options)
    : options_(options) {
  UOI_CHECK_DIMS(a.rows() == b.size(), "LASSO: X rows != y size");
  UOI_CHECK(a.rows() > 0 && a.cols() > 0, "LASSO: empty problem");

  atb_.assign(a.cols(), 0.0);
  uoi::linalg::gemv_transposed(1.0, a, b, 0.0, atb_);
  system_ = std::make_unique<RidgeSystemSolver>(a, options_.rho);
  setup_flops_ = uoi::linalg::gemv_flops(a.rows(), a.cols()) +
                 system_->setup_flops();
  pending_setup_flops_ = setup_flops_;
}

LassoAdmmSolver::LassoAdmmSolver(std::shared_ptr<const RidgeGram> gram,
                                 uoi::linalg::Vector atb,
                                 const AdmmOptions& options)
    : options_(options), atb_(std::move(atb)) {
  UOI_CHECK(gram != nullptr, "LASSO: null Gram");
  UOI_CHECK_DIMS(gram->gram().rows() == atb_.size(),
                 "LASSO: Gram and A'b sizes differ");
  system_ = std::make_unique<RidgeSystemSolver>(options_.rho, std::move(gram));
  setup_flops_ = system_->setup_flops();
  pending_setup_flops_ = setup_flops_;
}

LassoAdmmSolver::~LassoAdmmSolver() = default;

AdmmResult LassoAdmmSolver::solve(double lambda,
                                  const AdmmResult* warm_start) const {
  return solve_elastic_net(lambda, 0.0, warm_start);
}

AdmmResult LassoAdmmSolver::solve_elastic_net(
    double lambda1, double lambda2, const AdmmResult* warm_start) const {
  // The constructor-built factorization serves the initial rho; adaptive
  // rho changes refactor the cached rho-free Gram with a diagonal shift
  // (O(p^3/3)) instead of recomputing it from the data.
  std::unique_ptr<RidgeSystemSolver> rebuilt;
  double current_rho = options_.rho;
  std::uint64_t refactor_flops = 0;
  const std::uint64_t charged_setup = pending_setup_flops_;
  pending_setup_flops_ = 0;
  auto result = detail::run_admm_loop(
      atb_.size(), lambda1, options_, atb_,
      [&](std::span<const double> q, std::span<double> x, double rho) {
        if (rho != current_rho) {
          rebuilt = system_->refactored(rho);
          refactor_flops += rebuilt->setup_flops();
          current_rho = rho;
        }
        (rebuilt ? *rebuilt : *system_).solve(q, x);
      },
      charged_setup, system_->solve_flops(), warm_start, lambda2);
  result.flops += refactor_flops;
  return result;
}

AdmmResult lasso_admm(ConstMatrixView a, std::span<const double> b,
                      double lambda, const AdmmOptions& options) {
  LassoAdmmSolver solver(a, b, options);
  return solver.solve(lambda);
}

}  // namespace uoi::solvers
