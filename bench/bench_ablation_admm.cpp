// Ablation — ADMM engineering choices DESIGN.md calls out:
//   (1) residual-balancing adaptive rho vs a fixed penalty,
//   (2) unfused vs fused residual reduction — the stopping test's three
//       sums riding the consensus Allreduce (arXiv:1808.06992's
//       reduced-communication direction),
//   (3) warm starts along the lambda path vs cold starts.
// Each is measured functionally (iteration/Allreduce counts on the
// simulated cluster) and projected to paper scale through the collective
// model (fewer blocking collectives x modeled Allreduce time).

#include <algorithm>
#include <cstdio>

#include "data/synthetic_regression.hpp"
#include "perfmodel/collectives.hpp"
#include "perfmodel/machine.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/distributed_admm.hpp"
#include "solvers/lambda_grid.hpp"
#include "support/format.hpp"
#include "support/table.hpp"

int main() {
  std::printf("== Ablation: ADMM engineering choices ==\n\n");

  uoi::data::RegressionSpec spec;
  spec.n_samples = 512;
  spec.n_features = 64;
  spec.support_size = 8;
  spec.noise_stddev = 0.5;
  const auto data = uoi::data::make_regression(spec);
  const double lambda_hi = uoi::solvers::lambda_max(data.x, data.y);

  // ---- (1) adaptive vs fixed rho ----
  std::printf("-- (1) adaptive vs fixed rho (serial path, 8 lambdas) --\n\n");
  uoi::support::Table rho_table(
      {"rho policy", "total iterations", "converged lambdas"});
  for (const bool adaptive : {false, true}) {
    uoi::solvers::AdmmOptions options;
    options.adaptive_rho = adaptive;
    const uoi::solvers::LassoAdmmSolver solver(data.x, data.y, options);
    std::size_t iterations = 0, converged = 0;
    const auto grid = uoi::solvers::log_spaced_lambdas(lambda_hi, 1e-3, 8);
    for (const double lambda : grid) {
      const auto fit = solver.solve(lambda);
      iterations += fit.iterations;
      converged += fit.converged ? 1 : 0;
    }
    rho_table.add_row({adaptive ? "adaptive (residual balancing)" : "fixed",
                       uoi::support::format_count(iterations),
                       std::to_string(converged) + "/8"});
  }
  std::printf("%s\n", rho_table.to_text().c_str());

  // ---- (2) unfused vs fused residual reduction ----
  std::printf("-- (2) unfused vs fused residual reduction (8 ranks) --\n\n");
  uoi::support::Table fuse_table({"residual reduction", "iterations",
                                  "blocking collectives/iter",
                                  "modeled comm @ 34,816 cores"});
  const auto machine = uoi::perf::knl_profile();
  for (const bool fused : {false, true}) {
    uoi::solvers::AdmmOptions options;
    options.fused_residual_reduction = fused;
    options.consensus_interval = 1;
    std::size_t iterations = 0;
    std::uint64_t calls = 0;
    uoi::sim::Cluster::run(8, [&](uoi::sim::Comm& comm) {
      const std::size_t n = data.x.rows();
      const std::size_t begin = n * comm.rank() / comm.size();
      const std::size_t end = n * (comm.rank() + 1) / comm.size();
      const auto fit = uoi::solvers::distributed_lasso_admm(
          comm, data.x.row_block(begin, end - begin),
          std::span<const double>(data.y).subspan(begin, end - begin),
          0.05 * lambda_hi, options);
      if (comm.rank() == 0) {
        iterations = fit.iterations;
        calls = fit.allreduce_calls;
      }
    });
    // Unfused: a p-double consensus plus a 3-double residual reduction per
    // iteration; fused: one (p+3)-double reduction carrying both.
    const std::size_t p = spec.n_features;
    const double per_iter =
        fused ? uoi::perf::allreduce_time(machine, 34816,
                                          (p + 3) * sizeof(double))
              : uoi::perf::allreduce_time(machine, 34816, p * sizeof(double)) +
                    uoi::perf::allreduce_time(machine, 34816,
                                              3 * sizeof(double));
    fuse_table.add_row(
        {fused ? "fused (p+3 payload)" : "unfused (p, then 3)",
         uoi::support::format_count(iterations),
         uoi::support::format_fixed(
             static_cast<double>(calls) /
                 static_cast<double>(std::max<std::size_t>(1, iterations)),
             2),
         uoi::support::format_seconds(per_iter *
                                      static_cast<double>(iterations))});
  }
  std::printf("%s\n", fuse_table.to_text().c_str());

  // ---- (3) warm vs cold starts along the lambda path ----
  std::printf("-- (3) warm vs cold starts along an 8-lambda path --\n\n");
  uoi::support::Table warm_table({"start policy", "total iterations"});
  {
    const uoi::solvers::LassoAdmmSolver solver(data.x, data.y);
    const auto grid = uoi::solvers::log_spaced_lambdas(lambda_hi, 1e-3, 8);
    std::size_t cold = 0, warm = 0;
    uoi::solvers::AdmmResult previous;
    bool have_previous = false;
    for (const double lambda : grid) {
      cold += solver.solve(lambda).iterations;
      auto fit = solver.solve(lambda, have_previous ? &previous : nullptr);
      warm += fit.iterations;
      previous = std::move(fit);
      have_previous = true;
    }
    warm_table.add_row({"cold", uoi::support::format_count(cold)});
    warm_table.add_row({"warm (path)", uoi::support::format_count(warm)});
  }
  std::printf("%s\n", warm_table.to_text().c_str());
  std::printf(
      "The production configuration (adaptive rho, fused residual\n"
      "reduction and warm starts) is the default.\n");
  return 0;
}
