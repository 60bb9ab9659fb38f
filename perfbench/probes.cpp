// Per-layer probes: the public linalg kernels and uoi::sim collectives
// timed at the running workload's shapes, plus the Kron+vec distribution
// at the var_dist shape. Each timing is the median over batches, so one
// preempted batch does not move it.

#include <algorithm>
#include <chrono>
#include <vector>

#include "data/synthetic_var.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "perfbench.hpp"
#include "simcluster/cluster.hpp"
#include "support/rng.hpp"
#include "var/lag_matrix.hpp"
#include "var/var_distributed.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median per-call seconds of `fn` over `batches` batches of `calls` calls.
template <typename Fn>
double per_call_seconds(int batches, int calls, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    samples.push_back(since(start) / calls);
  }
  return median(std::move(samples));
}

uoi::linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                                  std::uint64_t seed) {
  uoi::support::Xoshiro256 rng(seed);
  uoi::linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (auto& v : m.row(i)) v = rng.normal();
  }
  return m;
}

/// Median per-call seconds of a collective on kRanks thread ranks, as
/// rank 0 sees it between barriers. `fn` gets a per-rank payload of `len`
/// doubles, refilled with ones before each batch.
template <typename Fn>
double collective_seconds(int batches, int calls, std::size_t len, Fn&& fn) {
  double out = 0.0;
  uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
    std::vector<double> samples;
    std::vector<double> payload(len);
    for (int b = 0; b < batches; ++b) {
      std::fill(payload.begin(), payload.end(), 1.0);
      comm.barrier();
      const auto start = Clock::now();
      for (int i = 0; i < calls; ++i) fn(comm, std::span<double>(payload));
      samples.push_back(since(start) / calls);
    }
    if (comm.rank() == 0) out = median(std::move(samples));
  });
  return out;
}

}  // namespace

std::map<std::string, double> run_probes(const ProbeShape& shape, bool smoke,
                                         Spans& spans) {
  std::map<std::string, double> out;
  const int batches = smoke ? 3 : 15;
  const std::size_t n = shape.dim;

  // A Gram of the bootstrap design plus the ADMM rho shift: the system the
  // x-update factors once and solves every iteration.
  const auto design = random_matrix(shape.gram_rows, n, 11);
  uoi::linalg::Matrix gram(n, n);
  uoi::linalg::syrk_at_a(1.0, design, 0.0, gram);
  const uoi::linalg::CholeskyFactor factor(gram, 1.0);
  std::vector<double> b(n, 1.0), x(n, 0.0);
  volatile double sink = 0.0;
  const int solve_calls = smoke ? 10 : 400;
  {
    Spans::Scope span(spans, "probe.linalg.chol_solve");
    out["linalg.chol_solve_us"] =
        1e6 * per_call_seconds(batches, solve_calls,
                               [&] { factor.solve(b, x); });
    out["linalg.chol_solve_upper_us"] =
        1e6 * per_call_seconds(batches, solve_calls,
                               [&] { factor.solve_upper(b, x); });
    out["linalg.chol_solve_lower_us"] =
        1e6 * per_call_seconds(batches, solve_calls,
                               [&] { factor.solve_lower(b, x); });
    sink = sink + x[0];
  }
  {
    Spans::Scope span(spans, "probe.linalg.dot");
    const auto u = random_matrix(1, n, 12);
    const auto v = random_matrix(1, n, 13);
    out["linalg.dot_ns"] =
        1e9 * per_call_seconds(batches, smoke ? 100 : 20000, [&] {
          sink = sink + uoi::linalg::dot(u.row(0), v.row(0));
        });
  }
  {
    Spans::Scope span(spans, "probe.linalg.chol_factor");
    out["linalg.chol_factor_us"] =
        1e6 * per_call_seconds(batches, smoke ? 2 : 40, [&] {
          const uoi::linalg::CholeskyFactor f(gram, 1.0);
          sink = sink + f.lower()(0, 0);
        });
  }
  {
    Spans::Scope span(spans, "probe.linalg.syrk");
    uoi::linalg::Matrix c(n, n);
    const double seconds =
        per_call_seconds(batches, smoke ? 2 : 20, [&] {
          uoi::linalg::syrk_at_a(1.0, design, 0.0, c);
        });
    // The symmetric half: m * n * (n + 1) multiply-adds counted as flops.
    const double flops = static_cast<double>(shape.gram_rows) *
                         static_cast<double>(n) * static_cast<double>(n + 1);
    out["linalg.syrk_gflops"] = flops / seconds * 1e-9;
  }

  const int calls = smoke ? 20 : 200;
  const auto allreduce = [](uoi::sim::Comm& comm, std::span<double> data) {
    comm.allreduce(data, uoi::sim::ReduceOp::kSum);
  };
  {
    Spans::Scope span(spans, "probe.sim.allreduce_small");
    out["sim.allreduce_small_us"] =
        1e6 * collective_seconds(batches, calls, shape.features + 3,
                                 allreduce);
  }
  {
    Spans::Scope span(spans, "probe.sim.allreduce_large");
    out["sim.allreduce_large_us"] =
        1e6 * collective_seconds(batches, calls, shape.coefficients + 3,
                                 allreduce);
  }
  {
    Spans::Scope span(spans, "probe.sim.barrier");
    out["sim.barrier_us"] =
        1e6 * collective_seconds(
                  batches, calls, 0,
                  [](uoi::sim::Comm& comm, std::span<double>) {
                    comm.barrier();
                  });
  }
  {
    Spans::Scope span(spans, "probe.sim.spawn");
    out["sim.spawn_ms"] =
        1e3 * per_call_seconds(batches, smoke ? 2 : 10, [&] {
          uoi::sim::Cluster::run(kRanks, [](uoi::sim::Comm&) {});
        });
  }
  {
    // Always the var_dist shape (48 nodes, 600 samples, 2 readers), so
    // the number compares across workloads.
    Spans::Scope span(spans, "probe.var.kron_vectorize");
    uoi::data::VarSpec spec;
    spec.n_nodes = smoke ? 8 : 48;
    uoi::var::SimulateOptions sim;
    sim.n_samples = smoke ? 100 : 600;
    const auto series =
        uoi::var::simulate(uoi::data::make_sparse_var(spec), sim);
    const auto lag = uoi::var::build_lag_regression(series, 1);
    std::vector<double> samples;
    uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
      for (int r = 0; r < (smoke ? 2 : 7); ++r) {
        comm.barrier();
        const auto start = Clock::now();
        const auto block = uoi::var::distributed_kron_vectorize(comm, lag, 2);
        comm.barrier();
        if (comm.rank() == 0) {
          samples.push_back(since(start));
          sink = sink + block.y.size();
        }
      }
    });
    out["var.kron_vectorize_s"] = median(std::move(samples));
  }
  static_cast<void>(sink);
  return out;
}

}  // namespace perfbench
