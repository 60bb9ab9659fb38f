// google-benchmark microbenchmarks of the computational kernels the
// solvers are built on — the laptop-scale analogue of the paper's Intel
// Advisor single-node profiling (§IV-A1, §IV-B1). Reports GFLOPS per
// kernel so the local machine can be compared against the paper's KNL
// measurements (gemm 30.83, gemv 1.12, trsv 0.011, spmv 2.08 GFLOPS).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kron.hpp"
#include "linalg/simd.hpp"
#include "linalg/sparse.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/screening.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"
#include "var/lag_matrix.hpp"
#include "var/var_model.hpp"
#include "var/uoi_var.hpp"

namespace {

using uoi::linalg::Matrix;
using uoi::linalg::Vector;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  uoi::support::Xoshiro256 rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  }
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  uoi::support::Xoshiro256 rng(seed);
  Vector v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    uoi::linalg::gemm(1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(uoi::linalg::gemm_flops(n, n, n)) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Gemv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 3);
  const Vector x = random_vector(n, 4);
  Vector y(n, 0.0);
  for (auto _ : state) {
    uoi::linalg::gemv(1.0, a, x, 0.0, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(uoi::linalg::gemv_flops(n, n)) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Gemv)->Arg(256)->Arg(1024);

void BM_SyrkAtA(benchmark::State& state) {
  // The Gram build A'A — the dominant setup cost the factorization cache
  // amortizes across lambda chains (blocked, packed, 2x4 micro-kernel).
  const auto p = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(4 * p, p, 15);
  Matrix gram(p, p);
  for (auto _ : state) {
    uoi::linalg::syrk_at_a(1.0, a, 0.0, gram);
    benchmark::DoNotOptimize(gram.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(uoi::linalg::gemm_flops(p, 4 * p, p)) / 2.0 * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SyrkAtA)->Arg(64)->Arg(160)->Arg(256);

void BM_CholeskyFactorOnly(benchmark::State& state) {
  // The rho-refactorization cost: with the Gram cached, an adaptive-rho
  // step pays exactly this (shift constructor), never the syrk above.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n + 8, n, 16);
  Matrix spd(n, n);
  uoi::linalg::syrk_at_a(1.0, a, 0.0, spd);
  for (auto _ : state) {
    const uoi::linalg::CholeskyFactor factor(spd, 1.0);
    benchmark::DoNotOptimize(factor.lower().data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(uoi::linalg::cholesky_flops(n)) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CholeskyFactorOnly)->Arg(64)->Arg(160)->Arg(256);

void BM_Dist2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Vector a = random_vector(n, 17);
  const Vector b = random_vector(n, 18);
  for (auto _ : state) {
    double d = uoi::linalg::dist2(a, b);
    benchmark::DoNotOptimize(d);
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      3.0 * static_cast<double>(n) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Dist2)->Arg(1024)->Arg(16384);

// Per-ISA level-1 kernels: the same benchmark body run through each
// entry of the runtime dispatch table (arg 1 = SimdLevel), so the
// scalar / AVX2 / AVX-512 implementations can be compared on one
// machine. Levels the CPU lacks clamp to the detected level (the label
// shows which table actually ran).
uoi::linalg::simd::SimdLevel bench_simd_level(benchmark::State& state) {
  auto requested =
      static_cast<uoi::linalg::simd::SimdLevel>(state.range(1));
  const auto effective = std::min(requested,
                                  uoi::linalg::simd::detect_simd_level());
  state.SetLabel(uoi::linalg::simd::simd_level_name(effective));
  return requested;
}

void BM_SimdDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& kernels =
      uoi::linalg::simd::kernel_table(bench_simd_level(state));
  const Vector x = random_vector(n, 19);
  const Vector y = random_vector(n, 20);
  for (auto _ : state) {
    double d = kernels.dot(x.data(), y.data(), n);
    benchmark::DoNotOptimize(d);
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SimdDot)->ArgsProduct({{1024, 16384, 262144}, {0, 1, 2}});

void BM_SimdAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& kernels =
      uoi::linalg::simd::kernel_table(bench_simd_level(state));
  const Vector x = random_vector(n, 21);
  Vector y = random_vector(n, 22);
  for (auto _ : state) {
    kernels.axpy(0.37, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SimdAxpy)->ArgsProduct({{1024, 16384, 262144}, {0, 1, 2}});

void BM_SimdGatherScatter(benchmark::State& state) {
  // The working-set compact/expand pair the screening path runs per ADMM
  // iteration: stride-8 survivors model a ~12% survivor fraction.
  const auto p = static_cast<std::size_t>(state.range(0));
  const auto& kernels =
      uoi::linalg::simd::kernel_table(bench_simd_level(state));
  const Vector full = random_vector(p, 23);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < p; i += 8) idx.push_back(i);
  Vector compact(idx.size(), 0.0);
  Vector expanded(p, 0.0);
  for (auto _ : state) {
    kernels.gather(full.data(), idx.data(), idx.size(), compact.data());
    kernels.scatter(compact.data(), idx.data(), idx.size(),
                    expanded.data());
    benchmark::DoNotOptimize(expanded.data());
  }
}
BENCHMARK(BM_SimdGatherScatter)->ArgsProduct({{16384, 262144}, {0, 1, 2}});

void BM_CholeskyFactorAndSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n + 8, n, 5);
  Matrix spd(n, n);
  uoi::linalg::syrk_at_a(1.0, a, 0.0, spd);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  const Vector b = random_vector(n, 6);
  Vector x(n);
  for (auto _ : state) {
    const uoi::linalg::CholeskyFactor factor(spd);
    factor.solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_CholeskyFactorAndSolve)->Arg(64)->Arg(256);

void BM_TriangularSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n + 8, n, 7);
  Matrix spd(n, n);
  uoi::linalg::syrk_at_a(1.0, a, 0.0, spd);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  const uoi::linalg::CholeskyFactor factor(spd);
  const Vector b = random_vector(n, 8);
  Vector x(n);
  for (auto _ : state) {
    factor.solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(uoi::linalg::trsv_flops(n)) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_TriangularSolve)->Arg(256)->Arg(1024);

// The UoI_VAR x-update shape: 50 independent SPD systems of one dimension
// (one per equation) on consecutive slices of one vector. The per-system
// loop is what the x-update ran before CholeskyBatch; the batch solves the
// same systems eight per SIMD lane group, bit for bit.
constexpr std::size_t kEquationSystems = 50;

std::vector<Matrix> equation_grams(std::size_t dim) {
  std::vector<Matrix> grams;
  for (std::size_t k = 0; k < kEquationSystems; ++k) {
    const Matrix a = random_matrix(dim + 8, dim, 100 + k);
    Matrix gram(dim, dim);
    uoi::linalg::syrk_at_a(1.0, a, 0.0, gram);
    grams.push_back(std::move(gram));
  }
  return grams;
}

void set_equation_solve_counters(benchmark::State& state, std::size_t dim) {
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(kEquationSystems * 2 *
                          uoi::linalg::trsv_flops(dim)) *
          1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_CholeskyPerSystemSolve(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::vector<uoi::linalg::CholeskyFactor> factors;
  for (const Matrix& gram : equation_grams(dim)) {
    factors.emplace_back(gram, 1.0);
  }
  const Vector b = random_vector(kEquationSystems * dim, 30);
  Vector x(b.size());
  for (auto _ : state) {
    for (std::size_t k = 0; k < kEquationSystems; ++k) {
      factors[k].solve(std::span<const double>(b).subspan(k * dim, dim),
                       std::span<double>(x).subspan(k * dim, dim));
    }
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  set_equation_solve_counters(state, dim);
}
BENCHMARK(BM_CholeskyPerSystemSolve)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(50)->Arg(64)->Arg(128)->Arg(256);

void BM_CholeskyBatchSolve(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const std::vector<Matrix> grams = equation_grams(dim);
  std::vector<uoi::linalg::CholeskyBatch::System> systems;
  for (std::size_t k = 0; k < kEquationSystems; ++k) {
    systems.push_back({&grams[k], k * dim});
  }
  const uoi::linalg::CholeskyBatch batch(systems, 1.0);
  const Vector b = random_vector(kEquationSystems * dim, 30);
  Vector x(b.size());
  for (auto _ : state) {
    batch.solve(b, x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  set_equation_solve_counters(state, dim);
}
BENCHMARK(BM_CholeskyBatchSolve)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(50)->Arg(64)->Arg(128)->Arg(256);

// Gram-path selection chains at two perfbench shapes, solved by the
// coordinate-descent GramLassoChain (BM_GramChainCd) and, as the
// reference, by ADMM: a LassoAdmmSolver on the same RidgeGram under the
// chain's refined options, warm-started down the same lambda path
// (BM_GramChainAdmm). Their time ratio is the same-run gain.
//   Arg 0, var_serial: a serial fit's 50 equations (199 lag rows of a
//     50-node VAR(1)) over a 16-point grid at lambda_min_ratio 3e-2;
//   Arg 1, lasso_dist: one bootstrap's chain of the fig2 data (1024 x 64,
//     support 8) over an 8-point grid.
struct GramChainPath {
  std::vector<uoi::solvers::GramProblem> problems;
  std::vector<double> lambdas;
};

const GramChainPath& gram_chain_path(bool var_serial_shape) {
  static const GramChainPath var_serial = [] {
    uoi::data::VarSpec spec;
    spec.n_nodes = 50;
    spec.seed = 4200;
    uoi::var::SimulateOptions simulate;
    simulate.n_samples = 200;
    simulate.seed = 1;
    const Matrix series =
        uoi::var::simulate(uoi::data::make_sparse_var(spec), simulate);
    const auto lag = uoi::var::build_lag_regression(series, 1);
    uoi::var::UoiVarOptions options;
    options.n_lambdas = 16;
    options.lambda_min_ratio = 3e-2;
    GramChainPath out;
    out.lambdas = uoi::var::resolve_var_lambda_grid(options, lag.y, lag.x);
    out.problems = uoi::solvers::gram_problems_from_sums(
        uoi::solvers::gram_sums(lag.x, lag.y), lag.x.cols(), lag.y.cols());
    return out;
  }();
  static const GramChainPath lasso_dist = [] {
    uoi::data::RegressionSpec spec;
    spec.n_samples = 1024;
    spec.n_features = 64;
    spec.support_size = 8;
    spec.seed = 4300;
    const auto data = uoi::data::make_regression(spec);
    GramChainPath out;
    out.lambdas = uoi::solvers::lambda_grid_for(data.x, data.y, 8);
    out.problems = uoi::solvers::gram_problems_from_sums(
        uoi::solvers::gram_sums(
            data.x, uoi::linalg::ConstMatrixView(data.y.data(),
                                                 data.y.size(), 1, 1)),
        data.x.cols());
    return out;
  }();
  return var_serial_shape ? var_serial : lasso_dist;
}

void BM_GramChainCd(benchmark::State& state) {
  const GramChainPath& path = gram_chain_path(state.range(0) == 0);
  for (auto _ : state) {
    for (const auto& problem : path.problems) {
      uoi::solvers::GramLassoChain chain(problem, uoi::solvers::AdmmOptions{});
      for (const double lambda : path.lambdas) {
        auto fit = chain.solve(lambda);
        benchmark::DoNotOptimize(fit.beta.data());
      }
    }
  }
}
BENCHMARK(BM_GramChainCd)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_GramChainAdmm(benchmark::State& state) {
  const GramChainPath& path = gram_chain_path(state.range(0) == 0);
  const auto options =
      uoi::solvers::detail::refined_admm_options(uoi::solvers::AdmmOptions{});
  for (auto _ : state) {
    for (const auto& problem : path.problems) {
      const uoi::solvers::LassoAdmmSolver solver(problem.gram,
                                                 problem.inputs.atb, options);
      uoi::solvers::AdmmResult fit;
      for (const double lambda : path.lambdas) {
        fit = solver.solve(lambda, &fit);
        benchmark::DoNotOptimize(fit.beta.data());
      }
    }
  }
}
BENCHMARK(BM_GramChainAdmm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SparseGemv(benchmark::State& state) {
  // A block-diagonal I (x) X operator at the VAR sparsity 1 - 1/p.
  const auto p = static_cast<std::size_t>(state.range(0));
  const Matrix x_block = random_matrix(2 * p, p, 9);
  const auto design = uoi::linalg::SparseMatrix::block_diagonal(x_block, p);
  const Vector v = random_vector(design.cols(), 10);
  Vector y(design.rows(), 0.0);
  for (auto _ : state) {
    design.gemv(1.0, v, 0.0, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(design.nnz()) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["sparsity"] = design.sparsity();
}
BENCHMARK(BM_SparseGemv)->Arg(16)->Arg(32);

void BM_KronImplicitGemv(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Matrix x_block = random_matrix(2 * p, p, 11);
  const uoi::linalg::KroneckerIdentityOp op(x_block, p);
  const Vector v = random_vector(op.cols(), 12);
  Vector y(op.rows(), 0.0);
  for (auto _ : state) {
    op.gemv(1.0, v, 0.0, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_KronImplicitGemv)->Arg(16)->Arg(32);

void BM_LassoAdmmSolve(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Matrix x = random_matrix(4 * p, p, 13);
  Vector beta(p, 0.0);
  uoi::support::Xoshiro256 rng(14);
  for (std::size_t i = 0; i < p / 8; ++i) beta[i] = rng.normal();
  Vector y(4 * p, 0.0);
  uoi::linalg::gemv(1.0, x, beta, 0.0, y);
  for (auto& v : y) v += 0.1 * rng.normal();
  const uoi::solvers::LassoAdmmSolver solver(x, y);
  const double lambda = 0.1 * 4 * p;
  for (auto _ : state) {
    auto fit = solver.solve(lambda);
    benchmark::DoNotOptimize(fit.beta.data());
  }
}
BENCHMARK(BM_LassoAdmmSolve)->Arg(32)->Arg(128);

// Observability overhead: one TraceScope span with event capture off
// (totals + histogram update only — the always-on cost every traced
// communication call pays) vs. on (adds the event-buffer append the
// --trace-json / --report-json paths enable).
void BM_TracerSpan(benchmark::State& state) {
  auto& tracer = uoi::support::Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(false);
  for (auto _ : state) {
    uoi::support::TraceScope span(
        "bench-span", uoi::support::TraceCategory::kCommunication);
    benchmark::ClobberMemory();
  }
  tracer.clear();
}
BENCHMARK(BM_TracerSpan);

void BM_TracerSpanCaptured(benchmark::State& state) {
  auto& tracer = uoi::support::Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(true);
  std::size_t recorded = 0;
  for (auto _ : state) {
    uoi::support::TraceScope span(
        "bench-span", uoi::support::TraceCategory::kCommunication);
    benchmark::ClobberMemory();
    if (++recorded % (1 << 16) == 0) tracer.clear();  // bound the buffer
  }
  tracer.set_capture_events(false);
  tracer.clear();
}
BENCHMARK(BM_TracerSpanCaptured);

// One live-telemetry snapshot line (what the emitter thread does per
// interval): short-lock tracer/metrics snapshot + JSON-line build.
void BM_TelemetrySnapshot(benchmark::State& state) {
  auto& tracer = uoi::support::Tracer::instance();
  tracer.clear();
  for (int rank = 0; rank < 8; ++rank) {
    for (int c = 0; c < 4; ++c) {
      tracer.record("warm", static_cast<uoi::support::TraceCategory>(c), rank,
                    0.0, 1e-6);
    }
  }
  std::map<int, uoi::support::TraceTotals> prev;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const auto line = uoi::support::TelemetryEmitter::build_snapshot_line(
        seq++, 0.0, 500, 0, prev);
    benchmark::DoNotOptimize(line.data());
  }
  tracer.clear();
}
BENCHMARK(BM_TelemetrySnapshot);

}  // namespace

BENCHMARK_MAIN();
