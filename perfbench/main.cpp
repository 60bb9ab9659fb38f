// uoi_perfbench: runs one workload for a fixed time and prints its metrics.
//
//   uoi_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--references FILE] [--spans FILE]
//
// Prints human-readable lines, a `fingerprint` line, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (see README.md). Exits 2 without a result when the build
// is not optimized or a behaviour-changing UOI_* variable is set.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "linalg/simd.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string references;
  std::string spans;
};

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--references" && has_value) {
      o.references = argv[++i];
    } else if (arg == "--spans" && has_value) {
      o.spans = argv[++i];
    } else {
      std::fprintf(stderr, "uoi_perfbench: bad argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

/// Variables that change what a fit computes or how it communicates; a
/// result measured under any of them is not comparable to the default.
constexpr const char* kBehaviourVariables[] = {
    "UOI_SCREEN",         "UOI_SIMD",          "UOI_SCHED_POLICY",
    "UOI_SOLVER_CACHE_MB", "UOI_CONSENSUS_INTERVAL", "UOI_ALLREDUCE_ALGO",
    "UOI_COMM_TIMEOUT_MS", "UOI_TRANSPORT"};

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

bool run_guard() {
  bool ok = true;
  if (!optimized_build()) {
    std::fprintf(stderr, "uoi_perfbench: refusing to run an unoptimized "
                         "build (build type '%s')\n",
                 UOI_PERFBENCH_BUILD_TYPE);
    ok = false;
  }
  for (const char* name : kBehaviourVariables) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "uoi_perfbench: refusing to run with %s set\n",
                   name);
      ok = false;
    }
  }
  return ok;
}

/// Committed per-dataset recovery of one (workload, seed): F1, false
/// positives and relative L2 error, keyed by dataset index.
using References = std::map<std::size_t, std::array<double, 3>>;

References load_references(const std::string& path,
                           const std::string& workload, std::uint64_t seed) {
  References refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t s = 0;
    std::size_t j = 0;
    std::array<double, 3> q{};
    if (fields >> name >> s >> j >> q[0] >> q[1] >> q[2] && name == workload &&
        s == seed) {
      refs[j] = q;
    }
  }
  return refs;
}

double f1(double tp, double fp, double fn) {
  return tp > 0 ? 2 * tp / (2 * tp + fp + fn) : 0.0;
}

/// A fit passes when it selects and estimates no worse than its committed
/// reference, with a small slack for floating-point differences across
/// compilers. Datasets without a reference pass.
bool within_reference(const Score& s, const References& refs, std::size_t j) {
  const auto it = refs.find(j);
  if (it == refs.end()) return true;
  const auto& [ref_f1, ref_fp, ref_l2] = it->second;
  return f1(s.true_pos, s.false_pos, s.false_neg) >= ref_f1 - 0.02 &&
         s.false_pos <= ref_fp + 1.0 && s.rel_l2_err <= ref_l2 * 1.02 + 1e-12;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process image. VmHWM, unlike ru_maxrss,
/// restarts at exec, so a large parent process does not leak into it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

using Clock = std::chrono::steady_clock;

/// Timed set-up repeats after each timed fit (see run()).
constexpr int kSetupRepeats = 3;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  auto workload = make_workload(opt.workload, opt.smoke);
  if (!workload) {
    std::fprintf(stderr, "uoi_perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const References refs =
      opt.smoke ? References{}
                : load_references(opt.references, opt.workload, opt.seed);
  Spans spans(opt.trace);
  std::optional<Spans::Scope> root;
  root.emplace(spans, "run");

  // Set-up: data generation and input preparation. After each timed fit
  // the same inputs are set up again in place (the fits' output check
  // confirms they are the same) and timed, so the median samples the host
  // over the whole run, as the fits do, not only its first moments: on a
  // shared host, short single-threaded work can run up to 1.7x slower for a
  // while.
  const auto timed_setup = [&] {
    Spans::Scope span(spans, "setup");
    const auto start = Clock::now();
    workload->setup(opt.seed);
    return since(start);
  };
  std::vector<double> setup_times = {timed_setup()};

  const std::size_t k = workload->datasets();
  int attempted = 0;
  int failed = 0;
  std::vector<std::vector<double>> first_beta(k);
  std::vector<Score> scores(k);
  // One fit plus its output check; returns false when the fit failed.
  const auto fit_and_check = [&](std::size_t j, FitResult& result) {
    ++attempted;
    bool ok = true;
    try {
      {
        Spans::Scope span(spans, "fit");
        result = workload->fit(j);
      }
      Spans::Scope span(spans, "check");
      for (double v : result.beta) ok = ok && std::isfinite(v);
      const Score score = workload->score(j, result.beta);
      if (first_beta[j].empty()) {
        first_beta[j] = result.beta;
        scores[j] = score;
      }
      ok = ok && result.beta.size() == first_beta[j].size() &&
           std::memcmp(result.beta.data(), first_beta[j].data(),
                       result.beta.size() * sizeof(double)) == 0 &&
           within_reference(score, refs, j);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "uoi_perfbench: fit failed: %s\n", error.what());
      ok = false;
    }
    if (!ok) ++failed;
    return ok;
  };

  // The first fit of a process is slower (page faults, lazy set-up); it
  // fixes dataset 0's reference model and is checked, but not timed.
  {
    FitResult warm;
    fit_and_check(0, warm);
  }

  // Cycle through the datasets until --seconds have passed, at least once.
  // A traced run fits each dataset twice in a row, untraced then traced;
  // the difference is the tracing overhead.
  std::vector<std::vector<double>> wall(k), cpu(k), traced_wall(k);
  std::vector<FitCounters> counters;
  const std::size_t passes = opt.trace ? 2 : 1;
  const auto measure_start = Clock::now();
  for (std::size_t i = 0;
       i < k * passes || since(measure_start) < opt.seconds; ++i) {
    const std::size_t j = (i / passes) % k;
    const bool traced = opt.trace && i % 2 == 1;
    spans.set_enabled(traced);
    FitResult result;
    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    const bool ok = fit_and_check(j, result);
    const double seconds = since(start);
    const double cpu_seconds = process_cpu_seconds() - cpu_start;
    spans.set_enabled(opt.trace);
    for (int r = 0; r < kSetupRepeats; ++r) {
      setup_times.push_back(timed_setup());
    }
    if (!ok) continue;
    if (traced) {
      traced_wall[j].push_back(seconds);
      counters.push_back(result.counters);
    } else {
      wall[j].push_back(seconds);
      cpu[j].push_back(cpu_seconds);
    }
  }

  // Per-dataset medians, averaged with equal weight per dataset.
  const auto pooled = [k](const std::vector<std::vector<double>>& samples) {
    double sum = 0.0;
    for (const auto& s : samples) sum += median(s);
    return sum / static_cast<double>(k);
  };
  const double fit_s = pooled(wall);
  Score total;
  for (const auto& s : scores) {
    total.true_pos += s.true_pos;
    total.false_pos += s.false_pos;
    total.false_neg += s.false_neg;
    total.rel_l2_err += s.rel_l2_err;
  }
  const double n = static_cast<double>(k);
  const double support_f1 = f1(total.true_pos, total.false_pos,
                               total.false_neg);

  std::size_t fits = 0;
  for (const auto& w : wall) fits += w.size();
  std::printf("workload %s seed %llu: %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              workload->describe().c_str());
  std::printf("setup_s %.6f (median of %zu)\n", median(setup_times),
              setup_times.size());
  std::printf("fit_s %.6f (%zu timed fits over %zu datasets, after one "
              "warm-up)\n",
              fit_s, fits, k);
  for (std::size_t j = 0; j < k; ++j) {
    const auto& s = scores[j];
    std::printf("reference %s %llu %zu %.6f %.0f %.6f\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), j,
                f1(s.true_pos, s.false_pos, s.false_neg), s.false_pos,
                s.rel_l2_err);
  }
  std::printf("references: %s\n", refs.empty() ? "none for this seed"
                                                : "checked on every fit");
  std::printf("quality over %zu datasets: support_f1 %.6f, false_pos %.3f "
              "per fit, rel_l2_err %.6f\n",
              k, support_f1, total.false_pos / n, total.rel_l2_err / n);
  std::printf("error_rate %.6f (%d failed of %d fits)\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              failed, attempted);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"fit_s", fit_s, "s"},
        {"cpu_s", pooled(cpu), "s"},
        {"setup_s", median(setup_times), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"support_f1", support_f1, "ratio"},
        {"rel_l2_err", total.rel_l2_err / n, "ratio"},
    };
  } else {
    // Counters per traced fit, averaged over the traced fits.
    const auto mean = [&](double FitCounters::*field) {
      double sum = 0.0;
      for (const auto& c : counters) sum += c.*field;
      return counters.empty() ? 0.0
                              : sum / static_cast<double>(counters.size());
    };
    const double hits = mean(&FitCounters::cache_hits);
    const double lookups = hits + mean(&FitCounters::cache_misses);
    const double columns = mean(&FitCounters::screen_columns);
    const double traced_fit_s = pooled(traced_wall);
    metrics = {
        {"solvers.admm_iterations", mean(&FitCounters::admm_iterations),
         "count"},
        {"solvers.rho_updates", mean(&FitCounters::rho_updates), "count"},
        {"solvers.consensus_rounds", mean(&FitCounters::consensus_rounds),
         "count"},
        {"solvers.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
         "ratio"},
        {"solvers.cache_lookups", lookups, "count"},
        {"solvers.screen_survivor_frac",
         columns > 0 ? mean(&FitCounters::screen_survivors) / columns : 0.0,
         "ratio"},
        {"solvers.kkt_violations", mean(&FitCounters::kkt_violations),
         "count"},
        {"core.compute_s", mean(&FitCounters::compute_s), "s"},
        {"core.comm_s", mean(&FitCounters::comm_s), "s"},
        {"core.distribution_s", mean(&FitCounters::distribution_s), "s"},
        {"core.gram_s", mean(&FitCounters::gram_s), "s"},
        {"core.false_pos", total.false_pos / n, "count"},
        {"sched.compute_max_over_mean",
         mean(&FitCounters::compute_max_over_mean), "ratio"},
        {"sched.steals_succeeded", mean(&FitCounters::steals_succeeded),
         "count"},
        {"sim.allreduce_calls", mean(&FitCounters::allreduce_calls), "count"},
        {"sim.allreduce_bytes", mean(&FitCounters::allreduce_bytes), "B"},
        {"sim.allreduce_s", mean(&FitCounters::allreduce_s), "s"},
        {"sim.barrier_s", mean(&FitCounters::barrier_s), "s"},
        {"sim.onesided_bytes", mean(&FitCounters::onesided_bytes), "B"},
        {"sim.onesided_s", mean(&FitCounters::onesided_s), "s"},
        {"trace.fit_s", traced_fit_s, "s"},
        {"trace.overhead_pct",
         fit_s > 0 ? 100.0 * (traced_fit_s / fit_s - 1.0) : 0.0, "%"},
    };
    const auto probes = run_probes(workload->probe_shape(), opt.smoke, spans);
    const std::map<std::string, const char*> probe_units = {
        {"linalg.chol_solve_us", "us"},  {"linalg.chol_solve_upper_us", "us"},
        {"linalg.chol_solve_lower_us", "us"}, {"linalg.dot_ns", "ns"},
        {"linalg.chol_factor_us", "us"}, {"linalg.syrk_gflops", "GFLOP/s"},
        {"sim.allreduce_small_us", "us"}, {"sim.allreduce_large_us", "us"},
        {"sim.barrier_us", "us"},        {"sim.spawn_ms", "ms"},
        {"var.kron_vectorize_s", "s"}};
    for (const auto& [name, value] : probes) {
      metrics.push_back({name, value, probe_units.at(name)});
    }
  }
  for (const auto& m : metrics) {
    std::printf("metric %-30s %.9g %s\n", m.name.c_str(), m.value, m.unit);
  }

  if (opt.trace) {
    root.reset();
    std::printf("spans recorded: %zu (self seconds per name below)\n",
                spans.spans().size());
    for (const auto& [name, self] : spans.self_seconds()) {
      std::printf("span %-28s self_s %.6f\n", name.c_str(), self);
    }
    if (!opt.spans.empty() && !spans.write_json(opt.spans)) {
      std::fprintf(stderr, "uoi_perfbench: cannot write %s\n",
                   opt.spans.c_str());
    }
  }

  std::printf("fingerprint {\"nproc\": %u, \"simd\": \"%s\", "
              "\"build_type\": \"%s\", \"optimized\": %s, "
              "\"compiler\": \"%s\", \"smoke\": %s}\n",
              std::thread::hardware_concurrency(),
              uoi::linalg::simd::simd_level_name(
                  uoi::linalg::simd::resolve_simd_level()),
              UOI_PERFBENCH_BUILD_TYPE, optimized_build() ? "true" : "false",
              __VERSION__, opt.smoke ? "true" : "false");
  print_result(failed == 0 && fits > 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: uoi_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--references FILE] "
                 "[--spans FILE]\n");
    return 2;
  }
  if (!perfbench::run_guard()) return 2;
  return perfbench::run(options);
}
