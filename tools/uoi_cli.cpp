// uoi — command-line front end to the library.
//
//   uoi lasso    --csv data.csv [options]   sparse regression (last column
//                                           of the CSV is the response)
//   uoi logistic --csv data.csv [options]   sparse classification (last
//                                           column holds 0/1 labels)
//   uoi var      --csv series.csv [options] Granger network from a series
//                                           (columns = variables)
//   uoi granger  --csv series.csv [--order D]
//                                           classical pairwise Granger
//                                           F-tests (econometric baseline)
//   uoi order    --csv series.csv [--max-order D]
//                                           VAR order selection (AIC/BIC/HQ)
//   uoi demo                                synthetic end-to-end showcase
//   uoi faultdemo                           fault-injected distributed run:
//                                           kill a rank mid-selection, watch
//                                           the survivors shrink + recover
//   uoi analyze TRACE.json [TRACE2.json...] post-hoc run-report analytics
//                                           (load imbalance, exact critical
//                                           path over the cross-rank event
//                                           DAG, latency percentiles) from
//                                           one or more Chrome-trace files;
//                                           per-rank files are merged on the
//                                           shared collective stamps
//   uoi top TELEMETRY.jsonl [--follow]      render live-telemetry progress
//                                           (per-rank buckets, progress bar,
//                                           cache hit rate, health) from a
//                                           --live-telemetry stream
//   uoi launch --ranks N [--backend socket] [--dir D] -- CMD [ARGS...]
//                                           run CMD once per rank as real OS
//                                           processes wired together by the
//                                           socket transport (rank 0 owns the
//                                           terminal; ranks > 0 log to
//                                           D/rank-<r>.log); --backend thread
//                                           just execs CMD in place
//
// Common options:
//   --b1 N / --b2 N       selection / estimation bootstraps
//   --lambdas Q           lambda grid size
//   --seed S              master seed
//   --checkpoint-path F   persist selection progress to F and resume from it
//   --trace-json F        write a Chrome-trace-event JSON of the run to F
//                         (open in Perfetto / chrome://tracing; pid = rank)
//   --report-json F       write run-report analytics (run_report.json
//                         schema) and print the text summary
//   --live-telemetry S    stream "uoi-telemetry-v1" JSON lines to S (a file
//                         path or unix:/path socket) every
//                         $UOI_TELEMETRY_INTERVAL_MS ms (default 500) while
//                         the command runs; view with `uoi top S`
// analyze-specific:
//   --what-if CAT=FACTOR  replay the event DAG with category CAT's span
//                         durations scaled by FACTOR (repeatable; e.g.
//                         --what-if communication=0 predicts the comm-
//                         avoidance headroom, cross-checked against the
//                         exact critical path's communication share)
// var-specific:
//   --order D             VAR order (default 1)
//   --tolerance T         edge magnitude threshold (default 0.01)
//   --dot FILE            write the Graphviz network
//   --json FILE           write the network as JSON
//   --save-model FILE     write the fitted model (model_io format)
//   --forecast H          print an H-step forecast
// faultdemo-specific:
//   --ranks P             cluster size (default 4)
//   --transport B         communicator backend: "thread" (default; ranks are
//                         threads of this process) or "socket" (the command
//                         re-launches itself as --ranks real processes over
//                         the Unix-socket transport, so an injected fault
//                         SIGKILLs an actual process)
//   --inject-fault R@S    kill global rank R at its S-th collective
//   --hang R@S            hang global rank R at its S-th collective; needs
//                         the watchdog armed (--comm-timeout-ms) so the
//                         survivors can detect the stalled rank and recover
//   --comm-timeout-ms MS  arm the per-rank progress watchdog: a rank whose
//                         progress epoch stays flat for MS milliseconds at a
//                         synchronization point is declared failed
//                         (equivalent to $UOI_COMM_TIMEOUT_MS)
//   --min-bootstrap-quorum F
//                         allow quorum-degraded completion: when the
//                         recovery budget is exhausted mid-selection, finish
//                         anyway if >= F of the selection bootstraps
//                         completed at every lambda (default 1.0 = off)
//   --max-retries N       one-sided retry budget (default 4)
//   --max-recovery-attempts N
//                         shrink-and-resume budget for rank failures
//                         (default 1); 0 + --min-bootstrap-quorum shows
//                         quorum-degraded completion

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "core/metrics.hpp"
#include "core/uoi_lasso.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "core/uoi_logistic.hpp"
#include "solvers/logistic.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "io/csv.hpp"
#include "linalg/simd.hpp"
#include "report/run_report.hpp"
#include "report/trace_reader.hpp"
#include "sched/schedule_policy.hpp"
#include "simcluster/cluster.hpp"
#include "support/format.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"
#include "transport/launch.hpp"
#include "transport/socket_runtime.hpp"
#include "var/granger.hpp"
#include "var/granger_test.hpp"
#include "var/model_io.hpp"
#include "var/order_selection.hpp"
#include "var/uoi_var.hpp"

namespace {

struct Args {
  std::string command;
  std::string csv_path;
  std::string dot_path;
  std::string json_path;
  std::string model_path;
  std::size_t b1 = 20;
  std::size_t b2 = 10;
  std::size_t n_lambdas = 16;
  std::size_t order = 1;
  std::size_t max_order = 4;
  std::size_t forecast_horizon = 0;
  double tolerance = 0.01;
  std::uint64_t seed = 20200518;
  std::string checkpoint_path;
  std::string trace_json_path;  ///< Chrome-trace output, empty = no trace
  std::string report_json_path;  ///< run-report output, empty = no report
  /// Positional inputs: trace files for `uoi analyze` (merged when more
  /// than one), the telemetry file for `uoi top`.
  std::vector<std::string> inputs;
  std::string live_telemetry;  ///< telemetry sink, empty = off
  std::vector<std::string> what_if;  ///< "CATEGORY=FACTOR" replay scales
  bool top_follow = false;  ///< `uoi top --follow`: keep tailing
  std::string inject_fault;  ///< "rank@step", empty = no fault
  std::string hang_fault;    ///< "rank@step" hang injection, empty = none
  long comm_timeout_ms = -1;  ///< watchdog timeout; < 0 defers to env
  double min_bootstrap_quorum = 1.0;  ///< degraded-completion floor
  int max_retries = 4;
  int max_recovery_attempts = 1;  ///< shrink-and-resume budget
  int ranks = 4;
  std::string transport;  ///< "thread" (default) or "socket"
  /// kAuto defers to $UOI_SCHED_POLICY (default cost_lpt).
  uoi::sched::SchedulePolicy sched_policy = uoi::sched::SchedulePolicy::kAuto;
  /// < 0 defers to $UOI_SOLVER_CACHE_MB (default 256); 0 disables.
  long solver_cache_mb = -1;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s {lasso|logistic|var|granger|order|demo|faultdemo} "
               "[--csv FILE] [--b1 N] "
               "[--b2 N] [--lambdas Q] [--order D] [--max-order D] "
               "[--tolerance T] [--dot FILE] [--json FILE] [--save-model FILE] "
               "[--forecast H] [--seed S] [--checkpoint-path FILE] "
               "[--trace-json FILE] [--report-json FILE] "
               "[--ranks P] [--inject-fault RANK@STEP] [--hang RANK@STEP] "
               "[--comm-timeout-ms MS] [--min-bootstrap-quorum F] "
               "[--max-retries N] [--max-recovery-attempts N] "
               "[--sched-policy static|cost_lpt|work_steal] "
               "[--solver-cache-mb MB] "
               "[--transport thread|socket] "
               "[--live-telemetry SINK]\n"
               "       %s info\n"
               "       %s analyze TRACE.json [TRACE2.json ...] "
               "[--report-json FILE] [--what-if CATEGORY=FACTOR]...\n"
               "       %s top TELEMETRY.jsonl [--follow]\n"
               "       %s launch --ranks N [--backend thread|socket] "
               "[--dir D] [--grace-ms MS] -- CMD [ARGS...]\n",
               argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

/// Parses all of `text` as a T: a decimal integer in T's range (with no
/// sign when T is unsigned) or a finite double. False on anything else,
/// such as "3x", "abc", "" or "-5" for an unsigned T.
template <class T>
bool parse_number(std::string_view text, T& out) {
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [end, error] = std::from_chars(first, last, out);
  if (error != std::errc{} || end != last) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

/// The value `text` of the numeric flag `flag`; names the flag and exits
/// with status 2 unless the whole token parses (see parse_number).
template <class T>
T flag_number(const std::string& flag, const char* text) {
  T out{};
  if (!parse_number(text, out)) {
    std::fprintf(stderr, "%s: invalid %s value '%s'\n", flag.c_str(),
                 std::is_floating_point_v<T> ? "numeric"
                 : std::is_unsigned_v<T>     ? "non-negative integer"
                                             : "integer",
                 text);
    std::exit(2);
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Reads the flag's value into `out` through flag_number.
    auto number = [&]<class T>(T& out) {
      out = flag_number<T>(flag, value());
    };
    if (flag == "--csv") {
      args.csv_path = value();
    } else if (flag == "--b1") {
      number(args.b1);
    } else if (flag == "--b2") {
      number(args.b2);
    } else if (flag == "--lambdas") {
      number(args.n_lambdas);
    } else if (flag == "--order") {
      number(args.order);
    } else if (flag == "--max-order") {
      number(args.max_order);
    } else if (flag == "--forecast") {
      number(args.forecast_horizon);
    } else if (flag == "--tolerance") {
      number(args.tolerance);
    } else if (flag == "--dot") {
      args.dot_path = value();
    } else if (flag == "--json") {
      args.json_path = value();
    } else if (flag == "--save-model") {
      args.model_path = value();
    } else if (flag == "--seed") {
      number(args.seed);
    } else if (flag == "--checkpoint-path") {
      args.checkpoint_path = value();
    } else if (flag == "--trace-json") {
      args.trace_json_path = value();
    } else if (flag == "--report-json") {
      args.report_json_path = value();
    } else if (flag.rfind("--", 0) != 0 &&
               (args.command == "analyze" || args.command == "top")) {
      args.inputs.push_back(flag);
    } else if (flag == "--live-telemetry") {
      args.live_telemetry = value();
    } else if (flag == "--what-if") {
      args.what_if.push_back(value());
    } else if (flag == "--follow") {
      args.top_follow = true;
    } else if (flag == "--inject-fault") {
      args.inject_fault = value();
    } else if (flag == "--hang") {
      args.hang_fault = value();
    } else if (flag == "--comm-timeout-ms") {
      number(args.comm_timeout_ms);
      if (args.comm_timeout_ms <= 0) {
        std::fprintf(stderr, "--comm-timeout-ms must be > 0\n");
        usage(argv[0]);
      }
    } else if (flag == "--min-bootstrap-quorum") {
      number(args.min_bootstrap_quorum);
      if (args.min_bootstrap_quorum <= 0.0 ||
          args.min_bootstrap_quorum > 1.0) {
        std::fprintf(stderr, "--min-bootstrap-quorum must be in (0, 1]\n");
        usage(argv[0]);
      }
    } else if (flag == "--max-retries") {
      number(args.max_retries);
    } else if (flag == "--max-recovery-attempts") {
      number(args.max_recovery_attempts);
      if (args.max_recovery_attempts < 0) {
        std::fprintf(stderr, "--max-recovery-attempts must be >= 0\n");
        usage(argv[0]);
      }
    } else if (flag == "--ranks") {
      number(args.ranks);
    } else if (flag == "--transport") {
      args.transport = value();
      if (args.transport != "thread" && args.transport != "socket") {
        std::fprintf(stderr, "--transport must be thread or socket\n");
        usage(argv[0]);
      }
    } else if (flag == "--sched-policy") {
      const char* name = value();
      if (!uoi::sched::policy_from_string(name, args.sched_policy)) {
        std::fprintf(stderr, "unknown --sched-policy: %s\n", name);
        usage(argv[0]);
      }
    } else if (flag == "--solver-cache-mb") {
      number(args.solver_cache_mb);
      if (args.solver_cache_mb < 0) {
        std::fprintf(stderr, "--solver-cache-mb must be >= 0\n");
        usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      usage(argv[0]);
    }
  }
  return args;
}

uoi::io::CsvData require_csv(const Args& args) {
  if (args.csv_path.empty()) {
    std::fprintf(stderr, "--csv FILE is required for this command\n");
    std::exit(2);
  }
  return uoi::io::read_csv(args.csv_path);
}

int run_lasso(const Args& args) {
  const auto csv = require_csv(args);
  const auto& m = csv.values;
  if (m.cols() < 2 || m.rows() < 4) {
    std::fprintf(stderr, "need at least 2 columns and 4 rows\n");
    return 2;
  }
  const std::size_t p = m.cols() - 1;
  const auto x = uoi::linalg::Matrix::from_view(m).gather_cols([&] {
    std::vector<std::size_t> cols(p);
    for (std::size_t c = 0; c < p; ++c) cols[c] = c;
    return cols;
  }());
  const auto y = uoi::linalg::Matrix::from_view(m).col(p);

  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = args.b1;
  options.n_estimation_bootstraps = args.b2;
  options.n_lambdas = args.n_lambdas;
  options.fit_intercept = true;
  options.seed = args.seed;
  options.schedule = args.sched_policy;
  options.solver_cache_mb = args.solver_cache_mb;
  options.recovery.checkpoint_path = args.checkpoint_path;
  const auto fit = uoi::core::UoiLasso(options).fit(x, y);

  std::printf("UoI_LASSO fit: %zu samples x %zu features\n", x.rows(), p);
  std::printf("intercept: %.6g\nselected features (|beta| > %g):\n",
              fit.intercept, args.tolerance);
  for (std::size_t i = 0; i < p; ++i) {
    if (std::abs(fit.beta[i]) > args.tolerance) {
      const std::string label = i < csv.column_labels.size()
                                    ? csv.column_labels[i]
                                    : "x" + std::to_string(i);
      std::printf("  %-16s %+.6g\n", label.c_str(), fit.beta[i]);
    }
  }
  return 0;
}

int run_logistic(const Args& args) {
  const auto csv = require_csv(args);
  const auto& m = csv.values;
  if (m.cols() < 2 || m.rows() < 8) {
    std::fprintf(stderr, "need at least 2 columns and 8 rows\n");
    return 2;
  }
  const std::size_t p = m.cols() - 1;
  const auto x = uoi::linalg::Matrix::from_view(m).gather_cols([&] {
    std::vector<std::size_t> cols(p);
    for (std::size_t c = 0; c < p; ++c) cols[c] = c;
    return cols;
  }());
  const auto y = uoi::linalg::Matrix::from_view(m).col(p);
  for (const double v : y) {
    if (v != 0.0 && v != 1.0) {
      std::fprintf(stderr, "last column must hold 0/1 labels\n");
      return 2;
    }
  }

  uoi::core::UoiLogisticOptions options;
  options.n_selection_bootstraps = args.b1;
  options.n_estimation_bootstraps = args.b2;
  options.n_lambdas = args.n_lambdas;
  options.seed = args.seed;
  options.schedule = args.sched_policy;
  options.solver_cache_mb = args.solver_cache_mb;
  const auto fit = uoi::core::UoiLogistic(options).fit(x, y);

  std::printf("UoI_Logistic fit: %zu samples x %zu features\n", x.rows(), p);
  std::printf("intercept: %.6g\ntraining accuracy: %.3f\n", fit.intercept,
              uoi::solvers::logistic_accuracy(x, y, fit.beta, fit.intercept));
  std::printf("selected features (|beta| > %g):\n", args.tolerance);
  for (std::size_t i = 0; i < p; ++i) {
    if (std::abs(fit.beta[i]) > args.tolerance) {
      const std::string label = i < csv.column_labels.size()
                                    ? csv.column_labels[i]
                                    : "x" + std::to_string(i);
      std::printf("  %-16s %+.6g\n", label.c_str(), fit.beta[i]);
    }
  }
  return 0;
}

int run_var(const Args& args) {
  const auto csv = require_csv(args);
  if (csv.values.rows() < args.order + 4) {
    std::fprintf(stderr, "series too short for order %zu\n", args.order);
    return 2;
  }
  uoi::var::UoiVarOptions options;
  options.order = args.order;
  options.n_selection_bootstraps = args.b1;
  options.n_estimation_bootstraps = args.b2;
  options.n_lambdas = args.n_lambdas;
  options.seed = args.seed;
  options.schedule = args.sched_policy;
  options.solver_cache_mb = args.solver_cache_mb;
  options.recovery.checkpoint_path = args.checkpoint_path;
  const auto fit = uoi::var::UoiVar(options).fit(csv.values);

  const auto network =
      uoi::var::GrangerNetwork::from_model(fit.model, args.tolerance);
  std::printf("UoI_VAR(%zu) fit: %zu samples x %zu variables\n", args.order,
              csv.values.rows(), csv.values.cols());
  std::printf("Granger network: %zu edges (density %.3f)\n",
              network.edge_count(), network.density());
  std::printf("%s", network.to_edge_list(csv.column_labels).c_str());

  if (!args.dot_path.empty()) {
    std::ofstream out(args.dot_path);
    out << network.to_dot(csv.column_labels);
    std::printf("wrote %s\n", args.dot_path.c_str());
  }
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << network.to_json(csv.column_labels);
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  if (!args.model_path.empty()) {
    uoi::var::save_model(args.model_path, fit.model);
    std::printf("wrote %s\n", args.model_path.c_str());
  }
  if (args.forecast_horizon > 0) {
    const auto fc =
        uoi::var::forecast(fit.model, csv.values, args.forecast_horizon);
    std::printf("forecast (%zu steps):\n%s",
                args.forecast_horizon,
                uoi::io::to_csv(fc, csv.column_labels).c_str());
  }
  return 0;
}

int run_granger(const Args& args) {
  // Classical pairwise Granger F-tests (the econometric baseline).
  const auto csv = require_csv(args);
  const auto tests =
      uoi::var::granger_f_tests(csv.values, args.order);
  uoi::support::Table table({"source", "target", "F", "p-value", "signif."});
  const double alpha = 0.05 / static_cast<double>(tests.size());
  for (const auto& t : tests) {
    const auto name = [&](std::size_t i) {
      if (i < csv.column_labels.size()) return csv.column_labels[i];
      std::string label = "x";
      label += std::to_string(i);
      return label;
    };
    table.add_row({name(t.source), name(t.target),
                   uoi::support::format_fixed(t.f_statistic, 3),
                   uoi::support::format_sci(t.p_value, 2),
                   t.p_value < alpha ? "*" : ""});
  }
  std::printf("%s", table.to_text().c_str());
  std::printf("(* = significant at 5%% with Bonferroni over %zu tests)\n",
              tests.size());
  return 0;
}

int run_order(const Args& args) {
  const auto csv = require_csv(args);
  const auto result = uoi::var::select_var_order(csv.values, args.max_order);
  uoi::support::Table table({"order", "AIC", "BIC", "Hannan-Quinn"});
  for (std::size_t d = 1; d <= args.max_order; ++d) {
    table.add_row({std::to_string(d),
                   uoi::support::format_fixed(result.aic[d - 1], 4),
                   uoi::support::format_fixed(result.bic[d - 1], 4),
                   uoi::support::format_fixed(result.hannan_quinn[d - 1], 4)});
  }
  std::printf("%sbest order by BIC: %zu\n", table.to_text().c_str(),
              result.best_order);
  return 0;
}

int run_demo(const Args& args) {
  std::printf("== synthetic UoI_VAR demo ==\n");
  uoi::data::VarSpec spec;
  spec.n_nodes = 8;
  spec.seed = args.seed;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 500;
  sim.seed = args.seed + 1;
  const auto series = uoi::var::simulate(truth, sim);

  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = args.b1;
  options.n_estimation_bootstraps = args.b2;
  options.n_lambdas = args.n_lambdas;
  options.seed = args.seed;
  options.schedule = args.sched_policy;
  options.solver_cache_mb = args.solver_cache_mb;
  options.recovery.checkpoint_path = args.checkpoint_path;
  const auto fit = uoi::var::UoiVar(options).fit(series);

  const auto est = uoi::var::GrangerNetwork::from_model(fit.model, 0.02);
  const auto ref = uoi::var::GrangerNetwork::from_model(truth, 1e-9);
  std::printf("true edges: %zu, estimated edges: %zu\n", ref.edge_count(),
              est.edge_count());
  const auto acc = uoi::core::selection_accuracy(
      uoi::core::SupportSet::from_beta(fit.vec_beta, 0.02),
      uoi::core::SupportSet::from_beta(truth.vec_b(), 1e-9),
      fit.vec_beta.size());
  std::printf("recovery: precision %.2f recall %.2f F1 %.2f\n",
              acc.precision(), acc.recall(), acc.f1());
  return 0;
}

int run_faultdemo(const Args& args) {
  if (args.ranks < 2) {
    std::fprintf(stderr, "faultdemo needs --ranks >= 2\n");
    return 2;
  }
  // Under `--transport socket` every rank is a separate process running
  // this same function; each one knows only its own report, and ranks > 0
  // write to per-rank logs while rank 0 owns the terminal.
  const auto job = uoi::transport::job_config_from_env();
  const bool socket_job = uoi::transport::socket_job_active() && job;
  std::printf("== fault-injection demo: distributed UoI_LASSO on %d %s ==\n",
              args.ranks, socket_job ? "processes" : "ranks");

  uoi::data::RegressionSpec spec;
  spec.n_samples = 120;
  spec.n_features = 16;
  spec.support_size = 4;
  spec.seed = args.seed;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = args.b1;
  options.n_estimation_bootstraps = args.b2;
  options.n_lambdas = args.n_lambdas;
  options.seed = args.seed;
  options.schedule = args.sched_policy;
  options.solver_cache_mb = args.solver_cache_mb;
  options.recovery.checkpoint_path = args.checkpoint_path;
  options.recovery.checkpoint_interval = 1;
  options.recovery.onesided_max_attempts = args.max_retries;
  options.recovery.max_recovery_attempts = args.max_recovery_attempts;
  options.recovery.min_bootstrap_quorum = args.min_bootstrap_quorum;

  // Parses "RANK@STEP"; returns false (after its own diagnostic) on a
  // malformed or out-of-range spec.
  const auto parse_rank_step = [&](const std::string& spec, const char* flag,
                                   int& rank, std::uint64_t& step) {
    const auto at = spec.find('@');
    if (at == std::string::npos) {
      std::fprintf(stderr, "%s expects RANK@STEP, got %s\n", flag,
                   spec.c_str());
      return false;
    }
    const std::string_view text(spec);
    if (!parse_number(text.substr(0, at), rank) ||
        !parse_number(text.substr(at + 1), step)) {
      std::fprintf(stderr, "%s expects RANK@STEP, got %s\n", flag,
                   spec.c_str());
      return false;
    }
    if (rank < 0 || rank >= args.ranks) {
      std::fprintf(stderr, "%s rank %d outside [0, %d)\n", flag, rank,
                   args.ranks);
      return false;
    }
    return true;
  };

  auto plan = std::make_shared<uoi::sim::FaultPlan>();
  bool have_fault = false;
  std::set<int> planned_victims;
  if (!args.inject_fault.empty()) {
    int victim = -1;
    std::uint64_t step = 0;
    if (!parse_rank_step(args.inject_fault, "--inject-fault", victim, step)) {
      return 2;
    }
    plan->kills.push_back({victim, step});
    planned_victims.insert(victim);
    have_fault = true;
    std::printf("fault plan: kill rank %d at its %llu-th collective\n", victim,
                static_cast<unsigned long long>(step));
  }
  uoi::sim::WatchdogConfig watchdog;
  if (args.comm_timeout_ms > 0) watchdog.timeout_ms = args.comm_timeout_ms;
  if (!args.hang_fault.empty()) {
    int victim = -1;
    std::uint64_t step = 0;
    if (!parse_rank_step(args.hang_fault, "--hang", victim, step)) return 2;
    if (!watchdog.armed() && !uoi::sim::WatchdogConfig::from_env().armed()) {
      std::fprintf(stderr,
                   "--hang needs the progress watchdog armed "
                   "(--comm-timeout-ms or $UOI_COMM_TIMEOUT_MS), or the "
                   "hung rank would stall the run forever\n");
      return 2;
    }
    plan->hangs.push_back({victim, step});
    planned_victims.insert(victim);
    have_fault = true;
    std::printf("fault plan: hang rank %d at its %llu-th collective\n", victim,
                static_cast<unsigned long long>(step));
  }

  std::vector<std::optional<uoi::core::UoiLassoDistributedResult>> results(
      static_cast<std::size_t>(args.ranks));
  const auto reports = uoi::sim::Cluster::run_collect_reports(
      args.ranks, [&](uoi::sim::Comm& comm) {
        if (have_fault) comm.set_fault_plan(plan);
        if (watchdog.armed()) comm.set_watchdog(watchdog);
        results[static_cast<std::size_t>(comm.rank())] =
            uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options,
                                             {1, 1});
      });

  uoi::support::Table table({"rank", "outcome", "failures seen", "hangs",
                             "shrinks", "cells redone", "retries",
                             "ckpt resumes"});
  for (int r = 0; r < args.ranks; ++r) {
    // Each socket-job process knows only its own report; the other rows
    // live in the other processes' logs.
    if (socket_job && r != job->rank) continue;
    const auto& recovery = reports[static_cast<std::size_t>(r)].recovery;
    table.add_row({std::to_string(r),
                   results[static_cast<std::size_t>(r)].has_value()
                       ? "finished"
                       : "killed (planned)",
                   std::to_string(recovery.rank_failures_detected),
                   std::to_string(recovery.hangs_detected),
                   std::to_string(recovery.shrinks),
                   std::to_string(recovery.cells_recovered),
                   std::to_string(recovery.retries),
                   std::to_string(recovery.checkpoint_resumes)});
  }
  std::printf("%s", table.to_text().c_str());

  for (int r = 0; r < args.ranks; ++r) {
    if (!results[static_cast<std::size_t>(r)].has_value()) continue;
    const auto& result = *results[static_cast<std::size_t>(r)];
    const auto& fit = result.model;
    std::printf("survivor rank %d: final support {", r);
    const auto& indices = fit.support.indices();
    for (std::size_t i = 0; i < indices.size(); ++i) {
      std::printf("%s%zu", i == 0 ? "" : ", ", indices[i]);
    }
    std::printf("} (true support size %zu)\n", spec.support_size);
    if (result.degraded) {
      std::printf(
          "degraded completion: achieved quorum %.3f, %zu selection "
          "cell(s) abandoned\n",
          result.achieved_quorum, result.lost_cells.size());
    }
    // The fitted coefficients are replicated across survivors; dump them
    // in full precision when asked so CI can assert bit-identity between
    // telemetry-on and telemetry-off runs. In a socket job every surviving
    // process reaches this block, so only the lowest-ranked planned
    // survivor writes — the processes share a working directory.
    const int writer_rank = [&] {
      int w = 0;
      while (planned_victims.count(w) != 0) ++w;
      return w;
    }();
    if (!args.model_path.empty() && (!socket_job || job->rank == writer_rank)) {
      std::ofstream out(args.model_path);
      out.precision(17);
      out << "intercept " << result.model.intercept << "\n";
      for (std::size_t i = 0; i < result.model.beta.size(); ++i) {
        out << "beta[" << i << "] " << result.model.beta[i] << "\n";
      }
      std::printf("wrote %s (%zu coefficients, %%.17g)\n",
                  args.model_path.c_str(), result.model.beta.size());
    }
    break;  // replicated result: one survivor speaks for all
  }
  if (!args.checkpoint_path.empty()) {
    std::printf("selection progress persisted to %s\n",
                args.checkpoint_path.c_str());
  }
  return 0;
}

int run_analyze(const Args& args) {
  // Post-hoc analytics over previously captured Chrome-trace file(s);
  // multiple per-rank files are merged on shared collective stamps.
  if (args.inputs.empty()) {
    std::fprintf(stderr, "analyze needs a TRACE.json argument\n");
    return 2;
  }
  const auto events = uoi::report::read_and_merge_trace_files(args.inputs);
  if (events.empty()) {
    std::fprintf(stderr, "no span events in the given trace file(s)\n");
    return 2;
  }
  const auto report =
      uoi::report::build_run_report(uoi::report::inputs_from_events(events));
  std::printf("run report for %s%s (%zu events)\n%s",
              args.inputs.front().c_str(),
              args.inputs.size() > 1
                  ? (" + " + std::to_string(args.inputs.size() - 1) +
                     " more file(s)")
                        .c_str()
                  : "",
              events.size(), report.to_text().c_str());

  if (!args.what_if.empty()) {
    std::vector<uoi::report::WhatIfScale> scales;
    for (const std::string& spec : args.what_if) {
      const auto eq = spec.find('=');
      uoi::report::WhatIfScale scale;
      if (eq == std::string::npos ||
          !uoi::support::trace_category_from_string(spec.substr(0, eq),
                                                    scale.category) ||
          !parse_number(std::string_view(spec).substr(eq + 1),
                        scale.factor)) {
        std::fprintf(stderr,
                     "--what-if expects CATEGORY=FACTOR (e.g. "
                     "communication=0), got %s\n",
                     spec.c_str());
        return 2;
      }
      if (scale.factor < 0.0) {
        std::fprintf(stderr, "--what-if factor must be >= 0\n");
        return 2;
      }
      scales.push_back(scale);
    }
    const auto what_if = uoi::report::what_if_replay(events, scales);
    if (!what_if.valid) {
      std::fprintf(stderr, "what-if replay failed: %s\n",
                   what_if.failure.c_str());
      return 2;
    }
    std::printf("what-if replay:");
    for (const auto& s : scales) {
      std::printf(" %s x%g", uoi::support::to_string(s.category), s.factor);
    }
    std::printf("\n  measured  %s\n  baseline  %s (factor-1 self-check)\n"
                "  predicted %s (speedup %.3fx)\n",
                uoi::support::format_seconds(what_if.measured_seconds).c_str(),
                uoi::support::format_seconds(what_if.baseline_seconds).c_str(),
                uoi::support::format_seconds(what_if.predicted_seconds).c_str(),
                what_if.speedup());
    if (report.exact_path.valid) {
      // Cross-check against the exact critical path: removing a category
      // entirely can at best strip its on-path share, so the predicted
      // wall must stay above window - sum(on-path share of scaled-down
      // categories). This is the same bound the perfmodel's comm-avoidance
      // analysis places on Allreduce restructuring.
      double removable = 0.0;
      for (const auto& s : scales) {
        if (s.factor < 1.0) {
          removable +=
              (1.0 - s.factor) * report.exact_path.category(s.category);
        }
      }
      const double floor_seconds =
          report.exact_path.window_seconds - removable;
      std::printf("  critical-path floor %s (%s)\n",
                  uoi::support::format_seconds(floor_seconds).c_str(),
                  what_if.predicted_seconds >= floor_seconds - 1e-9
                      ? "consistent"
                      : "INCONSISTENT with exact critical path");
    }
  }

  if (!args.report_json_path.empty()) {
    uoi::report::write_run_report(report, args.report_json_path);
    std::printf("wrote %s\n", args.report_json_path.c_str());
  }
  return 0;
}

int run_top(const Args& args) {
  // Tails a --live-telemetry JSON-lines stream and renders a dashboard.
  if (args.inputs.empty()) {
    std::fprintf(stderr, "top needs a TELEMETRY.jsonl argument\n");
    return 2;
  }
  const std::string& path = args.inputs.front();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  uoi::support::TelemetrySample latest;
  std::string line;
  const auto drain = [&] {
    bool any = false;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      auto sample = uoi::support::parse_telemetry_line(line);
      if (sample.valid) {
        latest = std::move(sample);
        any = true;
      }
    }
    in.clear();  // clear EOF so follow mode sees appended lines
    return any;
  };
  bool fresh = drain();
  if (!args.top_follow) {
    if (!fresh) {
      std::fprintf(stderr, "no valid uoi-telemetry-v1 lines in %s\n",
                   path.c_str());
      return 2;
    }
    std::printf("%s", uoi::support::render_top(latest).c_str());
    return 0;
  }
  while (true) {  // follow mode: redraw on new lines until interrupted
    if (fresh) {
      std::printf("\033[H\033[2J%s", uoi::support::render_top(latest).c_str());
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    fresh = drain();
  }
}

int run_launch(int argc, char** argv) {
  // `uoi launch --ranks N [--backend socket] [--dir D] -- CMD [ARGS...]`:
  // run CMD once per rank as real OS processes wired together by the
  // socket transport. Flags before `--` belong to launch; everything after
  // is the command.
  uoi::transport::LaunchOptions options;
  std::string backend = "socket";
  std::vector<std::string> command;
  int i = 2;
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--") {
      ++i;
      break;
    }
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--ranks") {
      options.ranks = flag_number<int>(flag, value());
    } else if (flag == "--backend") {
      backend = value();
    } else if (flag == "--dir") {
      options.job_dir = value();
    } else if (flag == "--grace-ms") {
      options.grace_ms = flag_number<long>(flag, value());
    } else {
      std::fprintf(stderr, "unknown launch flag: %s\n", flag.c_str());
      usage(argv[0]);
    }
  }
  for (; i < argc; ++i) command.emplace_back(argv[i]);
  if (command.empty()) {
    std::fprintf(stderr, "launch needs a command after --\n");
    usage(argv[0]);
  }
  if (options.ranks < 1) {
    std::fprintf(stderr, "--ranks must be >= 1\n");
    return 2;
  }
  if (backend == "thread") {
    // The thread backend needs no processes: exec the command in place and
    // let it build its usual in-process cluster.
    std::vector<char*> cargv;
    cargv.reserve(command.size() + 1);
    for (auto& arg : command) cargv.push_back(arg.data());
    cargv.push_back(nullptr);
    ::execvp(cargv[0], cargv.data());
    std::fprintf(stderr, "launch: cannot exec %s: %s\n", command[0].c_str(),
                 std::strerror(errno));
    return 127;
  }
  if (backend != "socket") {
    std::fprintf(stderr, "unknown --backend: %s (expected thread or socket)\n",
                 backend.c_str());
    return 2;
  }
  return uoi::transport::launch_job(options, command);
}

int run_info(const Args&) {
  namespace simd = uoi::linalg::simd;
  const auto detected = simd::detect_simd_level();
  const auto active = simd::resolve_simd_level();
  const char* simd_env = std::getenv("UOI_SIMD");
  std::printf("uoi build/runtime info\n");
  std::printf("  simd detected:   %s\n", simd::simd_level_name(detected));
  std::printf("  simd active:     %s  (UOI_SIMD=%s)\n",
              simd::simd_level_name(active),
              simd_env != nullptr && simd_env[0] != '\0' ? simd_env : "auto");
  std::printf("  levels compiled: scalar=%s avx2=%s avx512=%s\n",
              simd::level_compiled(simd::SimdLevel::kScalar) ? "yes" : "no",
              simd::level_compiled(simd::SimdLevel::kAvx2) ? "yes" : "no",
              simd::level_compiled(simd::SimdLevel::kAvx512) ? "yes" : "no");
  const auto caches = simd::cache_sizes();
  auto kib = [](long bytes) { return bytes >= 0 ? bytes / 1024 : -1; };
  std::printf("  data caches:     L1d %ld KiB, L2 %ld KiB, L3 %ld KiB "
              "(-1 = unknown)\n",
              kib(caches.l1d), kib(caches.l2), kib(caches.l3));
  std::printf("  compiler:        %s\n", __VERSION__);
#ifdef NDEBUG
  const char* build_kind = "release (NDEBUG)";
#else
  const char* build_kind = "debug (asserts on)";
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("  build flags:     %s, optimized=%s, fp-contract kernels "
              "pinned off\n",
              build_kind, optimized ? "yes" : "no");
  return 0;
}

int dispatch(const Args& args) {
  if (args.command == "lasso") return run_lasso(args);
  if (args.command == "logistic") return run_logistic(args);
  if (args.command == "var") return run_var(args);
  if (args.command == "granger") return run_granger(args);
  if (args.command == "order") return run_order(args);
  if (args.command == "demo") return run_demo(args);
  if (args.command == "faultdemo") return run_faultdemo(args);
  if (args.command == "analyze") return run_analyze(args);
  if (args.command == "top") return run_top(args);
  if (args.command == "info") return run_info(args);
  return -1;  // unknown command
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "launch") == 0) {
    return run_launch(argc, argv);
  }
  const Args args = parse_args(argc, argv);
  if (args.transport == "socket" && !uoi::transport::socket_job_active()) {
    // `--transport socket` outside a job: re-launch this exact invocation
    // as a --ranks-process socket job. Only faultdemo builds a cluster from
    // the CLI; the library drivers pick the backend up from the job
    // environment in their own harnesses.
    if (args.command != "faultdemo") {
      std::fprintf(stderr,
                   "--transport socket only applies to faultdemo (the other "
                   "commands run single-process); use `%s launch` to run an "
                   "arbitrary command as a socket job\n",
                   argv[0]);
      return 2;
    }
    uoi::transport::LaunchOptions options;
    options.ranks = args.ranks;
    return uoi::transport::launch_job(
        options, std::vector<std::string>(argv, argv + argc));
  }
  const bool tracing = !args.trace_json_path.empty();
  const bool reporting =
      !args.report_json_path.empty() && args.command != "analyze";
  // Reporting also captures span events so the critical-path bound can use
  // the aligned-collective method instead of the coarser totals fallback.
  if (tracing || reporting) {
    uoi::support::Tracer::instance().set_capture_events(true);
  }
  // Live telemetry streams while the command runs; the emitter only reads
  // the tracer/metrics singletons, so results are bit-identical on/off.
  uoi::support::TelemetryEmitter telemetry(
      uoi::support::telemetry_options_from_env(
          args.command == "analyze" || args.command == "top"
              ? std::string()
              : args.live_telemetry));
  telemetry.start();
  uoi::support::Stopwatch wall;
  int status = -1;
  try {
    status = dispatch(args);
  } catch (const std::exception& e) {
    telemetry.stop();
    UOI_LOG_ERROR.field("command", args.command) << e.what();
    return 1;
  }
  const double wall_seconds = wall.seconds();
  telemetry.stop();
  if (telemetry.lines_written() > 0) {
    std::printf("telemetry: %llu line(s) to %s (%llu dropped)\n",
                static_cast<unsigned long long>(telemetry.lines_written()),
                args.live_telemetry.c_str(),
                static_cast<unsigned long long>(telemetry.lines_dropped()));
  }
  if (status < 0) usage(argv[0]);
  if (tracing) {
    try {
      auto& tracer = uoi::support::Tracer::instance();
      tracer.write_chrome_trace(args.trace_json_path);
      std::printf("wrote trace to %s (%zu events)\n",
                  args.trace_json_path.c_str(), tracer.event_count());
    } catch (const std::exception& e) {
      UOI_LOG_ERROR.field("path", args.trace_json_path) << e.what();
      return 1;
    }
  }
  if (reporting) {
    try {
      const auto report = uoi::report::build_run_report(
          uoi::report::collect_inputs(wall_seconds));
      std::printf("%s", report.to_text().c_str());
      uoi::report::write_run_report(report, args.report_json_path);
      std::printf("wrote %s\n", args.report_json_path.c_str());
    } catch (const std::exception& e) {
      UOI_LOG_ERROR.field("path", args.report_json_path) << e.what();
      return 1;
    }
  }
  return status;
}
