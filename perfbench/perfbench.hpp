#pragma once
// The repository benchmark: three UoI fit workloads driven through the
// public APIs, the counters the library already exports, and benchmark-side
// spans for the traced run. See README.md for the workloads and the
// layer-metric map.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Thread ranks of the distributed workloads and the collective probes.
inline constexpr int kRanks = 4;

/// Per-layer counters read around one fit. Registry and CommStats counters
/// are summed over ranks; breakdown buckets are the maximum over ranks.
struct FitCounters {
  double admm_iterations = 0.0;
  double rho_updates = 0.0;
  double consensus_rounds = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double screen_survivors = 0.0;
  double screen_columns = 0.0;
  double kkt_violations = 0.0;
  double steals_succeeded = 0.0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double distribution_s = 0.0;
  double gram_s = 0.0;
  double compute_max_over_mean = 0.0;
  double allreduce_calls = 0.0;
  double allreduce_bytes = 0.0;
  double allreduce_s = 0.0;
  double barrier_s = 0.0;
  double onesided_bytes = 0.0;
  double onesided_s = 0.0;
};

struct FitResult {
  std::vector<double> beta;
  FitCounters counters;
};

/// Recovery of one estimate against its dataset's synthetic truth.
struct Score {
  double true_pos = 0.0;
  double false_pos = 0.0;
  double false_neg = 0.0;
  double rel_l2_err = 0.0;
};

/// Shapes the per-layer probes run at, taken from the workload.
struct ProbeShape {
  std::size_t dim = 0;            ///< d * p: the x-update factor size
  std::size_t gram_rows = 0;      ///< rows of one bootstrap design
  std::size_t features = 0;       ///< p: small allreduce is p + 3 doubles
  std::size_t coefficients = 0;   ///< d * p^2: large allreduce adds 3
};

/// A workload fits a fixed number of datasets, all generated from the
/// workload seed; a run cycles through them, so its metrics pool the
/// datasets instead of resting on one draw of the data.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates every dataset from `seed` and prepares it for fit().
  virtual void setup(std::uint64_t seed) = 0;
  [[nodiscard]] virtual std::size_t datasets() const = 0;
  /// One whole fit of dataset `j`.
  [[nodiscard]] virtual FitResult fit(std::size_t j) const = 0;
  [[nodiscard]] virtual Score score(std::size_t j,
                                    std::span<const double> beta) const = 0;
  [[nodiscard]] virtual ProbeShape probe_shape() const = 0;
  /// One line describing the sizes, for the run fingerprint.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// "var_serial", "lasso_dist" or "var_dist"; nullptr for other names.
/// `smoke` selects tiny sizes that finish in well under a second.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      bool smoke);

/// In-memory span recorder for the traced run. Spans nest by scope: a span
/// opened while another is open becomes its child. Disabled recorders cost
/// one branch per scope.
class Spans {
 public:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Spans* spans_;
    int id_ = -1;
  };

  explicit Spans(bool enabled);
  void set_enabled(bool value) noexcept { enabled_ = value; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Self time per span name: each span's duration minus the part its
  /// children cover, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes every span as one JSON document; false when the file cannot
  /// be written.
  bool write_json(const std::string& path) const;

 private:
  double now() const;
  bool enabled_;
  double epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times the public kernels at `shape` and the collectives on 4 thread
/// ranks. Returns metric name (as in BENCHMARK.json) -> value.
[[nodiscard]] std::map<std::string, double> run_probes(const ProbeShape& shape,
                                                       bool smoke,
                                                       Spans& spans);

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
