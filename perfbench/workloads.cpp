// The three fit workloads. Each derives its data and resampling seeds from
// the workload seed, so the same seed gives the same inputs and the same
// model, and runs one whole fit per fit() call (closed loop).

#include <algorithm>
#include <string>

#include "core/metrics.hpp"
#include "core/support_set.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "perfbench.hpp"
#include "simcluster/cluster.hpp"
#include "support/trace.hpp"
#include "var/uoi_var.hpp"
#include "var/var_distributed.hpp"

namespace perfbench {

namespace {

// Dataset j of workload seed s: fixed, distinct streams for the data and
// for the fit's resampling.
std::uint64_t data_seed(std::uint64_t seed, std::size_t j) {
  return 1000003ULL * seed + 7919ULL * j + 17;
}
std::uint64_t fit_seed(std::uint64_t seed, std::size_t j) {
  return 998244353ULL * seed + 104729ULL * j + 20200518;
}

/// Support confusion counts and relative L2 error of `beta` against
/// `truth`; entries above `tolerance` count as selected (the truth at 1e-6,
/// as fig11 does).
Score score_against(std::span<const double> beta,
                    std::span<const double> truth, double tolerance) {
  const auto estimated = uoi::core::SupportSet::from_beta(beta, tolerance);
  const auto actual = uoi::core::SupportSet::from_beta(truth, 1e-6);
  const auto acc =
      uoi::core::selection_accuracy(estimated, actual, beta.size());
  Score out;
  out.true_pos = static_cast<double>(acc.true_positives);
  out.false_pos = static_cast<double>(acc.false_positives);
  out.false_neg = static_cast<double>(acc.false_negatives);
  out.rel_l2_err = uoi::core::estimation_accuracy(beta, truth).relative_l2;
  return out;
}

/// Folds the per-rank CommStats and breakdowns of one distributed fit and
/// the MetricsRegistry counters it published into FitCounters.
FitCounters collect_counters(
    const std::vector<uoi::sim::CommStats>& stats,
    const std::vector<uoi::core::UoiDistributedBreakdown>& breakdowns) {
  FitCounters c;
  const auto registry = uoi::support::MetricsRegistry::instance().snapshot();
  for (const auto& entry : registry) {
    if (entry.name == "admm.iterations") c.admm_iterations += entry.value;
    if (entry.name == "admm.rho_updates") c.rho_updates += entry.value;
    if (entry.name == "admm.consensus_rounds") {
      c.consensus_rounds += entry.value;
    }
    if (entry.name == "solver_cache.hits") c.cache_hits += entry.value;
    if (entry.name == "solver_cache.misses") c.cache_misses += entry.value;
    if (entry.name == "screen.survivors") c.screen_survivors += entry.value;
    if (entry.name == "screen.total_columns") c.screen_columns += entry.value;
    if (entry.name == "screen.kkt_violations") {
      c.kkt_violations += entry.value;
    }
    if (entry.name == "sched.steals_succeeded") {
      c.steals_succeeded += entry.value;
    }
  }
  double compute_sum = 0.0;
  for (const auto& b : breakdowns) {
    c.compute_s = std::max(c.compute_s, b.computation_seconds);
    c.comm_s = std::max(c.comm_s, b.communication_seconds);
    c.distribution_s = std::max(c.distribution_s, b.distribution_seconds);
    c.gram_s = std::max(c.gram_s, b.gram_seconds);
    compute_sum += b.computation_seconds;
  }
  if (compute_sum > 0.0) {
    c.compute_max_over_mean =
        c.compute_s / (compute_sum / static_cast<double>(breakdowns.size()));
  }
  using uoi::sim::CommCategory;
  for (const auto& s : stats) {
    const auto& allreduce = s.of(CommCategory::kAllreduce);
    c.allreduce_calls += static_cast<double>(allreduce.calls);
    c.allreduce_bytes += static_cast<double>(allreduce.bytes);
    c.allreduce_s += allreduce.seconds;
    c.barrier_s += s.of(CommCategory::kBarrier).seconds;
    c.onesided_bytes +=
        static_cast<double>(s.of(CommCategory::kOneSided).bytes);
    c.onesided_s += s.of(CommCategory::kOneSided).seconds;
  }
  return c;
}

/// Inputs of one sparse VAR dataset: the simulated series and vec B.
struct VarData {
  uoi::linalg::Matrix series;
  uoi::linalg::Vector truth;
};

/// Dataset j of a VAR workload. The ground-truth network of dataset j is
/// the same for every workload seed; the seed draws the observed series.
/// Recovery then varies across seeds only through the noise, not through
/// how hard a freshly drawn network happens to be, so the pooled quality
/// metrics are steady enough to bound.
VarData make_var_data(std::size_t nodes, std::size_t samples,
                      std::uint64_t seed, std::size_t j) {
  uoi::data::VarSpec spec;
  spec.n_nodes = nodes;
  spec.seed = 4200 + j;
  uoi::var::SimulateOptions simulate;
  simulate.n_samples = samples;
  simulate.seed = data_seed(seed, j);
  const auto model = uoi::data::make_sparse_var(spec);
  return {uoi::var::simulate(model, simulate), model.vec_b()};
}

std::string sizes(const std::string& data, std::size_t datasets,
                  std::size_t b1, std::size_t b2, std::size_t q, int ranks) {
  return data + " datasets=" + std::to_string(datasets) +
         " b1=" + std::to_string(b1) + " b2=" + std::to_string(b2) +
         " q=" + std::to_string(q) + " ranks=" + std::to_string(ranks);
}

/// var_serial: serial UoiVar::fit, structured backend, at the fig11 shape
/// (50 series, VAR(1), q=16, lambda_min_ratio 3e-2, B2=5).
class VarSerial final : public Workload {
 public:
  explicit VarSerial(bool smoke)
      : nodes_(smoke ? 8 : 50), samples_(smoke ? 60 : 200),
        datasets_(smoke ? 2 : 24) {
    options_.order = 1;
    options_.n_selection_bootstraps = 2;
    options_.n_estimation_bootstraps = smoke ? 2 : 5;
    options_.n_lambdas = smoke ? 4 : 16;
    options_.lambda_min_ratio = 3e-2;
    options_.backend = uoi::var::VarSolverBackend::kStructured;
  }

  void setup(std::uint64_t seed) override {
    data_.clear();
    for (std::size_t j = 0; j < datasets_; ++j) {
      data_.push_back(make_var_data(nodes_, samples_, seed, j));
    }
    seed_ = seed;
  }

  std::size_t datasets() const override { return datasets_; }

  FitResult fit(std::size_t j) const override {
    auto options = options_;
    options.seed = fit_seed(seed_, j);
    const auto result = uoi::var::UoiVar(options).fit(data_[j].series);
    FitResult out;
    out.beta.assign(result.vec_beta.begin(), result.vec_beta.end());
    return out;
  }

  Score score(std::size_t j, std::span<const double> beta) const override {
    return score_against(beta, data_[j].truth, 0.03);
  }

  ProbeShape probe_shape() const override {
    return {nodes_, samples_ - 1, nodes_, nodes_ * nodes_};
  }

  std::string describe() const override {
    return sizes("nodes=" + std::to_string(nodes_) +
                     " samples=" + std::to_string(samples_),
                 datasets_, options_.n_selection_bootstraps,
                 options_.n_estimation_bootstraps, options_.n_lambdas, 1);
  }

 private:
  std::size_t nodes_, samples_, datasets_;
  std::uint64_t seed_ = 0;
  uoi::var::UoiVarOptions options_;
  std::vector<VarData> data_;
};

/// lasso_dist: uoi_lasso_distributed on 4 thread ranks with the fig2 data
/// shape, default layout (P_B = P_lambda = 1, C = 4).
class LassoDist final : public Workload {
 public:
  explicit LassoDist(bool smoke) : datasets_(smoke ? 2 : 24) {
    spec_.n_samples = smoke ? 128 : 1024;
    spec_.n_features = smoke ? 16 : 64;
    spec_.support_size = smoke ? 4 : 8;
    options_.n_selection_bootstraps = smoke ? 2 : 5;
    options_.n_estimation_bootstraps = smoke ? 2 : 5;
    options_.n_lambdas = smoke ? 4 : 8;
  }

  void setup(std::uint64_t seed) override {
    data_.clear();
    for (std::size_t j = 0; j < datasets_; ++j) {
      auto spec = spec_;
      spec.seed = data_seed(seed, j);
      data_.push_back(uoi::data::make_regression(spec));
    }
    seed_ = seed;
  }

  std::size_t datasets() const override { return datasets_; }

  FitResult fit(std::size_t j) const override {
    auto options = options_;
    options.seed = fit_seed(seed_, j);
    const auto& data = data_[j];
    FitResult out;
    std::vector<uoi::core::UoiDistributedBreakdown> breakdowns(kRanks);
    uoi::support::MetricsRegistry::instance().clear();
    const auto stats = uoi::sim::Cluster::run_collect_stats(
        kRanks, [&](uoi::sim::Comm& comm) {
          const auto result =
              uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options);
          breakdowns[static_cast<std::size_t>(comm.rank())] = result.breakdown;
          if (comm.rank() == 0) {
            out.beta.assign(result.model.beta.begin(),
                            result.model.beta.end());
          }
        });
    out.counters = collect_counters(stats, breakdowns);
    return out;
  }

  Score score(std::size_t j, std::span<const double> beta) const override {
    return score_against(beta, data_[j].beta_true, 1e-6);
  }

  ProbeShape probe_shape() const override {
    const std::size_t p = spec_.n_features;
    return {p, spec_.n_samples, p, p * p};
  }

  std::string describe() const override {
    return sizes("n=" + std::to_string(spec_.n_samples) +
                     " p=" + std::to_string(spec_.n_features) +
                     " support=" + std::to_string(spec_.support_size),
                 datasets_, options_.n_selection_bootstraps,
                 options_.n_estimation_bootstraps, options_.n_lambdas,
                 kRanks) +
           " layout=1x1x4";
  }

 private:
  std::size_t datasets_;
  std::uint64_t seed_ = 0;
  uoi::data::RegressionSpec spec_;
  uoi::core::UoiLassoOptions options_;
  std::vector<uoi::data::RegressionDataset> data_;
};

/// var_dist: uoi_var_distributed on 4 thread ranks, P_B=1 x P_l=2 x C=2,
/// 2 reader ranks, screening at its default.
class VarDist final : public Workload {
 public:
  explicit VarDist(bool smoke)
      : nodes_(smoke ? 8 : 48), samples_(smoke ? 100 : 600),
        datasets_(smoke ? 2 : 7) {
    options_.order = 1;
    options_.n_selection_bootstraps = smoke ? 2 : 4;
    options_.n_estimation_bootstraps = smoke ? 2 : 4;
    options_.n_lambdas = smoke ? 4 : 8;
  }

  void setup(std::uint64_t seed) override {
    data_.clear();
    for (std::size_t j = 0; j < datasets_; ++j) {
      data_.push_back(make_var_data(nodes_, samples_, seed, j));
    }
    seed_ = seed;
  }

  std::size_t datasets() const override { return datasets_; }

  FitResult fit(std::size_t j) const override {
    auto options = options_;
    options.seed = fit_seed(seed_, j);
    const auto& series = data_[j].series;
    FitResult out;
    std::vector<uoi::core::UoiDistributedBreakdown> breakdowns(kRanks);
    uoi::support::MetricsRegistry::instance().clear();
    const auto stats = uoi::sim::Cluster::run_collect_stats(
        kRanks, [&](uoi::sim::Comm& comm) {
          const auto result = uoi::var::uoi_var_distributed(
              comm, series, options, kLayout, kReaders);
          breakdowns[static_cast<std::size_t>(comm.rank())] = result.breakdown;
          if (comm.rank() == 0) {
            out.beta.assign(result.model.vec_beta.begin(),
                            result.model.vec_beta.end());
          }
        });
    out.counters = collect_counters(stats, breakdowns);
    return out;
  }

  Score score(std::size_t j, std::span<const double> beta) const override {
    return score_against(beta, data_[j].truth, 0.03);
  }

  ProbeShape probe_shape() const override {
    return {nodes_, samples_ - 1, nodes_, nodes_ * nodes_};
  }

  std::string describe() const override {
    return sizes("nodes=" + std::to_string(nodes_) +
                     " samples=" + std::to_string(samples_),
                 datasets_, options_.n_selection_bootstraps,
                 options_.n_estimation_bootstraps, options_.n_lambdas,
                 kRanks) +
           " layout=1x2x2 readers=" + std::to_string(kReaders);
  }

 private:
  static constexpr uoi::core::UoiParallelLayout kLayout{1, 2};
  static constexpr int kReaders = 2;
  std::size_t nodes_, samples_, datasets_;
  std::uint64_t seed_ = 0;
  uoi::var::UoiVarOptions options_;
  std::vector<VarData> data_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke) {
  if (name == "var_serial") return std::make_unique<VarSerial>(smoke);
  if (name == "lasso_dist") return std::make_unique<LassoDist>(smoke);
  if (name == "var_dist") return std::make_unique<VarDist>(smoke);
  return nullptr;
}

}  // namespace perfbench
