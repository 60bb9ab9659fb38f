// Byte pins of the serial UoI drivers: lasso (with an intercept and with
// median aggregation), elastic net, logistic, Poisson and VAR. Each pin
// records an FNV hash of the coefficient bytes plus the intercept, the
// candidate supports, the winning support and loss bytes of every
// estimation bootstrap, and the solver FLOPs where the result reports
// them. Schedule, cache and consensus interval are set explicitly so the
// pins hold under every UOI_* environment override the CI legs apply.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/uoi_elastic_net.hpp"
#include "core/uoi_elastic_net_distributed.hpp"
#include "core/uoi_lasso.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "core/uoi_logistic.hpp"
#include "core/uoi_logistic_distributed.hpp"
#include "core/uoi_poisson.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "linalg/matrix.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/screening.hpp"
#include "var/uoi_var.hpp"
#include "var/var_distributed.hpp"
#include "var/var_model.hpp"

namespace {

using uoi::core::SupportSet;
using uoi::linalg::Matrix;
using uoi::solvers::ScreenMode;

/// FNV-1a over raw bytes, continuing from `h`.
std::uint64_t fnv(const void* data, std::size_t bytes,
                  std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

std::uint64_t hash_doubles(std::span<const double> v,
                           std::uint64_t h = 1469598103934665603ULL) {
  return fnv(v.data(), v.size() * sizeof(double), h);
}

/// "beta=<hash of beta then intercept> supports=<i,j;...> chosen=<...>
/// loss=<hash> flops=<n>".
std::string pin(std::span<const double> beta, double intercept,
                const std::vector<SupportSet>& supports,
                const std::vector<std::size_t>& chosen,
                const std::vector<double>& best_loss, std::uint64_t flops) {
  std::ostringstream out;
  out << "beta=" << fnv(&intercept, sizeof(intercept), hash_doubles(beta))
      << " supports=";
  for (std::size_t j = 0; j < supports.size(); ++j) {
    if (j != 0) out << ';';
    const auto& idx = supports[j].indices();
    for (std::size_t i = 0; i < idx.size(); ++i) {
      if (i != 0) out << ',';
      out << idx[i];
    }
  }
  out << " chosen=";
  for (std::size_t k = 0; k < chosen.size(); ++k) {
    if (k != 0) out << ',';
    out << chosen[k];
  }
  out << " loss=" << hash_doubles(best_loss) << " flops=" << flops;
  return out.str();
}

constexpr ScreenMode kModes[] = {ScreenMode::kOff, ScreenMode::kStrong};

/// Fewer rows than features: the path rule keeps every fit of it, serial
/// or distributed, on the consensus side.
uoi::data::RegressionDataset wide_regression_data() {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 24;
  spec.n_features = 32;
  spec.support_size = 4;
  spec.noise_stddev = 0.3;
  spec.seed = 44;
  return uoi::data::make_regression(spec);
}

uoi::data::RegressionDataset regression_data() {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 90;
  spec.n_features = 14;
  spec.support_size = 4;
  spec.feature_correlation = 0.5;
  spec.seed = 31;
  auto data = uoi::data::make_regression(spec);
  // A nonzero mean gives the intercept something to estimate.
  for (auto& v : data.y) v += 1.5;
  return data;
}

uoi::core::UoiLassoOptions lasso_options() {
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;
  options.seed = 17;
  options.schedule = uoi::sched::SchedulePolicy::kStatic;
  options.solver_cache_mb = 256;
  return options;
}

std::string lasso_pin(const uoi::core::UoiLassoOptions& options) {
  const auto data = regression_data();
  const auto fit = uoi::core::UoiLasso(options).fit(data.x, data.y);
  return pin(fit.beta, fit.intercept, fit.candidate_supports,
             fit.chosen_support_per_bootstrap, fit.best_loss_per_bootstrap,
             fit.total_flops);
}

TEST(SerialUoiPins, LassoWithIntercept) {
  const std::string expected[] = {
      "beta=13087802966495352614 "
      "supports=;3,4,5,12;3,5,12,13;3,5,12,13;1,2,3,5,8,9,12,13;"
      "0,1,2,3,4,5,6,7,8,9,10,12,13 chosen=2,4,5 "
      "loss=13849077573193691763 flops=1916960",
      "beta=13087802966495352614 "
      "supports=;3,4,5,12;3,5,12,13;3,5,12,13;1,2,3,5,8,9,12,13;"
      "0,1,2,3,4,5,6,7,8,9,10,12,13 chosen=2,4,5 "
      "loss=13849077573193691763 flops=1765496",
  };
  auto options = lasso_options();
  options.fit_intercept = true;
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    options.screen.mode = kModes[m];
    EXPECT_EQ(lasso_pin(options), expected[m])
        << uoi::solvers::screen_mode_name(kModes[m]);
  }
}

TEST(SerialUoiPins, LassoMedianAggregation) {
  const std::string expected[] = {
      "beta=8613621432291012940 "
      "supports=;3,4,5,12;2,3,5,8,11,12,13;2,3,5,6,7,9,10,11,12,13;"
      "0,1,2,3,4,5,6,7,8,9,10,11,12,13;"
      "0,1,2,3,4,5,6,7,8,9,10,11,12,13 chosen=2,3,2 "
      "loss=9504051129375383828 flops=1826564",
      "beta=8613621432291012940 "
      "supports=;3,4,5,12;2,3,5,8,11,12,13;2,3,5,6,7,9,10,11,12,13;"
      "0,1,2,3,4,5,6,7,8,9,10,11,12,13;"
      "0,1,2,3,4,5,6,7,8,9,10,11,12,13 chosen=2,3,2 "
      "loss=9504051129375383828 flops=1675056",
  };
  auto options = lasso_options();
  options.aggregation = uoi::core::EstimationAggregation::kMedian;
  options.intersection_fraction = 0.75;
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    options.screen.mode = kModes[m];
    EXPECT_EQ(lasso_pin(options), expected[m])
        << uoi::solvers::screen_mode_name(kModes[m]);
  }
}

uoi::core::UoiElasticNetOptions elastic_net_options() {
  uoi::core::UoiElasticNetOptions options;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 5;
  options.lambda_min_ratio = 0.1;
  options.l1_ratios = {1.0, 0.05, 0.5};
  options.seed = 19;
  options.schedule = uoi::sched::SchedulePolicy::kStatic;
  options.solver_cache_mb = 256;
  return options;
}

TEST(SerialUoiPins, ElasticNet) {
  // lambda_min_ratio 0.1 against ratios 1.0 then 0.05: the second ratio's
  // first lambda1 (0.05 lambda_max) lies below the first ratio's last
  // (0.1 lambda_max), so lambda1 does not ascend at that boundary. The
  // 0.05 -> 0.5 boundary ascends.
  const std::string expected[] = {
      "beta=3367912078929230232 "
      "supports=;5;5;3,5,12,13;3,5,12,13;3,4,5,6,7,8,9,10,12,13;"
      "3,4,5,6,7,8,10,12,13;1,2,3,4,5,6,7,8,9,10,11,12,13;"
      "2,3,4,5,6,7,8,9,10,11,12,13;0,2,3,4,5,6,7,8,9,10,11,12,13;4,5;"
      "3,4,5,8;3,4,5,8,12,13;3,4,5,7,8,12,13;2,3,4,5,7,9,12,13 "
      "chosen=3,3,3 loss=8407931445265741531 flops=0",
      "beta=3367912078929230232 "
      "supports=;5;5;3,5,12,13;3,5,12,13;3,4,5,6,7,8,9,10,12,13;"
      "3,4,5,6,7,8,10,12,13;1,2,3,4,5,6,7,8,9,10,11,12,13;"
      "2,3,4,5,6,7,8,9,10,11,12,13;0,2,3,4,5,6,7,8,9,10,11,12,13;4,5;"
      "3,4,5,8;3,4,5,8,12,13;3,4,5,7,8,12,13;2,3,4,5,7,9,12,13 "
      "chosen=3,3,3 loss=8407931445265741531 flops=0",
  };
  const auto data = regression_data();
  auto options = elastic_net_options();
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    options.screen.mode = kModes[m];
    const auto fit = uoi::core::UoiElasticNet(options).fit(data.x, data.y);
    EXPECT_EQ(pin(fit.beta, 0.0, fit.candidate_supports,
                  fit.chosen_support_per_bootstrap,
                  fit.best_loss_per_bootstrap, 0),
              expected[m])
        << uoi::solvers::screen_mode_name(kModes[m]);
  }
}

uoi::data::ClassificationDataset classification_data() {
  uoi::data::ClassificationSpec spec;
  spec.n_samples = 120;
  spec.n_features = 8;
  spec.support_size = 3;
  spec.seed = 23;
  return uoi::data::make_classification(spec);
}

uoi::core::UoiLogisticOptions logistic_options() {
  uoi::core::UoiLogisticOptions options;
  options.n_selection_bootstraps = 3;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 5;
  options.lambda_min_ratio = 1e-2;
  options.seed = 29;
  options.schedule = uoi::sched::SchedulePolicy::kStatic;
  options.solver_cache_mb = 256;
  return options;
}

TEST(SerialUoiPins, Logistic) {
  const auto data = classification_data();
  // The logistic family has no screening; one pin covers every mode.
  const auto fit =
      uoi::core::UoiLogistic(logistic_options()).fit(data.x, data.y);
  EXPECT_EQ(pin(fit.beta, fit.intercept, fit.candidate_supports,
                fit.chosen_support_per_bootstrap,
                fit.best_loss_per_bootstrap, 0),
            "beta=16050889853217870923 "
            "supports=;3,4,6;0,2,3,4,6;0,2,3,4,6;0,1,2,3,4,5,6,7 "
            "chosen=2,1,1 loss=352198533628567873 flops=0");
}

TEST(SerialUoiPins, Poisson) {
  uoi::data::PoissonSpec spec;
  spec.n_samples = 120;
  spec.n_features = 8;
  spec.support_size = 3;
  spec.seed = 37;
  const auto data = uoi::data::make_poisson_counts(spec);
  uoi::core::UoiPoissonOptions options;
  options.n_selection_bootstraps = 3;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 5;
  options.lambda_min_ratio = 1e-2;
  options.seed = 41;
  // No screening in the Poisson family either.
  const auto fit = uoi::core::UoiPoisson(options).fit(data.x, data.y);
  EXPECT_EQ(pin(fit.beta, fit.intercept, fit.candidate_supports,
                fit.chosen_support_per_bootstrap,
                fit.best_loss_per_bootstrap, 0),
            "beta=980896001432240812 "
            "supports=;0,3,5;0,3,5;0,1,3,5,6;0,1,2,3,5,6,7 chosen=1,1,1 "
            "loss=11257230648276829529 flops=0");
}

Matrix var_series() {
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.seed = 43;
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = 80;
  sim.seed = 47;
  return uoi::var::simulate(truth, sim);
}

uoi::var::UoiVarOptions var_options() {
  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 3;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;
  options.lambda_min_ratio = 1e-2;
  options.seed = 53;
  options.schedule = uoi::sched::SchedulePolicy::kStatic;
  options.solver_cache_mb = 256;
  return options;
}

std::string var_pin(const uoi::var::UoiVarResult& fit) {
  return pin(fit.vec_beta, 0.0, fit.candidate_supports,
             fit.chosen_support_per_bootstrap, fit.best_loss_per_bootstrap,
             fit.total_flops) +
         " mu=" + std::to_string(hash_doubles(fit.model.intercept()));
}

// A serial fit is the distributed driver on one rank, so a layout of
// one-rank groups lands on its bytes: the lasso family on the Gram path
// (90 x 14) and on the consensus side (24 x 32), where each group walks
// the serial chain, logistic, where each group runs serial FISTA, and
// VAR, where each group walks the serial screened chain and spends the
// serial fit's FLOPs.
TEST(SerialUoiPins, OneRankGroupsMatchTheSerialFit) {
  constexpr int kRanks = 3;
  const uoi::core::UoiParallelLayout layout{kRanks, 1};
  const std::pair<uoi::data::RegressionDataset, uoi::sched::LinearPath>
      cases[] = {{regression_data(), uoi::sched::LinearPath::kGram},
                 {wide_regression_data(),
                  uoi::sched::LinearPath::kConsensus}};
  auto lasso = lasso_options();
  lasso.fit_intercept = true;
  auto elastic_net = elastic_net_options();
  for (const auto& [data, path] : cases) {
    for (const ScreenMode mode : kModes) {
      lasso.screen.mode = mode;
      elastic_net.screen.mode = mode;
      const auto lasso_fit = uoi::core::UoiLasso(lasso).fit(data.x, data.y);
      const auto en_fit =
          uoi::core::UoiElasticNet(elastic_net).fit(data.x, data.y);
      const std::string lasso_ref =
          pin(lasso_fit.beta, lasso_fit.intercept,
              lasso_fit.candidate_supports,
              lasso_fit.chosen_support_per_bootstrap,
              lasso_fit.best_loss_per_bootstrap, 0);
      const std::string en_ref =
          pin(en_fit.beta, 0.0, en_fit.candidate_supports,
              en_fit.chosen_support_per_bootstrap,
              en_fit.best_loss_per_bootstrap, 0);
      std::vector<std::string> lasso_pins(kRanks);
      std::vector<std::string> en_pins(kRanks);
      std::vector<uoi::sched::LinearPath> paths(kRanks);
      uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        paths[r] = uoi::core::detail::linear_family_path(comm, data.x, layout);
        const auto l = uoi::core::uoi_lasso_distributed(comm, data.x, data.y,
                                                        lasso, layout);
        lasso_pins[r] = pin(l.model.beta, l.model.intercept,
                            l.model.candidate_supports,
                            l.model.chosen_support_per_bootstrap,
                            l.model.best_loss_per_bootstrap, 0);
        const auto e = uoi::core::uoi_elastic_net_distributed(
            comm, data.x, data.y, elastic_net, layout);
        en_pins[r] = pin(e.model.beta, 0.0, e.model.candidate_supports,
                         e.model.chosen_support_per_bootstrap,
                         e.model.best_loss_per_bootstrap, 0);
      });
      for (std::size_t r = 0; r < kRanks; ++r) {
        const auto label = std::string(uoi::solvers::screen_mode_name(mode)) +
                           ", " + std::to_string(data.x.rows()) + " x " +
                           std::to_string(data.x.cols()) + ", rank " +
                           std::to_string(r);
        EXPECT_EQ(paths[r], path) << label;
        EXPECT_EQ(lasso_pins[r], lasso_ref) << label;
        EXPECT_EQ(en_pins[r], en_ref) << label;
      }
    }
  }

  const auto data = classification_data();
  const auto options = logistic_options();
  const auto fit = uoi::core::UoiLogistic(options).fit(data.x, data.y);
  const std::string logistic_ref =
      pin(fit.beta, fit.intercept, fit.candidate_supports,
          fit.chosen_support_per_bootstrap, fit.best_loss_per_bootstrap, 0);
  std::vector<std::string> logistic_pins(kRanks);
  uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
    const auto d = uoi::core::uoi_logistic_distributed(comm, data.x, data.y,
                                                       options, layout);
    logistic_pins[static_cast<std::size_t>(comm.rank())] =
        pin(d.model.beta, d.model.intercept, d.model.candidate_supports,
            d.model.chosen_support_per_bootstrap,
            d.model.best_loss_per_bootstrap, 0);
  });
  for (std::size_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(logistic_pins[r], logistic_ref) << "logistic, rank " << r;
  }

  const Matrix series = var_series();
  auto var = var_options();
  for (const ScreenMode mode :
       {ScreenMode::kOff, ScreenMode::kSafe, ScreenMode::kStrong}) {
    var.screen.mode = mode;
    const std::string var_ref = var_pin(uoi::var::UoiVar(var).fit(series));
    std::vector<std::string> var_pins(kRanks);
    uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
      var_pins[static_cast<std::size_t>(comm.rank())] = var_pin(
          uoi::var::uoi_var_distributed(comm, series, var, layout).model);
    });
    for (std::size_t r = 0; r < kRanks; ++r) {
      EXPECT_EQ(var_pins[r], var_ref)
          << "VAR, " << uoi::solvers::screen_mode_name(mode) << ", rank "
          << r;
    }
  }
}

TEST(SerialUoiPins, Var) {
  const std::string expected[] = {
      "beta=6447771388323124424 "
      "supports=;2,12,14,20,21;0,2,7,12,14,18,21,23,29,35;"
      "0,2,3,7,10,12,14,18,21,22,23,28,29,31,34,35;"
      "0,2,3,4,7,8,10,12,13,14,18,19,21,22,23,25,28,29,30,31,32,34,35;"
      "0,2,3,4,5,7,8,9,10,12,13,14,15,16,17,18,19,21,22,23,25,27,28,29"
      ",30,31,32,33,34,35 chosen=3,3,5 loss=16004486360057176807 "
      "flops=1810565 mu=12537659391468724546",
      "beta=6447771388323124424 "
      "supports=;2,12,14,20,21;0,2,7,12,14,18,21,23,29,35;"
      "0,2,3,7,10,12,14,18,21,22,23,28,29,31,34,35;"
      "0,2,3,4,7,8,10,12,13,14,18,19,21,22,23,25,28,29,30,31,32,34,35;"
      "0,2,3,4,5,7,8,9,10,12,13,14,15,16,17,18,19,21,22,23,25,27,28,29"
      ",30,31,32,33,34,35 chosen=3,3,5 loss=16004486360057176807 "
      "flops=1683333 mu=12537659391468724546",
  };
  const Matrix series = var_series();
  auto options = var_options();
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    options.screen.mode = kModes[m];
    EXPECT_EQ(var_pin(uoi::var::UoiVar(options).fit(series)), expected[m])
        << uoi::solvers::screen_mode_name(kModes[m]);
  }
  options.backend = uoi::var::VarSolverBackend::kSparse;
  options.screen.mode = ScreenMode::kOff;
  EXPECT_EQ(var_pin(uoi::var::UoiVar(options).fit(series)),
            "beta=6447771388323124424 "
            "supports=;2,12,14,20,21;0,2,7,12,14,18,21,23,29,35;"
            "0,2,3,7,10,12,14,18,21,22,23,28,29,31,34,35;"
            "0,2,3,4,7,8,10,12,13,14,18,19,21,22,23,25,28,29,30,31,32,34,35;"
            "0,2,3,4,5,7,8,9,10,12,13,14,15,16,17,18,19,21,22,23,25,27,28,29"
            ",30,31,32,33,34,35 chosen=3,3,5 loss=16004486360057176807 "
            "flops=1810565 mu=12537659391468724546");
}

// Serial fits build their one-rank communicator in the calling thread, so
// they reproduce the pinned bytes from inside the ranks of a cluster run
// and from concurrent threads alike.
TEST(LocalRank, SerialFitsInsideClusterRanksAndThreads) {
  auto lasso = lasso_options();
  lasso.fit_intercept = true;
  lasso.screen.mode = ScreenMode::kStrong;
  auto var = var_options();
  var.screen.mode = ScreenMode::kStrong;
  const Matrix series = var_series();
  const std::string lasso_reference = lasso_pin(lasso);
  const std::string var_reference =
      var_pin(uoi::var::UoiVar(var).fit(series));

  constexpr int kRanks = 4;
  std::vector<std::string> lasso_pins(kRanks);
  std::vector<std::string> var_pins(kRanks);
  uoi::sim::Cluster::run(kRanks, [&](uoi::sim::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    lasso_pins[r] = lasso_pin(lasso);
    var_pins[r] = var_pin(uoi::var::UoiVar(var).fit(series));
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(lasso_pins[static_cast<std::size_t>(r)], lasso_reference) << r;
    EXPECT_EQ(var_pins[static_cast<std::size_t>(r)], var_reference) << r;
  }

  std::string from_threads[2];
  std::thread a([&] { from_threads[0] = lasso_pin(lasso); });
  std::thread b(
      [&] { from_threads[1] = var_pin(uoi::var::UoiVar(var).fit(series)); });
  a.join();
  b.join();
  EXPECT_EQ(from_threads[0], lasso_reference);
  EXPECT_EQ(from_threads[1], var_reference);
}

}  // namespace
