#include "sched/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "perfmodel/lasso_cost.hpp"
#include "perfmodel/var_cost.hpp"
#include "support/error.hpp"

namespace uoi::sched {

std::vector<double> lambda_weights(std::span<const double> lambdas) {
  std::vector<double> weights(lambdas.size(), 1.0);
  if (lambdas.empty()) return weights;
  double lambda_max = 0.0;
  for (double l : lambdas) lambda_max = std::max(lambda_max, l);
  if (!(lambda_max > 0.0)) return weights;
  double sum = 0.0;
  for (std::size_t j = 0; j < lambdas.size(); ++j) {
    const double l = lambdas[j];
    weights[j] = (l > 0.0) ? 1.0 + std::log(lambda_max / l) : 1.0;
    sum += weights[j];
  }
  const double mean = sum / static_cast<double>(lambdas.size());
  if (mean > 0.0) {
    for (double& w : weights) w /= mean;
  }
  return weights;
}

std::vector<double> seeded_costs(const TaskGrid& grid,
                                 std::span<const double> lambdas,
                                 double pass_seconds_estimate) {
  const std::vector<double> weights = lambda_weights(lambdas);
  std::vector<double> costs(grid.n_cells(), 0.0);
  double total = 0.0;
  for (std::size_t c = 0; c < grid.n_chains(); ++c) {
    double chain_weight = 0.0;
    for (std::size_t j : grid.chain_lambdas(c)) {
      chain_weight += (j < weights.size()) ? weights[j] : 1.0;
    }
    chain_weight = std::max(chain_weight, 1e-12);
    for (std::size_t k = 0; k < grid.n_bootstraps(); ++k) {
      costs[grid.cell_id(k, c)] = chain_weight;
      total += chain_weight;
    }
  }
  if (total > 0.0 && pass_seconds_estimate > 0.0) {
    const double scale = pass_seconds_estimate / total;
    for (double& cost : costs) cost *= scale;
  }
  return costs;
}

double lasso_pass_seconds_estimate(std::size_t n_samples,
                                   std::size_t n_features, std::size_t b1,
                                   std::size_t b2, std::size_t q,
                                   std::size_t admm_iterations, int cores) {
  perf::UoiLassoWorkload workload;
  workload.n_features = std::max<std::uint64_t>(1, n_features);
  workload.data_bytes =
      sizeof(double) * std::max<std::uint64_t>(1, n_samples) *
      (workload.n_features + 1);
  workload.b1 = std::max<std::size_t>(1, b1);
  workload.b2 = std::max<std::size_t>(1, b2);
  workload.q = std::max<std::size_t>(1, q);
  workload.admm_iterations = std::max<std::size_t>(1, admm_iterations);
  const perf::UoiLassoCostModel model;
  return model.run(workload, static_cast<std::uint64_t>(std::max(1, cores)))
      .total();
}

double var_pass_seconds_estimate(std::size_t n_features,
                                 std::size_t n_samples, std::size_t order,
                                 std::size_t b1, std::size_t b2,
                                 std::size_t q, std::size_t admm_iterations,
                                 int cores) {
  perf::UoiVarWorkload workload;
  workload.n_features = std::max<std::uint64_t>(1, n_features);
  workload.n_samples =
      std::max<std::uint64_t>(workload.n_features + order + 1, n_samples);
  workload.order = std::max<std::size_t>(1, order);
  workload.b1 = std::max<std::size_t>(1, b1);
  workload.b2 = std::max<std::size_t>(1, b2);
  workload.q = std::max<std::size_t>(1, q);
  workload.admm_iterations = std::max<std::size_t>(1, admm_iterations);
  const perf::UoiVarCostModel model;
  return model.run(workload, static_cast<std::uint64_t>(std::max(1, cores)))
      .total();
}

const char* linear_path_name(LinearPath path) {
  return path == LinearPath::kGram ? "gram" : "consensus";
}

LinearPath choose_linear_path(std::size_t n_boot, std::size_t p,
                              std::size_t c_ranks) {
  const std::size_t rows_per_rank =
      n_boot / std::max<std::size_t>(1, c_ranks);
  return p <= rows_per_rank ? LinearPath::kGram : LinearPath::kConsensus;
}

Calibration calibrate(const TaskGrid& grid, std::span<const double> predicted,
                      std::span<const double> measured) {
  UOI_CHECK_DIMS(predicted.size() == grid.n_cells() &&
                     measured.size() == grid.n_cells(),
                 "calibration vectors must cover the whole grid");
  Calibration out;
  out.chain_multiplier.assign(grid.n_chains(), 1.0);

  double sum_predicted = 0.0;
  double sum_measured = 0.0;
  for (std::size_t id = 0; id < grid.n_cells(); ++id) {
    if (measured[id] > 0.0 && predicted[id] > 0.0) {
      sum_predicted += predicted[id];
      sum_measured += measured[id];
    }
  }
  if (sum_predicted > 0.0 && sum_measured > 0.0) {
    out.scale = sum_measured / sum_predicted;
  }

  double error_sum = 0.0;
  std::size_t error_n = 0;
  for (std::size_t id = 0; id < grid.n_cells(); ++id) {
    if (measured[id] > 0.0 && predicted[id] > 0.0) {
      error_sum +=
          std::abs(out.scale * predicted[id] - measured[id]) / measured[id];
      ++error_n;
    }
  }
  if (error_n > 0) {
    out.mean_abs_rel_error = error_sum / static_cast<double>(error_n);
  }

  for (std::size_t c = 0; c < grid.n_chains(); ++c) {
    double chain_predicted = 0.0;
    double chain_measured = 0.0;
    for (std::size_t k = 0; k < grid.n_bootstraps(); ++k) {
      const std::size_t id = grid.cell_id(k, c);
      if (measured[id] > 0.0 && predicted[id] > 0.0) {
        chain_predicted += predicted[id];
        chain_measured += measured[id];
      }
    }
    if (chain_predicted > 0.0 && chain_measured > 0.0) {
      const double multiplier =
          chain_measured / (out.scale * chain_predicted);
      out.chain_multiplier[c] = std::clamp(multiplier, 0.1, 10.0);
    }
  }
  return out;
}

void apply_calibration(const TaskGrid& grid, const Calibration& calibration,
                       std::span<double> costs) {
  UOI_CHECK_DIMS(costs.size() == grid.n_cells() &&
                     calibration.chain_multiplier.size() == grid.n_chains(),
                 "calibration does not match the grid");
  for (std::size_t id = 0; id < grid.n_cells(); ++id) {
    costs[id] *= calibration.chain_multiplier[grid.cell(id).chain];
  }
}

void apply_survivor_weights(const TaskGrid& grid,
                            std::span<const double> survivors_per_lambda,
                            std::span<double> costs) {
  UOI_CHECK_DIMS(costs.size() == grid.n_cells(),
                 "survivor weighting does not match the grid");
  std::vector<double> chain_weight(grid.n_chains(), 1.0);
  std::vector<bool> chain_measured(grid.n_chains(), false);
  double weight_sum = 0.0;
  std::size_t measured_chains = 0;
  for (std::size_t c = 0; c < grid.n_chains(); ++c) {
    double survivor_sum = 0.0;
    std::size_t measured = 0;
    for (std::size_t j : grid.chain_lambdas(c)) {
      if (j < survivors_per_lambda.size() && survivors_per_lambda[j] >= 0.0) {
        survivor_sum += survivors_per_lambda[j];
        ++measured;
      }
    }
    if (measured == 0) continue;
    chain_weight[c] = 1.0 + survivor_sum / static_cast<double>(measured);
    chain_measured[c] = true;
    weight_sum += chain_weight[c];
    ++measured_chains;
  }
  if (measured_chains == 0) return;
  const double mean =
      weight_sum / static_cast<double>(measured_chains);
  if (!(mean > 0.0)) return;
  for (std::size_t c = 0; c < grid.n_chains(); ++c) {
    if (!chain_measured[c]) continue;
    chain_weight[c] = std::clamp(chain_weight[c] / mean, 0.1, 10.0);
  }
  for (std::size_t id = 0; id < grid.n_cells(); ++id) {
    costs[id] *= chain_weight[grid.cell(id).chain];
  }
}

}  // namespace uoi::sched
