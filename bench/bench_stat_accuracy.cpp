// Statistical-accuracy bench (the paper's §I claims, demonstrated rather
// than cited): UoI_LASSO vs cross-validated LASSO vs Ridge on selection
// (false positives / false negatives) and estimation (bias, relative L2),
// and UoI_VAR vs per-equation CV-LASSO on Granger-support recovery.
//
// Replicates the qualitative result of the UoI papers the evaluation
// leans on: comparable recall, far fewer false positives, lower bias.

#include <cstdio>

#include "core/metrics.hpp"
#include "core/uoi_lasso.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "solvers/cd_lasso.hpp"
#include "solvers/ridge.hpp"
#include "support/format.hpp"
#include "support/table.hpp"
#include "var/granger_test.hpp"
#include "var/lag_matrix.hpp"
#include "var/uoi_var.hpp"

using uoi::core::SupportSet;
using uoi::support::format_fixed;

namespace {

struct Scores {
  double fp = 0.0, fn = 0.0, f1 = 0.0, rel_l2 = 0.0, bias = 0.0;
};

void add_scores(Scores& acc, std::span<const double> beta,
                std::span<const double> truth_beta, double tolerance) {
  const auto support = SupportSet::from_beta(beta, tolerance);
  const auto truth = SupportSet::from_beta(truth_beta, 1e-9);
  const auto sel =
      uoi::core::selection_accuracy(support, truth, truth_beta.size());
  const auto est = uoi::core::estimation_accuracy(beta, truth_beta);
  acc.fp += static_cast<double>(sel.false_positives);
  acc.fn += static_cast<double>(sel.false_negatives);
  acc.f1 += sel.f1();
  acc.rel_l2 += est.relative_l2;
  acc.bias += est.bias_on_support;
}

/// A selection-only method prints "n/a" for the estimation columns.
void print_scores(uoi::support::Table& table, const char* name,
                  const Scores& s, int trials, bool estimates = true) {
  const double n = trials;
  table.add_row({name, format_fixed(s.fp / n, 1), format_fixed(s.fn / n, 1),
                 format_fixed(s.f1 / n, 3),
                 estimates ? format_fixed(s.rel_l2 / n, 3) : "n/a",
                 estimates ? format_fixed(s.bias / n, 4) : "n/a"});
}

}  // namespace

int main() {
  constexpr int kTrials = 5;

  std::printf("== Statistical accuracy: UoI vs baselines ==\n\n");
  std::printf("-- sparse regression (n=300, p=50, k=8, %d trials) --\n\n",
              kTrials);
  Scores uoi_scores, cv_scores, ridge_scores;
  for (int trial = 0; trial < kTrials; ++trial) {
    uoi::data::RegressionSpec spec;
    spec.n_samples = 300;
    spec.n_features = 50;
    spec.support_size = 8;
    spec.noise_stddev = 0.5;
    spec.feature_correlation = 0.3;
    spec.seed = 1000 + static_cast<std::uint64_t>(trial);
    const auto data = uoi::data::make_regression(spec);

    uoi::core::UoiLassoOptions options;
    options.n_selection_bootstraps = 15;
    options.n_estimation_bootstraps = 8;
    options.n_lambdas = 15;
    options.seed = 77 + static_cast<std::uint64_t>(trial);
    // Selection threshold 0.02: a feature "is selected" when it carries
    // non-negligible weight (true coefficients are >= 0.5; UoI's union
    // averaging dilutes minority-vote features well below this).
    const auto uoi_fit = uoi::core::UoiLasso(options).fit(data.x, data.y);
    add_scores(uoi_scores, uoi_fit.beta, data.beta_true, 0.02);

    const auto cv = uoi::solvers::cv_lasso(data.x, data.y, 25, 5,
                                           7 + static_cast<std::uint64_t>(trial));
    add_scores(cv_scores, cv.beta, data.beta_true, 0.02);

    const auto ridge_beta = uoi::solvers::ridge(data.x, data.y, 10.0);
    add_scores(ridge_scores, ridge_beta, data.beta_true, 0.02);
  }
  uoi::support::Table reg_table(
      {"method", "FP (avg)", "FN (avg)", "F1", "rel-L2", "bias"});
  print_scores(reg_table, "UoI_LASSO", uoi_scores, kTrials);
  print_scores(reg_table, "CV-LASSO", cv_scores, kTrials);
  print_scores(reg_table, "Ridge", ridge_scores, kTrials);
  std::printf("%s\n", reg_table.to_text().c_str());
  std::printf(
      "expected: UoI FP << CV-LASSO FP at comparable FN; Ridge selects "
      "everything.\n\n");

  std::printf("-- VAR Granger recovery (p=12, 500 samples, %d trials) --\n\n",
              kTrials);
  Scores uoi_var_scores, lasso_var_scores, ftest_scores;
  for (int trial = 0; trial < kTrials; ++trial) {
    uoi::data::VarSpec spec;
    spec.n_nodes = 12;
    spec.edges_per_node = 2.0;
    spec.seed = 2000 + static_cast<std::uint64_t>(trial);
    const auto truth = uoi::data::make_sparse_var(spec);
    uoi::var::SimulateOptions sim;
    sim.n_samples = 500;
    sim.seed = 3000 + static_cast<std::uint64_t>(trial);
    const auto series = uoi::var::simulate(truth, sim);

    uoi::var::UoiVarOptions options;
    options.n_selection_bootstraps = 12;
    options.n_estimation_bootstraps = 6;
    options.n_lambdas = 12;
    options.seed = 99 + static_cast<std::uint64_t>(trial);
    const auto fit = uoi::var::UoiVar(options).fit(series);
    add_scores(uoi_var_scores, fit.vec_beta, truth.vec_b(), 0.03);

    // Baseline: per-equation CV-LASSO on the same lag regression (the
    // vectorized problem decomposes per equation).
    const auto lag = uoi::var::build_lag_regression(series, 1);
    uoi::linalg::Vector lasso_beta(fit.vec_beta.size(), 0.0);
    for (std::size_t e = 0; e < truth.dim(); ++e) {
      const auto y_e = lag.y.col(e);
      const auto cv = uoi::solvers::cv_lasso(
          lag.x, y_e, 20, 4, 5 + e + static_cast<std::uint64_t>(trial));
      for (std::size_t c = 0; c < lag.x.cols(); ++c) {
        lasso_beta[e * lag.x.cols() + c] = cv.beta[c];
      }
    }
    add_scores(lasso_var_scores, lasso_beta, truth.vec_b(), 0.03);

    // Classical baseline: pairwise Granger F-tests (Bonferroni at 5%).
    // Selection-only (no coefficient estimates): encode the selected
    // edges as 0/1 indicators so the selection columns are comparable;
    // the estimation columns print "n/a".
    const auto tests = uoi::var::granger_f_tests(series, 1);
    const auto f_net = uoi::var::granger_network_from_tests(
        tests, truth.dim(), 0.05, true);
    uoi::linalg::Vector f_beta(fit.vec_beta.size(), 0.0);
    const std::size_t dp = truth.dim();
    for (const auto& edge : f_net.edges()) {
      // vec index of a_{target,source} at lag 0.
      f_beta[edge.target * dp + edge.source] = 1.0;
    }
    // Keep diagonal (self) terms out of the comparison for the F-test row
    // by copying the truth's diagonal selections.
    for (std::size_t i = 0; i < truth.dim(); ++i) {
      f_beta[i * dp + i] = truth.coefficient(0)(i, i) != 0.0 ? 1.0 : 0.0;
    }
    add_scores(ftest_scores, f_beta, truth.vec_b(), 0.5);
  }
  uoi::support::Table var_table(
      {"method", "FP (avg)", "FN (avg)", "F1", "rel-L2", "bias"});
  print_scores(var_table, "UoI_VAR", uoi_var_scores, kTrials);
  print_scores(var_table, "CV-LASSO/eq", lasso_var_scores, kTrials);
  print_scores(var_table, "F-test (5%, Bonf.)", ftest_scores, kTrials,
               /*estimates=*/false);
  std::printf("%s\n", var_table.to_text().c_str());
  std::printf(
      "expected: UoI_VAR selects far fewer spurious edges at similar "
      "recall,\nwith less coefficient shrinkage (the [11] companion-paper "
      "claim).\n");
  return 0;
}
