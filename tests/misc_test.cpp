// Coverage for the remaining small surfaces: logging, formatting edge
// cases, matrix odds and ends, window accumulate patterns, sparse edge
// cases, and distributed-driver corner configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/predict.hpp"
#include "core/uoi_logistic.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "linalg/blas.hpp"
#include "linalg/sparse.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/window.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"
#include "var/uoi_var.hpp"
#include "var/var_model.hpp"

namespace {

using uoi::linalg::Matrix;
using uoi::linalg::SparseMatrix;
using uoi::linalg::Vector;

TEST(Logging, LevelGateAndRestore) {
  const auto initial = uoi::support::log_level();
  uoi::support::set_log_level(uoi::support::LogLevel::kOff);
  UOI_LOG_ERROR << "must not crash while disabled";
  uoi::support::set_log_level(uoi::support::LogLevel::kDebug);
  EXPECT_EQ(uoi::support::log_level(), uoi::support::LogLevel::kDebug);
  UOI_LOG_DEBUG << "streamed " << 42 << " pieces";
  uoi::support::set_log_level(initial);
}

TEST(Format, ScientificAndFixed) {
  EXPECT_EQ(uoi::support::format_sci(12345.678, 2), "1.23e+04");
  EXPECT_EQ(uoi::support::format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(uoi::support::format_fixed(-0.5, 0), "-0");
}

TEST(Format, SubMillisecondDurations) {
  EXPECT_EQ(uoi::support::format_seconds(5e-7), "500 ns");
  EXPECT_EQ(uoi::support::format_seconds(-1.0), "0 ns");
}

TEST(Table, CsvEscapesQuotesAndNewlines) {
  uoi::support::Table t({"a", "b"});
  t.add_row({"say \"hi\"", "line1\nline2"});
  const auto csv = t.to_csv();
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(csv.find("\"line1\nline2\""), std::string::npos);
}

TEST(Matrix, ColExtractionAndEquality) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const Vector col1 = m.col(1);
  EXPECT_EQ(col1, (Vector{2, 4, 6}));
  Matrix same{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m, same);
  same(0, 0) = 9;
  EXPECT_NE(m, same);
  EXPECT_THROW((void)m.col(5), uoi::support::DimensionMismatch);
}

TEST(Matrix, EmptyAndResize) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  m.resize(3, 2);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.size(), 6u);
  m.fill(7.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 7.0);
}

TEST(Sparse, EmptyMatrixOperations) {
  SparseMatrix s(3, 4);
  EXPECT_EQ(s.nnz(), 0u);
  EXPECT_DOUBLE_EQ(s.sparsity(), 1.0);
  Vector x(4, 1.0), y(3, 5.0);
  s.gemv(1.0, x, 0.0, y);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Sparse, GemvBetaAccumulates) {
  Matrix dense{{1.0, 0.0}, {0.0, 2.0}};
  const auto s = SparseMatrix::from_dense(dense);
  Vector x{3.0, 4.0}, y{10.0, 20.0};
  s.gemv(1.0, x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0 + 3.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0 + 8.0);
}

TEST(Window, ManyToOneAccumulatePattern) {
  // The reduction-via-window pattern the paper's distribution layer uses.
  uoi::sim::Cluster::run(6, [&](uoi::sim::Comm& comm) {
    std::vector<double> local(3, 0.0);
    uoi::sim::Window win(comm, local);
    win.fence();
    const std::vector<double> contribution{
        1.0, static_cast<double>(comm.rank()), 0.5};
    win.accumulate_add(0, 0, contribution);
    win.fence();
    if (comm.rank() == 0) {
      EXPECT_DOUBLE_EQ(local[0], 6.0);
      EXPECT_DOUBLE_EQ(local[1], 15.0);  // 0+1+2+3+4+5
      EXPECT_DOUBLE_EQ(local[2], 3.0);
    }
  });
}

TEST(Window, GetIntoOwnBuffer) {
  uoi::sim::Cluster::run(3, [&](uoi::sim::Comm& comm) {
    std::vector<double> local(2, static_cast<double>(comm.rank()));
    uoi::sim::Window win(comm, local);
    win.fence();
    std::vector<double> self(2);
    win.get(comm.rank(), 0, self);
    EXPECT_DOUBLE_EQ(self[0], static_cast<double>(comm.rank()));
    win.fence();
  });
}

TEST(DistributedUoi, MoreBootstrapGroupsThanBootstraps) {
  // P_B > B1: some task groups own no selection bootstraps and must still
  // participate in every collective without deadlock.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 60;
  spec.n_features = 10;
  spec.support_size = 3;
  spec.seed = 3;
  const auto data = uoi::data::make_regression(spec);
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 2;  // < P_B = 4
  options.n_estimation_bootstraps = 2;
  options.n_lambdas = 4;
  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const auto result = uoi::core::uoi_lasso_distributed(
        comm, data.x, data.y, options, {4, 1});
    EXPECT_EQ(result.model.candidate_supports.size(), 4u);
  });
}

TEST(DistributedUoi, SingleLambda) {
  const auto data = uoi::data::make_regression({});
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 3;
  options.n_estimation_bootstraps = 2;
  options.lambdas = {1.0};
  uoi::sim::Cluster::run(2, [&](uoi::sim::Comm& comm) {
    const auto result =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options);
    EXPECT_EQ(result.model.lambdas.size(), 1u);
  });
}

TEST(Gemv, ZeroSizedEdges) {
  Matrix m(0, 3);
  Vector x(3, 1.0), y(0);
  uoi::linalg::gemv(1.0, m, x, 0.0, y);  // must not crash
  EXPECT_TRUE(y.empty());
}

}  // namespace

namespace checkpoint_tests {

using uoi::linalg::Matrix;

TEST(Checkpoint, RoundTripAndFingerprintGate) {
  uoi::core::SelectionCheckpoint checkpoint;
  checkpoint.fingerprint = 0xabcdef;
  checkpoint.completed_bootstraps = 7;
  checkpoint.lambdas = {3.0, 1.0, 0.5};
  checkpoint.counts = Matrix(3, 4);
  checkpoint.counts(1, 2) = 5.0;

  const std::string path =
      (std::filesystem::temp_directory_path() / "uoi_ckpt_rt.txt").string();
  uoi::core::save_checkpoint(path, checkpoint);

  const auto loaded = uoi::core::try_load_checkpoint(path, 0xabcdef);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->completed_bootstraps, 7u);
  EXPECT_EQ(loaded->lambdas, checkpoint.lambdas);
  EXPECT_DOUBLE_EQ(loaded->counts(1, 2), 5.0);

  // Wrong fingerprint: treated as a foreign file.
  EXPECT_FALSE(uoi::core::try_load_checkpoint(path, 0x999).has_value());
  // Missing file: nullopt, no throw.
  EXPECT_FALSE(
      uoi::core::try_load_checkpoint(path + ".nope", 0xabcdef).has_value());
  std::filesystem::remove(path);
}

TEST(Checkpoint, ResumedFitMatchesUninterrupted) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 120;
  spec.n_features = 16;
  spec.support_size = 4;
  spec.seed = 5;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 8;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 6;
  const uoi::core::UoiLasso uoi(options);
  const auto reference = uoi.fit(data.x, data.y);

  const std::string path =
      (std::filesystem::temp_directory_path() / "uoi_ckpt_resume.txt")
          .string();
  std::filesystem::remove(path);

  // Simulate an interruption: run with only 3 bootstraps' worth of budget
  // by checkpointing a partial configuration... the honest way: run the
  // full checkpointed fit once (writes the file), truncate the recorded
  // progress back to 3, then resume — the resumed result must equal the
  // uninterrupted reference bit for bit (deterministic resampling).
  auto checkpointed = options;
  checkpointed.recovery.checkpoint_path = path;
  (void)uoi::core::UoiLasso(checkpointed).fit(data.x, data.y);
  {
    std::ifstream f(path);
    std::stringstream buffer;
    buffer << f.rdbuf();
    auto checkpoint =
        uoi::core::SelectionCheckpoint::from_text(buffer.str());
    // Recompute the counts as they stood after 3 bootstraps: subtract is
    // impossible without re-running, so instead truncate by re-running
    // a checkpointed fit from scratch with a 3-bootstrap variant... keep
    // it simple: zero the counts, the done map and the progress — resume
    // must then redo everything and still match.
    checkpoint.completed_bootstraps = 0;
    checkpoint.counts.fill(0.0);
    checkpoint.done.fill(0.0);
    uoi::core::save_checkpoint(path, checkpoint);
  }
  auto& metrics = uoi::support::MetricsRegistry::instance();
  metrics.clear();
  const auto resumed = uoi::core::UoiLasso(checkpointed).fit(data.x, data.y);
  // The rewound file was accepted, not discarded.
  EXPECT_EQ(metrics.value(uoi::support::Tracer::thread_rank(),
                          "recovery.checkpoint_resumes"),
            1.0);
  EXPECT_EQ(uoi::linalg::max_abs_diff(resumed.beta, reference.beta), 0.0);
  for (std::size_t j = 0; j < reference.candidate_supports.size(); ++j) {
    EXPECT_EQ(resumed.candidate_supports[j], reference.candidate_supports[j]);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, PartialResumeProducesSameResult) {
  // Directly exercise mid-run resume: capture the checkpoint after the
  // full run, rewind `completed_bootstraps` to 5 while keeping the first
  // 5 bootstraps' counts — rebuilt by a 5-bootstrap fit with the same
  // seed — and resume.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 100;
  spec.n_features = 12;
  spec.support_size = 3;
  spec.seed = 7;
  const auto data = uoi::data::make_regression(spec);

  uoi::core::UoiLassoOptions full_options;
  full_options.n_selection_bootstraps = 8;
  full_options.n_estimation_bootstraps = 3;
  full_options.n_lambdas = 5;
  const uoi::core::UoiLasso full(full_options);
  const auto reference = full.fit(data.x, data.y);

  // A 5-bootstrap run writes a checkpoint whose counts equal the first 5
  // bootstraps of the 8-bootstrap run (same seed, same per-k streams) —
  // but its fingerprint encodes B1=5, so patch both fields.
  auto partial_options = full_options;
  partial_options.n_selection_bootstraps = 5;
  const std::string path =
      (std::filesystem::temp_directory_path() / "uoi_ckpt_partial.txt")
          .string();
  std::filesystem::remove(path);
  partial_options.recovery.checkpoint_path = path;
  (void)uoi::core::UoiLasso(partial_options).fit(data.x, data.y);
  {
    std::ifstream f(path);
    std::stringstream buffer;
    buffer << f.rdbuf();
    auto checkpoint =
        uoi::core::SelectionCheckpoint::from_text(buffer.str());
    checkpoint.fingerprint = full.selection_fingerprint(
        data.x.rows(), data.x.cols(), checkpoint.lambdas);
    // The 5-bootstrap run's done map has 5 rows; the 8-bootstrap run
    // expects 8, with bootstraps 5-7 still to do.
    Matrix done(full_options.n_selection_bootstraps, checkpoint.done.cols(),
                0.0);
    std::copy(checkpoint.done.data(),
              checkpoint.done.data() + checkpoint.done.size(), done.data());
    checkpoint.done = std::move(done);
    uoi::core::save_checkpoint(path, checkpoint);
  }
  auto resume_options = full_options;
  resume_options.recovery.checkpoint_path = path;
  const auto resumed =
      uoi::core::UoiLasso(resume_options).fit(data.x, data.y);
  EXPECT_EQ(uoi::linalg::max_abs_diff(resumed.beta, reference.beta), 0.0);
  // A real resume: only bootstraps 5-7 ran their selection chains.
  EXPECT_LT(resumed.total_flops, reference.total_flops);
  std::filesystem::remove(path);
}

TEST(Checkpoint, SerialVarResumeMatchesUninterrupted) {
  uoi::data::VarSpec spec;
  spec.n_nodes = 6;
  spec.seed = 61;
  uoi::var::SimulateOptions sim;
  sim.n_samples = 80;
  sim.seed = 67;
  const Matrix series =
      uoi::var::simulate(uoi::data::make_sparse_var(spec), sim);
  uoi::var::UoiVarOptions options;
  options.n_selection_bootstraps = 4;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;
  options.lambda_min_ratio = 1e-2;
  options.seed = 71;
  const auto reference = uoi::var::UoiVar(options).fit(series);

  const auto dir = std::filesystem::temp_directory_path();
  const std::string full_path = (dir / "uoi_var_ckpt_full.txt").string();
  const std::string path = (dir / "uoi_var_ckpt_resume.txt").string();
  std::filesystem::remove(full_path);
  std::filesystem::remove(path);
  const auto read = [](const std::string& file) {
    std::ifstream f(file);
    std::stringstream buffer;
    buffer << f.rdbuf();
    return uoi::core::SelectionCheckpoint::from_text(buffer.str());
  };
  // The full checkpointed fit supplies the fingerprint; a 2-bootstrap fit
  // supplies counts equal to the full run's first 2 bootstraps (same
  // per-bootstrap streams), padded to the full run's 4-row done map.
  auto full = options;
  full.recovery.checkpoint_path = full_path;
  const auto checkpointed = uoi::var::UoiVar(full).fit(series);
  EXPECT_EQ(uoi::linalg::max_abs_diff(checkpointed.vec_beta,
                                      reference.vec_beta),
            0.0);
  auto partial = options;
  partial.n_selection_bootstraps = 2;
  partial.recovery.checkpoint_path = path;
  (void)uoi::var::UoiVar(partial).fit(series);
  {
    auto checkpoint = read(path);
    checkpoint.fingerprint = read(full_path).fingerprint;
    Matrix done(options.n_selection_bootstraps, checkpoint.done.cols(), 0.0);
    std::copy(checkpoint.done.data(),
              checkpoint.done.data() + checkpoint.done.size(), done.data());
    checkpoint.done = std::move(done);
    uoi::core::save_checkpoint(path, checkpoint);
  }
  auto resume = options;
  resume.recovery.checkpoint_path = path;
  const auto resumed = uoi::var::UoiVar(resume).fit(series);
  EXPECT_EQ(uoi::linalg::max_abs_diff(resumed.vec_beta, reference.vec_beta),
            0.0);
  EXPECT_EQ(uoi::linalg::max_abs_diff(resumed.model.intercept(),
                                      reference.model.intercept()),
            0.0);
  EXPECT_EQ(resumed.chosen_support_per_bootstrap,
            reference.chosen_support_per_bootstrap);
  EXPECT_EQ(resumed.best_loss_per_bootstrap,
            reference.best_loss_per_bootstrap);
  // A real resume: only bootstraps 2 and 3 ran their selection chains.
  EXPECT_LT(resumed.total_flops, reference.total_flops);
  std::filesystem::remove(full_path);
  std::filesystem::remove(path);
}

}  // namespace checkpoint_tests

namespace predict_tests {

using uoi::linalg::Matrix;
using uoi::linalg::Vector;

TEST(Predict, LinearWithAndWithoutIntercept) {
  Matrix x{{1.0, 2.0}, {3.0, 4.0}};
  const Vector beta{0.5, -1.0};
  const Vector no_icpt = uoi::core::predict(x, beta);
  EXPECT_DOUBLE_EQ(no_icpt[0], 0.5 - 2.0);
  EXPECT_DOUBLE_EQ(no_icpt[1], 1.5 - 4.0);
  const Vector with_icpt = uoi::core::predict(x, beta, 10.0);
  EXPECT_DOUBLE_EQ(with_icpt[0], 10.0 + 0.5 - 2.0);
}

TEST(Predict, LassoFitEndToEnd) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 200;
  spec.n_features = 12;
  spec.support_size = 3;
  spec.noise_stddev = 0.2;
  spec.seed = 81;
  const auto data = uoi::data::make_regression(spec);
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 8;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 8;
  const auto fit = uoi::core::UoiLasso(options).fit(data.x, data.y);
  const Vector preds = uoi::core::predict(fit, data.x);
  // In-sample R^2 near 1 for this low-noise problem.
  double ss_res = 0.0, ss_tot = 0.0, mean = 0.0;
  for (const double v : data.y) mean += v;
  mean /= static_cast<double>(data.y.size());
  for (std::size_t i = 0; i < data.y.size(); ++i) {
    ss_res += (preds[i] - data.y[i]) * (preds[i] - data.y[i]);
    ss_tot += (data.y[i] - mean) * (data.y[i] - mean);
  }
  EXPECT_GT(1.0 - ss_res / ss_tot, 0.95);
}

TEST(Predict, LogisticProbabilitiesAndLabels) {
  uoi::data::ClassificationSpec spec;
  spec.n_samples = 300;
  spec.n_features = 8;
  spec.support_size = 2;
  spec.seed = 83;
  const auto data = uoi::data::make_classification(spec);
  uoi::core::UoiLogisticOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 6;
  const auto fit = uoi::core::UoiLogistic(options).fit(data.x, data.y);
  const Vector probs = uoi::core::predict_proba(fit, data.x);
  for (const double p : probs) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  const Vector labels = uoi::core::predict_labels(fit, data.x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_TRUE(labels[i] == 0.0 || labels[i] == 1.0);
    if (labels[i] == data.y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) /
                static_cast<double>(labels.size()),
            0.75);
}

}  // namespace predict_tests

namespace rng_stream_tests {

TEST(RngStreams, TaskStreamsAreStatisticallyIndependent) {
  // Correlation between adjacent task streams must be negligible: the UoI
  // guarantees rest on bootstrap independence.
  constexpr int kDraws = 20000;
  auto a = uoi::support::Xoshiro256::for_task(42, 0);
  auto b = uoi::support::Xoshiro256::for_task(42, 1);
  double sum_ab = 0.0, sum_a = 0.0, sum_b = 0.0, sum_a2 = 0.0, sum_b2 = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = a.normal();
    const double y = b.normal();
    sum_ab += x * y;
    sum_a += x;
    sum_b += y;
    sum_a2 += x * x;
    sum_b2 += y * y;
  }
  const double n = kDraws;
  const double cov = sum_ab / n - (sum_a / n) * (sum_b / n);
  const double var_a = sum_a2 / n - (sum_a / n) * (sum_a / n);
  const double var_b = sum_b2 / n - (sum_b / n) * (sum_b / n);
  const double corr = cov / std::sqrt(var_a * var_b);
  EXPECT_LT(std::abs(corr), 0.03);
}

TEST(RngStreams, UniformityChiSquare) {
  // 16-bin chi-square on uniform(): statistic ~ chi2(15); 99.9th
  // percentile ~ 37.7.
  auto rng = uoi::support::Xoshiro256::for_task(7, 99);
  constexpr int kBins = 16;
  constexpr int kDraws = 64000;
  int histogram[kBins] = {0};
  for (int i = 0; i < kDraws; ++i) {
    ++histogram[static_cast<int>(rng.uniform() * kBins)];
  }
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0.0;
  for (const int count : histogram) {
    const double d = count - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 37.7);
}

}  // namespace rng_stream_tests
