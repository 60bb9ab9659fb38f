// Tests for latency emulation: injected per-collective delays show up in
// the communication stats without changing results.

#include <gtest/gtest.h>

#include <vector>

#include "perfmodel/emulation.hpp"
#include "simcluster/cluster.hpp"

namespace emulation_tests {

using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::ReduceOp;

TEST(LatencyEmulation, InjectedDelayShowsUpInStats) {
  auto stats = Cluster::run_collect_stats(2, [&](Comm& comm) {
    // A flat 2 ms per allreduce regardless of size.
    comm.set_latency_injector([](uoi::sim::CommCategory category,
                                 std::uint64_t, int) {
      return category == uoi::sim::CommCategory::kAllreduce ? 2e-3 : 0.0;
    });
    std::vector<double> v(8, 1.0);
    for (int i = 0; i < 5; ++i) comm.allreduce(v, ReduceOp::kSum);
  });
  for (const auto& s : stats) {
    EXPECT_GE(s.of(uoi::sim::CommCategory::kAllreduce).seconds, 5 * 2e-3);
  }
}

TEST(LatencyEmulation, ResultsAreUnaffected) {
  Cluster::run(3, [&](Comm& comm) {
    comm.set_latency_injector(uoi::perf::make_profile_injector(
        uoi::perf::knl_profile(), /*emulated_cores=*/4352,
        /*time_scale=*/1e-3));
    std::vector<double> v{static_cast<double>(comm.rank())};
    comm.allreduce(v, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v[0], 3.0);
  });
}

TEST(LatencyEmulation, ProfileInjectorScalesWithEmulatedCores) {
  const auto injector_small = uoi::perf::make_profile_injector(
      uoi::perf::knl_profile(), 68, 1.0);
  const auto injector_large = uoi::perf::make_profile_injector(
      uoi::perf::knl_profile(), 139264, 1.0);
  const double small = injector_small(uoi::sim::CommCategory::kAllreduce,
                                      160000, 8);
  const double large = injector_large(uoi::sim::CommCategory::kAllreduce,
                                      160000, 8);
  EXPECT_GT(large, small);
  EXPECT_GT(small, 0.0);
}

}  // namespace emulation_tests
