#include "perfmodel/collectives.hpp"

#include <algorithm>
#include <cmath>

#include "simcluster/comm.hpp"

namespace uoi::perf {

namespace {
double log2_ceil(std::uint64_t p) {
  return p <= 1 ? 0.0 : std::ceil(std::log2(static_cast<double>(p)));
}
}  // namespace

double allreduce_time(const MachineProfile& m, std::uint64_t p,
                      std::uint64_t bytes) {
  if (p <= 1) return 0.0;
  const double stages = log2_ceil(p);
  const double n = static_cast<double>(bytes);
  const double pd = static_cast<double>(p);
  const double alpha_beta =
      2.0 * stages * m.allreduce_alpha +
      2.0 * n * (pd - 1.0) / pd / m.network_bandwidth;
  const double straggler = m.straggler_coeff * std::pow(pd, 1.5);
  return alpha_beta + straggler;
}

MinMaxTime allreduce_minmax(const MachineProfile& m, std::uint64_t p,
                            std::uint64_t bytes) {
  const double mean = allreduce_time(m, p, bytes);
  const double spread =
      std::min(0.9, m.jitter_fraction * log2_ceil(p) / 18.0);
  return {mean * (1.0 - spread), mean, mean * (1.0 + 2.5 * spread)};
}

double allreduce_ring_time(const MachineProfile& m, std::uint64_t p,
                           std::uint64_t bytes) {
  if (p <= 1) return 0.0;
  const double pd = static_cast<double>(p);
  const double n = static_cast<double>(bytes);
  const double alpha_beta =
      2.0 * (pd - 1.0) * m.allreduce_alpha +
      2.0 * n * (pd - 1.0) / pd / m.network_bandwidth;
  // The straggler term hits a ring harder: every stage is a full
  // dependency chain around the machine.
  const double straggler = 2.0 * m.straggler_coeff * std::pow(pd, 1.5);
  return alpha_beta + straggler;
}

double allreduce_best_time(const MachineProfile& m, std::uint64_t p,
                           std::uint64_t bytes) {
  return std::min(allreduce_time(m, p, bytes),
                  allreduce_ring_time(m, p, bytes));
}

double allreduce_hierarchical_time(const MachineProfile& m, std::uint64_t p,
                                   std::uint64_t bytes,
                                   std::uint64_t group_size) {
  if (p <= 1) return 0.0;
  const std::uint64_t g =
      group_size > 0 ? std::min(group_size, p)
                     : static_cast<std::uint64_t>(
                           uoi::sim::hierarchical_group_size(
                               static_cast<int>(p)));
  if (g <= 1) return allreduce_time(m, p, bytes);
  const std::uint64_t n_leaders = (p + g - 1) / g;
  // Intra-group ring allreduce (bandwidth term within the group).
  double t = allreduce_ring_time(m, g, bytes);
  if (n_leaders > 1) {
    // Leaders recursive-double among themselves: the only long-haul
    // level, with its straggler term shrunk from P^1.5 to (P/g)^1.5.
    t += allreduce_time(m, n_leaders, bytes);
    // Leader-to-member fan-out of the global result (linear,
    // intra-group); a single group's ring already left it everywhere.
    t += static_cast<double>(g - 1) *
         (m.allreduce_alpha +
          static_cast<double>(bytes) / m.network_bandwidth);
  }
  return t;
}

double bcast_time(const MachineProfile& m, std::uint64_t p,
                  std::uint64_t bytes) {
  if (p <= 1) return 0.0;
  return log2_ceil(p) *
         (m.allreduce_alpha +
          static_cast<double>(bytes) / m.network_bandwidth);
}

double onesided_time(const MachineProfile& m, std::uint64_t bytes,
                     std::uint64_t messages) {
  return static_cast<double>(messages) * m.onesided_latency +
         static_cast<double>(bytes) / m.onesided_bandwidth;
}

}  // namespace uoi::perf
