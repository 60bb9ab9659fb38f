#pragma once
// Analytic collective-communication costs.

#include <cstdint>

#include "perfmodel/machine.hpp"

namespace uoi::perf {

/// Mean time of one Allreduce over P ranks carrying `bytes` per rank:
/// recursive-halving/doubling alpha-beta term plus the straggler term that
/// dominates at >10^4 ranks (see MachineProfile::straggler_coeff).
[[nodiscard]] double allreduce_time(const MachineProfile& m, std::uint64_t p,
                                    std::uint64_t bytes);

/// T_min / T_max envelope of one Allreduce (Fig. 5): the spread grows with
/// log2(P) * jitter_fraction around the mean.
struct MinMaxTime {
  double t_min;
  double t_mean;
  double t_max;
};
[[nodiscard]] MinMaxTime allreduce_minmax(const MachineProfile& m,
                                          std::uint64_t p,
                                          std::uint64_t bytes);

/// Ring allreduce: 2(P-1) stages of alpha + 2 n (P-1)/P / bandwidth.
/// Latency-heavy at scale but bandwidth-optimal; large payloads prefer it.
[[nodiscard]] double allreduce_ring_time(const MachineProfile& m,
                                         std::uint64_t p,
                                         std::uint64_t bytes);

/// What a tuned MPI does: the cheaper of halving-doubling and ring.
[[nodiscard]] double allreduce_best_time(const MachineProfile& m,
                                         std::uint64_t p,
                                         std::uint64_t bytes);

/// Two-level hierarchical allreduce (uoi::sim::Comm::allreduce_
/// hierarchical): an intra-group ring over g ranks, recursive doubling
/// among the P/g group leaders, and a linear leader-to-member fan-out.
/// Splitting the flat algorithms' P-wide dependency chain into a g-wide
/// and a (P/g)-wide level also splits the straggler penalty
/// (g^1.5 + (P/g)^1.5 << P^1.5), which is where the crossover at paper
/// scale comes from. `group_size` 0 = auto
/// (uoi::sim::hierarchical_group_size).
[[nodiscard]] double allreduce_hierarchical_time(const MachineProfile& m,
                                                 std::uint64_t p,
                                                 std::uint64_t bytes,
                                                 std::uint64_t group_size = 0);

/// Broadcast cost (binomial tree).
[[nodiscard]] double bcast_time(const MachineProfile& m, std::uint64_t p,
                                std::uint64_t bytes);

/// One-sided transfer of `bytes` split into `messages` gets/puts against a
/// single window target.
[[nodiscard]] double onesided_time(const MachineProfile& m,
                                   std::uint64_t bytes,
                                   std::uint64_t messages);

}  // namespace uoi::perf
