#pragma once
// Distributed UoI_ElasticNet: the lasso family of the shared engine
// (core/uoi_engine.hpp) over a 2-D grid. The (l1_ratio, lambda) grid is
// flattened into cells c = r * q + j; the engine's scheduler places the
// (bootstrap, chain) cells on task groups, and cell c fits penalties
// (lambda_j * ratio_r, lambda_j * (1 - ratio_r)). Fault tolerance works
// as for the lasso driver with default UoiRecoveryOptions: one
// shrink-and-resume attempt, no checkpoint.

#include "core/uoi_elastic_net.hpp"
#include "core/uoi_lasso_distributed.hpp"  // layout, breakdown, hooks
#include "simcluster/comm.hpp"

namespace uoi::core {

struct UoiElasticNetDistributedResult {
  UoiElasticNetResult model;
  UoiDistributedBreakdown breakdown;
};

/// Collective over `comm`; data replicated as in the other drivers.
/// Matches the serial UoiElasticNet's candidate supports given the same
/// options (identical resamples; same consensus-vs-serial tolerance
/// caveats as UoI_LASSO).
[[nodiscard]] UoiElasticNetDistributedResult uoi_elastic_net_distributed(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView x,
    std::span<const double> y, const UoiElasticNetOptions& options = {},
    const UoiParallelLayout& layout = {});

}  // namespace uoi::core
