#pragma once
// Distributed UoI_Logistic: a family of the shared engine
// (core/uoi_engine.hpp) with the consensus l1-logistic solver in the
// selection slots and IRLS refits scored by held-out log loss in the
// estimation slots. Winner rows carry the intercept after beta. Fault
// tolerance works as for the lasso driver with default
// UoiRecoveryOptions: one shrink-and-resume attempt, no checkpoint.

#include "core/uoi_lasso_distributed.hpp"  // UoiParallelLayout, breakdown
#include "core/uoi_logistic.hpp"
#include "simcluster/comm.hpp"

namespace uoi::core {

struct UoiLogisticDistributedResult {
  UoiLogisticResult model;
  UoiDistributedBreakdown breakdown;
};

/// Collective over `comm`; `x`/`y` replicated as in uoi_lasso_distributed.
/// Matches the serial UoiLogistic's candidate supports given the same
/// options (identical resamples by construction).
[[nodiscard]] UoiLogisticDistributedResult uoi_logistic_distributed(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView x,
    std::span<const double> y, const UoiLogisticOptions& options = {},
    const UoiParallelLayout& layout = {});

}  // namespace uoi::core
