#include "core/uoi_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/checkpoint.hpp"
#include "sched/cost_model.hpp"
#include "sched/scheduler.hpp"
#include "sched/task_grid.hpp"
#include "solvers/admm_lasso.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace uoi::core {

using uoi::linalg::Matrix;
using uoi::linalg::Vector;
using uoi::sim::Comm;
using uoi::sim::CommStats;
using uoi::sim::RecoveryStats;
using uoi::sim::ReduceOp;

namespace {

void export_metrics(int trace_rank, const UoiEngineSpec& spec,
                    const UoiFitCounters& fits,
                    const uoi::solvers::BootstrapCache::Stats& cache,
                    const UoiEngineResult& out) {
  auto& metrics = support::MetricsRegistry::instance();
  const auto add = [&](std::string_view name, double value) {
    metrics.add(trace_rank, name, value);
  };
  add("admm.iterations", static_cast<double>(fits.iterations));
  add("admm.rho_updates", static_cast<double>(fits.rho_updates));
  add("admm.allreduce_calls", static_cast<double>(fits.allreduce_calls));
  add("admm.allreduce_bytes", static_cast<double>(fits.allreduce_bytes));
  add("admm.consensus_rounds", static_cast<double>(fits.consensus_rounds));
  add("admm.lazy_iterations", static_cast<double>(fits.lazy_iterations));
  add("admm.consensus_interval",
      static_cast<double>(
          uoi::solvers::resolve_consensus_interval(spec.consensus_interval)));
  if (spec.screen_mode.has_value()) {
    const auto& screen = fits.screen;
    metrics.set(trace_rank, "screen.mode",
                static_cast<double>(static_cast<int>(*spec.screen_mode)));
    add("screen.lambdas", static_cast<double>(screen.lambdas));
    add("screen.survivors", static_cast<double>(screen.survivors));
    add("screen.kkt_violations", static_cast<double>(screen.kkt_violations));
    add("screen.kkt_rounds", static_cast<double>(screen.kkt_rounds));
    add("screen.gram_cols_saved", static_cast<double>(screen.gram_cols_saved));
    add("screen.canonical_solves",
        static_cast<double>(screen.canonical_solves));
    add("screen.total_columns", static_cast<double>(screen.total_columns));
  }
  add("solver_cache.hits", static_cast<double>(cache.hits));
  add("solver_cache.misses", static_cast<double>(cache.misses));
  add("solver_cache.evictions", static_cast<double>(cache.evictions));
  add("solver.setup_flops_charged",
      static_cast<double>(fits.setup_flops_charged));
  add("solver.setup_flops_amortized",
      static_cast<double>(fits.setup_flops_amortized));
  if (out.degraded) {
    add("recovery.degraded", 1.0);
    add("recovery.achieved_quorum", out.achieved_quorum);
    add("recovery.cells_lost", static_cast<double>(out.lost_cells.size()));
  }
}

}  // namespace

void UoiSelectionTask::mark_selected(std::size_t m,
                                     std::span<const double> beta,
                                     double tolerance) const {
  if (layout.task_rank != 0) return;
  auto& list = selected[m];
  for (std::size_t i = 0; i < beta.size(); ++i) {
    if (std::abs(beta[i]) > tolerance) list.push_back(i);
  }
}

void UoiEstimationTask::record(std::size_t c, double loss,
                               Vector share) const {
  losses[c] = loss;
  if (loss < winner.loss) {
    winner.cell = c;
    winner.loss = loss;
    winner.share = std::move(share);
  }
}

UoiEngineResult run_uoi_engine(Comm& comm, const UoiEngineSpec& spec,
                               const UoiSelectHook& select,
                               const UoiEstimateHook& estimate) {
  const int pb = spec.layout.bootstrap_groups;
  const int pl = spec.layout.lambda_groups;
  UOI_CHECK(pb >= 1 && pl >= 1, "layout group counts must be >= 1");
  UOI_CHECK(comm.size() >= pb * pl,
            "communicator smaller than P_B * P_lambda task groups");
  const std::size_t q = spec.cell_lambdas.size();
  const std::size_t width = spec.selection_width;
  const std::size_t b1 = spec.n_selection_bootstraps;
  const std::size_t b2 = spec.n_estimation_bootstraps;
  const UoiRecoveryOptions& recovery = spec.recovery;
  const bool checkpointing = !recovery.checkpoint_path.empty();
  const uoi::sim::RetryOptions retry = recovery.retry_options();

  UoiEngineResult out;
  support::Stopwatch phase_watch;
  // Bucket attribution is tracer-based: spans are keyed by this rank's
  // *global* rank, so collectives on split and shrunk communicators are
  // all accounted.
  auto& tracer = support::Tracer::instance();
  const int trace_rank = comm.global_rank();
  const double phase_start_seconds = tracer.now_seconds();
  const support::TraceTotals trace_before = tracer.totals(trace_rank);
  UoiFitCounters fits;
  uoi::solvers::BootstrapCache::Stats cache_stats;
  const std::size_t cache_budget =
      uoi::solvers::resolve_solver_cache_bytes(spec.solver_cache_mb);

  // Selection state. `*_merged` is replicated and globally consistent;
  // `local` holds this rank's contributions not yet committed by a merge:
  // the q x width counts, then the b1 x q done flags, row-major in one
  // buffer so the merge reduces it in place. A (bootstrap, cell) count
  // and its done flag live on the same rank (the owning group's task rank
  // 0) until merged, so a rank death loses them together — `done` never
  // claims counts that died with a failed rank.
  Matrix counts_merged(q, width, 0.0);
  Matrix done_merged(b1, q, 0.0);
  const std::size_t n_counts = q * width;
  Vector local(n_counts + b1 * q, 0.0);

  if (checkpointing) {
    // Every rank reads the same stable file, so the restored state is
    // replicated by construction.
    if (auto restored =
            try_load_checkpoint(recovery.checkpoint_path, spec.fingerprint)) {
      const bool shape_ok =
          restored->lambdas == spec.cell_lambdas &&
          restored->counts.rows() == q && restored->counts.cols() == width &&
          (restored->done.rows() == 0 ||
           (restored->done.rows() == b1 && restored->done.cols() == q)) &&
          restored->completed_bootstraps <= b1 &&
          // A file whose progress count disagrees with its done map was
          // not written by a consistent run: restart from scratch.
          restored->completed_prefix() == restored->completed_bootstraps;
      if (shape_ok) {
        counts_merged = std::move(restored->counts);
        if (restored->done.rows() != 0) {
          done_merged = std::move(restored->done);
        } else {
          for (std::size_t k = 0; k < restored->completed_bootstraps; ++k) {
            for (std::size_t j = 0; j < q; ++j) done_merged(k, j) = 1.0;
          }
        }
        ++comm.mutable_recovery_stats().checkpoint_resumes;
        UOI_LOG_INFO.field("path", recovery.checkpoint_path)
                .field("driver", spec.name)
            << "resumed selection progress from checkpoint";
      }
    }
  }

  // ---- Scheduler state ----
  // Chains are fixed at entry (n_chains = the entry layout's P_lambda,
  // chain c owns {j : j % n_chains == c}) and survive every shrink, so a
  // replayed cell rebuilds the exact warm-start trajectory of a fault-free
  // run. The group count is what shrinks: survivors regroup into
  // min(P_B * P_lambda, alive) groups of near-even width.
  int n_groups = pb * pl;
  const sched::SchedulePolicy policy = sched::resolve_policy(spec.schedule);
  const std::size_t n_chains =
      std::max<std::size_t>(1, std::min(static_cast<std::size_t>(pl), q));
  const sched::TaskGrid selection_grid(b1, q, n_chains, spec.seed);
  const sched::TaskGrid estimation_grid(b2, q, n_chains, spec.seed + 1);
  // Live-telemetry progress denominator (`uoi top` sums cells_done against
  // this); one rank owns it so the cross-rank sum counts the grid once.
  if (comm.rank() == 0) {
    support::MetricsRegistry::instance().set(
        trace_rank, "progress.cells_total",
        static_cast<double>(selection_grid.n_cells() +
                            estimation_grid.n_cells()));
  }
  const std::vector<double> selection_costs = sched::seeded_costs(
      selection_grid, spec.cell_lambdas, spec.pass_seconds_seed);
  std::vector<double> estimation_costs = sched::seeded_costs(
      estimation_grid, spec.cell_lambdas, spec.pass_seconds_seed);
  sched::PassStats selection_stats;
  bool estimation_costs_calibrated = false;

  CommStats folded;
  RecoveryStats folded_rec;
  std::optional<Comm> owned;  // current shrunk communicator, if any
  Comm* active = &comm;

  const auto save = [&](Comm& c) {
    if (!checkpointing || c.rank() != 0) return;
    // A degraded run marks its lost cells done so the scheduler skips
    // them; persisting that state would poison a later full-quorum resume
    // into silently inheriting the losses.
    if (out.degraded) return;
    SelectionCheckpoint checkpoint;
    checkpoint.fingerprint = spec.fingerprint;
    checkpoint.lambdas = spec.cell_lambdas;
    checkpoint.counts = counts_merged;
    checkpoint.done = done_merged;
    checkpoint.completed_bootstraps = checkpoint.completed_prefix();
    save_checkpoint(recovery.checkpoint_path, checkpoint);
  };

  // Commits every rank's unmerged contributions into the replicated merged
  // state. Collective over `c`. Atomic with respect to rank failures: the
  // fused allreduce either completes on every survivor or raises on every
  // survivor before the commit, so locals are never half-applied.
  const auto merge = [&](Comm& c) {
    c.allreduce(std::span<double>(local), ReduceOp::kSum);
    for (std::size_t i = 0; i < n_counts; ++i) {
      counts_merged.data()[i] += local[i];
    }
    for (std::size_t i = 0; i < done_merged.size(); ++i) {
      done_merged.data()[i] =
          std::min(1.0, done_merged.data()[i] + local[n_counts + i]);
    }
    std::fill(local.begin(), local.end(), 0.0);
  };

  // Runs one pass attempt on `c`: splits it into task groups and owns the
  // attempt's cache. Entries hold views of the attempt's task_comm, so
  // they must not outlive it; the stats fold runs on the failure path too.
  const auto run_attempt = [&](Comm& c, const auto& body) {
    const detail::TaskLayout tl =
        detail::make_task_layout(c.rank(), c.size(), n_groups, 1);
    Comm task_comm = c.split(tl.task_group, c.rank());
    const sched::GroupInfo group_info{n_groups, tl.task_group, tl.task_rank,
                                      pb, pl};
    uoi::solvers::BootstrapCache cache(cache_budget);
    const auto fold = [&] {
      cache_stats.hits += cache.stats().hits;
      cache_stats.misses += cache.stats().misses;
      cache_stats.evictions += cache.stats().evictions;
      folded += task_comm.stats();
      folded_rec += task_comm.recovery_stats();
    };
    try {
      body(tl, task_comm, group_info, cache);
      fold();
    } catch (const uoi::sim::RankFailedError&) {
      // A group peer may not have seen the failure: on the socket backend
      // a dying rank's last barrier notice can reach one peer and not
      // another, leaving that peer blocked in a task-group collective the
      // rest of the group never enters. Revoking wakes it to follow.
      task_comm.revoke();
      fold();
      throw;
    }
  };

  const auto run_selection = [&](Comm& c) {
    run_attempt(c, [&](const detail::TaskLayout& tl, Comm& task_comm,
                       const sched::GroupInfo& group_info,
                       uoi::solvers::BootstrapCache& cache) {
      // One cell = (bootstrap k, lambda chain): the group fits the chain's
      // still-missing cells warm-started in grid order.
      const auto execute = [&](const sched::TaskCell& task) {
        const std::size_t k = task.bootstrap;
        std::vector<std::size_t> chain;
        for (std::size_t j : selection_grid.chain_lambdas(task.chain)) {
          if (done_merged(k, j) == 0.0) chain.push_back(j);
        }
        if (chain.empty()) return;
        // Selections are staged and committed only once the whole chain
        // finished: a failure mid-chain must leave no partial
        // contribution, so the chain reruns cold — replaying exactly the
        // warm-start trajectory a fault-free run produces.
        std::vector<std::vector<std::size_t>> staged(chain.size());
        UoiSelectionTask cell{task_comm, tl,     k,    chain,
                              cache,     staged, fits};
        select(cell);
        if (tl.task_rank == 0) {
          for (std::size_t m = 0; m < chain.size(); ++m) {
            double* counts = local.data() + chain[m] * width;
            for (const std::size_t i : staged[m]) counts[i] += 1.0;
            local[n_counts + k * q + chain[m]] = 1.0;
          }
        }
      };

      // Checkpoint epochs: `interval` bootstraps per scheduled pass, with a
      // merge + save between epochs (single epoch when not checkpointing).
      // Placement is planned once over every pending cell of the pass and
      // filtered per epoch: planning tiny epochs individually would let the
      // LPT greedy put each one onto group 0 and starve the rest.
      const std::size_t interval =
          checkpointing
              ? std::max<std::size_t>(1, recovery.checkpoint_interval)
              : b1;
      std::vector<std::size_t> pass_cells;
      for (std::size_t k = 0; k < b1; ++k) {
        for (std::size_t chain = 0; chain < n_chains; ++chain) {
          bool pending = false;
          for (std::size_t j : selection_grid.chain_lambdas(chain)) {
            if (done_merged(k, j) == 0.0) {
              pending = true;
              break;
            }
          }
          if (pending) pass_cells.push_back(selection_grid.cell_id(k, chain));
        }
      }
      const auto placement = sched::plan_placement(
          policy, selection_grid, pass_cells, selection_costs, group_info,
          sched::group_widths(c.size(), n_groups));
      sched::PassStats call_stats;
      for (std::size_t k0 = 0; k0 < b1; k0 += interval) {
        const std::size_t k1 = std::min(b1, k0 + interval);
        auto epoch = placement;
        std::size_t epoch_cells = 0;
        for (auto& queue : epoch) {
          std::erase_if(queue, [&](std::size_t id) {
            const std::size_t k = selection_grid.cell(id).bootstrap;
            return k < k0 || k >= k1;
          });
          epoch_cells += queue.size();
        }
        if (epoch_cells > 0) {
          const auto pass =
              sched::run_pass(c, task_comm, group_info, policy,
                              selection_grid, epoch, selection_costs, retry,
                              execute);
          sched::accumulate_stats(call_stats, pass);
        }
        if (checkpointing && k1 < b1) {
          merge(c);
          save(c);
        }
      }
      merge(c);  // the final commit doubles as the intersection's Reduce
      save(c);
      sched::accumulate_stats(selection_stats, call_stats);
      sched::export_pass_metrics(trace_rank, group_info, policy, call_stats);
    });
  };

  // Builds the (possibly soft) intersection from the merged counts; every
  // rank derives the identical supports. A degraded run thresholds each
  // cell against its achieved bootstrap count, so a feature's bar is not
  // inflated by bootstraps that were never computed.
  std::vector<double> degraded_achieved;
  const auto intersect = [&] {
    out.candidate_supports.clear();
    out.candidate_supports.reserve(q);
    for (std::size_t j = 0; j < q; ++j) {
      out.candidate_supports.push_back(intersect_counts(
          counts_merged.row(j), spec.intersection_fraction,
          out.degraded ? degraded_achieved[j] : static_cast<double>(b1)));
    }
  };

  const auto run_estimation = [&](Comm& c) {
    run_attempt(c, [&](const detail::TaskLayout& tl, Comm& task_comm,
                       const sched::GroupInfo& group_info,
                       uoi::solvers::BootstrapCache& cache) {
      // Refine the estimation placement once from the measured selection
      // pass: the Allreduce-max replicates every group's per-cell seconds,
      // so all ranks derive the identical calibrated plan.
      if (policy != sched::SchedulePolicy::kStatic &&
          !estimation_costs_calibrated) {
        if (selection_stats.cell_seconds.size() != selection_grid.n_cells()) {
          selection_stats.cell_seconds.assign(selection_grid.n_cells(), 0.0);
        }
        c.allreduce(std::span<double>(selection_stats.cell_seconds),
                    ReduceOp::kMax);
        const auto calibration = sched::calibrate(
            selection_grid, selection_costs, selection_stats.cell_seconds);
        sched::apply_calibration(estimation_grid, calibration,
                                 std::span<double>(estimation_costs));
        // Estimation refits each cell's candidate support, so reweight the
        // per-chain costs by the survivor counts of the selection pass
        // (replicated: the supports derive from the merged counts).
        std::vector<double> survivors(q, 0.0);
        for (std::size_t j = 0; j < q; ++j) {
          survivors[j] =
              static_cast<double>(out.candidate_supports[j].indices().size());
        }
        sched::apply_survivor_weights(estimation_grid, survivors,
                                      std::span<double>(estimation_costs));
        if (tl.task_rank == 0) {
          support::MetricsRegistry::instance().set(
              trace_rank, "sched.placement_error",
              calibration.mean_abs_rel_error);
        }
        estimation_costs_calibrated = true;
      }

      Matrix losses(b2, q, std::numeric_limits<double>::infinity());
      // One running winner per (bootstrap, chain) cell, by cell id; only
      // the cells this group computed ever hold a share.
      std::vector<UoiChainWinner> chain_winners(estimation_grid.n_cells());
      const auto execute = [&](const sched::TaskCell& task) {
        const std::size_t k = task.bootstrap;
        const auto cells = estimation_grid.chain_lambdas(task.chain);
        UoiEstimationTask cell{
            task_comm,
            tl,
            k,
            cells,
            cache,
            out.candidate_supports,
            fits,
            losses.row(k),
            chain_winners[estimation_grid.cell_id(k, task.chain)]};
        estimate(cell);
      };
      std::vector<std::size_t> cells(estimation_grid.n_cells());
      for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = i;
      const auto placement = sched::plan_placement(
          policy, estimation_grid, cells, estimation_costs, group_info,
          sched::group_widths(c.size(), n_groups));
      const auto pass =
          sched::run_pass(c, task_comm, group_info, policy, estimation_grid,
                          placement, estimation_costs, retry, execute);
      sched::export_pass_metrics(trace_rank, group_info, policy, pass);

      // Share all losses; every rank then knows each bootstrap's winner.
      c.allreduce(std::span<double>(losses.data(), losses.size()),
                  ReduceOp::kMin);
      out.chosen_support_per_bootstrap.assign(b2, 0);
      out.best_loss_per_bootstrap.assign(b2, 0.0);
      // winners(k, :) is assembled globally: the owning group's ranks
      // deposit their disjoint shares, then one sum-reduction replicates
      // the matrix (every element has at most one nonzero contributor).
      // The global rule is record()'s, so the global winner is also the
      // running winner of its chain on the group that computed it.
      Matrix winners(b2, spec.winner_width, 0.0);
      for (std::size_t k = 0; k < b2; ++k) {
        std::size_t best = 0;
        double best_loss = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < q; ++j) {
          if (losses(k, j) < best_loss) {
            best_loss = losses(k, j);
            best = j;
          }
        }
        out.chosen_support_per_bootstrap[k] = best;
        out.best_loss_per_bootstrap[k] = best_loss;
        const UoiChainWinner& local_best =
            chain_winners[estimation_grid.cell_id(k, best % n_chains)];
        if (local_best.loss < std::numeric_limits<double>::infinity()) {
          UOI_CHECK(local_best.cell == best,
                    "chain winner disagrees with the global winner");
          std::copy(local_best.share.begin(), local_best.share.end(),
                    winners.row(k).begin());
        }
      }
      c.allreduce(std::span<double>(winners.data(), winners.size()),
                  ReduceOp::kSum);
      out.winners = std::move(winners);

      std::uint64_t flops = fits.local_flops;
      c.allreduce(std::span<std::uint64_t>(&flops, 1), ReduceOp::kSum);
      out.total_flops = flops;
    });
  };

  // ---- Recovery attempt loop ----
  // Each pass runs selection (skipping merged cells) and estimation on the
  // current communicator. A RankFailedError triggers shrink + merge +
  // regrouping; estimation is redone wholesale (its fits are cold, so a
  // redo is deterministic), selection resumes cell-wise.
  bool selection_complete = false;
  int attempts_left = recovery.max_recovery_attempts;
  for (;;) {
    try {
      if (!selection_complete) {
        run_selection(*active);
        intersect();
        selection_complete = true;
      }
      run_estimation(*active);
      break;
    } catch (const uoi::sim::RankFailedError&) {
      const bool out_of_attempts = attempts_left-- <= 0;
      // Quorum-degraded completion is a selection-phase escape hatch only:
      // estimation fits are cold recomputes, so exhausting the budget
      // there still rethrows.
      const bool try_degraded = out_of_attempts && !selection_complete &&
                                recovery.min_bootstrap_quorum < 1.0;
      if (out_of_attempts && !try_degraded) {
        // Give up symmetrically: uneven groups detect a death at different
        // collectives, so a rank that exits here could leave a peer blocked
        // in a comm-wide barrier forever. Revoking wakes it to follow.
        active->revoke();
        throw;
      }
      UOI_LOG_WARN.field("attempts_left", attempts_left)
              .field("phase", selection_complete ? "estimation" : "selection")
          << "rank failure in distributed " << spec.name
          << "; shrinking and resuming";
      // Survivors converge here (any rank still blocked in a collective of
      // the revoked communicator raises and follows); the shrink is
      // collective over the alive ranks only.
      Comm next = active->shrink();
      if (owned.has_value()) {
        folded += owned->stats();
        folded_rec += owned->recovery_stats();
      }
      owned = std::move(next);
      active = &*owned;
      // Regroup the survivors: as many groups as the entry layout had, as
      // long as each keeps at least one rank. The chain structure is
      // untouched, so replays stay bit-identical.
      n_groups = std::min(n_groups, active->size());
      // Commit what every survivor already finished, then account the
      // cells that died with the failed rank and must be redistributed.
      merge(*active);
      if (try_degraded) {
        // Decide from the replicated done matrix, so every survivor takes
        // the same branch. The achieved counts are captured BEFORE the
        // lost cells are marked done below.
        degraded_achieved.assign(q, 0.0);
        for (std::size_t k = 0; k < b1; ++k) {
          for (std::size_t j = 0; j < q; ++j) {
            degraded_achieved[j] += done_merged(k, j);
          }
        }
        double min_fraction = 1.0;
        for (std::size_t j = 0; j < q; ++j) {
          min_fraction = std::min(
              min_fraction, degraded_achieved[j] / static_cast<double>(b1));
        }
        if (min_fraction < recovery.min_bootstrap_quorum) {
          active->revoke();
          throw;
        }
        // Abandon the missing cells: record them, then mark them done so
        // the resumed selection pass schedules nothing for them. The
        // checkpoint save is skipped (see `save`), so the abandonment
        // never leaks into a later full-quorum run.
        for (std::size_t k = 0; k < b1; ++k) {
          for (std::size_t j = 0; j < q; ++j) {
            if (done_merged(k, j) == 0.0) {
              out.lost_cells.emplace_back(k, j);
              done_merged(k, j) = 1.0;
            }
          }
        }
        out.degraded = true;
        out.achieved_quorum = min_fraction;
        UOI_LOG_WARN.field("achieved_quorum", min_fraction)
                .field("cells_lost",
                       static_cast<std::uint64_t>(out.lost_cells.size()))
            << "recovery budget exhausted; completing " << spec.name
            << " selection degraded under bootstrap quorum";
      } else {
        if (!selection_complete) {
          std::uint64_t missing = 0;
          for (std::size_t i = 0; i < done_merged.size(); ++i) {
            if (done_merged.data()[i] == 0.0) ++missing;
          }
          folded_rec.cells_recovered += missing;
        }
        save(*active);
      }
    }
  }
  out.selection_counts = std::move(counts_merged);

  // Fold every child communicator's traffic into the caller's accounting
  // so Cluster::run_collect_reports sees the consensus Allreduces and the
  // recovery activity.
  if (owned.has_value()) {
    folded += owned->stats();
    folded_rec += owned->recovery_stats();
  }
  comm.mutable_stats() += folded;
  comm.mutable_recovery_stats() += folded_rec;

  // Tracer-derived bucket totals over the phase. Computation is the
  // remainder (clamped at zero against scheduler jitter), so the buckets
  // sum to the phase wall time by construction.
  support::TraceTotals delta = tracer.totals(trace_rank);
  delta -= trace_before;
  auto& breakdown = out.breakdown;
  breakdown.communication_seconds =
      delta.seconds(support::TraceCategory::kCommunication);
  breakdown.distribution_seconds =
      delta.seconds(support::TraceCategory::kDistribution);
  breakdown.data_io_seconds = delta.seconds(support::TraceCategory::kDataIo);
  breakdown.gram_seconds = delta.seconds(support::TraceCategory::kGram);
  breakdown.computation_seconds = std::max(
      0.0, phase_watch.seconds() - breakdown.communication_seconds -
               breakdown.distribution_seconds - breakdown.data_io_seconds -
               breakdown.gram_seconds);
  tracer.record(spec.computation_span, support::TraceCategory::kComputation,
                trace_rank, phase_start_seconds,
                breakdown.computation_seconds);

  export_metrics(trace_rank, spec, fits, cache_stats, out);
  return out;
}

}  // namespace uoi::core
