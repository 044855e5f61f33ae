#pragma once

#include <cstdint>

#include "common/thread_pool.h"
#include "core/instance.h"
#include "unrelated/assignment_lp.h"
#include "unrelated/rounding.h"

namespace setsched {

/// Column-generation solver for the *configuration LP* of scheduling with
/// setup times: a configuration of machine i is a job set S with
///   Σ_{j∈S} p_ij + Σ_{k: S∩J_k≠∅} s_ik <= T.
/// The restricted master problem maximizes fractional job coverage subject
/// to one unit of configuration mass per machine; coverage n certifies
/// (fractional) feasibility of the guess T. Pricing is a knapsack with
/// class opening costs, solved exactly on a scaled grid of `grid` buckets:
/// item weights are rounded *up*, so every generated configuration genuinely
/// fits in T, at the price of conservatism (a feasible T may be reported
/// infeasible-at-grid when Σ of up-rounding slack matters). The recovered
/// (x, y) pair satisfies the assignment-LP constraints (1), (2), (4) and is
/// consumed unchanged by the Theorem 3.3 randomized rounding — this is the
/// scalable path when the direct LP's Θ(nm) coupling rows are too large.
struct ConfigLpOptions {
  std::size_t grid = 2048;
  std::size_t max_iterations = 80;
  double tol = 1e-6;
  /// Optional pool: pricing problems across machines run in parallel.
  ThreadPool* pool = nullptr;
  /// Simplex knobs for the restricted master. The RMP model is built once
  /// and grows by columns; each round's solve warm-starts from the previous
  /// round's basis (revised path only).
  lp::SimplexOptions simplex = {};
};

enum class ConfigLpStatus {
  kFeasible,          ///< coverage n reached; fractional solution returned
  kInfeasibleAtGrid,  ///< no improving column and coverage < n
  kIterationLimit,
};

/// The SolverCounters base carries the RMP effort: lp_solves (one per
/// round that reached the master), and iterations, dual solves and guard
/// counts summed over those solves.
struct ConfigLpResult : SolverCounters {
  ConfigLpStatus status = ConfigLpStatus::kIterationLimit;
  FractionalAssignment fractional;  ///< valid iff kFeasible
  double coverage = 0.0;            ///< final RMP objective (<= n)
  std::size_t columns = 0;
  std::size_t iterations = 0;       ///< column-generation rounds
};

[[nodiscard]] ConfigLpResult solve_config_lp(const Instance& instance, double T,
                                             const ConfigLpOptions& options = {});

/// One priced configuration column for a machine (the pricing subproblem's
/// optimum): the covered job set and its total dual value.
struct PricedConfig {
  double value = 0.0;  ///< Σ duals of covered jobs (mandatory jobs included)
  std::vector<JobId> jobs;
  /// Pin feasibility certificate (branch-and-price only; always true when no
  /// pins are passed): false means the jobs *pinned to this machine* alone
  /// overflow the grid at T. Because weights are rounded up at an inflated
  /// probe T (exact/config_bound.h picks T so any truly-T-feasible set
  /// rounds within the grid), overflow of the mandatory subset certifies
  /// that machine's true load exceeds T in EVERY completion of the partial
  /// schedule — a sound prune.
  bool pins_fit = true;
};

/// Exact knapsack-with-class-opening-costs pricing for one machine on the
/// scaled grid (weights rounded up, so any returned set truly fits in T).
/// This is the pricing subproblem of solve_config_lp(), exposed for the
/// branch-and-price bounder (exact/config_bound.h).
///
/// `pinned` (optional, size n, kUnassigned = free) restricts the priced
/// configuration to ones consistent with a partial schedule: jobs pinned to
/// machine `i` are MANDATORY (always included, their class openings and
/// weights pre-committed, their duals credited even when below `tol`), jobs
/// pinned elsewhere are EXCLUDED. Without pins a value below `tol` returns
/// an empty job set (no worthwhile configuration); with mandatory jobs the
/// pinned set is always returned so the RMP can cover pinned jobs.
[[nodiscard]] PricedConfig price_machine_config(
    const Instance& instance, MachineId i, double T,
    const std::vector<double>& dual, std::size_t grid, double tol,
    const std::vector<MachineId>* pinned = nullptr);

/// Theorem 3.3 rounding driven by the configuration LP instead of the direct
/// assignment LP: binary-searches the smallest grid-feasible T, then runs
/// the unchanged randomized rounding on the recovered fractional solution.
[[nodiscard]] RoundingResult randomized_rounding_config(
    const Instance& instance, const RoundingOptions& rounding = {},
    const ConfigLpOptions& config = {});

}  // namespace setsched
