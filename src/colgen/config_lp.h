#pragma once

#include <cstdint>

#include "common/thread_pool.h"
#include "core/instance.h"
#include "unrelated/assignment_lp.h"
#include "unrelated/rounding.h"

namespace setsched {

// Named tolerances of the configuration LP (definition site).

/// Default pricing tolerance: the dual-value margin a priced column must
/// beat its machine's convexity dual by, and the per-job dual floor below
/// which free jobs are not priced.
inline constexpr double kConfigPricingTol =
    1e-6;  // lint: allow-tolerance (named definition site)

/// Upward fit tolerance of a configuration, relative to T: a job set fits in
/// T iff its computed load is at most T·(1 + kConfigFitRelTol). Two
/// floating-point sums of the same at most n + classes non-negative terms
/// differ by a relative 2·(n + classes)·2^-53 at most, far below this at any
/// instance size that fits in memory, so a set whose load is <= T in one
/// summation order passes the test in every order. The tolerance only ever
/// ADMITS sets; see the soundness block in exact/config_bound.h.
inline constexpr double kConfigFitRelTol =
    1e-9;  // lint: allow-tolerance (named definition site)

/// The one capacity test of configuration columns: the exact pricer's
/// capacity, its pin check, and the branch-and-price load-blocking all use
/// it, so a freshly priced column is never load-blocked at birth.
[[nodiscard]] inline bool config_fits(double load, double T) {
  return load <= T * (1.0 + kConfigFitRelTol);
}

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
  double tol = kConfigPricingTol;
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
  /// Load of `jobs` on the machine (processing times plus the setups of the
  /// touched classes), as the exact pricer summed it; the dense pricer,
  /// whose caller needs no load, leaves it 0.
  double load = 0.0;
  /// Pin feasibility certificate (always true when no pins are passed):
  /// false means the jobs pinned to this machine cannot run there within T.
  /// Either a pinned job is ineligible, or their true load alone exceeds T
  /// (the exact pricer tests it with config_fits; the dense pricer tests
  /// their up-rounded grid weights, which is weaker). Every completion of
  /// the partial schedule then overloads the machine: a sound prune.
  bool pins_fit = true;
};

/// Dense knapsack-with-class-opening-costs pricing for one machine on the
/// scaled grid (weights rounded up, so any returned set truly fits in T).
/// This is the pricing subproblem of solve_config_lp(); branch-and-price
/// uses the exact pricer below, and the tests use this one as its oracle.
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

/// Exact pricing for one machine, with no grid: the best pin-consistent job
/// set whose load fits in T (config_fits), with the same pin, eligibility
/// and `tol` conventions as price_machine_config(). It runs a sparse
/// dynamic program over classes that keeps, per stage, the Pareto list of
/// (load, value) states with every dominated state dropped
/// (Nemhauser–Ullmann), and rebuilds the job set through parent links.
/// The list size is bounded by the number of distinct subset loads, so
/// integral data keep it pseudo-polynomial in T. This is the pricer of the
/// branch-and-price bounder (exact/config_bound.h).
[[nodiscard]] PricedConfig price_machine_config_exact(
    const Instance& instance, MachineId i, double T,
    const std::vector<double>& dual, double tol,
    const std::vector<MachineId>* pinned = nullptr);

/// Theorem 3.3 rounding driven by the configuration LP instead of the direct
/// assignment LP: binary-searches the smallest grid-feasible T, then runs
/// the unchanged randomized rounding on the recovered fractional solution.
[[nodiscard]] RoundingResult randomized_rounding_config(
    const Instance& instance, const RoundingOptions& rounding = {},
    const ConfigLpOptions& config = {});

}  // namespace setsched
