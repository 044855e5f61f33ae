#pragma once

#include <vector>

#include "core/instance.h"
#include "exact/branch_bound.h"
#include "exact/dominance.h"

namespace setsched::exact {

/// Static per-instance search data shared by the prove and dive modes.
struct SearchPlan {
  /// Branching order: classes by descending total minimum work, jobs inside
  /// a class by descending minimum processing time (good incumbents early,
  /// setups shared early).
  std::vector<JobId> order;
  /// Cheapest eligible processing time per job.
  std::vector<double> min_proc;
  /// Sum of min_proc (seed of the average-load bound).
  double min_total = 0.0;
  /// Machine-equivalence representative: machines with identical processing
  /// columns and setup rows are interchangeable; rep[i] is the smallest
  /// equivalent machine. Sound under eligibility because equivalence implies
  /// identical eligibility.
  std::vector<MachineId> machine_rep;
};

[[nodiscard]] SearchPlan build_search_plan(const Instance& instance);

/// True iff machine `i` duplicates an earlier candidate under the current
/// search state: some equivalent machine r < i has the same load and the
/// same paid-setup row, so branching on r already covers i up to the swap
/// automorphism.
[[nodiscard]] bool symmetric_duplicate(const SearchPlan& plan, MachineId i,
                                       const std::vector<double>& loads,
                                       const SetupMask& setups);

/// Fills the certificate fields of `out` (proven_optimal, lower_bound, gap)
/// from the incumbent makespan, the best certified lower bound, and whether
/// the search ran to completion. An incumbent that meets the lower bound is
/// proven optimal even when the search was truncated; a complete search
/// raises the lower bound to the incumbent.
void certify(ExactResult* out, double lower_bound, bool search_complete);

/// Adopts ExactOptions::initial_schedule as the search's starting incumbent
/// when it beats the one in *best (shared by the prove and dive modes).
/// Throws CheckError when the schedule is incomplete or infeasible for the
/// instance — an invalid external incumbent must fail loudly, not silently
/// corrupt the ground truth.
void adopt_initial_schedule(const Instance& instance, const Schedule& initial,
                            Schedule* best, double* incumbent);

}  // namespace setsched::exact
