#include "restricted/approx.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "core/bounds.h"
#include "restricted/pseudoforest.h"

namespace setsched {

namespace {

constexpr double kShareEps = 1e-7;

struct LpWindow {
  RelaxedLp lp;
  double lower_bound = 0.0;
  SolverCounters effort;  ///< lp_solves counts every probe of the search
};

/// Geometric binary search for (nearly) the smallest LP-RelaxedRA-feasible T.
/// Any feasible integral schedule is LP-feasible at its makespan (Lemma 3.7,
/// which for both special cases also covers the (16) exclusions), so the
/// trivial best-machine schedule provides the initial feasible T.
LpWindow search_relaxed_lp(const Instance& instance, double precision,
                           const lp::SimplexOptions& simplex) {
  check(precision > 0.0, "precision must be positive");
  double lo = relaxed_lp_floor(instance);
  double hi = std::max(lo, unrelated_upper_bound(instance));

  LpWindow out;
  ++out.effort.lp_solves;
  if (auto at_lo = solve_relaxed_lp(instance, lo, simplex, &out.effort)) {
    out.lp = std::move(*at_lo);
    out.lower_bound = lo;
    return out;
  }
  ++out.effort.lp_solves;
  auto best = solve_relaxed_lp(instance, hi, simplex, &out.effort);
  check(best.has_value(), "LP-RelaxedRA infeasible at a feasible makespan");
  while (hi / lo > 1.0 + precision) {
    const double mid = std::sqrt(lo * hi);
    ++out.effort.lp_solves;
    if (auto sol = solve_relaxed_lp(instance, mid, simplex, &out.effort)) {
      hi = mid;
      best = std::move(sol);
    } else {
      lo = mid;
    }
  }
  out.lp = std::move(*best);
  out.lower_bound = lo;
  return out;
}

/// Greedily fills each class's jobs into the reserved slots xbar * p̄:
/// machines in M(k) are processed with `last_machine[k]` (if any, else the
/// last positive machine) deferred to the end; a machine admits jobs while
/// its used time is below its reserved slot (over-packing by at most one
/// job), and the final machine takes everything left.
Schedule fill_slots(const Instance& instance, const Matrix<double>& work,
                    const Matrix<double>& xbar,
                    const std::vector<std::optional<MachineId>>& last_machine) {
  const std::size_t m = instance.num_machines();
  const auto by_class = instance.jobs_by_class();
  Schedule schedule = Schedule::empty(instance.num_jobs());

  for (ClassId k = 0; k < instance.num_classes(); ++k) {
    const auto& jobs = by_class[k];
    if (jobs.empty()) continue;

    std::vector<MachineId> holders;
    for (MachineId i = 0; i < m; ++i) {
      if (xbar(i, k) > kShareEps) holders.push_back(i);
    }
    check(!holders.empty(), "class has no workload share");

    // Move the designated last machine to the back.
    if (last_machine[k].has_value()) {
      const auto it = std::find(holders.begin(), holders.end(), *last_machine[k]);
      check(it != holders.end(), "designated last machine has no share");
      holders.erase(it);
      holders.push_back(*last_machine[k]);
    }

    std::size_t pos = 0;
    for (std::size_t t = 0; t + 1 < holders.size() && pos < jobs.size(); ++t) {
      const MachineId i = holders[t];
      const double slot = xbar(i, k) * work(i, k);
      double used = 0.0;
      while (pos < jobs.size() && used < slot - 1e-12) {
        const JobId j = jobs[pos++];
        schedule.assignment[j] = i;
        used += instance.proc(i, j);
      }
    }
    const MachineId last = holders.back();
    while (pos < jobs.size()) {
      schedule.assignment[jobs[pos++]] = last;
    }
  }
  return schedule;
}

}  // namespace

ConstantApproxResult two_approx_restricted(const Instance& instance,
                                           double precision,
                                           const lp::SimplexOptions& simplex) {
  instance.validate();
  check(is_restricted_class_uniform(instance),
        "two_approx_restricted requires class-uniform restrictions");

  LpWindow window = search_relaxed_lp(instance, precision, simplex);
  Matrix<double>& xbar = window.lp.xbar;

  const EdgeSelection sel = select_pseudoforest_edges(xbar, kShareEps);

  // i+_k per fractional class; move the lost edge's workload onto it.
  std::vector<std::optional<MachineId>> last(instance.num_classes());
  for (ClassId k = 0; k < instance.num_classes(); ++k) {
    if (sel.plus_machines[k].empty()) continue;  // integral class
    const MachineId i_plus = sel.plus_machines[k].front();
    last[k] = i_plus;
    if (sel.minus_machine[k].has_value()) {
      const MachineId i_minus = *sel.minus_machine[k];
      xbar(i_plus, k) += xbar(i_minus, k);
      xbar(i_minus, k) = 0.0;
    }
  }

  Schedule schedule = fill_slots(instance, window.lp.class_work, xbar, last);
  check(!schedule_error(instance, schedule).has_value(),
        "2-approx produced an invalid schedule");

  ConstantApproxResult out;
  out.makespan = makespan(instance, schedule);
  out.schedule = std::move(schedule);
  out.lp_T = window.lp.T;
  out.lp_lower_bound = window.lower_bound;
  static_cast<SolverCounters&>(out) = window.effort;
  check(out.makespan <= 2.0 * out.lp_T + 1e-6,
        "2-approx exceeded its proven bound");
  return out;
}

ConstantApproxResult three_approx_class_uniform(const Instance& instance,
                                                double precision,
                                                const lp::SimplexOptions& simplex) {
  instance.validate();
  check(is_class_uniform_processing(instance),
        "three_approx_class_uniform requires class-uniform processing times");

  LpWindow window = search_relaxed_lp(instance, precision, simplex);
  Matrix<double>& xbar = window.lp.xbar;

  const EdgeSelection sel = select_pseudoforest_edges(xbar, kShareEps);

  std::vector<std::optional<MachineId>> last(instance.num_classes());
  for (ClassId k = 0; k < instance.num_classes(); ++k) {
    if (sel.plus_machines[k].empty()) continue;  // integral class
    last[k] = sel.plus_machines[k].front();
    if (!sel.minus_machine[k].has_value()) continue;
    const MachineId i_minus = *sel.minus_machine[k];
    if (xbar(i_minus, k) > 0.5) {
      // Process the entire class on i^-.
      for (MachineId i = 0; i < instance.num_machines(); ++i) {
        xbar(i, k) = 0.0;
      }
      xbar(i_minus, k) = 1.0;
      last[k] = i_minus;
    } else {
      // Drop the lost share and double the kept ones.
      xbar(i_minus, k) = 0.0;
      for (const MachineId i : sel.plus_machines[k]) {
        xbar(i, k) = std::min(1.0, 2.0 * xbar(i, k));
      }
    }
  }

  Schedule schedule = fill_slots(instance, window.lp.class_work, xbar, last);
  check(!schedule_error(instance, schedule).has_value(),
        "3-approx produced an invalid schedule");

  ConstantApproxResult out;
  out.makespan = makespan(instance, schedule);
  out.schedule = std::move(schedule);
  out.lp_T = window.lp.T;
  out.lp_lower_bound = window.lower_bound;
  static_cast<SolverCounters&>(out) = window.effort;
  check(out.makespan <= 3.0 * out.lp_T + 1e-6,
        "3-approx exceeded its proven bound");
  return out;
}

}  // namespace setsched
