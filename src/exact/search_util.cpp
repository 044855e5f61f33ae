#include "exact/search_util.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "core/schedule.h"
#include "core/types.h"
#include "exact/tolerances.h"

namespace setsched::exact {

SearchPlan build_search_plan(const Instance& instance) {
  const std::size_t n = instance.num_jobs();
  const std::size_t m = instance.num_machines();
  const std::size_t kc = instance.num_classes();

  SearchPlan plan;
  plan.min_proc.resize(n);
  for (JobId j = 0; j < n; ++j) {
    double mn = kInfinity;
    for (MachineId i = 0; i < m; ++i) {
      if (instance.eligible(i, j)) mn = std::min(mn, instance.proc(i, j));
    }
    plan.min_proc[j] = mn;
  }
  std::vector<double> class_weight(kc, 0.0);
  for (JobId j = 0; j < n; ++j) {
    class_weight[instance.job_class(j)] += plan.min_proc[j];
  }
  plan.order.resize(n);
  std::iota(plan.order.begin(), plan.order.end(), 0);
  std::stable_sort(plan.order.begin(), plan.order.end(),
                   [&](JobId a, JobId b) {
                     const ClassId ka = instance.job_class(a);
                     const ClassId kb = instance.job_class(b);
                     if (ka != kb) {
                       if (class_weight[ka] != class_weight[kb]) {
                         return class_weight[ka] > class_weight[kb];
                       }
                       return ka < kb;
                     }
                     return plan.min_proc[a] > plan.min_proc[b];
                   });
  plan.min_total =
      std::accumulate(plan.min_proc.begin(), plan.min_proc.end(), 0.0);

  plan.machine_rep = machine_representatives(instance);
  return plan;
}

std::vector<MachineId> machine_representatives(const Instance& instance) {
  const std::size_t n = instance.num_jobs();
  const std::size_t m = instance.num_machines();
  const std::size_t kc = instance.num_classes();
  std::vector<MachineId> rep(m);
  for (MachineId i = 0; i < m; ++i) {
    rep[i] = i;
    for (MachineId r = 0; r < i; ++r) {
      if (rep[r] != r) continue;
      bool same = true;
      for (JobId j = 0; j < n && same; ++j) {
        same = instance.proc(i, j) == instance.proc(r, j);
      }
      for (ClassId k = 0; k < kc && same; ++k) {
        same = instance.setup(i, k) == instance.setup(r, k);
      }
      if (same) {
        rep[i] = r;
        break;
      }
    }
  }
  return rep;
}

bool symmetric_duplicate(const SearchPlan& plan, MachineId i,
                         const std::vector<double>& loads,
                         const SetupMask& setups) {
  const MachineId rep = plan.machine_rep[i];
  if (rep == i) return false;
  for (MachineId r = rep; r < i; ++r) {
    if (plan.machine_rep[r] != rep) continue;
    if (loads[r] != loads[i]) continue;
    if (setups.same_row(r, i)) return true;
  }
  return false;
}

void adopt_initial_schedule(const Instance& instance, const Schedule& initial,
                            Schedule* best, double* incumbent) {
  const std::optional<std::string> error = schedule_error(instance, initial);
  check(!error.has_value(),
        "ExactOptions::initial_schedule is not a feasible schedule: " +
            (error ? *error : std::string()));
  const double value = makespan(instance, initial);
  if (value < *incumbent) {
    *best = initial;
    *incumbent = value;
  }
}

void certify(ExactResult* out, double lower_bound, bool search_complete) {
  const double tol = kCertRelTol * std::max(1.0, lower_bound);
  out->proven_optimal =
      search_complete || out->makespan <= lower_bound + tol;
  if (out->proven_optimal) {
    out->lower_bound = out->makespan;
    out->gap = 0.0;
  } else {
    out->lower_bound = lower_bound;
    out->gap = std::max(
        0.0, (out->makespan - lower_bound) /
                 std::max(lower_bound, kGapDenominatorFloor));
  }
}

}  // namespace setsched::exact
