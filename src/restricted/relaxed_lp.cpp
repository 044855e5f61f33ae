#include "restricted/relaxed_lp.h"

#include <algorithm>

#include "common/check.h"
#include "lp/simplex.h"

namespace setsched {

namespace {

/// p̄_ik and the per-(i,k) admissibility under guess T.
struct ClassData {
  Matrix<double> work;     // p̄_ik (inf when ineligible)
  Matrix<double> max_job;  // max_{j∈k} p_ij (inf when ineligible)
};

ClassData compute_class_data(const Instance& instance) {
  const std::size_t m = instance.num_machines();
  const std::size_t kc = instance.num_classes();
  ClassData out{Matrix<double>(m, kc, 0.0), Matrix<double>(m, kc, 0.0)};
  const auto by_class = instance.jobs_by_class();
  for (MachineId i = 0; i < m; ++i) {
    for (ClassId k = 0; k < kc; ++k) {
      if (instance.setup(i, k) >= kInfinity) {
        out.work(i, k) = kInfinity;
        out.max_job(i, k) = kInfinity;
        continue;
      }
      double total = 0.0;
      double biggest = 0.0;
      for (const JobId j : by_class[k]) {
        const double p = instance.proc(i, j);
        if (p >= kInfinity) {
          total = kInfinity;
          biggest = kInfinity;
          break;
        }
        total += p;
        biggest = std::max(biggest, p);
      }
      out.work(i, k) = total;
      out.max_job(i, k) = biggest;
    }
  }
  return out;
}

}  // namespace

std::optional<RelaxedLp> solve_relaxed_lp(const Instance& instance, double T,
                                          const lp::SimplexOptions& options,
                                          SolverCounters* effort) {
  const std::size_t m = instance.num_machines();
  const std::size_t kc = instance.num_classes();
  const auto by_class = instance.jobs_by_class();
  const ClassData data = compute_class_data(instance);

  lp::Model model(lp::Objective::kMinimize);
  Matrix<std::size_t> var(m, kc, SIZE_MAX);
  for (MachineId i = 0; i < m; ++i) {
    for (ClassId k = 0; k < kc; ++k) {
      if (by_class[k].empty()) continue;
      const double s = instance.setup(i, k);
      if (s >= kInfinity || data.work(i, k) >= kInfinity) continue;
      if (s + data.max_job(i, k) > T) continue;  // (14)/(16)
      var(i, k) = model.add_variable(0.0, 1.0, 0.0);
    }
  }

  // (12): classes fully distributed.
  for (ClassId k = 0; k < kc; ++k) {
    if (by_class[k].empty()) continue;
    std::vector<lp::Entry> row;
    for (MachineId i = 0; i < m; ++i) {
      if (var(i, k) != SIZE_MAX) row.push_back({var(i, k), 1.0});
    }
    if (row.empty()) return std::nullopt;  // class fits nowhere under T
    model.add_constraint(std::move(row), lp::Sense::kEqual, 1.0);
  }

  // (11): machine packing with setup inflation α_ik = max(1, p̄/(T - s)).
  for (MachineId i = 0; i < m; ++i) {
    std::vector<lp::Entry> row;
    for (ClassId k = 0; k < kc; ++k) {
      if (var(i, k) == SIZE_MAX) continue;
      const double s = instance.setup(i, k);
      const double work = data.work(i, k);
      double alpha = 1.0;
      if (work > 0.0) {
        // work > 0 implies max_job > 0, and the (16) filter then guarantees
        // s < T, so the α denominator is positive.
        check(T - s > 0.0, "admissible pair with T <= s");
        alpha = std::max(1.0, work / (T - s));
      }
      row.push_back({var(i, k), work + alpha * s});
    }
    if (!row.empty()) {
      model.add_constraint(std::move(row), lp::Sense::kLessEqual, T);
    }
  }

  const lp::Solution sol = lp::solve(model, options);
  if (effort != nullptr) lp::add_solve_effort(sol, effort);
  if (sol.status == lp::SolveStatus::kInfeasible) return std::nullopt;
  check(sol.optimal(), "LP-RelaxedRA solve failed");

  RelaxedLp out{Matrix<double>(m, kc, 0.0), data.work, T};
  for (MachineId i = 0; i < m; ++i) {
    for (ClassId k = 0; k < kc; ++k) {
      if (var(i, k) != SIZE_MAX) {
        out.xbar(i, k) = std::clamp(sol.x[var(i, k)], 0.0, 1.0);
      }
    }
  }
  return out;
}

double relaxed_lp_floor(const Instance& instance) {
  const std::size_t m = instance.num_machines();
  const auto by_class = instance.jobs_by_class();
  const ClassData data = compute_class_data(instance);

  double floor1 = 0.0;
  double sum_min = 0.0;
  for (ClassId k = 0; k < instance.num_classes(); ++k) {
    if (by_class[k].empty()) continue;
    double best_fit = kInfinity;    // min_i (s + max job)
    double best_total = kInfinity;  // min_i (s + p̄)
    for (MachineId i = 0; i < m; ++i) {
      const double s = instance.setup(i, k);
      if (s >= kInfinity || data.work(i, k) >= kInfinity) continue;
      best_fit = std::min(best_fit, s + data.max_job(i, k));
      best_total = std::min(best_total, s + data.work(i, k));
    }
    check(best_fit < kInfinity, "class has no eligible machine");
    floor1 = std::max(floor1, best_fit);
    sum_min += best_total;
  }
  return std::max(floor1, sum_min / static_cast<double>(m));
}

}  // namespace setsched
