#pragma once

#include <cstdint>

#include "common/thread_pool.h"
#include "core/instance.h"
#include "core/result.h"
#include "unrelated/assignment_lp.h"

namespace setsched {

struct RoundingOptions {
  /// Number of sampling rounds = ceil(c * log2 n) (paper: c log n).
  double c = 3.0;
  std::uint64_t seed = 1;
  /// Independent repetitions of the whole rounding; the best schedule wins.
  /// The paper uses a single run; more runs only sharpen the whp bound.
  std::size_t trials = 1;
  /// Binary-search precision for the makespan guess T.
  double search_precision = 0.05;
  AssignmentLpOptions lp = {};
  /// Optional pool for running trials in parallel (nullptr = sequential).
  ThreadPool* pool = nullptr;
};

/// The inherited counters report the LP work, dual re-optimizations and
/// guard counters included: every solve of the T-search (direct path; the
/// guard counts stay 0 unless AssignmentLpOptions::audit_interval enables
/// the audits) or every RMP solve of every config-LP probe (colgen path).
struct RoundingResult : SolverCounters {
  Schedule schedule;
  double makespan = 0.0;
  /// LP-feasible makespan guess the rounding worked against.
  double lp_T = 0.0;
  /// Proven lower bound on OPT (largest T where the LP was infeasible,
  /// or the trivial floor). makespan / lp_lower_bound bounds the true ratio.
  double lp_lower_bound = 0.0;
  /// Jobs that stayed unassigned after all rounds and were placed by the
  /// argmin-p fallback (step 3 of the algorithm), summed over trials.
  std::size_t fallback_jobs = 0;
  std::size_t rounds = 0;
};

/// One pass of the Sec. 3.1 sampling given a fractional solution:
/// performs `rounds` rounds of (y, then x | y) Bernoulli sampling, keeps each
/// job's first sampled machine, and places leftovers on argmin_i p_ij.
/// Exposed separately for tests and ablations.
[[nodiscard]] Schedule round_fractional(const Instance& instance,
                                        const FractionalAssignment& fractional,
                                        std::size_t rounds, std::uint64_t seed,
                                        std::size_t* fallback_jobs = nullptr);

/// Full Theorem 3.3 algorithm: dual-approximation binary search for the
/// smallest LP-feasible T, then randomized rounding of the fractional
/// solution. Expected makespan O(T (log n + log m)).
[[nodiscard]] RoundingResult randomized_rounding(const Instance& instance,
                                                 const RoundingOptions& options = {});

/// Deterministic sibling of the Theorem 3.3 rounding: binary-searches the
/// smallest LP-feasible T, then assigns each job to the machine carrying its
/// largest fraction x_ij. No approximation guarantee (mass can concentrate),
/// but a useful derandomized baseline against the sampling rounding.
[[nodiscard]] ScheduleResult argmax_rounding(
    const Instance& instance, double search_precision = 0.05,
    const AssignmentLpOptions& options = {});

}  // namespace setsched
