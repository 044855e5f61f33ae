#pragma once

#include <cstddef>
#include <iterator>
#include <string_view>

/// The solver effort counters, declared once. Every carrier of effort
/// (SolverStats, the per-algorithm result structs, RunRecord) inherits
/// SolverCounters, and every sink (JSONL/CSV record I/O, the aggregate
/// table, BENCH_expt.json) loops over kSolverCounters, so a new counter is
/// one line here, one row in docs/BENCH_SCHEMA.md, and the code that
/// produces its value.
///
/// X(name, label, required, doc):
///   name      field name, JSONL/CSV key, and `<name>_mean` aggregate key
///   label     short console-table column
///   required  whether JSONL readers reject a line without the key; the
///             optional ones read back as 0 from lines written before the
///             counter existed
///   doc       what the counter counts
///
/// Entry order is the JSONL/CSV column order (a serialization contract).
#define SETSCHED_SOLVER_COUNTERS(X)                                          \
  X(lp_solves, "lp_solves", true,                                            \
    "simplex solves: T-search probes, RMP rounds, search-node bounds")       \
  X(lp_iterations, "lp_iters", true,                                         \
    "simplex iterations summed over those solves")                           \
  X(lp_dual_solves, "lp_dual", true,                                         \
    "solves the dual simplex re-optimized (warm bases a re-parameterization " \
    "left primal-infeasible, explicit kDual runs); the rest ran primal")     \
  X(fixed_vars, "fixed", true,                                               \
    "job-machine pairs excluded by reduced-cost fixing at search nodes, "    \
    "cumulative across the search")                                          \
  X(lp_audits_suspect, "suspect", false,                                     \
    "LP guard (lp/guard.h): post-solve residual audits that contested a "    \
    "solve (verdict suspect or failed)")                                     \
  X(lp_recoveries, "recov", false,                                           \
    "LP guard: contested solves recovered by the refactorize-warm / cold "   \
    "re-solve rungs")                                                        \
  X(lp_oracle_fallbacks, "oracle", false,                                    \
    "LP guard: contested solves escalated to the dense tableau oracle")      \
  X(cg_columns, "cg_cols", false,                                            \
    "branch-and-price (exact/config_bound.h): configuration columns priced " \
    "into the restricted master across the whole search")                    \
  X(cg_pricing_rounds, "cg_rounds", false,                                   \
    "branch-and-price: pricing rounds across all configuration-LP probes "   \
    "(one RMP solve plus one all-machines knapsack pass each)")              \
  X(cg_fallbacks, "cg_fb", false,                                            \
    "branch-and-price: config-LP probes demoted to the assignment bound "    \
    "(contested RMP solves, pricing stalls, kAuto's permanent demotion)")    \
  X(nodes, "nodes", true,                                                    \
    "search-tree nodes expanded (branch-and-bound DFS nodes, beam states)")  \
  X(lp_bounds_used, "lp_bounds", true,                                       \
    "assignment-LP relaxation probes spent on search-tree bounding")

namespace setsched {

/// Effort counters of one solve; zero for solvers without the machinery.
struct SolverCounters {
#define SETSCHED_DECLARE_COUNTER(name, label, required, doc) \
  std::size_t name = 0;
  SETSCHED_SOLVER_COUNTERS(SETSCHED_DECLARE_COUNTER)
#undef SETSCHED_DECLARE_COUNTER

  [[nodiscard]] bool operator==(const SolverCounters&) const = default;

  /// Field-wise sum, for solvers that chain phases into one result.
  SolverCounters& operator+=(const SolverCounters& other) {
#define SETSCHED_ADD_COUNTER(name, label, required, doc) name += other.name;
    SETSCHED_SOLVER_COUNTERS(SETSCHED_ADD_COUNTER)
#undef SETSCHED_ADD_COUNTER
    return *this;
  }
};

/// Run-time view of one table entry, for the sinks that loop over counters.
struct CounterInfo {
  std::string_view name;
  std::string_view label;
  bool required;
  std::size_t SolverCounters::*field;
};

inline constexpr CounterInfo kSolverCounters[] = {
#define SETSCHED_COUNTER_INFO(name, label, required, doc) \
  {#name, label, required, &SolverCounters::name},
    SETSCHED_SOLVER_COUNTERS(SETSCHED_COUNTER_INFO)
#undef SETSCHED_COUNTER_INFO
};

inline constexpr std::size_t kSolverCounterCount = std::size(kSolverCounters);

}  // namespace setsched
