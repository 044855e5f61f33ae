#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/counters.h"
#include "lp/model.h"

namespace setsched::lp {

struct FaultPlan;  // lp/fault.h — deterministic fault-injection plan

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

/// Verdict of the post-solve residual audit (lp/guard.h): kClean when every
/// check passed within tolerance, kSuspect on a tolerance-scale violation,
/// kFailed on a gross violation or a non-finite value. kSkipped when the
/// solve ran unguarded or its status leaves nothing auditable.
enum class AuditVerdict : std::uint8_t { kSkipped, kClean, kSuspect, kFailed };

[[nodiscard]] std::string_view audit_verdict_name(AuditVerdict verdict);

/// Status of one column (structural or logical) in a simplex basis.
enum class VarStatus : std::uint8_t { kAtLower, kAtUpper, kBasic };

/// Snapshot of a simplex basis: one status per structural column plus one per
/// row (the row's logical/slack column). Returned in Solution by the revised
/// solver and accepted back through SimplexOptions::warm_start, so closely
/// related solves (the assignment-LP T-search, column-generation rounds) can
/// skip phase 1 instead of re-deriving a basis from scratch. A basis stays
/// meaningful across re-parameterizations of the *same* model (rhs, bounds,
/// coefficient updates) and across appended columns (new columns default to
/// nonbasic-at-lower); it is not transferable between unrelated models.
struct Basis {
  std::vector<VarStatus> structurals;
  std::vector<VarStatus> logicals;  ///< one per constraint row

  [[nodiscard]] bool empty() const noexcept {
    return structurals.empty() && logicals.empty();
  }
};

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  /// Primal values for the model's variables (empty unless kOptimal).
  std::vector<double> x;
  /// Row duals y, in the convention  reduced_cost_j = c_j - y^T A_j  for the
  /// model's *original* objective sense. For a kMinimize model: y_r <= 0 for
  /// binding <= rows; for kMaximize: y_r >= 0 for binding <= rows.
  std::vector<double> duals;
  /// True for variables that ended basic (useful to inspect the extreme
  /// point structure; at most num_constraints variables are basic).
  std::vector<bool> basic;
  /// Final basis snapshot for warm starting subsequent solves. Populated by
  /// the revised solver on kOptimal and kInfeasible (an infeasible probe's
  /// basis is still a good seed for the next probe of a T-search); empty
  /// from the tableau solver.
  Basis basis;
  std::size_t iterations = 0;
  /// True when the dual simplex drove this solve to its terminal state
  /// (optimal or infeasible) — i.e. the solve was a dual re-optimization of
  /// a warm basis or an explicit kDual run. Deliberately false when the
  /// dual loop started but bailed into the primal phase 1 (numerics): the
  /// end basis is then a primal artifact, and consumers rely on via_dual
  /// both for the lp_dual_solves effort counters and to decide that the end
  /// basis of an *infeasible* probe is still a dual-feasible warm-start
  /// seed.
  bool via_dual = false;
  /// Post-solve residual-audit verdict; kSkipped when options.guard was off.
  /// A guarded solve that escalated reports the verdict of whatever rung of
  /// the recovery ladder produced the returned answer.
  AuditVerdict audit_verdict = AuditVerdict::kSkipped;
  /// Guard-ladder counters for this solve: non-clean audits observed,
  /// successful warm/cold re-solve recoveries, and escalations to the dense
  /// tableau oracle. All zero when unguarded.
  std::size_t audits_suspect = 0;
  std::size_t recoveries = 0;
  std::size_t oracle_fallbacks = 0;
  /// Faults the injection framework actually fired during this solve
  /// (lp/fault.h); diagnostics for tests, not serialized.
  std::size_t faults_injected = 0;

  [[nodiscard]] bool optimal() const noexcept {
    return status == SolveStatus::kOptimal;
  }
  /// True when the audit did not contest the solve: clean, or unaudited.
  /// Soundness-critical consumers (search pruning, reduced-cost fixing)
  /// additionally require audit_verdict == kClean before acting.
  [[nodiscard]] bool audit_contested() const noexcept {
    return audit_verdict == AuditVerdict::kSuspect ||
           audit_verdict == AuditVerdict::kFailed;
  }
};

/// Folds one solve's effort into `counters`: its simplex iterations, a dual
/// solve when the dual simplex produced it, and the guard ladder's audit,
/// recovery and oracle counts. Call it once per lp::solve whose effort a
/// solver reports, so no counter is dropped by a hand-written copy. The
/// caller keeps lp_solves: some count probes answered without a solve.
inline void add_solve_effort(const Solution& sol, SolverCounters* counters) {
  counters->lp_iterations += sol.iterations;
  if (sol.via_dual) ++counters->lp_dual_solves;
  counters->lp_audits_suspect += sol.audits_suspect;
  counters->lp_recoveries += sol.recoveries;
  counters->lp_oracle_fallbacks += sol.oracle_fallbacks;
}

/// Which simplex implementation solve() runs.
enum class SimplexAlgorithm : std::uint8_t {
  /// Revised solver, unless audit mode is requested (audit instruments the
  /// dense tableau, which then acts as the reference oracle). The revised
  /// solver itself picks dual re-optimization whenever a warm basis is
  /// primal-infeasible but dual-feasible (the state a warm basis is in
  /// right after an rhs/bound re-parameterization).
  kAuto,
  /// Dense bounded-variable two-phase tableau (reference implementation).
  kTableau,
  /// Sparse revised simplex with LU basis factorization and warm starts,
  /// primal-only: never runs the dual prologue, which makes it the exact
  /// PR 3 configuration (--lp=revised is what before/after sweeps use as
  /// the pre-dual baseline).
  kRevised,
  /// Revised solver, but prefer the dual simplex: run the dual loop whenever
  /// the starting basis is dual-feasible (even without primal
  /// infeasibility), falling back to the composite primal phase 1 when it is
  /// not. The min-makespan node relaxations of src/exact start dual-feasible
  /// from any basis (all costs >= 0), so kDual solves them without a single
  /// primal phase-1 pivot.
  kDual,
};

/// Pricing rule of the revised solver (primal pricing; the dual simplex
/// always uses Devex-weighted row selection, whose weights fall out of the
/// pivot column for free).
enum class SimplexPricing : std::uint8_t {
  /// Candidate-list partial pricing over raw reduced costs: cheap minor
  /// passes over a cached candidate list with periodic full scans. More
  /// iterations than Devex, much less work per iteration — measured fastest
  /// in wall clock on the scheduling LPs, hence the default.
  kCandidate,
  /// Devex reference-framework pricing (Forrest & Goldfarb): weights
  /// approximate the steepest-edge norms within the current reference
  /// framework and are updated from the pivot row each basis change. Costs
  /// a full pricing scan plus one extra BTRAN per pivot; cuts iteration
  /// counts (~30% on cold assignment-LP solves), which pays off when
  /// iterations are the scarce resource (hard/degenerate LPs), not on the
  /// warm re-optimization chains.
  kDevex,
};

struct SimplexOptions {
  /// Feasibility tolerance on variable values / rhs.
  double feas_tol = 1e-7;  // lint: allow-tolerance (primary definition)
  /// Optimality tolerance on reduced costs.
  double opt_tol = 1e-9;  // lint: allow-tolerance (primary definition)
  /// Minimum acceptable pivot magnitude.
  double pivot_tol = 1e-8;  // lint: allow-tolerance (primary definition)
  /// 0 = automatic (proportional to rows + cols).
  std::size_t max_iterations = 0;
  /// Paranoid mode: snapshot the initial system and verify the incremental
  /// solver state against it after every pivot (throws CheckError on drift).
  /// Costs one O(rows*cols) pass per pivot; intended for tests. Tableau only
  /// (kAuto routes audited solves to the tableau).
  bool audit = false;
  /// Implementation selector; see SimplexAlgorithm.
  SimplexAlgorithm algorithm = SimplexAlgorithm::kAuto;
  /// Primal pricing rule of the revised solver; see SimplexPricing. The
  /// tableau ignores it.
  SimplexPricing pricing = SimplexPricing::kCandidate;
  /// Starting basis for the revised solver (ignored by the tableau). The
  /// caller keeps ownership; pass the Basis returned by a previous solve of
  /// the same (possibly re-parameterized) model. Stale or structurally
  /// broken bases are repaired, never trusted blindly.
  const Basis* warm_start = nullptr;
  /// Revised solver: rebuild the LU factorization after this many eta
  /// updates (bounds the eta file and the accumulated roundoff).
  std::size_t refactor_interval = 64;
  /// Run the post-solve residual audit (lp/guard.h) and, on a non-clean
  /// verdict, the recovery escalation ladder: refactorize-and-warm-re-solve,
  /// then cold solve, then the dense tableau oracle. Off by default — the
  /// guarded path must cost nothing when disabled. Consumers that prune
  /// search trees on LP verdicts (src/exact) turn it on.
  bool guard = false;
  /// Deterministic fault-injection plan (lp/fault.h); nullptr = no faults.
  /// The caller keeps ownership for the duration of the solve. Recovery
  /// re-solves triggered by the guard run fault-free.
  const FaultPlan* fault_plan = nullptr;
  /// Dual simplex: update the duals incrementally across pivots
  /// (y += theta_d * rho) instead of recomputing them with one BTRAN per
  /// iteration. Cross-checked against an exact BTRAN at every periodic
  /// refactorization; detected drift restores the exact duals and disables
  /// the incremental path for the rest of the solve.
  bool incremental_duals = true;

  // Named derived tolerances — one contract shared by the solvers and the
  // guard instead of scattered magic constants.
  /// Slack for post-hoc primal checks (bound violations, audited row
  /// residuals): a 10x cushion over feas_tol, since audited quantities have
  /// accumulated a whole solve's roundoff. The tableau audit's row-equation
  /// check allows another 10x on top (rows sum many terms).
  [[nodiscard]] double audit_slack() const noexcept { return feas_tol * 10.0; }
  /// Pivot row/column agreement: the FTRAN and BTRAN views of the pivot
  /// element must agree to this relative tolerance or the dual simplex
  /// bails to the primal (a disagreement means the factorization is lying).
  [[nodiscard]] double pivot_agreement_tol() const noexcept {
    return pivot_tol * 100.0;
  }
  /// Dual-feasibility floor for the dual-simplex prologue: reduced costs may
  /// dip this far below optimality-sign and the basis still counts as
  /// dual-feasible (warm bases carry primal-scale noise, so the floor never
  /// drops below feas_tol).
  [[nodiscard]] double dual_feas_floor() const noexcept {
    const double scaled = opt_tol * 100.0;
    return scaled > feas_tol ? scaled : feas_tol;
  }
  /// Floor on the LU factorization's acceptable pivot magnitude: the
  /// eliminations tolerate pivots down to this even when pivot_tol is set
  /// tighter, because a structurally necessary small pivot is better than a
  /// spurious singularity (deficient columns are repaired with logicals).
  [[nodiscard]] double lu_pivot_floor() const noexcept {
    const double floor = 1e-11;  // lint: allow-tolerance (definition site)
    return pivot_tol > floor ? pivot_tol : floor;
  }
  /// Absolute tie window of the ratio tests (primal leaving row, dual
  /// entering column): candidates within this band of the best step length
  /// count as tied, and the tie-break (Bland's smallest index when stalling,
  /// largest pivot magnitude otherwise) picks among them. Deliberately far
  /// below feas_tol — it only has to separate genuinely equal steps from
  /// roundoff-distinct ones, and widening it degenerates the ratio test.
  [[nodiscard]] double ratio_tie_tol() const noexcept {
    return 1e-12;  // lint: allow-tolerance (named-tolerance definition site)
  }
};

/// Solves the LP. The default (kAuto) runs the sparse revised simplex; the
/// dense two-phase tableau remains available as the reference oracle (and is
/// what audit mode instruments). Both implementations use bounded-variable
/// pricing, switch to Bland's rule after a long stall to guarantee
/// termination, and return basic optimal solutions — extreme points of the
/// feasible region, a property Theorem 3.10's pseudoforest rounding relies
/// on.
[[nodiscard]] Solution solve(const Model& model, const SimplexOptions& options = {});

/// The dense two-phase tableau, directly (reference oracle).
[[nodiscard]] Solution solve_tableau(const Model& model,
                                     const SimplexOptions& options = {});

/// The sparse revised simplex, directly: column-wise sparse storage, LU
/// basis factorization with product-form eta updates and periodic
/// refactorization, FTRAN/BTRAN, selectable pricing (candidate-list partial
/// pricing or Devex), warm starting from SimplexOptions::warm_start, and a
/// bounded-variable dual simplex that re-optimizes warm bases which are
/// primal-infeasible but dual-feasible (forced for every dual-feasible
/// start by SimplexAlgorithm::kDual).
[[nodiscard]] Solution solve_revised(const Model& model,
                                     const SimplexOptions& options = {});

}  // namespace setsched::lp
