#pragma once

/// Named numerical tolerances of the exact search (src/exact). These are the
/// searchers' counterpart of SimplexOptions' named derived tolerances
/// (lp/simplex.h): every slack that decides pruning, dominance, or
/// certification lives here under a name stating what it protects, and
/// tools/lint_invariants.py rejects new raw `1eN` literals in src/exact so
/// the contract cannot silently re-scatter.
///
/// Values are deliberately asymmetric with the LP tolerances: search
/// comparisons operate on makespans evaluated by exact summation (not on
/// simplex output), so the slacks only have to absorb double-rounding of
/// sums, never a whole solve's accumulated error.
// lint: allow-tolerance-file (named-tolerance definition site)

#include <cstddef>

namespace setsched::exact {

/// Pointwise machine-load slack of the dominance predicate (DominanceQuery
/// in exact/dominance.h, shared by the beam and the per-depth memo): a kept
/// state's load may exceed the candidate's by this much and still count as
/// <=. Absolute, not relative — loads are sums of O(n) doubles, whose
/// representation error is far below this at every benchmarked scale.
inline constexpr double kDominanceLoadSlack = 1e-12;

/// Floating-point rounding margin of the dominance memo's load-sum index
/// (exact/dominance.h), relative and per machine. A stored state can only
/// dominate a query if its computed load sum is at most
/// (ŝ + m·kDominanceLoadSlack)·(1 + m·kDominanceSumRelMargin), where ŝ is
/// the query's computed sum. The memo scans only the stored states under
/// that bound. With u = 2^-53 (about 1.11e-16), the pointwise slack test
/// and the two left-to-right sums of m non-negative loads move the exact
/// bound by a factor of at most 1 + (2m-1)u + O(m²u²). Evaluating the bound
/// itself costs at most five more roundings, and rounding 1 + m·margin one
/// more. 1e-15 is about 9u, and (9m - 1)u >= (2m + 4)u for every m >= 1. A
/// larger margin only scans more states; it never changes a verdict.
inline constexpr double kDominanceSumRelMargin = 1e-15;

/// Incumbent pruning cutoff: branches whose bound reaches
/// incumbent - kIncumbentPruneSlack are dropped. Ties with the incumbent are
/// no improvement, so the cutoff sits a hair *below* the incumbent; the
/// slack only separates genuine ties from double-rounding.
inline constexpr double kIncumbentPruneSlack = 1e-12;

/// Inclusive external-bound slack: ExactOptions::initial_upper_bound is
/// INCLUSIVE (a schedule equal to the bound is acceptable — the PR 4
/// headline bugfix), so the cutoff derived from it is
/// bound * (1 + kExternalBoundRelSlack) + kExternalBoundAbsSlack: relative
/// term for large makespans, absolute term for bounds near zero.
inline constexpr double kExternalBoundRelSlack = 1e-9;
inline constexpr double kExternalBoundAbsSlack = 1e-9;

/// Relative certification tolerance: an incumbent within
/// kCertRelTol * max(1, lower_bound) of the lower bound is certified optimal
/// (and the lb-meets-incumbent early exit fires). Matches the harness's
/// makespan-agreement tolerance so a certified optimum always revalidates.
inline constexpr double kCertRelTol = 1e-9;

/// Floor on the denominator of the reported relative gap
/// (makespan - lb) / max(lb, kGapDenominatorFloor), keeping the gap finite
/// on degenerate instances whose lower bound is 0.
inline constexpr double kGapDenominatorFloor = 1e-9;

/// Configuration-LP bounder (exact/config_bound.h) pricing tolerance: the
/// dual-value margin a priced column must beat its machine's convexity dual
/// by to count as improving, and the per-job dual floor below which free
/// jobs are not priced. Matches ConfigLpOptions::tol so the bounder's RMP
/// behaves like the T-search colgen's.
inline constexpr double kCgPricingTol = 1e-6;

/// Coverage slack of the config-LP prune certificate: pricing tolerates a
/// dual-feasibility violation of up to kCgPricingTol per machine row, so
/// "no improving column" only certifies that the full pin-consistent master
/// stays below RMP coverage + (m+1)·kCgPricingTol. A prune therefore
/// requires coverage < n - (m+1)·kCgPricingTol; the matching feasible
/// verdict fires at coverage >= n - kCgPricingTol (the colgen convention),
/// and the ambiguous sliver in between is treated as feasible (no prune).
inline constexpr double kCgCoverageSlackPerRow = 1e-6;

/// Relative termination width of the config-LP root bisection: probing
/// stops once hi - lo <= kCgRootGapRelTol * max(1, lo). The bound is a
/// bisection over sound infeasibility certificates, so a loose width only
/// weakens the reported bound, never its validity.
inline constexpr double kCgRootGapRelTol = 1e-3;

/// Maximum grid-inflation slack (n + classes) / grid the config bounder
/// accepts; above this the conservative probe T_eff = T / (1 - slack) is so
/// inflated the bound is useless and the bounder reports unavailable.
inline constexpr double kCgMaxGridSlack = 0.5;

/// BoundMode::kAuto demotion trigger: this many CONSECUTIVE round-limit
/// stalls of the config-LP node probe and the search permanently falls back
/// to the assignment bound (counted in cg_fallbacks).
inline constexpr std::size_t kCgAutoStallLimit = 3;

}  // namespace setsched::exact
