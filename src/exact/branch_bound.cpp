#include "exact/branch_bound.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/check.h"
#include "common/timer.h"
#include "core/bounds.h"
#include "core/schedule.h"
#include "exact/chain.h"
#include "exact/config_bound.h"
#include "exact/dive.h"
#include "exact/dominance.h"
#include "exact/lp_bound.h"
#include "exact/search_util.h"
#include "exact/tolerances.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace setsched {

namespace {

using exact::ConfigLpBounder;
using exact::DominanceTable;
using exact::LpBounder;
using exact::SearchPlan;
using exact::SetupMask;

/// One "node" instant per counted search node, tagged with why the node
/// terminated (or "expanded" when it branched). tools/analyze_trace.py
/// reconciles the instant count against SolverStats::nodes.
void emit_node(const char* reason, std::size_t depth) {
  obs::emit_instant("node", "exact", "reason", reason, "depth",
                    static_cast<double>(depth));
}

/// ExactMode::kProve: depth-first branch-and-bound (see branch_bound.h).
class ProveSolver {
 public:
  ProveSolver(const Instance& inst, const ExactOptions& opt)
      : inst_(inst), opt_(opt), m_(inst.num_machines()), kc_(inst.num_classes()) {}

  ExactResult run() {
    plan_ = exact::build_search_plan(inst_);

    // Incumbent from the trivial greedy schedule, improved by the caller's
    // initial_schedule when one is supplied (this is what lets a budget
    // abort return the dive's schedule instead of the greedy one). The
    // external bound is INCLUSIVE and never replaces the incumbent:
    // `incumbent_` is always the makespan of a schedule we actually hold,
    // while the bound only tightens the pruning cutoff (a schedule equal to
    // the bound survives).
    best_schedule_ = best_machine_schedule(inst_);
    incumbent_ = makespan(inst_, best_schedule_);
    if (opt_.initial_schedule.has_value()) {
      exact::adopt_initial_schedule(inst_, *opt_.initial_schedule,
                                    &best_schedule_, &incumbent_);
    }
    lower_bound_ = unrelated_lower_bound(inst_);
    update_cutoff();

    if (opt_.use_lp_bounds && prune_at_ > 0.0 && !incumbent_meets_lb()) {
      const obs::PhaseTimer phase(obs::Phase::kRootBound);
      const obs::TraceSpan span("root_bound", "exact");
      lp::SimplexOptions simplex;
      simplex.algorithm = opt_.lp_algorithm;
      simplex.pricing = opt_.lp_pricing;
      simplex.fault_plan = opt_.fault_plan;
      bounder_.emplace(inst_, prune_at_, simplex);
      if (bounder_->available()) {
        lower_bound_ = std::max(
            lower_bound_, bounder_->root_lower_bound(lower_bound_, prune_at_));
        // Root reduced-cost fixing: pairs the root relaxation proves
        // incompatible with beating the cutoff are excluded for the whole
        // search (never undone). The snapshot keeps the root solve's
        // sensitivity bounds alive so every later incumbent improvement can
        // re-run the fixing at its tighter cutoff (refix_root below)
        // without another LP solve — PR 5 fixed once at the initial cutoff
        // and never again, leaving the fixes far weaker than the search
        // state justified.
        if (opt_.reduced_cost_fixing && !incumbent_meets_lb()) {
          bounder_->fix_dominated(prune_at_, &fix_undo_);
          bounder_->save_root_snapshot();
        }
      }
    }

    // Branch-and-price: the configuration-LP bounder prices columns against
    // the same cutoff. Its root bisection runs AFTER the assignment LP's
    // exact root solve, so the combined certified bound dominates the
    // assignment bound by construction; kAuto drops the config bounder on
    // the spot when that bisection bought nothing.
    if (opt_.use_lp_bounds && opt_.bound != BoundMode::kAssignment &&
        prune_at_ > 0.0 && !incumbent_meets_lb()) {
      const obs::PhaseTimer phase(obs::Phase::kRootBound);
      const obs::TraceSpan span("cg_root_bound", "exact");
      exact::ConfigBoundOptions cg;
      cg.grid = opt_.cg_grid;
      cg.rounds_per_node = opt_.cg_rounds_per_node;
      cg.root_probes = opt_.cg_root_probes;
      cg.simplex.algorithm = opt_.lp_algorithm;
      cg.simplex.pricing = opt_.lp_pricing;
      cg.simplex.fault_plan = opt_.fault_plan;
      cg_bounder_.emplace(inst_, prune_at_, cg);
      if (cg_bounder_->available()) {
        const double base = lower_bound_;
        double cg_lb = cg_bounder_->root_lower_bound(base, prune_at_);
        if (opt_.cg_root_grid > opt_.cg_grid) {
          // Fine-grid root pass: a throwaway bounder whose smaller
          // conservative inflation certifies what the coarse grid cannot.
          // Wall clock capped at half the remaining budget so it can never
          // starve the prove phase; its effort folds into the cg counters.
          exact::ConfigBoundOptions fine = cg;
          fine.grid = opt_.cg_root_grid;
          const double left =
              opt_.time_limit_s - timer_.elapsed_seconds();
          if (left > 0.0) {
            auto fine_deadline =
                std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(0.5 * left));
            if (opt_.deadline && *opt_.deadline < fine_deadline) {
              fine_deadline = *opt_.deadline;
            }
            fine.deadline = fine_deadline;
            exact::ConfigLpBounder fine_bounder(inst_, prune_at_, fine);
            if (fine_bounder.available()) {
              cg_lb = std::max(
                  cg_lb,
                  fine_bounder.root_lower_bound(std::max(base, cg_lb),
                                                prune_at_));
              cg_extra_columns_ += fine_bounder.columns();
              cg_extra_rounds_ += fine_bounder.pricing_rounds();
              cg_extra_fallbacks_ += fine_bounder.fallbacks();
            }
          }
        }
        lower_bound_ = std::max(lower_bound_, cg_lb);
        cg_active_ = true;
        if (opt_.bound == BoundMode::kAuto &&
            cg_lb <= base + exact::kCgRootGapRelTol * std::max(1.0, base)) {
          // Root bound no better than the assignment LP's: demote for the
          // whole search instead of paying per-node pricing for nothing.
          cg_active_ = false;
          ++cg_extra_fallbacks_;
        }
      }
    }

    if (!incumbent_meets_lb()) {
      const obs::PhaseTimer phase(obs::Phase::kProve);
      const obs::TraceSpan span("prove", "exact");
      current_ = Schedule::empty(inst_.num_jobs());
      loads_.assign(m_, 0.0);
      setups_ = SetupMask(m_, kc_);
      if (opt_.memo_limit > 0) {
        memo_.emplace(inst_.num_jobs() + 1, m_, kc_, opt_.memo_limit);
      }
      dfs(0, 0.0, plan_.min_total);
    }

    ExactResult out;
    out.schedule = best_schedule_;
    out.makespan = makespan(inst_, best_schedule_);
    if (bounder_) static_cast<SolverCounters&>(out) = bounder_->counters();
    out.nodes = nodes_;
    if (cg_bounder_) {
      out.cg_columns = cg_bounder_->columns() + cg_extra_columns_;
      out.cg_pricing_rounds =
          cg_bounder_->pricing_rounds() + cg_extra_rounds_;
      out.cg_fallbacks = cg_bounder_->fallbacks() + cg_extra_fallbacks_;
    }
    exact::certify(&out, lower_bound_, !aborted_);
    return out;
  }

 private:
  void update_cutoff() {
    // Branches with load >= prune_at_ cannot lead to an acceptable schedule:
    // ties with the incumbent are no improvement, while a load *equal* to
    // the external bound is still acceptable (inclusive semantics), hence
    // the bound enters with a small upward slack instead of a downward one.
    prune_at_ = incumbent_ - exact::kIncumbentPruneSlack;
    if (opt_.initial_upper_bound > 0.0) {
      const double inclusive =
          opt_.initial_upper_bound * (1.0 + exact::kExternalBoundRelSlack) +
          exact::kExternalBoundAbsSlack;
      prune_at_ = std::min(prune_at_, inclusive);
    }
  }

  [[nodiscard]] bool incumbent_meets_lb() const {
    return incumbent_ <=
           lower_bound_ + exact::kCertRelTol * std::max(1.0, lower_bound_);
  }

  /// True when no further node may be expanded. Checked BEFORE a node is
  /// counted, so a tree fully explored at exactly max_nodes nodes finishes
  /// proven: the budget only aborts when an (max_nodes+1)-th expansion is
  /// actually attempted.
  [[nodiscard]] bool hit_budget() {
    if (nodes_ >= opt_.max_nodes) return true;
    if ((nodes_ & 0x3F) == 0) {
      if (timer_.elapsed_seconds() > opt_.time_limit_s) return true;
      // Harness watchdog: the absolute deadline bounds the whole call, so a
      // cell cannot run away past its wall-clock slot.
      if (opt_.deadline &&
          std::chrono::steady_clock::now() > *opt_.deadline) {
        return true;
      }
    }
    return false;
  }

  void dfs(std::size_t depth, double current_max, double remaining_min) {
    if (aborted_ || optimal_reached_) return;
    if (hit_budget()) {
      aborted_ = true;
      return;
    }
    ++nodes_;
    if (depth == plan_.order.size()) {
      emit_node("leaf", depth);
      if (current_max < incumbent_) {
        incumbent_ = current_max;
        best_schedule_ = current_;
        update_cutoff();
        obs::emit_instant("incumbent", "exact", nullptr, nullptr, "makespan",
                          current_max);
        if (incumbent_meets_lb()) {
          optimal_reached_ = true;
        } else if (bounder_ && opt_.reduced_cost_fixing) {
          // Incremental root fixing: the root snapshot's sensitivity bounds
          // are re-applied at the tightened cutoff. Permanent (no undo
          // entry), so the fixes survive every subtree-scope unwind.
          const obs::PhaseTimer refix_timer(obs::Phase::kRefix);
          const std::size_t fixed = bounder_->refix_root(prune_at_);
          obs::emit_instant("refix", "exact", nullptr, nullptr, "fixed",
                            static_cast<double>(fixed));
        }
      }
      return;
    }

    // Average-load bound: total future load is at least current total plus
    // each remaining job's cheapest processing time.
    const double total_now =
        std::accumulate(loads_.begin(), loads_.end(), 0.0);
    if ((total_now + remaining_min) / static_cast<double>(m_) >= prune_at_) {
      emit_node("bound", depth);
      return;
    }

    // Dominance memo (cheap compare) before the LP probe (simplex solve).
    if (memo_ && depth >= 2) {
      bool dominated = false;
      {
        const obs::PhaseTimer dom_timer(obs::Phase::kDominance);
        dominated = memo_->dominated_or_record(depth, loads_, setups_);
      }
      if (dominated) {
        emit_node("dominance", depth);
        return;
      }
    }

    // LP relaxation with the path pinned: a fractional bound at or above the
    // cutoff means no completion of this partial schedule can be accepted.
    // A surviving node's duals feed reduced-cost fixing: pairs whose reduced
    // cost exceeds the incumbent gap are excluded for this whole subtree
    // (undone on exit; the cutoff only tightens, so fixes stay valid).
    const std::size_t fix_base = fix_undo_.size();
    const bool lp_probed =
        bounder_ && depth > 0 && depth <= opt_.lp_bound_depth;
    if (lp_probed && !bounder_->feasible(prune_at_)) {
      emit_node("lp_infeasible", depth);
      return;
    }

    // Branch-and-price probe, AFTER the assignment probe (it only has to
    // catch what the weaker relaxation missed): prices pin-consistent
    // configuration columns until the RMP certifies the pinned partial
    // schedule cannot finish within the cutoff. A demoted probe (stall /
    // contested RMP) answers "no bound" inside feasible().
    if (cg_active_ && depth > 0 && depth <= opt_.cg_bound_depth) {
      if (!cg_bounder_->feasible(prune_at_)) {
        emit_node("cg_infeasible", depth);
        return;
      }
      if (opt_.bound == BoundMode::kAuto &&
          cg_bounder_->consecutive_stalls() >= exact::kCgAutoStallLimit) {
        // Pricing keeps hitting the round limit without a verdict: stop
        // paying for config probes for the rest of the search.
        cg_active_ = false;
        ++cg_extra_fallbacks_;
      }
    }

    // Node reduced-cost fixing only after EVERY probe agreed the node
    // survives: fixes appended here are scoped to this node's pins, and an
    // early prune-return above would leak them into the node's siblings
    // (the unfix below never runs), excluding pairs that are perfectly
    // viable there. The fixing reuses the duals of the assignment probe's
    // solve, which the config probe does not disturb.
    if (lp_probed && opt_.reduced_cost_fixing) {
      bounder_->fix_dominated(prune_at_, &fix_undo_);
    }

    emit_node("expanded", depth);
    const JobId j = plan_.order[depth];
    const ClassId k = inst_.job_class(j);

    // Candidate machines sorted by resulting load (best-first search).
    struct Option {
      MachineId machine;
      double new_load;
    };
    std::vector<Option> options;
    options.reserve(m_);
    for (MachineId i = 0; i < m_; ++i) {
      if (!inst_.eligible(i, j)) continue;
      if (bounder_ && bounder_->pair_fixed(j, i)) continue;
      if (exact::symmetric_duplicate(plan_, i, loads_, setups_)) {
        continue;
      }
      const bool has_setup = setups_.test(i, k);
      const double add_setup = has_setup ? 0.0 : inst_.setup(i, k);
      const double new_load = loads_[i] + inst_.proc(i, j) + add_setup;
      if (new_load >= prune_at_) continue;  // this branch cannot be accepted
      options.push_back({i, new_load});
    }
    std::sort(options.begin(), options.end(),
              [](const Option& a, const Option& b) {
                return a.new_load < b.new_load;
              });

    const double next_remaining = remaining_min - plan_.min_proc[j];
    const bool pin = bounder_ && depth < opt_.lp_bound_depth;
    const bool cg_pin = cg_active_ && depth < opt_.cg_bound_depth;
    for (const Option& o : options) {
      // The cutoff may have tightened — and refix_root may have excluded
      // this pair — while earlier siblings ran.
      if (o.new_load >= prune_at_) continue;
      if (bounder_ && bounder_->pair_fixed(j, o.machine)) continue;
      const MachineId i = o.machine;
      const double old_load = loads_[i];
      loads_[i] = o.new_load;
      const bool had_setup = setups_.test(i, k);
      setups_.set(i, k);
      current_.assignment[j] = i;
      if (pin) bounder_->pin(j, i);
      if (cg_pin) cg_bounder_->pin(j, i);

      dfs(depth + 1, std::max(current_max, o.new_load), next_remaining);

      if (cg_pin) cg_bounder_->unpin(j);
      if (pin) bounder_->unpin(j);
      current_.assignment[j] = kUnassigned;
      if (!had_setup) setups_.reset(i, k);
      loads_[i] = old_load;
      if (aborted_ || optimal_reached_) return;  // search over; no unfix
    }
    if (bounder_ && fix_undo_.size() > fix_base) {
      bounder_->unfix(&fix_undo_, fix_base);
    }
  }

  const Instance& inst_;
  ExactOptions opt_;
  std::size_t m_;
  std::size_t kc_;

  SearchPlan plan_;
  std::optional<LpBounder> bounder_;
  std::optional<ConfigLpBounder> cg_bounder_;
  /// Config probes run only while true; kAuto clears it (permanent demotion)
  /// when the bounder stops earning its keep. The bounder object outlives
  /// the flag so unwinding unpins — and the final counters — stay valid.
  bool cg_active_ = false;
  std::size_t cg_extra_fallbacks_ = 0;
  /// Effort of the throwaway fine-grid root bounder (folded into the
  /// reported cg counters; the bounder itself does not outlive the root).
  std::size_t cg_extra_columns_ = 0;
  std::size_t cg_extra_rounds_ = 0;
  std::optional<DominanceTable> memo_;
  /// Reduced-cost fix trail: each node unfixes back to the size it saw on
  /// entry (root fixes at the front are permanent).
  std::vector<std::pair<JobId, MachineId>> fix_undo_;

  Schedule current_ = Schedule::empty(0);
  std::vector<double> loads_;
  /// Paid-setup mask of the current path, flipped bit by bit as setups are
  /// paid and undone; the memo reads it as is.
  SetupMask setups_;

  Schedule best_schedule_ = Schedule::empty(0);
  double incumbent_ = kInfinity;
  double lower_bound_ = 0.0;
  double prune_at_ = kInfinity;

  std::size_t nodes_ = 0;
  bool aborted_ = false;
  bool optimal_reached_ = false;
  Timer timer_;
};

}  // namespace

ExactResult solve_exact(const Instance& instance, const ExactOptions& options) {
  instance.validate();
  if (options.mode == ExactMode::kDive) {
    return exact::dive_search(instance, options);
  }
  if (options.mode == ExactMode::kDiveThenProve) {
    return exact::dive_then_prove(instance, options);
  }
  ProveSolver solver(instance, options);
  return solver.run();
}

ExactResult solve_exact(const UniformInstance& instance,
                        const ExactOptions& options) {
  ExactResult result = solve_exact(instance.to_unrelated(), options);
  // The uniform aggregate bound can beat the unrelated per-job bound; use it
  // to tighten the certificate of a truncated search.
  if (!result.proven_optimal) {
    const double uniform_lb = uniform_lower_bound(instance);
    if (uniform_lb > result.lower_bound) {
      exact::certify(&result, uniform_lb, false);
    }
  }
  return result;
}

}  // namespace setsched
