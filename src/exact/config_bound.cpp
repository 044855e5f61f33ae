#include "exact/config_bound.h"

#include <algorithm>
#include <cmath>

#include "exact/search_util.h"
#include "exact/tolerances.h"
#include "obs/phase.h"

namespace setsched::exact {

ConfigLpBounder::ConfigLpBounder(const Instance& instance, double T_build,
                                 const ConfigBoundOptions& options)
    : inst_(instance), opt_(options), rmp_(lp::Objective::kMaximize) {
  if (T_build <= 0.0) return;
  const std::size_t n = inst_.num_jobs();
  const std::size_t m = inst_.num_machines();

  // Same RMP shape as solve_config_lp: u_j coverage variables, job rows
  // u_j - Σ_{c ∋ j} z_c <= 0, machine convexity rows Σ_c z_{i,c} <= 1.
  job_row_.resize(n);
  machine_row_.resize(m);
  for (JobId j = 0; j < n; ++j) {
    const std::size_t u = rmp_.add_variable(0.0, 1.0, 1.0);
    job_row_[j] = rmp_.add_constraint({{u, 1.0}}, lp::Sense::kLessEqual, 0.0);
  }
  for (MachineId i = 0; i < m; ++i) {
    machine_row_[i] = rmp_.add_constraint({}, lp::Sense::kLessEqual, 1.0);
  }
  pinned_.assign(n, kUnassigned);
  pins_on_.assign(m, 0);
  machine_rep_ = machine_representatives(inst_);
  has_twin_.assign(m, 0);
  for (MachineId i = 0; i < m; ++i) {
    if (machine_rep_[i] != i) has_twin_[machine_rep_[i]] = 1;
  }
  rep_priced_.resize(m);
  dual_job_.assign(n, 0.0);
  dual_machine_.assign(m, 0.0);
  available_ = true;
}

bool ConfigLpBounder::conflicts(const PoolColumn& c, JobId j,
                                MachineId i) const {
  const bool contains =
      std::binary_search(c.jobs.begin(), c.jobs.end(), j);
  // A machine-i column must contain every job pinned to i; any other
  // machine's column must not contain it.
  return c.machine == i ? !contains : contains;
}

void ConfigLpBounder::sync_bounds(const PoolColumn& c) {
  const bool disabled = c.pin_blocks > 0 || c.load_blocked;
  rmp_.set_bounds(c.z, 0.0, disabled ? 0.0 : 1.0);
}

void ConfigLpBounder::pin(JobId j, MachineId i) {
  if (!available_) return;
  pinned_[j] = i;
  ++pins_on_[i];
  for (PoolColumn& c : pool_) {
    if (!conflicts(c, j, i)) continue;
    if (++c.pin_blocks == 1 && !c.load_blocked) sync_bounds(c);
  }
}

void ConfigLpBounder::unpin(JobId j) {
  if (!available_) return;
  const MachineId i = pinned_[j];
  pinned_[j] = kUnassigned;
  if (i == kUnassigned) return;
  --pins_on_[i];
  for (PoolColumn& c : pool_) {
    if (!conflicts(c, j, i)) continue;
    if (--c.pin_blocks == 0 && !c.load_blocked) sync_bounds(c);
  }
}

void ConfigLpBounder::retune(double T) {
  current_T_ = T;
  for (PoolColumn& c : pool_) {
    const bool blocked = !config_fits(c.load, T);
    if (blocked == c.load_blocked) continue;
    c.load_blocked = blocked;
    if (c.pin_blocks == 0) sync_bounds(c);
  }
}

void ConfigLpBounder::add_column(MachineId i, PricedConfig priced) {
  PoolColumn c;
  c.machine = i;
  c.jobs = std::move(priced.jobs);
  std::sort(c.jobs.begin(), c.jobs.end());
  c.load = priced.load;
  c.z = rmp_.add_variable(0.0, 1.0, 0.0);
  for (const JobId j : c.jobs) rmp_.add_to_row(job_row_[j], c.z, -1.0);
  rmp_.add_to_row(machine_row_[i], c.z, 1.0);
  // The pricer only emits pin-consistent columns whose load passes the same
  // config_fits test at the current probe T, so a fresh column starts
  // enabled.
  c.pin_blocks = 0;
  c.load_blocked = !config_fits(c.load, current_T_);
  if (c.load_blocked) sync_bounds(c);
  pool_.push_back(std::move(c));
}

bool ConfigLpBounder::past_deadline() const {
  return opt_.deadline && std::chrono::steady_clock::now() > *opt_.deadline;
}

SolverCounters ConfigLpBounder::counters() const {
  SolverCounters out = rmp_effort_;
  out.cg_columns = columns();
  out.cg_pricing_rounds = pricing_rounds_;
  out.cg_fallbacks = fallbacks_;
  return out;
}

ConfigLpBounder::Probe ConfigLpBounder::probe(double T, std::size_t max_rounds,
                                              bool root) {
  const std::size_t n = inst_.num_jobs();
  const std::size_t m = inst_.num_machines();
  const double coverage_target = static_cast<double>(n) - kConfigPricingTol;
  // The prune certificate needs headroom for pricing's per-machine dual
  // tolerance (see kCgCoverageSlackPerRow).
  const double prune_below = static_cast<double>(n) -
                             static_cast<double>(m + 1) *
                                 kCgCoverageSlackPerRow;
  last_probe_rounds_ = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    // The root bisection's wall-clock cap binds inside a probe too: one
    // root probe may run many rounds.
    if (root && past_deadline()) return Probe::kStall;
    ++last_probe_rounds_;
    ++pricing_rounds_;

    lp::SimplexOptions simplex = opt_.simplex;
    simplex.guard = true;  // every prune verdict must survive the audit
    if (!basis_.empty()) simplex.warm_start = &basis_;
    const lp::Solution sol = lp::solve(rmp_, simplex);
    ++rmp_effort_.lp_solves;
    lp::add_solve_effort(sol, &rmp_effort_);
    if (!sol.optimal() || sol.audit_contested()) return Probe::kContested;
    if (!sol.basis.empty()) basis_ = sol.basis;
    if (sol.objective >= coverage_target) return Probe::kFeasible;

    for (JobId j = 0; j < n; ++j) {
      dual_job_[j] = std::max(0.0, sol.duals[job_row_[j]]);
    }
    for (MachineId i = 0; i < m; ++i) {
      dual_machine_[i] = std::max(0.0, sol.duals[machine_row_[i]]);
    }

    bool added = false;
    {
      const obs::PhaseTimer phase(obs::Phase::kColgenPricing);
      for (MachineId i = 0; i < m; ++i) {
        // Each distinct machine row is priced once: a twin of an earlier
        // machine (same processing times and setups) prices the same
        // configuration as long as no job is pinned to either of them.
        const MachineId r = machine_rep_[i];
        const bool shared = r != i && pins_on_[i] == 0 && pins_on_[r] == 0;
        PricedConfig priced =
            shared ? rep_priced_[r]
                   : price_machine_config_exact(inst_, i, T, dual_job_,
                                                kConfigPricingTol, &pinned_);
        if (has_twin_[i]) rep_priced_[i] = priced;
        // The jobs pinned to machine i cannot run there within T in any
        // completion (ineligible, or their load alone does not fit).
        if (!priced.pins_fit) return Probe::kInfeasible;
        if (priced.jobs.empty()) continue;
        if (priced.value <= dual_machine_[i] + kConfigPricingTol) continue;
        add_column(i, std::move(priced));
        added = true;
      }
    }
    if (!added) {
      // Exhaustive pricing: the duals are feasible for the full
      // pin-consistent master, so its optimum is bounded by the RMP's.
      return sol.objective < prune_below ? Probe::kInfeasible
                                         : Probe::kFeasible;
    }
  }
  return Probe::kStall;
}

bool ConfigLpBounder::probe_verdict(double T, std::size_t max_rounds,
                                    bool root) {
  if (!available_ || T <= 0.0) return true;  // no bounder, no pruning
  ++probes_;
  if (T != current_T_) retune(T);
  switch (probe(T, max_rounds, root)) {
    case Probe::kFeasible:
      consecutive_stalls_ = 0;
      return true;
    case Probe::kInfeasible:
      consecutive_stalls_ = 0;
      return false;
    case Probe::kStall:
      ++consecutive_stalls_;
      ++fallbacks_;
      return true;
    case Probe::kContested:
      ++fallbacks_;
      return true;
  }
  return true;  // unreachable
}

bool ConfigLpBounder::feasible(double T) {
  return probe_verdict(T, opt_.rounds_per_node, /*root=*/false);
}

double ConfigLpBounder::root_lower_bound(double lo, double hi) {
  if (!available_ || hi <= 0.0 || lo >= hi) return lo;
  double certified = lo;
  double ceiling = hi;
  const std::size_t rounds = std::max(opt_.rounds_per_node, opt_.root_rounds);
  for (std::size_t used = 0; used < opt_.root_probes; ++used) {
    if (ceiling - certified <=
        kCgRootGapRelTol * std::max(1.0, certified)) {
      break;
    }
    if (past_deadline()) break;  // keep what is certified so far
    const double mid = 0.5 * (certified + ceiling);
    if (probe_verdict(mid, rounds, /*root=*/true)) {
      // Not certified infeasible — treat as the new search ceiling
      // (feasibility is monotone in T; a stalled probe's guess here only
      // wastes probes, never the bound's validity).
      ceiling = mid;
    } else {
      certified = mid;  // OPT > mid, certified
    }
  }
  // Root stalls must not count toward the caller's NODE-probe demotion
  // signal: a generous-round root probe that still stalled says nothing
  // about the cheap per-node probes.
  consecutive_stalls_ = 0;
  return certified;
}

bool ConfigLpBounder::check_invariants() const {
  if (!available_) return true;
  for (const PoolColumn& c : pool_) {
    int blocks = 0;
    for (JobId j = 0; j < inst_.num_jobs(); ++j) {
      if (pinned_[j] == kUnassigned) continue;
      if (conflicts(c, j, pinned_[j])) ++blocks;
    }
    if (blocks != c.pin_blocks) return false;
    const bool disabled = c.pin_blocks > 0 || c.load_blocked;
    if (rmp_.upper(c.z) != (disabled ? 0.0 : 1.0)) return false;
    if (c.z >= rmp_.num_variables()) return false;
  }
  // Columns are append-only, so a warm basis carried across backtracking may
  // never reference more structurals than the model holds.
  if (basis_.structurals.size() > rmp_.num_variables()) return false;
  if (basis_.logicals.size() > rmp_.num_constraints()) return false;
  return true;
}

}  // namespace setsched::exact
