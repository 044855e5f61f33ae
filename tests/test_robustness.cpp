// Pathological-instance robustness suite: extreme processing-time spreads,
// zero and identical setups, and machines with no eligible job must never
// produce an invalid schedule, a non-finite makespan, or a NaN that reaches
// the JSONL stream. Every registered solver is exercised on every instance
// it supports.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "common/check.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "expt/harness.h"
#include "expt/record_io.h"

namespace setsched {
namespace {

/// Twelve orders of magnitude between the fastest and slowest job, on both
/// the processing and the setup side.
Instance extreme_spread() {
  Instance inst(3, 2, {0, 0, 1, 1, 0, 1});
  for (MachineId i = 0; i < 3; ++i) {
    inst.set_proc(i, 0, 1e-6);
    inst.set_proc(i, 1, 1e9);
    inst.set_proc(i, 2, 1e-6);
    inst.set_proc(i, 3, 1e9);
    inst.set_proc(i, 4, 1.0);
    inst.set_proc(i, 5, 1e3);
    inst.set_setup(i, 0, 1e-6);
    inst.set_setup(i, 1, 1e9);
  }
  return inst;
}

/// Setups all zero: the setup terms vanish and class structure is inert.
Instance zero_setups() {
  Instance inst(3, 3, {0, 1, 2, 0, 1, 2});
  for (MachineId i = 0; i < 3; ++i) {
    for (JobId j = 0; j < 6; ++j) {
      inst.set_proc(i, j, static_cast<double>(1 + (i + j) % 4));
    }
    for (ClassId k = 0; k < 3; ++k) inst.set_setup(i, k, 0.0);
  }
  return inst;
}

/// Every setup identical: ties everywhere in the setup-aware orderings.
Instance identical_setups() {
  Instance inst(3, 3, {0, 1, 2, 0, 1, 2});
  for (MachineId i = 0; i < 3; ++i) {
    for (JobId j = 0; j < 6; ++j) {
      inst.set_proc(i, j, static_cast<double>(2 + (j * 3 + i) % 5));
    }
    for (ClassId k = 0; k < 3; ++k) inst.set_setup(i, k, 7.0);
  }
  return inst;
}

/// Machine 2 is eligible for nothing (every proc infinite); the instance is
/// still feasible because machines 0 and 1 cover every job.
Instance dead_machine() {
  Instance inst(3, 2, {0, 0, 1, 1});
  for (JobId j = 0; j < 4; ++j) {
    inst.set_proc(0, j, 2.0 + static_cast<double>(j));
    inst.set_proc(1, j, 3.0);
    inst.set_proc(2, j, kInfinity);
  }
  for (MachineId i = 0; i < 3; ++i) {
    inst.set_setup(i, 0, 1.0);
    inst.set_setup(i, 1, 2.0);
  }
  return inst;
}

std::vector<std::pair<std::string, Instance>> pathological_instances() {
  std::vector<std::pair<std::string, Instance>> out;
  out.emplace_back("extreme-spread", extreme_spread());
  out.emplace_back("zero-setups", zero_setups());
  out.emplace_back("identical-setups", identical_setups());
  out.emplace_back("dead-machine", dead_machine());
  return out;
}

TEST(Robustness, EverySolverSurvivesPathologicalInstances) {
  for (const auto& [label, inst] : pathological_instances()) {
    ASSERT_NO_THROW(inst.validate()) << label;
    const ProblemInput input = ProblemInput::from_unrelated(inst);
    SolverContext context;
    context.seed = 3;
    context.precision = 0.05;
    context.time_limit_s = 5.0;
    for (const std::string& name : SolverRegistry::global().names()) {
      const std::unique_ptr<Solver> solver =
          SolverRegistry::global().create(name);
      if (!solver->supports(input)) continue;
      const ScheduleResult result = solver->solve(input, context);
      EXPECT_FALSE(schedule_error(inst, result.schedule).has_value())
          << label << " / " << name;
      ASSERT_TRUE(std::isfinite(result.makespan)) << label << " / " << name;
      EXPECT_NEAR(makespan(inst, result.schedule), result.makespan,
                  1e-9 * std::max(1.0, result.makespan))
          << label << " / " << name;
      EXPECT_TRUE(std::isfinite(result.stats.gap) || result.stats.gap == -1.0)
          << label << " / " << name;

      // No NaN/inf may reach the JSONL stream: build the record a sweep
      // would and serialize it (record_io refuses non-finite doubles).
      expt::RunRecord record;
      record.solver = name;
      record.preset = label;
      record.makespan = result.makespan;
      record.lower_bound = 1.0;
      record.ratio = result.makespan;
      record.gap = result.stats.gap;
      record.proven_optimal = result.stats.proven_optimal;
      std::ostringstream os;
      EXPECT_NO_THROW(expt::write_jsonl(os, record)) << label << " / " << name;
      EXPECT_EQ(os.str().find("nan"), std::string::npos)
          << label << " / " << name;
      EXPECT_EQ(os.str().find("inf"), std::string::npos)
          << label << " / " << name;
    }
  }
}

/// Sums the LP guard counters of one solver's rows.
struct GuardTotals {
  std::size_t rows = 0;
  std::size_t suspect = 0;
  std::size_t recovered = 0;
};

GuardTotals guard_totals(const std::vector<expt::RunRecord>& records,
                         const std::string& solver) {
  GuardTotals out;
  for (const expt::RunRecord& r : records) {
    if (r.solver != solver || r.status != expt::RunStatus::kOk) continue;
    ++out.rows;
    out.suspect += r.lp_audits_suspect;
    out.recovered += r.lp_recoveries;
  }
  return out;
}

// Under LP fault injection the guard's work must reach the JSONL row of
// every LP-backed solver. The colgen RMP solves and the restricted
// T-searches used to drop each solve's guard counters, so their rows read 0
// while the rounding rows on the same cells read nonzero.
TEST(Robustness, InjectedFaultsReachEveryGuardCounter) {
  expt::ExperimentPlan plan;
  plan.presets = {"unrelated-small"};
  plan.solvers = {"rounding", "colgen"};
  plan.seed_begin = 1;
  plan.seed_end = 2;
  plan.threads = 2;
  plan.record_timing = false;
  plan.inject = "all@0.05";
  const std::vector<expt::RunRecord> records = expt::run_experiment(plan);
  for (const std::string solver : {"rounding", "colgen"}) {
    const GuardTotals totals = guard_totals(records, solver);
    EXPECT_EQ(totals.rows, 2u) << solver;
    EXPECT_GT(totals.suspect, 0u) << solver;
    EXPECT_GT(totals.recovered, 0u) << solver;
  }

  plan.presets = {"class-uniform"};
  plan.solvers = {"classuniform-3approx"};
  const GuardTotals restricted =
      guard_totals(expt::run_experiment(plan), "classuniform-3approx");
  EXPECT_EQ(restricted.rows, 2u);
  EXPECT_GT(restricted.suspect, 0u);
  EXPECT_GT(restricted.recovered, 0u);
}

}  // namespace
}  // namespace setsched
