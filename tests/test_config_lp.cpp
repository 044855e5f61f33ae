#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "colgen/config_lp.h"
#include "common/prng.h"
#include "core/bounds.h"
#include "core/generators.h"
#include "exact/branch_bound.h"

namespace setsched {
namespace {

TEST(ConfigLp, FeasibleAtGenerousT) {
  UnrelatedGenParams p;
  p.num_jobs = 12;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, 1);
  const double T = unrelated_upper_bound(inst) * 1.5;
  const ConfigLpResult r = solve_config_lp(inst, T);
  EXPECT_EQ(r.status, ConfigLpStatus::kFeasible);
  EXPECT_GT(r.columns, 0u);
}

TEST(ConfigLp, InfeasibleWellBelowFloor) {
  UnrelatedGenParams p;
  p.num_jobs = 12;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, 2);
  const double T = assignment_lp_floor(inst) * 0.4;
  const ConfigLpResult r = solve_config_lp(inst, T);
  EXPECT_EQ(r.status, ConfigLpStatus::kInfeasibleAtGrid);
  EXPECT_LT(r.coverage, static_cast<double>(inst.num_jobs()));
}

void expect_valid_fractional(const Instance& inst,
                             const FractionalAssignment& f, double T) {
  const double tol = 1e-5;
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    double total = 0.0;
    for (MachineId i = 0; i < inst.num_machines(); ++i) {
      const double x = f.x(i, j);
      if (x > tol) {
        EXPECT_TRUE(inst.eligible(i, j));
        EXPECT_LE(x, f.y(i, inst.job_class(j)) + tol);  // (4)
      }
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-4) << "job " << j;        // (2)
  }
  for (MachineId i = 0; i < inst.num_machines(); ++i) {   // (1)
    double load = 0.0;
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      if (f.x(i, j) > 0.0) load += f.x(i, j) * inst.proc(i, j);
    }
    for (ClassId k = 0; k < inst.num_classes(); ++k) {
      if (f.y(i, k) > 0.0 && inst.setup(i, k) < kInfinity) {
        load += f.y(i, k) * inst.setup(i, k);
      }
    }
    EXPECT_LE(load, T * (1 + 1e-3)) << "machine " << i;
  }
}

class ConfigLpRecoveryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigLpRecoveryTest, RecoveredSolutionSatisfiesAssignmentLp) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 4;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, GetParam());
  const double T = unrelated_upper_bound(inst);
  const ConfigLpResult r = solve_config_lp(inst, T);
  ASSERT_EQ(r.status, ConfigLpStatus::kFeasible) << "seed " << GetParam();
  expect_valid_fractional(inst, r.fractional, T);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigLpRecoveryTest,
                         ::testing::Range<std::uint64_t>(0, 10));

class ConfigLpVsDirectTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigLpVsDirectTest, GridFeasibleImpliesDirectLpFeasible) {
  // The configuration LP is at least as strong as ILP-UM's relaxation; a
  // grid-feasible verdict must therefore be accepted by the direct LP.
  UnrelatedGenParams p;
  p.num_jobs = 10;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, GetParam() + 20);
  for (const double f : {1.0, 1.4}) {
    const double T = assignment_lp_floor(inst) * f * 1.6;
    const ConfigLpResult cfg = solve_config_lp(inst, T);
    if (cfg.status == ConfigLpStatus::kFeasible) {
      EXPECT_TRUE(solve_assignment_lp(inst, T * (1 + 1e-6)).has_value())
          << "seed " << GetParam() << " T " << T;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigLpVsDirectTest,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(ConfigLp, ParallelPricingMatchesSequential) {
  UnrelatedGenParams p;
  p.num_jobs = 16;
  p.num_machines = 4;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, 30);
  const double T = unrelated_upper_bound(inst);
  ThreadPool pool(3);
  ConfigLpOptions seq;
  ConfigLpOptions par;
  par.pool = &pool;
  const ConfigLpResult a = solve_config_lp(inst, T, seq);
  const ConfigLpResult b = solve_config_lp(inst, T, par);
  EXPECT_EQ(a.status, b.status);
  EXPECT_NEAR(a.coverage, b.coverage, 1e-6);
}

TEST(ConfigRounding, ProducesValidSchedule) {
  UnrelatedGenParams p;
  p.num_jobs = 18;
  p.num_machines = 4;
  p.num_classes = 5;
  const Instance inst = generate_unrelated(p, 40);
  RoundingOptions ropt;
  ropt.seed = 3;
  ropt.trials = 2;
  ropt.search_precision = 0.1;
  const RoundingResult r = randomized_rounding_config(inst, ropt);
  EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
  EXPECT_GT(r.lp_T, 0.0);
  EXPECT_GE(r.makespan + 1e-9, r.lp_lower_bound);
}

TEST(ConfigRounding, ComparableToDirectLpRounding) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 3;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, 50);
  RoundingOptions ropt;
  ropt.seed = 9;
  ropt.trials = 3;
  ropt.search_precision = 0.08;
  const RoundingResult direct = randomized_rounding(inst, ropt);
  const RoundingResult config = randomized_rounding_config(inst, ropt);
  // Both target the same fractional polytope (config at a conservative
  // grid); results should be within a small factor of each other.
  EXPECT_LE(config.makespan, 2.0 * direct.makespan + 1e-9);
  EXPECT_LE(direct.makespan, 2.0 * config.makespan + 1e-9);
}

// Regression: randomized_rounding_config used to set lp_solves to the
// number of *outer* solve_config_lp calls (one per T-search probe), dropping
// the inner per-round RMP counters on the floor. With the bisection disabled
// (huge search_precision) the T-search makes exactly one outer call at hi,
// so the reported effort must equal that call's inner counters — the old
// code reported exactly 1.
TEST(ConfigRounding, LpEffortCountersAccumulateInnerRounds) {
  UnrelatedGenParams p;
  p.num_jobs = 16;
  p.num_machines = 4;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, 60);
  const double lo = assignment_lp_floor(inst);
  const double hi = std::max(lo, unrelated_upper_bound(inst));
  const ConfigLpResult probe = solve_config_lp(inst, hi);
  // Preconditions for the equality below: the first probe is already
  // feasible (no widening) and column generation ran more than one round.
  ASSERT_EQ(probe.status, ConfigLpStatus::kFeasible);
  ASSERT_GT(probe.lp_solves, 1u);
  ASSERT_GT(probe.lp_iterations, 0u);

  RoundingOptions ropt;
  ropt.seed = 1;
  ropt.trials = 1;
  ropt.search_precision = 1e9;  // hi/lo < 1 + precision: no bisection probes
  const RoundingResult r = randomized_rounding_config(inst, ropt);
  EXPECT_EQ(r.lp_solves, probe.lp_solves);
  EXPECT_EQ(r.lp_iterations, probe.lp_iterations);
}

TEST(ConfigLp, PricingHonorsSetupCosts) {
  // One machine, two classes; T fits one class + its setup but not both.
  Instance inst(1, 2, {0, 1});
  inst.set_proc(0, 0, 4);
  inst.set_proc(0, 1, 4);
  inst.set_setup(0, 0, 4);
  inst.set_setup(0, 1, 4);
  // T = 8: exactly one (job + setup); coverage can only reach 1 of 2.
  const ConfigLpResult r = solve_config_lp(inst, 8.0);
  EXPECT_NE(r.status, ConfigLpStatus::kFeasible);
  EXPECT_LE(r.coverage, 1.0 + 1e-6);
  // T = 16: both classes fit.
  const ConfigLpResult r2 = solve_config_lp(inst, 16.0);
  EXPECT_EQ(r2.status, ConfigLpStatus::kFeasible);
}

/// One randomized pricing subproblem: an instance with holes, zero and
/// infinite setups, duals that are either 0 or clearly above the pricing
/// tolerance, pins to the priced machine and to others, and a T that is
/// either a random fraction of the machine's total load or exactly the load
/// of a random job set (the fit test's boundary).
struct PricingCase {
  Instance inst;
  MachineId machine = 0;
  double T = 0.0;
  std::vector<double> dual;
  std::vector<MachineId> pinned;
};

double load_of(const Instance& inst, MachineId i,
               const std::vector<JobId>& jobs) {
  double load = 0.0;
  std::vector<char> touched(inst.num_classes(), 0);
  for (const JobId j : jobs) {
    load += inst.proc(i, j);
    touched[inst.job_class(j)] = 1;
  }
  for (ClassId k = 0; k < inst.num_classes(); ++k) {
    if (touched[k]) load += inst.setup(i, k);
  }
  return load;
}

PricingCase random_pricing_case(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  UnrelatedGenParams p;
  p.num_jobs = 6 + rng.next_below(9);  // 6..14 jobs, at most 12 free
  p.num_machines = 3;
  p.num_classes = 1 + rng.next_below(4);
  p.eligibility = rng.next_bernoulli(0.5) ? 0.7 : 1.0;
  p.integral = rng.next_bernoulli(0.5);
  PricingCase c{generate_unrelated(p, seed), 0, 0.0, {}, {}};
  const std::size_t n = c.inst.num_jobs();
  c.machine = static_cast<MachineId>(rng.next_below(p.num_machines));
  for (MachineId i = 0; i < p.num_machines; ++i) {
    for (ClassId k = 0; k < p.num_classes; ++k) {
      const double roll = rng.next_double();
      if (roll < 0.15) c.inst.set_setup(i, k, 0.0);
      if (roll > 0.9) c.inst.set_setup(i, k, kInfinity);
    }
  }
  c.dual.resize(n);
  for (double& d : c.dual) {
    d = rng.next_bernoulli(0.2) ? 0.0 : rng.next_real(0.01, 1.0);
  }
  c.pinned.assign(n, kUnassigned);
  const std::size_t pins = n > 12 ? n - 12 : rng.next_below(3);
  for (std::size_t t = 0; t < pins; ++t) {
    JobId j = static_cast<JobId>(rng.next_below(n));
    while (c.pinned[j] != kUnassigned) j = (j + 1) % n;
    // Mostly pins the priced machine can honour; sometimes an ineligible one.
    c.pinned[j] = static_cast<MachineId>(rng.next_below(p.num_machines));
  }
  std::vector<JobId> subset;
  double total = 0.0;
  for (JobId j = 0; j < n; ++j) {
    if (!c.inst.eligible(c.machine, j)) continue;
    if (c.pinned[j] == c.machine || rng.next_bernoulli(0.4)) {
      subset.push_back(j);
    }
    total += c.inst.proc(c.machine, j) + c.inst.setup_for_job(c.machine, j);
  }
  c.T = rng.next_bernoulli(0.5) && !subset.empty()
            ? load_of(c.inst, c.machine, subset)
            : std::max(1.0, total * rng.next_real(0.1, 0.8));
  return c;
}

/// Brute force over every subset of the free eligible jobs: the best value
/// of a pin-consistent job set that fits in T, or -1 when the mandatory set
/// itself cannot run on the machine within T.
double brute_force_best(const PricingCase& c) {
  const Instance& inst = c.inst;
  const MachineId i = c.machine;
  std::vector<JobId> mandatory;
  std::vector<JobId> free;
  double mandatory_value = 0.0;
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    if (c.pinned[j] == i) {
      if (!inst.eligible(i, j)) return -1.0;
      mandatory.push_back(j);
      mandatory_value += c.dual[j];
    } else if (c.pinned[j] == kUnassigned && inst.eligible(i, j)) {
      free.push_back(j);
    }
  }
  if (!config_fits(load_of(inst, i, mandatory), c.T)) return -1.0;
  double best = 0.0;
  for (std::uint32_t mask = 0; mask < (1u << free.size()); ++mask) {
    std::vector<JobId> set = mandatory;
    double value = 0.0;
    for (std::size_t b = 0; b < free.size(); ++b) {
      if (mask & (1u << b)) {
        set.push_back(free[b]);
        value += c.dual[free[b]];
      }
    }
    if (value > best && config_fits(load_of(inst, i, set), c.T)) best = value;
  }
  return mandatory_value + best;
}

// The exact pricer must find the brute-force optimum: equal value, and a job
// set that fits in T, contains every job pinned to the machine, avoids jobs
// pinned elsewhere and ineligible ones, and is worth the value it reports.
TEST(ExactPricing, MatchesBruteForceSubsetEnumeration) {
  std::size_t pin_rejects = 0;
  std::size_t boundary_hits = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const PricingCase c = random_pricing_case(seed + 9000);
    const double reference = brute_force_best(c);
    const PricedConfig got = price_machine_config_exact(
        c.inst, c.machine, c.T, c.dual, kConfigPricingTol, &c.pinned);
    if (reference < 0.0) {
      EXPECT_FALSE(got.pins_fit) << "seed " << seed;
      ++pin_rejects;
      continue;
    }
    ASSERT_TRUE(got.pins_fit) << "seed " << seed;
    EXPECT_NEAR(got.value, reference, 1e-9) << "seed " << seed;
    double value = 0.0;
    std::vector<char> in_set(c.inst.num_jobs(), 0);
    for (const JobId j : got.jobs) {
      ASSERT_LT(j, c.inst.num_jobs());
      EXPECT_FALSE(in_set[j]) << "seed " << seed << ": job " << j << " twice";
      in_set[j] = 1;
      EXPECT_TRUE(c.inst.eligible(c.machine, j)) << "seed " << seed;
      EXPECT_TRUE(c.pinned[j] == kUnassigned || c.pinned[j] == c.machine)
          << "seed " << seed << ": job " << j << " is pinned elsewhere";
      value += c.dual[j];
    }
    for (JobId j = 0; j < c.inst.num_jobs(); ++j) {
      if (c.pinned[j] == c.machine) {
        EXPECT_TRUE(in_set[j]) << "seed " << seed << ": pinned job " << j;
      }
    }
    EXPECT_NEAR(value, got.value, 1e-9) << "seed " << seed;
    const double load = load_of(c.inst, c.machine, got.jobs);
    EXPECT_NEAR(load, got.load, 1e-9 * std::max(1.0, load)) << "seed " << seed;
    EXPECT_TRUE(config_fits(got.load, c.T)) << "seed " << seed;
    if (load == c.T) ++boundary_hits;
  }
  // The generator must actually reach the pin rejection and the boundary.
  EXPECT_GT(pin_rejects, 0u);
  EXPECT_GT(boundary_hits, 0u);
}

// Without pins, a job set is only returned when it is worth more than the
// tolerance: all-zero duals price the empty column, like the dense pricer.
TEST(ExactPricing, ZeroDualsPriceTheEmptyColumn) {
  const Instance inst = generate_unrelated(UnrelatedGenParams{}, 5);
  const std::vector<double> dual(inst.num_jobs(), 0.0);
  const PricedConfig got = price_machine_config_exact(
      inst, 0, unrelated_upper_bound(inst), dual, kConfigPricingTol);
  EXPECT_TRUE(got.pins_fit);
  EXPECT_TRUE(got.jobs.empty());
  EXPECT_EQ(got.value, 0.0);
}

// Sandwich against the dense grid pricer: the dense pricer at T only admits
// sets that truly fit (weights rounded up), and at the inflated
// T / (1 - (n + K)/g) it admits every set that fits T. So its two values
// bracket the exact one, for every grid g.
TEST(ExactPricing, DenseGridSandwichesTheExactValue) {
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const PricingCase c = random_pricing_case(seed + 20000);
    const PricedConfig exact = price_machine_config_exact(
        c.inst, c.machine, c.T, c.dual, kConfigPricingTol, &c.pinned);
    const double n_plus_k =
        static_cast<double>(c.inst.num_jobs() + c.inst.num_classes());
    for (const std::size_t g : {64u, 256u, 2048u}) {
      const PricedConfig low = price_machine_config(
          c.inst, c.machine, c.T, c.dual, g, kConfigPricingTol, &c.pinned);
      const double inflated = c.T / (1.0 - n_plus_k / static_cast<double>(g));
      const PricedConfig high =
          price_machine_config(c.inst, c.machine, inflated, c.dual, g,
                               kConfigPricingTol, &c.pinned);
      if (low.pins_fit) {
        EXPECT_TRUE(exact.pins_fit) << "seed " << seed << " grid " << g;
      }
      if (exact.pins_fit) {
        EXPECT_TRUE(high.pins_fit) << "seed " << seed << " grid " << g;
        EXPECT_LE(exact.value, high.value + 1e-9)
            << "seed " << seed << " grid " << g;
      }
      if (low.pins_fit && exact.pins_fit) {
        EXPECT_LE(low.value, exact.value + 1e-9)
            << "seed " << seed << " grid " << g;
      }
    }
  }
}

}  // namespace
}  // namespace setsched
