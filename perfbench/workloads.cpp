#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/prng.h"
#include "core/bounds.h"
#include "core/generators.h"
#include "exact/branch_bound.h"
#include "uniform/ptas.h"
#include "unrelated/rounding.h"

namespace perfbench {

using namespace setsched;

namespace {

constexpr std::uint64_t kHeldOutSeedBase = 1'000'000;
/// Relative tolerance of the makespan and bound comparisons (all inputs
/// are integral, so any real disagreement is far larger).
constexpr double kRelTol = 1e-9;

// Generator parameters are spelled out field by field so that neither an
// api/presets edit nor a change of the generator defaults moves the traffic.
UnrelatedGenParams unrelated_params(std::size_t n, std::size_t m,
                                    std::size_t k, double eligibility,
                                    bool correlated) {
  UnrelatedGenParams p;
  p.num_jobs = n;
  p.num_machines = m;
  p.num_classes = k;
  p.min_proc = 1.0;
  p.max_proc = 100.0;
  p.min_setup = 1.0;
  p.max_setup = 50.0;
  p.eligibility = eligibility;
  p.correlated = correlated;
  p.integral = true;
  return p;
}

UniformGenParams uniform_params() {
  UniformGenParams p;
  p.num_jobs = 20;
  p.num_machines = 4;
  p.num_classes = 4;
  p.min_job_size = 1.0;
  p.max_job_size = 100.0;
  p.min_setup = 1.0;
  p.max_setup = 50.0;
  p.profile = SpeedProfile::kUniformRandom;
  p.max_speed_ratio = 8.0;
  p.integral = true;
  return p;
}

std::uint64_t workload_salt(Workload workload) {
  return 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(workload) + 1);
}

Counters exact_counters(const ExactResult& r) {
  Counters c;
  c.lp_solves = r.lp_bounds_used;
  c.lp_iterations = r.lp_iterations;
  c.lp_dual_solves = r.lp_dual_solves;
  c.lp_recoveries = r.lp_recoveries;
  c.nodes = r.nodes;
  c.lp_probes = r.lp_bounds_used;
  c.fixed_vars = r.fixed_vars;
  c.cg_columns = r.cg_columns;
  c.cg_pricing_rounds = r.cg_pricing_rounds;
  c.cg_fallbacks = r.cg_fallbacks;
  return c;
}

SolveResult solve_exact_workload(const Instance& instance,
                                 ExactOptions options) {
  options.mode = ExactMode::kDiveThenProve;
  options.time_limit_s = kExactTimeLimitS;
  options.dive_time_limit_s = kDiveTimeLimitS;
  ExactResult r = solve_exact(instance, options);
  SolveResult out;
  out.schedule = std::move(r.schedule);
  out.makespan = r.makespan;
  out.lower_bound = r.lower_bound;
  out.proven = r.proven_optimal;
  out.gap = r.gap;
  out.counters = exact_counters(r);
  return out;
}

bool close(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::kApproxLp: return "approx-lp";
    case Workload::kExactProve: return "exact-prove";
    case Workload::kExactMidsize: return "exact-midsize";
    case Workload::kUniformPtas: return "uniform-ptas";
  }
  return "?";
}

std::optional<Workload> workload_from_name(std::string_view name) {
  for (const Workload w : kWorkloads) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

const WorkloadSpec& spec(Workload workload) {
  static const std::array<WorkloadSpec, 4> specs = {{
      {48, 9.5},   // approx-lp: 110-270 ms per solve
      {48, 9.8},   // exact-prove: 120-910 ms per solve
      {48, 9.8},   // exact-midsize: 150-520 ms per solve
      {32, 18.7},  // uniform-ptas: 0.6-0.8 s, or ~0 ms when no probe runs
  }};
  return specs[static_cast<std::size_t>(workload)];
}

std::uint64_t generator_seed(Block block, std::size_t index) {
  const std::uint64_t base = block == Block::kDefault ? 0 : kHeldOutSeedBase;
  return base + index + 1;
}

std::vector<std::size_t> run_order(Workload workload,
                                   std::uint64_t run_seed) {
  std::vector<std::size_t> order(spec(workload).universe);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Fisher-Yates with an explicit generator, so the draw is the same on
  // every standard library.
  Xoshiro256 rng(run_seed ^ workload_salt(workload));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

std::size_t passes(Workload workload, double seconds) {
  const double n = std::round(seconds / spec(workload).pass_seconds);
  return std::max<std::size_t>(1, static_cast<std::size_t>(n));
}

BenchInstance make_instance(Workload workload, std::uint64_t gen_seed) {
  BenchInstance bench{gen_seed, Instance(1, 1, {}), std::nullopt};
  switch (workload) {
    case Workload::kApproxLp:
      bench.instance =
          generate_unrelated(unrelated_params(60, 8, 8, 0.8, true), gen_seed);
      break;
    case Workload::kExactProve:
      bench.instance =
          generate_unrelated(unrelated_params(20, 4, 4, 1.0, false), gen_seed);
      break;
    case Workload::kExactMidsize:
      bench.instance =
          generate_unrelated(unrelated_params(40, 6, 8, 0.85, true), gen_seed);
      break;
    case Workload::kUniformPtas:
      bench.uniform = generate_uniform(uniform_params(), gen_seed);
      bench.instance = bench.uniform->to_unrelated();
      break;
  }
  return bench;
}

std::uint64_t fingerprint(const Instance& instance) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(instance.num_jobs());
  mix(instance.num_machines());
  mix(instance.num_classes());
  for (const ClassId k : instance.job_classes()) mix(k);
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    for (JobId j = 0; j < instance.num_jobs(); ++j) {
      mix(std::bit_cast<std::uint64_t>(instance.proc(i, j)));
    }
    for (ClassId k = 0; k < instance.num_classes(); ++k) {
      mix(std::bit_cast<std::uint64_t>(instance.setup(i, k)));
    }
  }
  return h;
}

SolveResult solve(Workload workload, const BenchInstance& bench) {
  switch (workload) {
    case Workload::kApproxLp: {
      // The Theorem 3.3 pipeline behind the registry's `rounding` solver,
      // with the registry's default context (seed 1, precision 0.05),
      // called directly for its certified LP lower bound.
      RoundingOptions options;
      options.seed = 1;
      options.search_precision = 0.05;
      RoundingResult r = randomized_rounding(bench.instance, options);
      SolveResult out;
      out.schedule = std::move(r.schedule);
      out.makespan = r.makespan;
      out.lower_bound = std::max(r.lp_lower_bound,
                                 unrelated_lower_bound(bench.instance));
      out.counters.lp_solves = r.lp_solves;
      out.counters.lp_iterations = r.lp_iterations;
      out.counters.lp_dual_solves = r.lp_dual_solves;
      out.counters.lp_recoveries = r.lp_recoveries;
      return out;
    }
    case Workload::kExactProve: {
      ExactOptions options;
      options.bound = BoundMode::kAuto;
      options.initial_upper_bound = unrelated_upper_bound(bench.instance);
      return solve_exact_workload(bench.instance, options);
    }
    case Workload::kExactMidsize: {
      ExactOptions options;
      options.bound = BoundMode::kAssignment;
      options.max_nodes = 250'000;
      return solve_exact_workload(bench.instance, options);
    }
    case Workload::kUniformPtas: {
      PtasOptions options;
      options.epsilon = 0.25;
      PtasResult r = ptas_uniform(*bench.uniform, options);
      SolveResult out;
      out.schedule = std::move(r.schedule);
      out.makespan = r.makespan;
      out.lower_bound =
          std::max(r.lower_bound, uniform_lower_bound(*bench.uniform));
      out.counters.ptas_probes = r.probes;
      out.counters.max_dp_states = r.max_dp_states;
      out.counters.resource_limited = r.resource_limited;
      return out;
    }
  }
  return {};
}

std::string check_result(Workload workload, const BenchInstance& bench,
                         const SolveResult& result,
                         const Reference& reference) {
  if (const auto error = schedule_error(bench.instance, result.schedule)) {
    return "invalid schedule: " + *error;
  }
  const double recomputed = makespan(bench.instance, result.schedule);
  if (!close(recomputed, result.makespan)) {
    return "reported makespan " + std::to_string(result.makespan) +
           " != recomputed " + std::to_string(recomputed);
  }
  if (bench.uniform &&
      !close(makespan(*bench.uniform, result.schedule), recomputed)) {
    return "uniform-form makespan disagrees with the matrix form";
  }
  if (result.makespan < reference.lower_bound * (1.0 - kRelTol)) {
    return "makespan " + std::to_string(result.makespan) +
           " below the reference lower bound " +
           std::to_string(reference.lower_bound);
  }
  if (!(result.lower_bound > 0.0) ||
      result.lower_bound > result.makespan * (1.0 + kRelTol)) {
    return "certified lower bound " + std::to_string(result.lower_bound) +
           " outside (0, makespan]";
  }
  if (result.gap < 0.0 || (result.proven && result.gap != 0.0)) {
    return "gap " + std::to_string(result.gap) + " is negative or nonzero "
           "on a proven result";
  }
  if (workload == Workload::kExactProve) {
    if (!result.proven) return "exact-prove instance not proven optimal";
    if (!reference.optimum || !close(result.makespan, *reference.optimum)) {
      return "proven makespan " + std::to_string(result.makespan) +
             " differs from the committed optimum";
    }
  }
  return {};
}

}  // namespace perfbench
