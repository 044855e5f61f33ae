#pragma once

// The four perfbench workloads: how each generates its committed instance
// universe, orders it for a run, solves one instance with fixed options, and
// checks the result. See README.md for why each was chosen.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"

namespace perfbench {

enum class Workload { kApproxLp, kExactProve, kExactMidsize, kUniformPtas };

inline constexpr std::array<Workload, 4> kWorkloads = {
    Workload::kApproxLp, Workload::kExactProve, Workload::kExactMidsize,
    Workload::kUniformPtas};

[[nodiscard]] std::string_view workload_name(Workload workload);
[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view name);

/// A run solves one of two committed instance universes. Every run seed
/// solves the default block; the held-out block has the same shape and size
/// and is only read when a run asks for it, to check a claimed gain on
/// instances its author never tuned against.
enum class Block { kDefault, kHeldOut };

struct WorkloadSpec {
  /// Instances per block; each has a committed reference row.
  std::size_t universe = 0;
  /// Nominal wall time of one pass over the universe on the reference box
  /// (4-core x86-64, Release build). A run makes
  /// max(1, round(seconds / pass_seconds)) whole passes, so the amount of
  /// work is fixed by this constant and --seconds, never by a wall clock,
  /// and every instance is solved equally often.
  double pass_seconds = 0.0;
};

[[nodiscard]] const WorkloadSpec& spec(Workload workload);

/// Generator seed of the index-th universe instance of a block.
[[nodiscard]] std::uint64_t generator_seed(Block block, std::size_t index);

/// The run's instance list: every universe index, in an order drawn from
/// run_seed. The instance set is the same for every seed so that the spread
/// between seeds measures the machine and the code, not the luck of a draw.
[[nodiscard]] std::vector<std::size_t> run_order(Workload workload,
                                                 std::uint64_t run_seed);

/// Whole passes over the universe for a run of `seconds`.
[[nodiscard]] std::size_t passes(Workload workload, double seconds);

struct BenchInstance {
  std::uint64_t gen_seed = 0;
  setsched::Instance instance;
  /// The uniformly related form (uniform-ptas only).
  std::optional<setsched::UniformInstance> uniform;
};

[[nodiscard]] BenchInstance make_instance(Workload workload,
                                          std::uint64_t gen_seed);

/// FNV-1a over the instance's matrix form; ties a reference row to the
/// exact data it was computed on.
[[nodiscard]] std::uint64_t fingerprint(const setsched::Instance& instance);

/// Deterministic effort counters of one solve; zero where the solver has no
/// such machinery.
struct Counters {
  std::size_t lp_solves = 0;
  std::size_t lp_iterations = 0;
  std::size_t lp_dual_solves = 0;
  std::size_t lp_recoveries = 0;
  std::size_t nodes = 0;
  std::size_t lp_probes = 0;
  std::size_t fixed_vars = 0;
  std::size_t cg_columns = 0;
  std::size_t cg_pricing_rounds = 0;
  std::size_t cg_fallbacks = 0;
  std::size_t ptas_probes = 0;
  std::size_t max_dp_states = 0;
  bool resource_limited = false;

  [[nodiscard]] bool operator==(const Counters&) const = default;
};

struct SolveResult {
  setsched::Schedule schedule;
  /// Makespan as the solver reported it.
  double makespan = 0.0;
  /// The solver's own certified lower bound on OPT, floored by the
  /// combinatorial bound of core/bounds.h.
  double lower_bound = 0.0;
  bool proven = false;
  /// The exact solvers' certified gap; 0 for the others.
  double gap = 0.0;
  Counters counters;
};

/// Wall-clock budgets handed to the exact solver. They sit far above any
/// solve of these workloads so that only node counts bound the work; the
/// determinism test fails if a solve ever comes near them. The
/// configuration-LP root bisection is capped at half the remaining budget,
/// the dive at kDiveTimeLimitS.
inline constexpr double kExactTimeLimitS = 120.0;
inline constexpr double kDiveTimeLimitS = 60.0;

/// One timed solve: the workload's solver with its fixed options, one
/// thread, no pool.
[[nodiscard]] SolveResult solve(Workload workload, const BenchInstance& bench);

/// Committed reference of one universe instance (see reference.h).
struct Reference {
  std::uint64_t fingerprint = 0;
  /// Certified lower bound on OPT from long offline runs.
  double lower_bound = 0.0;
  /// Proven optimum, when the offline run proved one.
  std::optional<double> optimum;
};

/// Every correctness check of one solve. Returns an empty string when the
/// result passes, otherwise a description of the first failed check.
[[nodiscard]] std::string check_result(Workload workload,
                                       const BenchInstance& bench,
                                       const SolveResult& result,
                                       const Reference& reference);

}  // namespace perfbench
