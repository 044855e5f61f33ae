#pragma once

// Statistics and accounting of the perfbench program: the tail rule, the
// failure tally, and the phase-ledger self-time subtraction. Pure functions
// over plain data, unit-tested in perfbench_test.cpp.

#include <cstddef>
#include <span>

#include "obs/phase.h"

namespace perfbench {

/// A tail percentile must have at least this many samples beyond it.
inline constexpr std::size_t kTailMinBeyond = 10;

/// The reported tail: the highest whole percentile p with at least
/// kTailMinBeyond samples ranked above it, where p sits at the linear
/// interpolation rank p/100 * (n - 1) of the sorted sample (the convention
/// of setsched::percentile). Absent below kTailMinBeyond + 1 samples.
struct Tail {
  bool present = false;
  int percentile = 0;
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples ranked strictly above the percentile's interpolation rank.
  std::size_t beyond = 0;
};

[[nodiscard]] Tail tail_percentile(std::span<const double> samples);

/// How one solve attempt ended. A solve counts once whatever went wrong
/// with it: an exception, or a returned result that failed any check.
enum class Outcome { kOk, kThrew, kInvalid };

class Tally {
 public:
  void record(Outcome outcome);
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  /// failed / attempted; 0 before the first attempt.
  [[nodiscard]] double failed_share() const;
  /// 1 - failed_share(): the share of attempts that returned a checked
  /// result (the never-zero form the benchmark reports).
  [[nodiscard]] double ok_share() const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Exclusive (self) times recovered from the nested phase ledger, per
/// docs/OBSERVABILITY.md: lp_solve contains the factor, FTRAN, BTRAN and
/// pricing kernels; the search phases (root_bound, dive, prove) contain
/// lp_solve, dominance and refix. All values in milliseconds.
struct LayerTimes {
  double lp_ms = 0.0;
  double lp_factor_ms = 0.0;
  double lp_ftran_ms = 0.0;
  double lp_btran_ms = 0.0;
  double lp_pricing_ms = 0.0;
  /// lp_solve minus its four timed kernels (ratio tests, updates, the dual
  /// loop's own row pricing).
  double lp_self_ms = 0.0;
  double root_bound_ms = 0.0;
  double dive_ms = 0.0;
  double prove_ms = 0.0;
  double dominance_ms = 0.0;
  /// root_bound + dive + prove minus the lp_solve, dominance and refix time
  /// nested in them: branching, load bookkeeping and any untimed work such
  /// as the configuration-LP knapsack pricing. 0 when no search ran (the
  /// lp_solve of a non-search solver is not nested in a search phase).
  double search_self_ms = 0.0;
};

[[nodiscard]] LayerTimes layer_times(const setsched::obs::PhaseTimes& phases);

}  // namespace perfbench
