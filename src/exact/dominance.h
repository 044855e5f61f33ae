#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"
#include "exact/tolerances.h"

namespace setsched::exact {

/// Packed m x K paid-setup matrix of a search state: bit i*K + k is set iff
/// machine i has paid class k's setup. It takes as many 64-bit words as m*K
/// needs, so any instance shape packs. The searches flip single bits as
/// setups are paid and undone, so the dominance checks never repack it.
class SetupMask {
 public:
  SetupMask() = default;
  SetupMask(std::size_t machines, std::size_t classes)
      : kc_(classes), words_(word_count(machines * classes), 0) {}

  [[nodiscard]] static std::size_t word_count(std::size_t bits) noexcept {
    return (bits + kWordBits - 1) / kWordBits;
  }

  [[nodiscard]] bool test(MachineId i, ClassId k) const noexcept {
    const std::size_t e = i * kc_ + k;
    return ((words_[e / kWordBits] >> (e % kWordBits)) & 1U) != 0;
  }
  void set(MachineId i, ClassId k) noexcept {
    const std::size_t e = i * kc_ + k;
    words_[e / kWordBits] |= std::uint64_t{1} << (e % kWordBits);
  }
  void reset(MachineId i, ClassId k) noexcept {
    const std::size_t e = i * kc_ + k;
    words_[e / kWordBits] &= ~(std::uint64_t{1} << (e % kWordBits));
  }

  /// True iff machines a and b have paid exactly the same classes.
  [[nodiscard]] bool same_row(MachineId a, MachineId b) const noexcept {
    for (ClassId k = 0; k < kc_; ++k) {
      if (test(a, k) != test(b, k)) return false;
    }
    return true;
  }

  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return words_.data();
  }
  [[nodiscard]] std::size_t size() const noexcept { return words_.size(); }

 private:
  static constexpr std::size_t kWordBits = 64;
  std::size_t kc_ = 0;
  std::vector<std::uint64_t> words_;
};

/// The dominance predicate, shared by the prove memo (DominanceTable) and
/// the dive's beam. A kept state (L', S') dominates the candidate (L, S)
/// iff S ⊆ S' (every setup the candidate paid, the kept state paid too) and
/// L'_i <= L_i + kDominanceLoadSlack on every machine. The setup half is
/// checked first: a word-wise `(S & ~S') != 0` rejects without reading a
/// single load. A query is a view of the candidate; it stays valid while
/// the candidate's loads and mask are unchanged.
class DominanceQuery {
 public:
  DominanceQuery(const std::vector<double>& loads, const SetupMask& setups)
      : loads_(loads.data()),
        setups_(setups.words()),
        m_(loads.size()),
        words_(setups.size()) {
    for (std::size_t i = 0; i < m_; ++i) {
      max_ceiling_ = std::max(max_ceiling_, loads_[i] + kDominanceLoadSlack);
    }
  }

  [[nodiscard]] bool dominated_by(const double* kept_loads,
                                  const std::uint64_t* kept_setups) const {
    return setups_covered_by(kept_setups) && loads_covered_by(kept_loads);
  }

  [[nodiscard]] bool setups_covered_by(
      const std::uint64_t* kept_setups) const {
    for (std::size_t w = 0; w < words_; ++w) {
      if ((setups_[w] & ~kept_setups[w]) != 0) return false;
    }
    return true;
  }

  [[nodiscard]] bool loads_covered_by(const double* kept_loads) const {
    for (std::size_t i = 0; i < m_; ++i) {
      if (kept_loads[i] > loads_[i] + kDominanceLoadSlack) return false;
    }
    return true;
  }

  /// max_i (L_i + slack): a kept state whose largest load exceeds it fails
  /// loads_covered_by on that machine, so this is an exact prefilter.
  [[nodiscard]] double max_ceiling() const noexcept { return max_ceiling_; }

 private:
  const double* loads_;
  const std::uint64_t* setups_;
  std::size_t m_;
  std::size_t words_;
  double max_ceiling_ = -kInfinity;
};

/// Dominance memo over branch-and-bound states. Because jobs are branched in
/// a fixed order, the remaining-job set is determined by the depth, so a
/// state is (depth, per-machine loads, paid-setup mask). A new state is
/// prunable when some previously explored state at the same depth dominates
/// it (DominanceQuery): every completion of the new state maps to a
/// completion of the old one that is at most as large, and cutoffs only
/// tighten over time, so the old subtree's exploration already covered it.
///
/// Storage is flat per depth and capped at `limit` states; once a depth is
/// full, new states are still checked against the stored ones but no longer
/// recorded (the memo stays sound, it just stops growing).
///
/// Indexed layout. A level keeps two arrays in the same order: `rows`, one
/// row of [load sum, max load, m loads] per state, and `setups`, the
/// packed masks. Rows are sorted by load sum. A lookup binary-searches the
/// sum bound below, scans only the prefix of rows at or under it, and per
/// row rejects on the mask, then on the max load, and only then reads the
/// loads. The index is exact: the verdict is "some stored state dominates",
/// which does not depend on scan order, and each skipped row provably fails
/// the predicate, so every verdict, the recorded set and hits() match a
/// linear scan over all stored states. On n=40, m=6, K=8 instances a lookup
/// scans about a third of a full level, and the mask rejects about 90% of
/// the scanned rows.
///
/// Why the sum bound is a proof. Loads are non-negative (processing and
/// setup times are), and a state's sum is always the left-to-right double
/// sum of its m loads (load_sum). If a kept state dominates the query,
/// L'_i <= fl(L_i + slack) for each i, so its exact sum is at most
/// (1 + u)·(ΣL + m·slack) with u = 2^-53. Each computed sum lies within a
/// factor (1 ± u)^(m-1) of its exact sum, so the kept state's computed sum is
/// at most (1 + (2m-1)u + O(m²u²))·(ŝ + m·slack), where ŝ is the query's
/// computed sum. sum_limit() adds the margin (1 + m·kDominanceSumRelMargin).
/// The margin is at least 9u per machine, which covers that factor and the
/// five roundings of evaluating the bound (see exact/tolerances.h). So every
/// dominating row has sum <= sum_limit(ŝ) and lies in the scanned prefix.
class DominanceTable {
 public:
  DominanceTable(std::size_t depths, std::size_t machines,
                 std::size_t classes_per_machine, std::size_t limit)
      : m_(machines),
        words_(SetupMask::word_count(machines * classes_per_machine)),
        stride_(kLoads + machines),
        limit_(limit),
        levels_(depths) {}

  /// True iff a recorded state at `depth` dominates (loads, setups);
  /// otherwise records the state (subject to the cap) and returns false.
  /// Loads must be non-negative.
  bool dominated_or_record(std::size_t depth, const std::vector<double>& loads,
                           const SetupMask& setups) {
    Level& level = levels_[depth];
    const DominanceQuery query(loads, setups);
    const double sum = load_sum(loads.data());
    const std::size_t end = level.first_above(sum_limit(sum), level.count,
                                              stride_);
    for (std::size_t s = 0; s < end; ++s) {
      if (!query.setups_covered_by(level.setups.data() + s * words_)) continue;
      const double* row = level.rows.data() + s * stride_;
      if (row[kMax] > query.max_ceiling()) continue;
      if (query.loads_covered_by(row + kLoads)) {
        ++hits_;
        return true;
      }
    }
    if (level.count < limit_) {
      // sum <= sum_limit(sum), so the insertion point lies in the prefix.
      const std::size_t at = level.first_above(sum, end, stride_);
      const auto row_at = level.rows.insert(
          level.rows.begin() + static_cast<std::ptrdiff_t>(at * stride_),
          stride_, 0.0);
      row_at[kSum] = sum;
      row_at[kMax] = -kInfinity;
      for (const double load : loads) {
        row_at[kMax] = std::max(row_at[kMax], load);
      }
      std::copy(loads.begin(), loads.end(), row_at + kLoads);
      level.setups.insert(
          level.setups.begin() + static_cast<std::ptrdiff_t>(at * words_),
          setups.words(), setups.words() + words_);
      ++level.count;
    }
    return false;
  }

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }

 private:
  /// Row layout offsets: [sum, max, loads...].
  static constexpr std::size_t kSum = 0;
  static constexpr std::size_t kMax = 1;
  static constexpr std::size_t kLoads = 2;

  struct Level {
    std::vector<double> rows;            ///< count x (2 + m), sorted by sum
    std::vector<std::uint64_t> setups;   ///< count x words, same order
    std::size_t count = 0;

    /// First row in [0, end) whose sum exceeds `key` (end if none).
    [[nodiscard]] std::size_t first_above(double key, std::size_t end,
                                          std::size_t stride) const {
      std::size_t lo = 0;
      std::size_t hi = end;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (rows[mid * stride + kSum] <= key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }
  };

  /// The one way a state's load sum is computed (stored and queried alike).
  [[nodiscard]] double load_sum(const double* loads) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < m_; ++i) sum += loads[i];
    return sum;
  }

  /// Largest load sum a state dominating a query of computed sum `sum` can
  /// have (the proof is in the class comment).
  [[nodiscard]] double sum_limit(double sum) const {
    const double m = static_cast<double>(m_);
    return (sum + m * kDominanceLoadSlack) *
           (1.0 + m * kDominanceSumRelMargin);
  }

  std::size_t m_;
  std::size_t words_;
  std::size_t stride_;
  std::size_t limit_;
  std::vector<Level> levels_;
  std::size_t hits_ = 0;
};

}  // namespace setsched::exact
