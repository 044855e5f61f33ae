// Differential suite for the indexed dominance memo (exact/dominance.h).
// The memo keeps each level sorted by load sum and scans only the prefix
// that a proven sum bound allows, with packed paid-setup masks and a
// max-load prefilter. None of that may change a verdict: on every call it
// must answer exactly what a linear scan over all stored states answers,
// and end with the same hits(). The reference below is that linear scan,
// with one char flag per (machine, class) pair.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/prng.h"
#include "exact/dominance.h"
#include "exact/tolerances.h"

namespace setsched::exact {
namespace {

constexpr double kUp = std::numeric_limits<double>::infinity();

/// Linear-scan reference memo: every stored state in insertion order, the
/// dominance predicate spelled out directly.
class LinearMemo {
 public:
  LinearMemo(std::size_t depths, std::size_t machines, std::size_t classes,
             std::size_t limit)
      : m_(machines), kc_(classes), limit_(limit), levels_(depths) {}

  bool dominated_or_record(std::size_t depth, const std::vector<double>& loads,
                           const std::vector<char>& class_on) {
    Level& level = levels_[depth];
    for (std::size_t s = 0; s < level.loads.size(); ++s) {
      if (dominates(level.loads[s], level.class_on[s], loads, class_on)) {
        ++hits_;
        return true;
      }
    }
    if (level.loads.size() < limit_) {
      level.loads.push_back(loads);
      level.class_on.push_back(class_on);
    }
    return false;
  }

  [[nodiscard]] std::size_t hits() const { return hits_; }

 private:
  struct Level {
    std::vector<std::vector<double>> loads;
    std::vector<std::vector<char>> class_on;
  };

  [[nodiscard]] bool dominates(const std::vector<double>& old_loads,
                               const std::vector<char>& old_on,
                               const std::vector<double>& loads,
                               const std::vector<char>& on) const {
    for (std::size_t i = 0; i < m_; ++i) {
      if (old_loads[i] > loads[i] + kDominanceLoadSlack) return false;
    }
    for (std::size_t e = 0; e < m_ * kc_; ++e) {
      if (on[e] != 0 && old_on[e] == 0) return false;
    }
    return true;
  }

  std::size_t m_;
  std::size_t kc_;
  std::size_t limit_;
  std::vector<Level> levels_;
  std::size_t hits_ = 0;
};

struct State {
  std::size_t depth = 0;
  std::vector<double> loads;
  std::vector<char> on;  ///< m x K flags, row-major
};

SetupMask pack(const std::vector<char>& on, std::size_t m, std::size_t kc) {
  SetupMask mask(m, kc);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < kc; ++k) {
      if (on[i * kc + k] != 0) {
        mask.set(static_cast<MachineId>(i), static_cast<ClassId>(k));
      }
    }
  }
  return mask;
}

/// Feeds the stream to both memos and checks every verdict and the final
/// hits(). Returns the number of dominated verdicts.
std::size_t run_differential(const std::vector<State>& stream, std::size_t m,
                             std::size_t kc, std::size_t depths,
                             std::size_t limit, const std::string& label) {
  DominanceTable indexed(depths, m, kc, limit);
  LinearMemo reference(depths, m, kc, limit);
  for (std::size_t t = 0; t < stream.size(); ++t) {
    const State& s = stream[t];
    const bool want = reference.dominated_or_record(s.depth, s.loads, s.on);
    const bool got =
        indexed.dominated_or_record(s.depth, s.loads, pack(s.on, m, kc));
    EXPECT_EQ(got, want) << label << ": call " << t;
    if (got != want) break;
  }
  EXPECT_EQ(indexed.hits(), reference.hits()) << label;
  return reference.hits();
}

/// Random state streams. Half the states are fresh; the other half are
/// variants of an earlier state at the same depth (the source of dominance
/// hits): loads nudged up or down, raised to exactly the slack ceiling or
/// one ulp past it, permuted (equal load sums), setups dropped or added.
std::vector<State> random_stream(std::size_t m, std::size_t kc,
                                 std::size_t depths, std::size_t length,
                                 double scale, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<State> out;
  out.reserve(length);
  const auto grid_load = [&] {
    // Small integers times the scale: sums of these are exact, so permuted
    // states tie on the load sum exactly.
    return scale * static_cast<double>(rng.next_below(6));
  };
  while (out.size() < length) {
    State s;
    s.depth = rng.next_below(depths);
    std::vector<const State*> same_depth;
    for (const State& prior : out) {
      if (prior.depth == s.depth) same_depth.push_back(&prior);
    }
    if (same_depth.empty() || rng.next_bernoulli(0.4)) {
      s.loads.resize(m);
      for (double& load : s.loads) {
        load = rng.next_bernoulli(0.7) ? grid_load()
                                       : rng.next_real(0.0, 5.0 * scale);
      }
      s.on.resize(m * kc);
      for (char& flag : s.on) flag = rng.next_bernoulli(0.5) ? 1 : 0;
    } else {
      s = *same_depth[rng.next_below(same_depth.size())];
      switch (rng.next_below(6)) {
        case 0:  // query side of the slack boundary: old = new + slack
          for (double& load : s.loads) {
            const double below = load - kDominanceLoadSlack;
            if (below >= 0.0) load = below;
          }
          break;
        case 1: {  // strictly larger on one machine, by one ulp
          double& load = s.loads[rng.next_below(m)];
          load = std::nextafter(load, kUp);
          break;
        }
        case 2:  // permute the loads: same multiset, same sum
          for (std::size_t i = m; i > 1; --i) {
            std::swap(s.loads[i - 1], s.loads[rng.next_below(i)]);
          }
          break;
        case 3:  // grow some loads
          for (double& load : s.loads) {
            if (rng.next_bernoulli(0.3)) load += grid_load();
          }
          break;
        case 4:  // shrink one load
          s.loads[rng.next_below(m)] *= 0.5;
          break;
        default:  // identical loads
          break;
      }
      for (char& flag : s.on) {
        if (rng.next_bernoulli(0.15)) flag = 0;
      }
      if (rng.next_bernoulli(0.2)) s.on[rng.next_below(m * kc)] = 1;
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(SetupMask, PacksBitsAcrossWordBoundaries) {
  SetupMask mask(9, 8);  // 72 bits: two words
  EXPECT_EQ(mask.size(), 2u);
  mask.set(7, 7);  // bit 63
  mask.set(8, 0);  // bit 64
  EXPECT_TRUE(mask.test(7, 7));
  EXPECT_TRUE(mask.test(8, 0));
  EXPECT_FALSE(mask.test(7, 6));
  EXPECT_FALSE(mask.test(8, 1));
  EXPECT_EQ(mask.words()[0], std::uint64_t{1} << 63);
  EXPECT_EQ(mask.words()[1], std::uint64_t{1});
  EXPECT_FALSE(mask.same_row(7, 8));
  mask.set(8, 7);
  mask.set(7, 0);
  mask.reset(7, 7);
  mask.reset(8, 7);
  EXPECT_TRUE(mask.same_row(7, 8));
  EXPECT_EQ(SetupMask::word_count(64), 1u);
  EXPECT_EQ(SetupMask::word_count(65), 2u);
  EXPECT_EQ(SetupMask::word_count(0), 0u);
}

TEST(DominanceTable, SlackBoundaryIsExact) {
  // Loads near zero (the slack dominates the sum margin), mid-range, and
  // large enough that the slack is below one ulp.
  for (const double base : {0.0, 3e-13, 1.0, 777.25, 1e6}) {
    const std::size_t m = 9;
    const std::size_t kc = 8;
    std::vector<double> query(m);
    for (std::size_t i = 0; i < m; ++i) {
      query[i] = base * static_cast<double>(i + 1);
    }
    std::vector<double> at_ceiling(m);
    for (std::size_t i = 0; i < m; ++i) {
      at_ceiling[i] = query[i] + kDominanceLoadSlack;
    }
    SetupMask mask(m, kc);
    mask.set(8, 7);  // the query's only setup sits in the second word

    for (std::size_t past = 0; past <= m; ++past) {
      // past == m: every load exactly at its ceiling (dominated);
      // otherwise machine `past` sits one ulp above it (not dominated).
      std::vector<double> kept = at_ceiling;
      if (past < m) kept[past] = std::nextafter(kept[past], kUp);
      DominanceTable table(1, m, kc, 256);
      EXPECT_FALSE(table.dominated_or_record(0, kept, mask));
      EXPECT_EQ(table.dominated_or_record(0, query, mask), past == m)
          << "base " << base << " past " << past;
    }

    // A kept state without the query's setup never dominates.
    DominanceTable table(1, m, kc, 256);
    EXPECT_FALSE(table.dominated_or_record(0, query, SetupMask(m, kc)));
    EXPECT_FALSE(table.dominated_or_record(0, query, mask));
    EXPECT_TRUE(table.dominated_or_record(0, query, mask));
    EXPECT_EQ(table.hits(), 1u);
  }
}

TEST(DominanceTable, MatchesLinearScanWithMultiWordMasks) {
  // m * K = 72 > 64: every mask spans two words.
  for (const double scale : {1.0, 1e-12, 1000.0}) {
    const auto stream = random_stream(9, 8, 4, 6000, scale, 11);
    const std::size_t hits = run_differential(
        stream, 9, 8, 4, 256, std::to_string(scale) + " scale, m=9 K=8");
    EXPECT_GT(hits, 100u);
    EXPECT_LT(hits, stream.size());
  }
}

TEST(DominanceTable, MatchesLinearScanOnSmallShapes) {
  for (const std::size_t m : {std::size_t{1}, std::size_t{2},
                              std::size_t{6}}) {
    for (const std::size_t kc : {std::size_t{1}, std::size_t{3}}) {
      const auto stream = random_stream(m, kc, 3, 3000, 1.0, 100 + m * kc);
      run_differential(stream, m, kc, 3, 256,
                       std::to_string(m) + "x" + std::to_string(kc));
    }
  }
}

TEST(DominanceTable, MatchesLinearScanWithEqualLoadSums) {
  // Every state is a permutation of one integer load vector, so all load
  // sums tie exactly; masks vary.
  const std::size_t m = 6;
  const std::size_t kc = 4;
  Xoshiro256 rng(5);
  std::vector<State> stream;
  for (std::size_t t = 0; t < 3000; ++t) {
    State s;
    s.depth = rng.next_below(2);
    s.loads = {2.0, 2.0, 2.0, 2.0, 5.0, 5.0};
    for (std::size_t i = m; i > 1; --i) {
      std::swap(s.loads[i - 1], s.loads[rng.next_below(i)]);
    }
    s.on.resize(m * kc);
    for (std::size_t e = 0; e < s.on.size(); ++e) {
      s.on[e] = e % 3 == 0 && rng.next_bernoulli(0.8) ? 1 : 0;
    }
    stream.push_back(std::move(s));
  }
  const std::size_t hits = run_differential(stream, m, kc, 2, 256, "ties");
  EXPECT_GT(hits, 0u);
}

TEST(DominanceTable, MatchesLinearScanOnceTheCapIsReached) {
  // Small caps fill every level early; later states are checked but no
  // longer recorded, in both memos alike.
  for (const std::size_t limit : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}}) {
    const auto stream = random_stream(9, 8, 2, 4000, 1.0, 77 + limit);
    run_differential(stream, 9, 8, 2, limit,
                     std::to_string(limit) + " cap");
  }
}

}  // namespace
}  // namespace setsched::exact
