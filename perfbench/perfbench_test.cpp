// Tests of the benchmark itself: its statistics, its failure accounting,
// its reference table, and the determinism its fixed-work design rests on.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <vector>

#include "common/stats.h"
#include "reference.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using setsched::obs::Phase;
using setsched::obs::PhaseTimes;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;  // descending: the rule must not assume sorted input
}

TEST(TailRule, NoTailAtTenSamplesOrFewer) {
  EXPECT_FALSE(tail_percentile({}).present);
  const auto ten = ramp(10);
  const Tail tail = tail_percentile(ten);
  EXPECT_FALSE(tail.present);
  EXPECT_EQ(tail.samples, 10u);
}

TEST(TailRule, ElevenSamplesGiveTheLowestUsefulPercentile) {
  const auto eleven = ramp(11);
  const Tail tail = tail_percentile(eleven);
  ASSERT_TRUE(tail.present);
  EXPECT_EQ(tail.percentile, 9);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_DOUBLE_EQ(tail.value, setsched::percentile(eleven, 0.09));
}

TEST(TailRule, HighestPercentileWithTenBeyond) {
  const auto hundred = ramp(100);
  Tail tail = tail_percentile(hundred);
  ASSERT_TRUE(tail.present);
  EXPECT_EQ(tail.percentile, 90);  // rank 89.1: samples 90..99 lie beyond
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_DOUBLE_EQ(tail.value, setsched::percentile(hundred, 0.90));

  const auto fifty = ramp(50);
  tail = tail_percentile(fifty);
  EXPECT_EQ(tail.percentile, 81);  // rank 39.69; p82 (rank 40.18) leaves 9
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(GeometricMean, OfRatios) {
  const std::vector<double> ratios = {1.0, 4.0};
  EXPECT_DOUBLE_EQ(setsched::geometric_mean(ratios), 2.0);
  const std::vector<double> three = {2.0, 4.0, 8.0};
  EXPECT_NEAR(setsched::geometric_mean(three), 4.0, 1e-12);
  const std::vector<double> ones(7, 1.0);
  EXPECT_DOUBLE_EQ(setsched::geometric_mean(ones), 1.0);
}

TEST(FailureAccounting, ThrownAndInvalidSolvesEachCountOnce) {
  Tally tally;
  tally.record(Outcome::kOk);
  tally.record(Outcome::kThrew);
  tally.record(Outcome::kInvalid);
  tally.record(Outcome::kOk);
  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_DOUBLE_EQ(tally.failed_share(), 0.5);
  EXPECT_DOUBLE_EQ(tally.ok_share(), 0.5);
  EXPECT_DOUBLE_EQ(Tally{}.failed_share(), 0.0);
}

TEST(FailureAccounting, CheckRejectsBrokenResults) {
  const BenchInstance bench = make_instance(Workload::kExactProve, 1);
  const ReferenceTable table = ReferenceTable::load(PERFBENCH_REFERENCE);
  const Reference* ref = table.find(Workload::kExactProve, 1);
  ASSERT_NE(ref, nullptr);
  const SolveResult good = solve(Workload::kExactProve, bench);
  EXPECT_EQ(check_result(Workload::kExactProve, bench, good, *ref), "");

  SolveResult unassigned = good;
  unassigned.schedule.assignment[0] = setsched::kUnassigned;
  EXPECT_NE(check_result(Workload::kExactProve, bench, unassigned, *ref), "");

  SolveResult misreported = good;
  misreported.makespan += 1.0;
  EXPECT_NE(check_result(Workload::kExactProve, bench, misreported, *ref), "");

  SolveResult unproven = good;
  unproven.proven = false;
  EXPECT_NE(check_result(Workload::kExactProve, bench, unproven, *ref), "");

  Reference wrong_optimum = *ref;
  wrong_optimum.optimum = *ref->optimum - 1.0;
  EXPECT_NE(check_result(Workload::kExactProve, bench, good, wrong_optimum), "");

  Reference above = *ref;
  above.lower_bound = good.makespan + 1.0;
  EXPECT_NE(check_result(Workload::kExactProve, bench, good, above), "");
}

TEST(LayerTimes, SelfTimesBySubtraction) {
  PhaseTimes p;
  p[Phase::kLpSolve] = 50.0;
  p[Phase::kLpPrimal] = 10.0;  // loop tier: not subtracted again
  p[Phase::kLpDual] = 35.0;
  p[Phase::kLpFactor] = 12.0;
  p[Phase::kLpFtran] = 9.0;
  p[Phase::kLpBtran] = 8.0;
  p[Phase::kLpPricing] = 6.0;
  p[Phase::kRootBound] = 20.0;
  p[Phase::kDive] = 30.0;
  p[Phase::kProve] = 70.0;
  p[Phase::kDominance] = 25.0;
  p[Phase::kRefix] = 5.0;
  const LayerTimes t = layer_times(p);
  EXPECT_DOUBLE_EQ(t.lp_ms, 50.0);
  EXPECT_DOUBLE_EQ(t.lp_self_ms, 50.0 - 12.0 - 9.0 - 8.0 - 6.0);
  EXPECT_DOUBLE_EQ(t.search_self_ms, 120.0 - 50.0 - 25.0 - 5.0);
  EXPECT_DOUBLE_EQ(t.dominance_ms, 25.0);

  PhaseTimes lp_only;  // a non-search solver: LP outside any search phase
  lp_only[Phase::kLpSolve] = 40.0;
  lp_only[Phase::kLpFactor] = 10.0;
  const LayerTimes u = layer_times(lp_only);
  EXPECT_DOUBLE_EQ(u.lp_self_ms, 30.0);
  EXPECT_DOUBLE_EQ(u.search_self_ms, 0.0);
}

TEST(RunOrder, SeededPermutationOfTheUniverse) {
  for (const Workload w : kWorkloads) {
    const auto a = run_order(w, 7);
    EXPECT_EQ(a, run_order(w, 7));
    EXPECT_NE(a, run_order(w, 8));
    ASSERT_EQ(a.size(), spec(w).universe);
    EXPECT_EQ(std::set<std::size_t>(a.begin(), a.end()).size(), a.size());
    for (const std::size_t i : a) EXPECT_LT(i, spec(w).universe);
  }
}

TEST(ReferenceTable, CoversBothBlocksWithMatchingData) {
  const ReferenceTable table = ReferenceTable::load(PERFBENCH_REFERENCE);
  for (const Workload w : kWorkloads) {
    for (const Block b : {Block::kDefault, Block::kHeldOut}) {
      for (std::size_t i = 0; i < spec(w).universe; ++i) {
        const std::uint64_t seed = generator_seed(b, i);
        const Reference* ref = table.find(w, seed);
        ASSERT_NE(ref, nullptr) << workload_name(w) << " " << seed;
        EXPECT_EQ(ref->fingerprint, fingerprint(make_instance(w, seed).instance))
            << workload_name(w) << " " << seed;
        EXPECT_GT(ref->lower_bound, 0.0);
        if (w == Workload::kExactProve) EXPECT_TRUE(ref->optimum.has_value());
      }
    }
  }
}

// A short slice of each workload, solved twice: makespans and every counter
// repeat exactly, every result passes its checks, and no solve comes near a
// wall-clock budget (which would make the amount of work timing-dependent).
TEST(Determinism, ShortSliceRepeatsExactly) {
  const ReferenceTable table = ReferenceTable::load(PERFBENCH_REFERENCE);
  for (const Workload w : kWorkloads) {
    const auto order = run_order(w, 1);
    const std::size_t slice = w == Workload::kUniformPtas ? 1 : 2;
    for (std::size_t s = 0; s < slice; ++s) {
      const BenchInstance bench =
          make_instance(w, generator_seed(Block::kDefault, order[s]));
      const Reference* ref = table.find(w, bench.gen_seed);
      ASSERT_NE(ref, nullptr);
      std::vector<SolveResult> runs;
      for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        runs.push_back(solve(w, bench));
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        EXPECT_LT(seconds, kDiveTimeLimitS) << "dive budget could bind";
        EXPECT_LT(seconds, kExactTimeLimitS / 2)
            << "root-bisection half-budget cap could bind";
        EXPECT_EQ(check_result(w, bench, runs.back(), *ref), "")
            << workload_name(w) << " " << bench.gen_seed;
      }
      EXPECT_EQ(runs[0].makespan, runs[1].makespan) << workload_name(w);
      EXPECT_EQ(runs[0].schedule, runs[1].schedule) << workload_name(w);
      EXPECT_EQ(runs[0].counters, runs[1].counters) << workload_name(w);
    }
  }
}

}  // namespace
}  // namespace perfbench
