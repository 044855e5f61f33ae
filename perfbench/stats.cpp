#include "stats.h"

#include <cmath>

#include "common/stats.h"

namespace perfbench {

using setsched::obs::Phase;

Tail tail_percentile(std::span<const double> samples) {
  Tail tail;
  tail.samples = samples.size();
  const std::size_t n = samples.size();
  if (n <= kTailMinBeyond) return tail;
  const auto beyond = [n](int p) {
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    return n - 1 - static_cast<std::size_t>(std::floor(rank));
  };
  for (int p = 99; p >= 0; --p) {
    if (beyond(p) < kTailMinBeyond) continue;
    tail.present = true;
    tail.percentile = p;
    tail.beyond = beyond(p);
    tail.value = setsched::percentile(samples, p / 100.0);
    break;
  }
  return tail;
}

void Tally::record(Outcome outcome) {
  ++attempted_;
  if (outcome != Outcome::kOk) ++failed_;
}

double Tally::failed_share() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

double Tally::ok_share() const { return 1.0 - failed_share(); }

LayerTimes layer_times(const setsched::obs::PhaseTimes& phases) {
  LayerTimes t;
  t.lp_ms = phases[Phase::kLpSolve];
  t.lp_factor_ms = phases[Phase::kLpFactor];
  t.lp_ftran_ms = phases[Phase::kLpFtran];
  t.lp_btran_ms = phases[Phase::kLpBtran];
  t.lp_pricing_ms = phases[Phase::kLpPricing];
  t.lp_self_ms = t.lp_ms - t.lp_factor_ms - t.lp_ftran_ms - t.lp_btran_ms -
                 t.lp_pricing_ms;
  t.root_bound_ms = phases[Phase::kRootBound];
  t.dive_ms = phases[Phase::kDive];
  t.prove_ms = phases[Phase::kProve];
  t.dominance_ms = phases[Phase::kDominance];
  const double search = t.root_bound_ms + t.dive_ms + t.prove_ms;
  if (search > 0.0) {
    t.search_self_ms =
        search - t.lp_ms - t.dominance_ms - phases[Phase::kRefix];
  }
  return t;
}

}  // namespace perfbench
