#pragma once

// The committed reference table behind quality_ratio and the exact-prove
// optimum check. Measured runs only read it; `perfbench reference` writes it
// from long offline runs and records its own command line in the header.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct ReferenceRow {
  Workload workload = Workload::kApproxLp;
  std::uint64_t gen_seed = 0;
  Reference reference;
};

class ReferenceTable {
 public:
  /// Parses a table file; throws std::runtime_error on a missing file or a
  /// malformed row.
  [[nodiscard]] static ReferenceTable load(const std::string& path);

  /// The row of one universe instance, or nullptr if the table lacks it.
  [[nodiscard]] const Reference* find(Workload workload,
                                      std::uint64_t gen_seed) const;

 private:
  std::map<std::pair<Workload, std::uint64_t>, Reference> rows_;
};

/// Long offline solve of one universe instance: the certified lower bound
/// of a `seconds`-budget branch-and-price run (plus the rounding's LP bound
/// on approx-lp), and the proven optimum where one is found. exact-prove
/// instances are proven by a cold depth-first search with assignment-LP
/// bounds, independent of the dive-then-prove chain the workload times.
[[nodiscard]] ReferenceRow compute_reference(Workload workload,
                                             std::uint64_t gen_seed,
                                             double seconds);

/// Writes rows sorted by (workload, generator seed) with `command` recorded
/// in the header.
void write_reference(const std::string& path, std::vector<ReferenceRow> rows,
                     const std::string& command);

}  // namespace perfbench
