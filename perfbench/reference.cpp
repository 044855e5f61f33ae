#include "reference.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exact/branch_bound.h"
#include "unrelated/rounding.h"

namespace perfbench {

using namespace setsched;

ReferenceTable ReferenceTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference table " + path);
  ReferenceTable table;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, print, optimum;
    std::uint64_t gen_seed = 0;
    Reference ref;
    fields >> name >> gen_seed >> print >> ref.lower_bound >> optimum;
    const auto workload = workload_from_name(name);
    if (!fields || !workload) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": malformed reference row");
    }
    ref.fingerprint = std::stoull(print, nullptr, 16);
    if (optimum != "-") ref.optimum = std::stod(optimum);
    table.rows_[{*workload, gen_seed}] = ref;
  }
  return table;
}

const Reference* ReferenceTable::find(Workload workload,
                                      std::uint64_t gen_seed) const {
  const auto it = rows_.find({workload, gen_seed});
  return it == rows_.end() ? nullptr : &it->second;
}

ReferenceRow compute_reference(Workload workload, std::uint64_t gen_seed,
                               double seconds) {
  const BenchInstance bench = make_instance(workload, gen_seed);
  ReferenceRow row{workload, gen_seed, {}};
  row.reference.fingerprint = fingerprint(bench.instance);

  ExactOptions options;
  options.time_limit_s = seconds;
  if (workload == Workload::kExactProve) {
    options.mode = ExactMode::kProve;
    options.bound = BoundMode::kAssignment;
  } else {
    options.mode = ExactMode::kDiveThenProve;
    options.bound = BoundMode::kConfig;
    options.dive_time_limit_s = seconds / 4;
  }
  const ExactResult r = bench.uniform ? solve_exact(*bench.uniform, options)
                                      : solve_exact(bench.instance, options);
  row.reference.lower_bound = r.lower_bound;
  if (r.proven_optimal) row.reference.optimum = r.makespan;
  if (workload == Workload::kApproxLp) {
    const RoundingResult lp = randomized_rounding(bench.instance, {});
    row.reference.lower_bound =
        std::max(row.reference.lower_bound, lp.lp_lower_bound);
  }
  if (workload == Workload::kExactProve && !row.reference.optimum) {
    throw std::runtime_error("exact-prove instance " +
                             std::to_string(gen_seed) +
                             " not proven within the reference budget");
  }
  return row;
}

void write_reference(const std::string& path, std::vector<ReferenceRow> rows,
                     const std::string& command) {
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return std::pair(a.workload, a.gen_seed) < std::pair(b.workload, b.gen_seed);
  });
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("cannot write " + path);
  std::fprintf(out,
               "# perfbench reference table: certified lower bound and proven\n"
               "# optimum (- when unproven) per universe instance.\n"
               "# Written by: %s\n"
               "# workload gen_seed fingerprint lower_bound optimum\n",
               command.c_str());
  for (const ReferenceRow& row : rows) {
    char optimum[32] = "-";
    if (row.reference.optimum) {
      std::snprintf(optimum, sizeof optimum, "%.17g", *row.reference.optimum);
    }
    std::fprintf(out, "%s %" PRIu64 " %016" PRIx64 " %.17g %s\n",
                 std::string(workload_name(row.workload)).c_str(), row.gen_seed,
                 row.reference.fingerprint, row.reference.lower_bound, optimum);
  }
  std::fclose(out);
}

}  // namespace perfbench
