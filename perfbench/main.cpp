// perfbench: fixed-work closed-loop solver benchmark.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --reference FILE [--heldout] [--trace-out FILE]
//   perfbench reference --out FILE [--seconds T] [--threads K]
//
// `run` prints a human-readable report and, as its last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. `reference`
// recomputes the committed reference table from long offline solves.
// README.md documents every workload and metric.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/stats.h"
#include "obs/phase.h"
#include "reference.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Setup (generation, reference load, warm-up solve) runs this many times
/// per process; setup_s is the median.
constexpr int kSetupRounds = 5;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : setsched::percentile(v, 0.5);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Benchmark-side spans around generate, solve and validate, kept in memory
/// and written as Chrome trace JSON at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Records a finished span; returns its id. `parent` 0 = none; `request`
  /// groups the spans of one solve.
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, int request, std::string args = {}) {
    spans_.push_back({name, ms_between(epoch_, start) * 1000.0,
                      ms_between(start, end) * 1000.0, ++last_id_, parent,
                      request, std::move(args)});
    return last_id_;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char head[256];
      std::snprintf(head, sizeof head,
                    "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{"
                    "\"id\":%d,\"parent\":%d,\"request\":%d",
                    i ? "," : "", s.name, s.ts_us, s.dur_us, s.id, s.parent,
                    s.request);
      out << head << s.args << "}}";
    }
    out << "]}\n";
  }

 private:
  struct Span {
    const char* name;
    double ts_us;
    double dur_us;
    int id;
    int parent;
    int request;
    std::string args;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int last_id_ = 0;
};

std::string phase_args(const setsched::obs::PhaseTimes& phases) {
  std::string out;
  for (std::size_t i = 0; i < setsched::obs::kPhaseCount; ++i) {
    const auto phase = static_cast<setsched::obs::Phase>(i);
    if (phases[phase] == 0.0) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, ",\"%s_ms\":%.4f",
                  std::string(setsched::obs::phase_name(phase)).c_str(),
                  phases[phase]);
    out += buf;
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct RunArgs {
  Workload workload = Workload::kApproxLp;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  Block block = Block::kDefault;
  std::string reference;
  std::string trace_out;
};

/// Everything setup produces: the run's instances with their references.
struct Setup {
  std::vector<BenchInstance> instances;
  std::vector<Reference> references;
  Clock::time_point generate_start, generate_end;
  /// Empty when the warm-up solve passed its checks.
  std::string warmup_error;
};

Setup set_up(const RunArgs& args, const std::vector<std::size_t>& order) {
  Setup setup;
  setup.generate_start = Clock::now();
  for (const std::size_t index : order) {
    setup.instances.push_back(
        make_instance(args.workload, generator_seed(args.block, index)));
  }
  setup.generate_end = Clock::now();
  const ReferenceTable table = ReferenceTable::load(args.reference);
  for (const BenchInstance& bench : setup.instances) {
    const Reference* ref = table.find(args.workload, bench.gen_seed);
    if (!ref || ref->fingerprint != fingerprint(bench.instance)) {
      throw std::runtime_error(
          "reference table has no row matching " +
          std::string(workload_name(args.workload)) + " instance " +
          std::to_string(bench.gen_seed) +
          " (regenerate it with `perfbench reference`)");
    }
    setup.references.push_back(*ref);
  }
  // Warm-up: one solve of the block's first universe instance, the same
  // for every run seed.
  const BenchInstance warm =
      make_instance(args.workload, generator_seed(args.block, 0));
  const Reference* warm_ref = table.find(args.workload, warm.gen_seed);
  if (!warm_ref) throw std::runtime_error("reference table lacks the warm-up row");
  try {
    setup.warmup_error = check_result(args.workload, warm,
                                      solve(args.workload, warm), *warm_ref);
  } catch (const std::exception& e) {
    setup.warmup_error = std::string("threw: ") + e.what();
  }
  return setup;
}

/// Per-solve record of the timed phase.
struct SolveRecord {
  double solve_ms = 0.0;
  double traced_ms = 0.0;  // trace mode: the same solve with timing on
  double validate_ms = 0.0;
  Counters counters;
  setsched::obs::PhaseTimes phases;
};

int run(const RunArgs& args, Clock::time_point process_start) {
  const std::vector<std::size_t> order = run_order(args.workload, args.seed);
  const std::string name(workload_name(args.workload));
  SpanLog spans(process_start);

  std::vector<double> setup_s, generate_ms;
  Setup setup;
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto start = round == 0 ? process_start : Clock::now();
    setup = set_up(args, order);
    const auto end = Clock::now();
    setup_s.push_back(ms_between(start, end) / 1000.0);
    generate_ms.push_back(
        ms_between(setup.generate_start, setup.generate_end));
    const int id = spans.add("setup", start, end, 0, 0);
    spans.add("generate", setup.generate_start, setup.generate_end, id, 0);
  }
  if (!setup.warmup_error.empty()) {
    std::fprintf(stderr, "warm-up solve failed: %s\n",
                 setup.warmup_error.c_str());
  }

  // A traced run makes one pass, solving each instance twice.
  const std::size_t solves =
      (args.trace ? 1 : passes(args.workload, args.seconds)) *
      setup.instances.size();
  std::vector<SolveRecord> records;
  std::vector<double> quality, certificate;
  Tally tally;
  setsched::obs::set_timing_enabled(false);
  const auto phase_start = Clock::now();
  for (std::size_t s = 0; s < solves; ++s) {
    const std::size_t slot = s % setup.instances.size();
    const BenchInstance& bench = setup.instances[slot];
    SolveRecord rec;
    std::optional<SolveResult> result;
    std::string error;
    const int request = static_cast<int>(s) + 1;
    try {
      // Trace mode solves each instance twice, untimed and timed, in an
      // alternating order; the untimed time feeds trace.overhead_pct.
      const bool timed_first = args.trace && s % 2 == 1;
      for (int copy = 0; copy < (args.trace ? 2 : 1); ++copy) {
        const bool timed = args.trace && (copy == 0) == timed_first;
        setsched::obs::set_timing_enabled(timed);
        const auto before = setsched::obs::phase_snapshot();
        const auto t0 = Clock::now();
        SolveResult r = solve(args.workload, bench);
        const auto t1 = Clock::now();
        setsched::obs::set_timing_enabled(false);
        if (timed) {
          rec.traced_ms = ms_between(t0, t1);
          rec.phases = setsched::obs::phase_snapshot() - before;
          spans.add("solve", t0, t1, 0, request, phase_args(rec.phases));
        } else {
          rec.solve_ms = ms_between(t0, t1);
        }
        rec.counters = r.counters;
        result = std::move(r);
      }
      const auto v0 = Clock::now();
      error = check_result(args.workload, bench, *result,
                           setup.references[slot]);
      const auto v1 = Clock::now();
      rec.validate_ms = ms_between(v0, v1);
      if (args.trace) spans.add("validate", v0, v1, 0, request);
    } catch (const std::exception& e) {
      error = std::string("threw: ") + e.what();
    }
    if (!error.empty()) {
      std::fprintf(stderr, "FAILED %s instance %llu: %s\n", name.c_str(),
                   static_cast<unsigned long long>(bench.gen_seed),
                   error.c_str());
      tally.record(result ? Outcome::kInvalid : Outcome::kThrew);
    } else {
      tally.record(Outcome::kOk);
      quality.push_back(result->makespan / setup.references[slot].lower_bound);
      certificate.push_back(result->makespan / result->lower_bound);
    }
    if (result) records.push_back(rec);  // a solve that threw has no time
  }
  const double phase_s = ms_between(phase_start, Clock::now()) / 1000.0;
  if (args.trace && !args.trace_out.empty()) spans.write(args.trace_out);

  const bool correct = tally.failed() == 0 && setup.warmup_error.empty();
  std::printf("perfbench %s seed=%llu block=%s solves=%zu instances=%zu\n",
              name.c_str(), static_cast<unsigned long long>(args.seed),
              args.block == Block::kDefault ? "default" : "heldout", solves,
              setup.instances.size());

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> times;
    for (const SolveRecord& r : records) times.push_back(r.solve_ms);
    if (times.empty()) times.push_back(0.0);
    const Tail tail = tail_percentile(times);
    std::printf("  tail: p%d over %zu samples, %zu beyond it%s\n",
                tail.percentile, tail.samples, tail.beyond,
                tail.present ? "" : " (too few samples: reporting the max)");
    metrics = {
        {"solve_ms_p50", median(times), "ms"},
        {"solve_ms_tail",
         tail.present ? tail.value : setsched::max_value(times), "ms"},
        {"solves_per_s", static_cast<double>(solves - tally.failed()) / phase_s,
         "1/s"},
        {"quality_ratio", setsched::geometric_mean(quality), "ratio"},
        {"cert_ratio", setsched::geometric_mean(certificate), "ratio"},
        {"ok_share", tally.ok_share(), "ratio"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
    print_result(correct, tally.attempted(), tally.failed(), metrics);
    return 0;
  }

  // Per-layer metrics from the timed copies of each solve.
  Counters sum;
  std::size_t dp_states_max = 0, limited = 0;
  setsched::obs::PhaseTimes phases;
  double solve_ms = 0.0, traced_ms = 0.0, validate_ms = 0.0;
  for (const SolveRecord& r : records) {
    const Counters& c = r.counters;
    sum.lp_solves += c.lp_solves;
    sum.lp_iterations += c.lp_iterations;
    sum.lp_dual_solves += c.lp_dual_solves;
    sum.lp_recoveries += c.lp_recoveries;
    sum.nodes += c.nodes;
    sum.lp_probes += c.lp_probes;
    sum.fixed_vars += c.fixed_vars;
    sum.cg_columns += c.cg_columns;
    sum.cg_pricing_rounds += c.cg_pricing_rounds;
    sum.cg_fallbacks += c.cg_fallbacks;
    sum.ptas_probes += c.ptas_probes;
    dp_states_max = std::max(dp_states_max, c.max_dp_states);
    limited += c.resource_limited ? 1 : 0;
    phases += r.phases;
    solve_ms += r.solve_ms;
    traced_ms += r.traced_ms;
    validate_ms += r.validate_ms;
  }
  const LayerTimes lt = layer_times(phases);
  const double n = static_cast<double>(std::max<std::size_t>(1, records.size()));
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto per = [n](double v) { return v / n; };
  metrics = {
      {"lp.iters_per_solve", per(sum.lp_iterations), "count"},
      {"lp.solves_per_solve", per(sum.lp_solves), "count"},
      {"lp.dual_share", ratio(sum.lp_dual_solves, sum.lp_solves), "ratio"},
      {"lp.ms", per(lt.lp_ms), "ms"},
      {"lp.factor_ms", per(lt.lp_factor_ms), "ms"},
      {"lp.ftran_ms", per(lt.lp_ftran_ms), "ms"},
      {"lp.btran_ms", per(lt.lp_btran_ms), "ms"},
      {"lp.pricing_ms", per(lt.lp_pricing_ms), "ms"},
      {"lp.self_ms", per(lt.lp_self_ms), "ms"},
      {"lp.us_per_iter", ratio(lt.lp_ms * 1000.0, sum.lp_iterations), "us"},
      {"lp.solve_share", ratio(lt.lp_ms, traced_ms), "ratio"},
      {"lp.recoveries", static_cast<double>(sum.lp_recoveries), "count"},
      {"exact.nodes", per(sum.nodes), "count"},
      {"exact.nodes_per_s", ratio(sum.nodes, solve_ms / 1000.0), "1/s"},
      {"exact.lp_probes", per(sum.lp_probes), "count"},
      {"exact.fixed_vars", per(sum.fixed_vars), "count"},
      {"exact.root_bound_ms", per(lt.root_bound_ms), "ms"},
      {"exact.dive_ms", per(lt.dive_ms), "ms"},
      {"exact.prove_ms", per(lt.prove_ms), "ms"},
      {"exact.dominance_ms", per(lt.dominance_ms), "ms"},
      {"exact.dominance_share", ratio(lt.dominance_ms, traced_ms), "ratio"},
      {"exact.search_self_ms", per(lt.search_self_ms), "ms"},
      {"colgen.columns", per(sum.cg_columns), "count"},
      {"colgen.pricing_rounds", per(sum.cg_pricing_rounds), "count"},
      {"colgen.fallbacks", per(sum.cg_fallbacks), "count"},
      {"uniform.probes", per(sum.ptas_probes), "count"},
      {"uniform.dp_states_max", static_cast<double>(dp_states_max), "count"},
      {"uniform.resource_limited_share", per(limited), "ratio"},
      {"uniform.ms_per_probe", ratio(solve_ms, sum.ptas_probes), "ms"},
      {"core.generate_ms", median(generate_ms), "ms"},
      {"core.validate_ms", per(validate_ms), "ms"},
      {"trace.overhead_pct", 100.0 * (ratio(traced_ms, solve_ms) - 1.0), "%"},
  };
  print_result(correct, tally.attempted(), tally.failed(), metrics);
  return 0;
}

int reference(const std::string& out, double seconds, std::size_t threads,
              const std::string& command) {
  struct Task {
    Workload workload;
    std::uint64_t gen_seed;
  };
  std::vector<Task> tasks;
  for (const Workload w : kWorkloads) {
    for (const Block b : {Block::kDefault, Block::kHeldOut}) {
      for (std::size_t i = 0; i < spec(w).universe; ++i) {
        tasks.push_back({w, generator_seed(b, i)});
      }
    }
  }
  std::vector<ReferenceRow> rows(tasks.size());
  std::atomic<std::size_t> next{0};
  setsched::Mutex io;  // serializes progress lines and the first error
  std::string error;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = next++) < tasks.size();) {
        try {
          rows[i] = compute_reference(tasks[i].workload, tasks[i].gen_seed,
                                      seconds);
        } catch (const std::exception& e) {
          const setsched::MutexLock lock(io);
          if (error.empty()) error = e.what();
          continue;
        }
        const setsched::MutexLock lock(io);
        std::fprintf(stderr, "[%zu/%zu] %s %llu lb=%.6g%s\n", i + 1,
                     tasks.size(),
                     std::string(workload_name(tasks[i].workload)).c_str(),
                     static_cast<unsigned long long>(tasks[i].gen_seed),
                     rows[i].reference.lower_bound,
                     rows[i].reference.optimum ? " (optimum)" : "");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (!error.empty()) {
    std::fprintf(stderr, "reference failed: %s\n", error.c_str());
    return 1;
  }
  write_reference(out, rows, command);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --reference FILE [--heldout] [--trace-out FILE]\n"
               "       perfbench reference --out FILE [--seconds T] "
               "[--threads K]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> opts;
  bool heldout = false;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    if (key == "--heldout") {
      heldout = true;
    } else if (i + 1 < argc) {
      opts[key] = argv[++i];
    } else {
      return usage();
    }
  }
  const auto get = [&opts](const char* key, const char* fallback) {
    const auto it = opts.find(key);
    return it == opts.end() ? std::string(fallback) : it->second;
  };
  try {
    if (mode == "run") {
      RunArgs args;
      const auto workload = workload_from_name(get("--workload", ""));
      if (!workload || !opts.count("--reference")) return usage();
      args.workload = *workload;
      args.seed = std::stoull(get("--seed", "1"));
      args.seconds = std::stod(get("--seconds", "20"));
      args.trace = get("--trace", "0") == "1";
      args.block = heldout ? Block::kHeldOut : Block::kDefault;
      args.reference = get("--reference", "");
      args.trace_out = get("--trace-out", "");
      return run(args, process_start);
    }
    if (mode == "reference") {
      if (!opts.count("--out")) return usage();
      std::string command = "perfbench";
      for (int i = 1; i < argc; ++i) {
        command += ' ';
        command += argv[i];
      }
      return reference(get("--out", ""), std::stod(get("--seconds", "6")),
                       std::stoul(get("--threads", "1")), command);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
