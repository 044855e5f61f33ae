#include "expt/record_io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/format.h"
#include "core/counters.h"
#include "obs/phase.h"

namespace setsched::expt {

namespace {

// --- writing ---------------------------------------------------------------

void write_double(std::ostream& os, double v) {
  write_finite_double(os, v, "record_io RunRecord");
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buffer;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Nested phase_ms object: non-zero phases only, in enum order, so records
/// from solvers without phase accounting stay compact ("phase_ms":{}).
void write_phase_object(std::ostream& os, const obs::PhaseTimes& phases) {
  os << '{';
  bool first = true;
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const double v = phases.ms[i];
    if (v == 0.0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << obs::phase_name(static_cast<obs::Phase>(i)) << "\":";
    write_double(os, v);
  }
  os << '}';
}

// --- reading ---------------------------------------------------------------

/// Cursor over one JSONL line. Only the flat {"key": string-or-number, ...}
/// shape emitted by write_jsonl() is accepted; anything else is a loud
/// CheckError naming the offending line.
struct LineParser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw CheckError("record_io: " + why + " in JSONL line '" +
                     std::string(text) + "'");
  }
  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t')) {
      ++pos;
    }
  }
  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos >= text.size();
  }
  char peek() {
    skip_ws();
    if (pos >= text.size()) fail("unexpected end");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("dangling escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(
              text.data() + pos, text.data() + pos + 4, code, 16);
          if (ec != std::errc{} || end != text.data() + pos + 4) {
            fail("bad \\u escape");
          }
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          pos += 4;
          break;
        }
        default: fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }
  /// A bare numeric token, terminated by ',' or '}'.
  std::string_view parse_number_token() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] != ',' && text[pos] != '}' &&
           text[pos] != ' ' && text[pos] != '\t') {
      ++pos;
    }
    if (pos == start) fail("empty value");
    return text.substr(start, pos - start);
  }
};

double to_double(std::string_view token, const LineParser& p) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    p.fail("bad number '" + std::string(token) + "'");
  }
  return value;
}

template <typename Int>
Int to_integer(std::string_view token, const LineParser& p) {
  Int value = 0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    p.fail("bad integer '" + std::string(token) + "'");
  }
  return value;
}

bool to_bool(std::string_view token, const LineParser& p) {
  if (token == "true") return true;
  if (token == "false") return false;
  p.fail("bad boolean '" + std::string(token) + "'");
}

/// Position of `key` in the counter table, or kSolverCounterCount.
std::size_t counter_index(std::string_view key) {
  std::size_t c = 0;
  while (c < kSolverCounterCount && kSolverCounters[c].name != key) ++c;
  return c;
}

RunRecord parse_record_line(std::string_view line) {
  LineParser p{line};
  RunRecord r;
  // One bit per key, to reject duplicates: bits 0-19 are the fixed keys in
  // write_jsonl() order, bit kCounterBit + c is counter c of the table.
  // Every key is required except phase_ms and the counters the table marks
  // optional, so lines written before those existed parse with an empty
  // breakdown and zero counters.
  constexpr unsigned kPhaseBit = 13;
  constexpr unsigned kCounterBit = 20;
  static_assert(kCounterBit + kSolverCounterCount <= 64);
  const auto bit = [](std::size_t i) { return std::uint64_t{1} << i; };
  std::uint64_t seen = 0;
  const auto mark = [&](std::size_t i) {
    if (seen & bit(i)) p.fail("duplicate key");
    seen |= bit(i);
  };

  p.expect('{');
  bool first = true;
  while (p.peek() != '}') {
    if (!first) p.expect(',');
    first = false;
    const std::string key = p.parse_string();
    p.expect(':');
    if (key == "solver") {
      mark(0), r.solver = p.parse_string();
    } else if (key == "preset") {
      mark(1), r.preset = p.parse_string();
    } else if (key == "seed") {
      mark(2), r.seed = to_integer<std::uint64_t>(p.parse_number_token(), p);
    } else if (key == "cell_seed") {
      mark(3), r.cell_seed = to_integer<std::uint64_t>(p.parse_number_token(), p);
    } else if (key == "n") {
      mark(4), r.num_jobs = to_integer<std::size_t>(p.parse_number_token(), p);
    } else if (key == "m") {
      mark(5), r.num_machines = to_integer<std::size_t>(p.parse_number_token(), p);
    } else if (key == "classes") {
      mark(6), r.num_classes = to_integer<std::size_t>(p.parse_number_token(), p);
    } else if (key == "status") {
      mark(7), r.status = run_status_from_name(p.parse_string());
    } else if (key == "makespan") {
      mark(8), r.makespan = to_double(p.parse_number_token(), p);
    } else if (key == "lower_bound") {
      mark(9), r.lower_bound = to_double(p.parse_number_token(), p);
    } else if (key == "ratio") {
      mark(10), r.ratio = to_double(p.parse_number_token(), p);
    } else if (key == "setups") {
      mark(11), r.setups = to_integer<std::size_t>(p.parse_number_token(), p);
    } else if (key == "time_ms") {
      mark(12), r.time_ms = to_double(p.parse_number_token(), p);
    } else if (key == "phase_ms") {
      mark(kPhaseBit);
      p.expect('{');
      if (p.peek() != '}') {
        while (true) {
          const std::string name = p.parse_string();
          p.expect(':');
          obs::Phase phase;
          if (!obs::phase_from_name(name, &phase)) {
            p.fail("unknown phase '" + name + "'");
          }
          r.phase_ms[phase] = to_double(p.parse_number_token(), p);
          if (p.peek() != ',') break;
          p.expect(',');
        }
      }
      p.expect('}');
    } else if (key == "proven_optimal") {
      mark(14), r.proven_optimal = to_bool(p.parse_number_token(), p);
    } else if (key == "gap") {
      mark(15), r.gap = to_double(p.parse_number_token(), p);
    } else if (key == "epsilon") {
      mark(16), r.epsilon = to_double(p.parse_number_token(), p);
    } else if (key == "precision") {
      mark(17), r.precision = to_double(p.parse_number_token(), p);
    } else if (key == "time_limit_s") {
      mark(18), r.time_limit_s = to_double(p.parse_number_token(), p);
    } else if (key == "error") {
      mark(19), r.error = p.parse_string();
    } else if (const std::size_t c = counter_index(key);
               c < kSolverCounterCount) {
      mark(kCounterBit + c);
      r.*kSolverCounters[c].field =
          to_integer<std::size_t>(p.parse_number_token(), p);
    } else {
      p.fail("unknown key '" + key + "'");
    }
  }
  p.expect('}');
  if (!p.at_end()) p.fail("trailing content");
  std::uint64_t required = (bit(kCounterBit) - 1) & ~bit(kPhaseBit);
  for (std::size_t c = 0; c < kSolverCounterCount; ++c) {
    if (kSolverCounters[c].required) required |= bit(kCounterBit + c);
  }
  if ((seen & required) != required) p.fail("missing keys");
  return r;
}

// --- CSV -------------------------------------------------------------------

void write_csv_field(std::ostream& os, std::string_view s) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos) {
    os << s;
    return;
  }
  os << '"';
  for (const char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace

std::string_view run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kSkipped: return "skipped";
    case RunStatus::kInvalid: return "invalid";
    case RunStatus::kError: return "error";
    case RunStatus::kTimeout: return "timeout";
  }
  throw CheckError("unknown RunStatus value");
}

RunStatus run_status_from_name(std::string_view name) {
  if (name == "ok") return RunStatus::kOk;
  if (name == "skipped") return RunStatus::kSkipped;
  if (name == "invalid") return RunStatus::kInvalid;
  if (name == "error") return RunStatus::kError;
  if (name == "timeout") return RunStatus::kTimeout;
  throw CheckError("unknown run status '" + std::string(name) + "'");
}

void write_jsonl(std::ostream& os, const RunRecord& r) {
  os << "{\"solver\":";
  write_json_string(os, r.solver);
  os << ",\"preset\":";
  write_json_string(os, r.preset);
  os << ",\"seed\":" << r.seed;
  os << ",\"cell_seed\":" << r.cell_seed;
  os << ",\"n\":" << r.num_jobs;
  os << ",\"m\":" << r.num_machines;
  os << ",\"classes\":" << r.num_classes;
  os << ",\"status\":";
  write_json_string(os, run_status_name(r.status));
  os << ",\"makespan\":";
  write_double(os, r.makespan);
  os << ",\"lower_bound\":";
  write_double(os, r.lower_bound);
  os << ",\"ratio\":";
  write_double(os, r.ratio);
  os << ",\"setups\":" << r.setups;
  os << ",\"time_ms\":";
  write_double(os, r.time_ms);
  os << ",\"phase_ms\":";
  write_phase_object(os, r.phase_ms);
  for (const CounterInfo& c : kSolverCounters) {
    os << ",\"" << c.name << "\":" << r.*c.field;
  }
  os << ",\"proven_optimal\":" << (r.proven_optimal ? "true" : "false");
  os << ",\"gap\":";
  write_double(os, r.gap);
  os << ",\"epsilon\":";
  write_double(os, r.epsilon);
  os << ",\"precision\":";
  write_double(os, r.precision);
  os << ",\"time_limit_s\":";
  write_double(os, r.time_limit_s);
  os << ",\"error\":";
  write_json_string(os, r.error);
  os << "}\n";
}

void write_jsonl(std::ostream& os, std::span<const RunRecord> records) {
  for (const RunRecord& r : records) write_jsonl(os, r);
}

std::vector<RunRecord> read_jsonl(std::istream& is) {
  std::vector<RunRecord> records;
  std::string line;
  while (std::getline(is, line)) {
    std::string_view view = line;
    while (!view.empty() && (view.back() == '\r' || view.back() == ' ')) {
      view.remove_suffix(1);
    }
    if (view.empty()) continue;
    records.push_back(parse_record_line(view));
  }
  return records;
}

void write_csv(std::ostream& os, std::span<const RunRecord> records) {
  os << "solver,preset,seed,cell_seed,n,m,classes,status,makespan,"
        "lower_bound,ratio,setups,time_ms,phase_ms";
  for (const CounterInfo& c : kSolverCounters) os << ',' << c.name;
  os << ",proven_optimal,gap,epsilon,precision,time_limit_s,error\n";
  for (const RunRecord& r : records) {
    write_csv_field(os, r.solver);
    os << ',';
    write_csv_field(os, r.preset);
    os << ',' << r.seed << ',' << r.cell_seed << ',' << r.num_jobs << ','
       << r.num_machines << ',' << r.num_classes << ','
       << run_status_name(r.status) << ',';
    write_double(os, r.makespan);
    os << ',';
    write_double(os, r.lower_bound);
    os << ',';
    write_double(os, r.ratio);
    os << ',' << r.setups << ',';
    write_double(os, r.time_ms);
    os << ',';
    // Compact semicolon-separated breakdown ("lp_solve:1.5;dive:3") — no
    // commas, so the field never needs CSV quoting.
    {
      std::ostringstream phases;
      bool first = true;
      for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
        const double v = r.phase_ms.ms[i];
        if (v == 0.0) continue;
        if (!first) phases << ';';
        first = false;
        phases << obs::phase_name(static_cast<obs::Phase>(i)) << ':';
        write_double(phases, v);
      }
      write_csv_field(os, phases.str());
    }
    for (const CounterInfo& c : kSolverCounters) os << ',' << r.*c.field;
    os << ',' << (r.proven_optimal ? "true" : "false") << ',';
    write_double(os, r.gap);
    os << ',';
    write_double(os, r.epsilon);
    os << ',';
    write_double(os, r.precision);
    os << ',';
    write_double(os, r.time_limit_s);
    os << ',';
    write_csv_field(os, r.error);
    os << '\n';
  }
}

}  // namespace setsched::expt
