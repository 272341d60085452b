#include "core/grid_spec.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "core/enum_strings.h"
#include "core/result_fields.h"
#include "core/run_assembly.h"
#include "trace/binary_trace.h"
#include "trace/multiprogram.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"
#include "util/error.h"
#include "util/string_util.h"

namespace pcal {
namespace {

// Hard caps: a typo'd range must fail loudly, not allocate the design
// space of a datacenter.
constexpr std::size_t kMaxAxisValues = 4096;
constexpr std::size_t kMaxJobs = 1'000'000;

constexpr const char* kNumericAxes[] = {
    "cache_size", "line_size", "ways", "banks", "updates",
    "breakeven", "drowsy_window", "seed",
    // Hierarchy axes: lower-level sizes (0 = level disabled) and the
    // L2/L3 topology knobs the [grid] scalars do not cover (an l3_* axis
    // overrides the inherited l2_* value for the L3 only).
    "l2_size", "l3_size", "l2_drowsy_window", "l3_drowsy_window",
    // Timing axes (core/timing.h): per-level event costs, and the wakeup
    // latencies shared by every level.
    "hit_latency", "miss_latency", "l2_hit_latency", "l2_miss_latency",
    "l3_hit_latency", "l3_miss_latency", "drowsy_wake", "gated_wake",
    // Multi-core axes: private stacks over a shared LLC (core/multicore.h).
    "cores", "llc_size", "llc_ways_per_core",
    // Contention axes (core/contention.h): finite resources per level,
    // 0 = unlimited.  Bare names shape L1, l2_* the lower levels (L3
    // inherits L2, like the other l2_* knobs), llc_* the shared LLC.
    "mshrs", "ports", "bandwidth", "mshr_latency", "port_cycles",
    "l2_mshrs", "l2_ports", "l2_bandwidth",
    "llc_mshrs", "llc_ports", "llc_bandwidth"};
constexpr const char* kStringAxes[] = {
    "granularity", "indexing",    "policy",     "workload", "inclusion",
    "l2_granularity", "l2_indexing", "l2_policy",
    "l3_granularity", "l3_indexing", "l3_policy"};
// EnergyParams axes take real-valued lists ("0.1, 0.25").
constexpr const char* kFloatAxes[] = {
    "energy_drowsy_leak", "energy_gated_leak", "energy_sleep_overhead",
    "energy_control_leak_uw", "energy_gate_fixed_pj"};

bool is_numeric_axis(const std::string& key) {
  for (const char* k : kNumericAxes)
    if (key == k) return true;
  return false;
}

bool is_float_axis(const std::string& key) {
  for (const char* k : kFloatAxes)
    if (key == k) return true;
  return false;
}

std::string valid_axes_hint() {
  std::string out;
  for (const char* k : kNumericAxes) out += std::string(k) + " ";
  for (const char* k : kFloatAxes) out += std::string(k) + " ";
  for (const char* k : kStringAxes) out += std::string(k) + " ";
  out += "core<k>_workload";
  return out;
}

/// One "key = value" line of the spec, tagged with where it came from
/// ("line 12" or "override '...'") for error messages.
struct RawEntry {
  std::string section;
  std::string key;
  std::string value;
  std::string where;
};

[[noreturn]] void fail(const std::string& where, const std::string& msg) {
  throw ParseError("sweep spec " + where + ": " + msg);
}

/// Unsigned integer with an optional k/M byte multiplier ("8k" = 8192);
/// the shared parser (core/run_assembly.h) with the spec's error prefix.
std::uint64_t parse_number(const std::string& s, const std::string& where) {
  return parse_config_number(s, "sweep spec " + where);
}

/// Finite non-negative real number ("0.25"); used by the EnergyParams
/// axes.  "inf"/"nan" are rejected — they would serialize as invalid
/// JSON in the BENCH record, far from the offending spec line.
double parse_real(const std::string& s, const std::string& where) {
  return parse_config_real(s, "sweep spec " + where);
}

bool parse_bool(const std::string& s, const std::string& where) {
  return parse_config_bool(s, "sweep spec " + where);
}

/// Expands one range item: "1..32 log2", "2..8 step 2", "1..4".
std::vector<std::uint64_t> expand_range(const std::string& item,
                                        const std::string& where) {
  const std::size_t dots = item.find("..");
  const std::uint64_t lo = parse_number(item.substr(0, dots), where);
  std::istringstream rest(item.substr(dots + 2));
  std::string hi_text, mode, step_text;
  rest >> hi_text >> mode >> step_text;
  const std::uint64_t hi = parse_number(hi_text, where);
  if (lo > hi)
    fail(where, "range '" + item + "' is descending (" +
                    std::to_string(lo) + " > " + std::to_string(hi) + ")");
  std::uint64_t step = 1;
  bool log2 = false;
  if (mode == "log2") {
    if (!step_text.empty())
      fail(where, "trailing text after 'log2' in range '" + item + "'");
    if (lo == 0) fail(where, "log2 range '" + item + "' cannot start at 0");
    log2 = true;
  } else if (mode == "step") {
    step = parse_number(step_text, where);
    if (step == 0) fail(where, "range '" + item + "' has step 0");
  } else if (!mode.empty()) {
    fail(where, "range '" + item + "' wants 'log2' or 'step N', got '" +
                    mode + "'");
  }
  std::vector<std::uint64_t> out;
  for (std::uint64_t v = lo;;) {
    out.push_back(v);
    if (out.size() > kMaxAxisValues)
      fail(where, "range '" + item + "' expands past " +
                      std::to_string(kMaxAxisValues) + " values");
    if (log2) {
      if (v > hi / 2) break;
      v *= 2;
    } else {
      if (hi - v < step) break;
      v += step;
    }
  }
  return out;
}

std::vector<std::string> split_items(const std::string& value,
                                     const std::string& where,
                                     const std::string& axis) {
  std::vector<std::string> items;
  for (const std::string& raw : split(value, ',')) {
    const std::string item{trim(raw)};
    if (item.empty())
      fail(where, "axis '" + axis + "' has an empty value");
    items.push_back(item);
  }
  if (items.empty())
    fail(where, "axis '" + axis + "' has no values (empty cross-product)");
  return items;
}

std::vector<std::string> expand_numeric_axis(const std::string& axis,
                                             const std::string& value,
                                             const std::string& where) {
  std::vector<std::string> out;
  for (const std::string& item : split_items(value, where, axis)) {
    if (item.find("..") != std::string::npos) {
      for (const std::uint64_t v : expand_range(item, where))
        out.push_back(std::to_string(v));
    } else {
      out.push_back(std::to_string(parse_number(item, where)));
    }
    if (out.size() > kMaxAxisValues)
      fail(where, "axis '" + axis + "' expands past " +
                      std::to_string(kMaxAxisValues) + " values");
  }
  return out;
}

/// Real-valued axis: plain comma lists, each item validated and kept in
/// its original spelling (so coords and table rows read as written).
std::vector<std::string> expand_float_axis(const std::string& axis,
                                           const std::string& value,
                                           const std::string& where) {
  std::vector<std::string> items = split_items(value, where, axis);
  for (const std::string& item : items) parse_real(item, where);
  return items;
}

std::vector<std::string> expand_workload_axis(const std::string& value,
                                              const std::string& where,
                                              std::uint64_t footprint_bytes) {
  std::vector<std::string> out;
  for (const std::string& item : split_items(value, where, "workload")) {
    if (item == "mediabench") {
      for (const BenchmarkSignature& sig : mediabench_signatures())
        out.push_back(sig.name);
      continue;
    }
    if (starts_with(item, "trace:")) {
      if (item.size() == 6)
        fail(where, "'trace:' needs a file path (trace:<file>)");
      out.push_back(item);
      continue;
    }
    if (starts_with(item, "multiprog:")) {
      try {
        parse_multiprogram_spec(item.substr(10), footprint_bytes);
      } catch (const Error& e) {
        fail(where, std::string("workload '") + item + "': " + e.what());
      }
      out.push_back(item);
      continue;
    }
    if (item == "uniform" || item == "streaming" || item == "hotspot") {
      out.push_back(item);
      continue;
    }
    try {
      make_mediabench_workload(item);  // validates the name
    } catch (const Error& e) {
      fail(where, std::string("workload '") + item + "': " + e.what());
    }
    out.push_back(item);
  }
  return out;
}

/// Validates every item of an enum-valued axis via its from_string parser.
template <typename Parser>
std::vector<std::string> expand_enum_axis(const std::string& axis,
                                          const std::string& value,
                                          const std::string& where,
                                          Parser parser) {
  std::vector<std::string> items = split_items(value, where, axis);
  for (const std::string& item : items) {
    try {
      parser(item);
    } catch (const Error& e) {
      fail(where, "axis '" + axis + "': " + e.what());
    }
  }
  return items;
}

/// Truncating replay of a per-worker .pct mapping (TruncatedSource does
/// not own its inner source; sweep jobs need one self-contained object).
class LimitedBinarySource final : public TraceSource {
 public:
  LimitedBinarySource(const std::string& path, std::uint64_t limit)
      : inner_(path), limit_(limit) {}

  std::optional<MemAccess> next() override {
    if (produced_ >= limit_) return std::nullopt;
    auto a = inner_.next();
    if (a) ++produced_;
    return a;
  }
  std::size_t next_batch(MemAccess* out, std::size_t max) override {
    const std::uint64_t room = limit_ - produced_;
    if (room < max) max = static_cast<std::size_t>(room);
    const std::size_t n = inner_.next_batch(out, max);
    produced_ += n;
    return n;
  }
  void reset() override {
    inner_.reset();
    produced_ = 0;
  }
  std::optional<std::uint64_t> size_hint() const override {
    return std::min<std::uint64_t>(inner_.size(), limit_);
  }
  std::string name() const override { return inner_.name(); }

 private:
  BinaryTraceSource inner_;
  std::uint64_t limit_;
  std::uint64_t produced_ = 0;
};

}  // namespace

TraceSourceFactory make_workload_factory(const std::string& value,
                                         std::uint64_t accesses,
                                         std::uint64_t footprint_bytes) {
  if (starts_with(value, "trace:")) {
    const std::string path = value.substr(6);
    if (is_pct_file(path)) {
      // Each worker opens its own read-only mapping: concurrent replay
      // shares page-cache frames, never cursors.
      const PctInfo info = pct_file_info(path);  // validates header
      if (accesses >= info.count)
        return [path] { return std::make_unique<BinaryTraceSource>(path); };
      return [path, accesses] {
        return std::make_unique<LimitedBinarySource>(path, accesses);
      };
    }
    // Text/legacy-binary traces: parse once, replay through shared
    // read-only views.
    auto shared = std::make_shared<const Trace>(load_trace_file(path));
    return [shared, accesses] {
      return std::make_unique<SharedTraceSource>(shared, accesses);
    };
  }
  if (starts_with(value, "multiprog:")) {
    const MultiProgramConfig mp =
        parse_multiprogram_spec(value.substr(10), footprint_bytes);
    return [mp, accesses] {
      return std::make_unique<MultiProgramSource>(mp, accesses);
    };
  }
  WorkloadSpec spec;
  if (value == "uniform")
    spec = make_uniform_workload(footprint_bytes);
  else if (value == "streaming")
    spec = make_streaming_workload(footprint_bytes);
  else if (value == "hotspot")
    spec = make_hotspot_workload(footprint_bytes);
  else
    spec = make_mediabench_workload(value);
  return [spec, accesses] {
    return std::make_unique<SyntheticTraceSource>(spec, accesses);
  };
}

namespace {

bool is_valid_grid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

TableMetric parse_metric(const std::string& item, const std::string& where) {
  const std::vector<std::string> fields = split(item, ':');
  if (fields.empty() || fields.size() > 4)
    fail(where, "cell '" + item + "' wants metric[:label[:num|pct[:N]]]");
  TableMetric m;
  m.metric = std::string(trim(fields[0]));
  if (find_sweep_metric(m.metric) == nullptr) {
    std::string hint;
    for (const ResultMetric& k : kResultMetrics)
      hint += std::string(k.sweep_spelling()) + " ";
    fail(where, "unknown metric '" + m.metric + "' (valid: " + hint + ")");
  }
  m.label = fields.size() > 1 ? std::string(trim(fields[1])) : m.metric;
  if (fields.size() > 2) {
    const std::string fmt{trim(fields[2])};
    if (fmt == "pct")
      m.percent = true;
    else if (fmt != "num")
      fail(where, "cell '" + item + "': format must be num or pct");
  }
  if (fields.size() > 3) {
    const std::uint64_t d = parse_number(fields[3], where);
    if (d > 9) fail(where, "cell '" + item + "': at most 9 decimals");
    m.decimals = static_cast<int>(d);
  }
  return m;
}

std::vector<std::vector<double>> parse_paper_matrix(
    const std::string& value, const std::string& where) {
  std::vector<std::vector<double>> rows;
  for (const std::string& row_text : split(value, ';')) {
    std::vector<double> row;
    std::istringstream is{row_text};
    std::string tok;
    while (is >> tok) {
      try {
        std::size_t consumed = 0;
        row.push_back(std::stod(tok, &consumed));
        if (consumed != tok.size()) throw std::invalid_argument(tok);
      } catch (const std::exception&) {
        fail(where, "'" + tok + "' is not a number");
      }
    }
    if (row.empty()) fail(where, "empty paper row");
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

GridSpec GridSpec::parse(std::istream& is, const std::string& default_name,
                         const std::vector<std::string>& overrides) {
  // ---- phase 1: raw ordered entries, strict on structure ----
  std::vector<RawEntry> entries;
  std::string line, section;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string where = "line " + std::to_string(lineno);
    std::string_view t = trim(line);
    // Trailing comments after values are NOT stripped (a trace path may
    // contain '#'); comments must start the line.
    if (t.empty() || t.front() == '#' || t.front() == ';') continue;
    if (t.front() == '[') {
      if (t.back() != ']' || t.size() < 3)
        fail(where, "malformed section header");
      section = std::string(trim(t.substr(1, t.size() - 2)));
      if (section != "grid" && section != "sweep" && section != "table" &&
          section != "paper" && section != "timeline" && section != "filter")
        fail(where, "unknown section [" + section +
                        "] (expected [grid], [sweep], [table], [paper], "
                        "[timeline] or [filter])");
      continue;
    }
    if (section == "filter") {
      // [filter] lines are whole `key OP value` expressions, not
      // key = value pairs ('=' may be part of the operator); keep the
      // trimmed line in `key` and parse it in phase 2 once the axes
      // exist.  The generic duplicate check below then rejects a filter
      // line repeated verbatim.
      RawEntry e;
      e.section = section;
      e.key = std::string(t);
      e.where = where;
      for (const RawEntry& prev : entries)
        if (prev.section == e.section && prev.key == e.key)
          fail(where, "duplicate filter '" + e.key + "' (first defined at " +
                          prev.where + ")");
      entries.push_back(std::move(e));
      continue;
    }
    const std::size_t eq = t.find('=');
    if (eq == std::string_view::npos) fail(where, "expected 'key = value'");
    if (section.empty())
      fail(where, "key before any [section] header");
    RawEntry e;
    e.section = section;
    e.key = std::string(trim(t.substr(0, eq)));
    e.value = std::string(trim(t.substr(eq + 1)));
    e.where = where;
    if (e.key.empty()) fail(where, "empty key");
    for (const RawEntry& prev : entries)
      if (prev.section == e.section && prev.key == e.key)
        fail(where, "duplicate key '" + e.section + "." + e.key +
                        "' (first defined at " + prev.where + ")");
    entries.push_back(std::move(e));
  }

  // ---- overrides: replace in place, or append as a new entry ----
  for (const std::string& o : overrides) {
    const std::string where = "override '" + o + "'";
    const std::size_t eq = o.find('=');
    const std::size_t dot = o.find('.');
    if (eq == std::string::npos || dot == std::string::npos || dot > eq)
      fail(where, "override must look like section.key=value");
    RawEntry e;
    e.section = std::string(trim(std::string_view(o).substr(0, dot)));
    e.key = std::string(trim(std::string_view(o).substr(dot + 1, eq - dot - 1)));
    e.value = std::string(trim(std::string_view(o).substr(eq + 1)));
    e.where = where;
    if (e.section != "grid" && e.section != "sweep" && e.section != "table" &&
        e.section != "paper" && e.section != "timeline" &&
        e.section != "filter")
      fail(where, "unknown section '" + e.section + "'");
    // A filter override ("filter.banks<=8=") carries the expression split
    // at its first '='; phase 2 reassembles it, so nothing special here
    // beyond letting it append (filters have no notion of replacement).
    bool replaced = false;
    for (RawEntry& prev : entries) {
      if (prev.section == e.section && prev.key == e.key) {
        prev.value = e.value;
        prev.where = where;
        replaced = true;
        break;
      }
    }
    if (!replaced) entries.push_back(std::move(e));
  }

  // ---- phase 2: typed sections ----
  GridSpec spec;
  spec.name_ = default_name;
  spec.accesses_ = kDefaultTraceAccesses;

  for (const RawEntry& e : entries) {
    if (e.section != "grid") continue;
    if (e.key == "name") {
      if (!is_valid_grid_name(e.value))
        fail(e.where, "grid name must be [A-Za-z0-9_.-]+, got '" + e.value +
                          "'");
      spec.name_ = e.value;
    } else if (e.key == "accesses") {
      spec.accesses_ = parse_number(e.value, e.where);
      if (spec.accesses_ == 0) fail(e.where, "accesses must be positive");
      if (spec.accesses_ > kMaxAccesses)
        fail(e.where, "accesses must be at most " +
                          std::to_string(kMaxAccesses) +
                          " (the clock bound, docs/ROBUSTNESS.md)");
    } else if (e.key == "footprint") {
      spec.footprint_bytes_ = parse_number(e.value, e.where);
      if (spec.footprint_bytes_ == 0)
        fail(e.where, "footprint must be positive");
    } else if (e.key == "unit_pricing") {
      spec.unit_pricing_ = parse_bool(e.value, e.where);
    } else if (e.key == "l2_banks") {
      spec.l2_banks_ = parse_number(e.value, e.where);
    } else if (e.key == "l2_breakeven") {
      spec.l2_breakeven_ = parse_number(e.value, e.where);
    } else if (e.key == "l3_banks") {
      spec.l3_banks_ = parse_number(e.value, e.where);
    } else if (e.key == "l3_breakeven") {
      spec.l3_breakeven_ = parse_number(e.value, e.where);
    } else if (e.key == "llc_banks") {
      spec.llc_banks_ = parse_number(e.value, e.where);
    } else if (e.key == "llc_breakeven") {
      spec.llc_breakeven_ = parse_number(e.value, e.where);
    } else if (e.key == "llc_ways") {
      spec.llc_ways_ = parse_number(e.value, e.where);
      if (spec.llc_ways_ == 0) fail(e.where, "llc_ways must be positive");
    } else {
      fail(e.where, "unknown [grid] key '" + e.key +
                        "' (valid: name accesses footprint unit_pricing "
                        "l2_banks l2_breakeven l3_banks l3_breakeven "
                        "llc_banks llc_breakeven llc_ways)");
    }
  }

  for (const RawEntry& e : entries) {
    if (e.section != "timeline") continue;
    if (e.key == "dir") {
      if (e.value.empty()) fail(e.where, "timeline dir must be non-empty");
      spec.timeline_dir_ = e.value;
    } else {
      fail(e.where, "unknown [timeline] key '" + e.key + "' (valid: dir)");
    }
  }

  for (const RawEntry& e : entries) {
    if (e.section != "sweep") continue;
    GridAxis axis;
    axis.key = e.key;
    if (e.key == "workload" || core_workload_index(e.key) >= 0)
      axis.values =
          expand_workload_axis(e.value, e.where, spec.footprint_bytes_);
    else if (e.key == "granularity" || e.key == "l2_granularity" ||
             e.key == "l3_granularity")
      axis.values = expand_enum_axis(e.key, e.value, e.where,
                                     granularity_from_string);
    else if (e.key == "indexing" || e.key == "l2_indexing" ||
             e.key == "l3_indexing")
      axis.values = expand_enum_axis(e.key, e.value, e.where,
                                     indexing_kind_from_string);
    else if (e.key == "policy" || e.key == "l2_policy" ||
             e.key == "l3_policy")
      axis.values = expand_enum_axis(e.key, e.value, e.where,
                                     power_policy_from_string);
    else if (e.key == "inclusion")
      axis.values = expand_enum_axis(e.key, e.value, e.where,
                                     inclusion_policy_from_string);
    else if (is_float_axis(e.key))
      axis.values = expand_float_axis(e.key, e.value, e.where);
    else if (is_numeric_axis(e.key))
      axis.values = expand_numeric_axis(e.key, e.value, e.where);
    else
      fail(e.where, "unknown sweep axis '" + e.key + "' (valid: " +
                        valid_axes_hint() + ")");
    spec.axes_.push_back(std::move(axis));
  }

  if (spec.axes_.empty())
    throw ConfigError("sweep spec declares no axes: add a [sweep] section");
  if (!spec.find_axis("workload"))
    throw ConfigError(
        "sweep spec has no workload axis: declare `workload = ...` under "
        "[sweep]");
  // Lower-level axes are inert without a level to apply to — a spec
  // sweeping e.g. `inclusion` with no (nonzero) l2_size/l3_size would
  // expand duplicate single-level jobs and quietly show the axis having
  // no effect.
  const auto has_enabled_level = [&] {
    for (const char* size_key : {"l2_size", "l3_size"}) {
      if (const GridAxis* axis = spec.find_axis(size_key))
        for (const std::string& v : axis->values)
          if (v != "0") return true;
    }
    return false;
  };
  if (!has_enabled_level()) {
    for (const char* key :
         {"inclusion", "l2_granularity", "l2_indexing", "l2_policy",
          "l2_drowsy_window", "l2_hit_latency", "l2_miss_latency",
          "l2_mshrs", "l2_ports", "l2_bandwidth"}) {
      if (spec.find_axis(key))
        throw ConfigError(
            "sweep axis '" + std::string(key) +
            "' needs a lower level: declare an l2_size (or l3_size) axis "
            "with a nonzero value");
    }
  }
  // L3 overrides are inert unless an L3 can exist.
  const auto has_nonzero_value = [&](const char* size_key) {
    if (const GridAxis* axis = spec.find_axis(size_key))
      for (const std::string& v : axis->values)
        if (v != "0") return true;
    return false;
  };
  if (!has_nonzero_value("l3_size")) {
    for (const char* key :
         {"l3_granularity", "l3_indexing", "l3_policy", "l3_drowsy_window",
          "l3_hit_latency", "l3_miss_latency"}) {
      if (spec.find_axis(key))
        throw ConfigError("sweep axis '" + std::string(key) +
                          "' needs an l3_size axis with a nonzero value");
    }
  }
  // Multi-core coupling: `cores` needs a shared LLC, and the llc_* /
  // per-core-workload axes are meaningless without `cores`.
  if (const GridAxis* cores_axis = spec.find_axis("cores")) {
    std::uint64_t max_cores = 0;
    for (const std::string& v : cores_axis->values) {
      const std::uint64_t n = parse_number(v, "axis cores");
      if (n == 0)
        throw ConfigError("sweep axis 'cores' values must be >= 1");
      max_cores = std::max(max_cores, n);
    }
    const GridAxis* llc_axis = spec.find_axis("llc_size");
    if (!llc_axis)
      throw ConfigError(
          "sweep axis 'cores' needs an llc_size axis (the shared "
          "last-level cache)");
    for (const std::string& v : llc_axis->values)
      if (v == "0")
        throw ConfigError("sweep axis 'llc_size' values must be positive");
    for (const GridAxis& axis : spec.axes_) {
      const int k = core_workload_index(axis.key);
      if (k >= 0 && static_cast<std::uint64_t>(k) >= max_cores)
        throw ConfigError("sweep axis '" + axis.key + "' names core " +
                          std::to_string(k) + "; the cores axis peaks at " +
                          std::to_string(max_cores) + " cores (indices 0.." +
                          std::to_string(max_cores - 1) + ")");
    }
  } else {
    for (const char* key : {"llc_size", "llc_ways_per_core", "llc_mshrs",
                            "llc_ports", "llc_bandwidth"})
      if (spec.find_axis(key))
        throw ConfigError("sweep axis '" + std::string(key) +
                          "' needs a cores axis");
    for (const GridAxis& axis : spec.axes_)
      if (core_workload_index(axis.key) >= 0)
        throw ConfigError("sweep axis '" + axis.key +
                          "' needs a cores axis");
  }
  std::size_t total = 1;
  for (const GridAxis& axis : spec.axes_) {
    total *= axis.values.size();
    if (total > kMaxJobs)
      throw ConfigError("sweep cross-product exceeds " +
                        std::to_string(kMaxJobs) + " jobs (" +
                        spec.describe_axes() + ")");
  }

  for (const RawEntry& e : entries) {
    if (e.section != "filter") continue;
    // Overrides arrive split at their first '=' ("filter.banks<=8" ->
    // key "banks<", value "8"); file lines arrive whole in `key`.
    const std::string expr =
        e.value.empty() ? e.key : e.key + "=" + e.value;
    std::size_t op_pos = std::string::npos;
    for (std::size_t i = 0; i < expr.size(); ++i) {
      const char c = expr[i];
      if (c == '<' || c == '>' || c == '=' || c == '!') {
        op_pos = i;
        break;
      }
    }
    if (op_pos == std::string::npos)
      fail(e.where, "filter '" + expr +
                        "' must look like 'key OP value' with OP one of "
                        "== != < <= > >=");
    GridFilter f;
    f.op = (op_pos + 1 < expr.size() && expr[op_pos + 1] == '=')
               ? expr.substr(op_pos, 2)
               : expr.substr(op_pos, 1);
    if (f.op == "=" || f.op == "!")
      fail(e.where, "filter '" + expr + "' has operator '" + f.op +
                        "' (expected == != < <= > >=)");
    f.key = std::string(trim(std::string_view(expr).substr(0, op_pos)));
    f.value = std::string(
        trim(std::string_view(expr).substr(op_pos + f.op.size())));
    if (f.key.empty() || f.value.empty())
      fail(e.where, "filter '" + expr + "' is missing its " +
                        (f.key.empty() ? std::string("key")
                                       : std::string("value")));
    f.axis = spec.axes_.size();
    for (std::size_t i = 0; i < spec.axes_.size(); ++i)
      if (spec.axes_[i].key == f.key) f.axis = i;
    if (f.axis == spec.axes_.size())
      fail(e.where, "filter key '" + f.key +
                        "' names no declared sweep axis (declared: " +
                        spec.describe_axes() + ")");
    const GridAxis& axis = spec.axes_[f.axis];
    const bool numeric = is_numeric_axis(f.key);
    const bool real = is_float_axis(f.key);
    if (!numeric && !real && f.op != "==" && f.op != "!=")
      fail(e.where, "filter '" + expr + "': axis '" + f.key +
                        "' is non-numeric; only == and != apply");
    if (numeric) f.value = std::to_string(parse_number(f.value, e.where));
    const double rhs_real = real ? parse_real(f.value, e.where) : 0.0;
    f.pass.reserve(axis.values.size());
    for (const std::string& v : axis.values) {
      bool ok;
      if (numeric) {
        // Axis values are already canonical decimal; the axis key being
        // numeric guarantees they parse.
        const std::uint64_t lhs = parse_number(v, e.where);
        const std::uint64_t rhs = parse_number(f.value, e.where);
        ok = f.op == "==" ? lhs == rhs
             : f.op == "!=" ? lhs != rhs
             : f.op == "<"  ? lhs < rhs
             : f.op == "<=" ? lhs <= rhs
             : f.op == ">"  ? lhs > rhs
                            : lhs >= rhs;
      } else if (real) {
        const double lhs = parse_real(v, e.where);
        ok = f.op == "==" ? lhs == rhs_real
             : f.op == "!=" ? lhs != rhs_real
             : f.op == "<"  ? lhs < rhs_real
             : f.op == "<=" ? lhs <= rhs_real
             : f.op == ">"  ? lhs > rhs_real
                            : lhs >= rhs_real;
      } else {
        // String/enum axes compare against the stored spelling (the
        // same one coords and table rows show).
        ok = (v == f.value) == (f.op == "==");
      }
      f.pass.push_back(ok ? 1 : 0);
    }
    spec.filters_.push_back(std::move(f));
  }
  if (!spec.filters_.empty()) {
    for (std::size_t i = 0; i < spec.axes_.size(); ++i) {
      bool any = false;
      for (std::size_t j = 0; j < spec.axes_[i].values.size() && !any; ++j)
        any = spec.value_passes(i, j);
      if (!any)
        throw ConfigError("[filter] eliminates every value of axis '" +
                          spec.axes_[i].key +
                          "' — the grid would expand to zero jobs");
    }
  }

  for (const RawEntry& e : entries) {
    if (e.section != "table") continue;
    spec.has_table_ = true;
    TableSpec& t = spec.table_;
    if (e.key == "rows")
      t.rows = e.value;
    else if (e.key == "row_header")
      t.row_header = e.value;
    else if (e.key == "row_format") {
      if (e.value != "raw" && e.value != "size")
        fail(e.where, "row_format must be raw or size");
      t.row_format = e.value;
    } else if (e.key == "cols")
      t.cols = e.value;
    else if (e.key == "col_prefix")
      t.col_prefix = e.value;
    else if (e.key == "cells") {
      for (const std::string& item : split(e.value, ','))
        t.metrics.push_back(parse_metric(std::string(trim(item)), e.where));
    } else if (e.key == "reduce") {
      if (e.value != "mean")
        fail(e.where, "only reduce = mean is supported");
    } else {
      fail(e.where, "unknown [table] key '" + e.key +
                        "' (valid: rows row_header row_format cols "
                        "col_prefix cells reduce)");
    }
  }
  if (spec.has_table_) {
    TableSpec& t = spec.table_;
    if (t.rows.empty() || !spec.find_axis(t.rows))
      throw ConfigError("[table] rows must name a sweep axis, got '" +
                        t.rows + "'");
    if (!t.cols.empty() && !spec.find_axis(t.cols))
      throw ConfigError("[table] cols must name a sweep axis, got '" +
                        t.cols + "'");
    if (!t.cols.empty() && t.cols == t.rows)
      throw ConfigError("[table] rows and cols name the same axis '" +
                        t.rows + "'");
    if (t.metrics.empty())
      throw ConfigError("[table] needs a cells = ... declaration");
    if (t.row_header.empty()) t.row_header = t.rows;
  }

  for (const RawEntry& e : entries) {
    if (e.section != "paper") continue;
    if (!spec.has_table_)
      fail(e.where, "[paper] values need a [table] section to attach to");
    TableMetric* metric = nullptr;
    for (TableMetric& m : spec.table_.metrics)
      if (m.label == e.key) metric = &m;
    if (!metric)
      fail(e.where, "[paper] key '" + e.key +
                        "' matches no [table] cell label");
    metric->paper = parse_paper_matrix(e.value, e.where);
    const std::size_t num_rows = spec.find_axis(spec.table_.rows)->values.size();
    if (metric->paper.size() != num_rows)
      fail(e.where, "paper matrix has " +
                        std::to_string(metric->paper.size()) +
                        " rows; the '" + spec.table_.rows + "' axis has " +
                        std::to_string(num_rows));
    const std::size_t num_cols =
        spec.table_.cols.empty()
            ? 1
            : spec.find_axis(spec.table_.cols)->values.size();
    for (const std::vector<double>& row : metric->paper) {
      if (row.size() != metric->paper.front().size())
        fail(e.where, "paper matrix rows have unequal widths");
      if (row.size() > num_cols)
        fail(e.where, "paper matrix is wider than the column axis");
    }
  }

  return spec;
}

GridSpec GridSpec::load(const std::string& path,
                        const std::vector<std::string>& overrides) {
  std::ifstream f(path);
  if (!f) throw ParseError("cannot open sweep spec: " + path);
  std::string name = basename_of(path);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  if (!is_valid_grid_name(name)) name = "sweep";
  return parse(f, name, overrides);
}

const GridAxis* GridSpec::find_axis(const std::string& key) const {
  for (const GridAxis& axis : axes_)
    if (axis.key == key) return &axis;
  return nullptr;
}

bool GridSpec::value_passes(std::size_t axis, std::size_t index) const {
  for (const GridFilter& f : filters_)
    if (f.axis == axis && !f.pass[index]) return false;
  return true;
}

std::size_t GridSpec::cross_product_size() const {
  // Every filter constrains exactly one axis, so the pruned count is
  // still a product: surviving values per axis, multiplied out.
  std::size_t total = 1;
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    std::size_t n = axes_[i].values.size();
    if (!filters_.empty()) {
      n = 0;
      for (std::size_t j = 0; j < axes_[i].values.size(); ++j)
        if (value_passes(i, j)) ++n;
    }
    total *= n;
  }
  return total;
}

std::string GridSpec::describe_axes() const {
  std::string out;
  for (const GridAxis& axis : axes_) {
    if (!out.empty()) out += ", ";
    out += axis.key + " x" + std::to_string(axis.values.size());
  }
  return out;
}

std::vector<GridJob> GridSpec::expand(std::uint64_t num_accesses) const {
  // One factory per distinct workload value: synthetics share their
  // immutable spec, text traces parse once, .pct traces are probed once.
  std::map<std::string, TraceSourceFactory> factories;
  for (const GridAxis& axis : axes_) {
    if (axis.key != "workload" && core_workload_index(axis.key) < 0) continue;
    for (const std::string& value : axis.values)
      if (!factories.count(value))
        factories[value] =
            make_workload_factory(value, num_accesses, footprint_bytes_);
  }

  std::vector<GridJob> jobs;
  jobs.reserve(cross_product_size());
  std::vector<std::size_t> odometer(axes_.size(), 0);
  for (;;) {
    // [filter]-pruned points are skipped before any assembly work; the
    // odometer still walks the full rectangle so declaration order is
    // preserved among the survivors.
    bool pruned = false;
    if (!filters_.empty())
      for (std::size_t i = 0; i < axes_.size() && !pruned; ++i)
        pruned = !value_passes(i, odometer[i]);
    if (pruned) {
      std::size_t i = axes_.size();
      while (i > 0) {
        --i;
        if (++odometer[i] < axes_[i].values.size()) break;
        odometer[i] = 0;
        if (i == 0) return jobs;
      }
      continue;
    }
    GridJob job;
    job.coords.reserve(axes_.size());
    // Stage this grid point through the shared key -> config application
    // path (core/run_assembly.h) — the same one pcalsim and the api
    // facade use, so the vocabularies cannot drift.  The [grid] scalars
    // seed the assembly; each axis then stages its value (axis order
    // must not matter, which the staged assembly guarantees).
    RunAssembly asmb;
    asmb.config.force_unit_pricing = unit_pricing_;
    asmb.set("l2_banks", std::to_string(l2_banks_));
    asmb.set("l2_breakeven", std::to_string(l2_breakeven_));
    if (l3_banks_) asmb.set("l3_banks", std::to_string(*l3_banks_));
    if (l3_breakeven_)
      asmb.set("l3_breakeven", std::to_string(*l3_breakeven_));
    asmb.set("llc_banks", std::to_string(llc_banks_));
    asmb.set("llc_breakeven", std::to_string(llc_breakeven_));
    asmb.set("llc_ways", std::to_string(llc_ways_));
    asmb.set("accesses", std::to_string(num_accesses));
    for (std::size_t i = 0; i < axes_.size(); ++i) {
      const std::string& value = axes_[i].values[odometer[i]];
      job.coords.push_back(value);
      asmb.set(axes_[i].key, value, "axis " + axes_[i].key);
    }
    const auto fail_point = [&](const Error& e) {
      std::string coords;
      for (std::size_t i = 0; i < axes_.size(); ++i)
        coords += (i ? " " : "") + axes_[i].key + "=" + job.coords[i];
      throw ConfigError("grid point (" + coords + "): " + e.what());
    };
    try {
      RunAssembly::Assembled assembled = asmb.assemble();
      job.config = std::move(assembled.config);
      job.workload = asmb.workload();
      job.make_source = factories.at(job.workload);
      if (assembled.multicore) {
        job.multicore = std::make_shared<const MultiCoreConfig>(
            std::move(*assembled.multicore));
        job.core_sources.reserve(assembled.cores);
        for (std::uint64_t k = 0; k < assembled.cores; ++k) {
          const auto it = asmb.core_workloads().find(static_cast<int>(k));
          job.core_sources.push_back(factories.at(
              it != asmb.core_workloads().end() ? it->second : job.workload));
        }
      }
    } catch (const Error& e) {
      fail_point(e);  // rethrows with grid-point context
    }
    jobs.push_back(std::move(job));

    // Advance the odometer: last axis fastest (first axis outermost).
    std::size_t i = axes_.size();
    while (i > 0) {
      --i;
      if (++odometer[i] < axes_[i].values.size()) break;
      odometer[i] = 0;
      if (i == 0) return jobs;
    }
  }
}

double grid_metric_value(const SimResult& r, const std::string& metric) {
  const ResultMetric* m = find_sweep_metric(metric);
  if (m == nullptr) throw ConfigError("unknown table metric '" + metric + "'");
  return m->u64 != nullptr ? static_cast<double>(m->u64(r)) : m->f64(r);
}

std::string GridSpec::job_label(const GridJob& job) const {
  std::string out;
  for (std::size_t i = 0; i < axes_.size(); ++i)
    out += (i ? " " : "") + axes_[i].key + "=" + job.coords[i];
  return out;
}

TextTable GridSpec::render_table(
    const std::vector<GridJob>& jobs,
    const std::vector<SweepOutcome>& outcomes) const {
  PCAL_ASSERT_MSG(jobs.size() == outcomes.size(),
                  "render_table: " << jobs.size() << " jobs vs "
                                   << outcomes.size() << " outcomes");

  if (!has_table_) {
    // Generic mode: one row per job, coordinates then headline metrics.
    std::vector<std::string> header{"job"};
    for (const GridAxis& axis : axes_) header.push_back(axis.key);
    header.insert(header.end(), {"Idl", "LT", "Esav", "hit"});
    TextTable table(std::move(header));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::vector<std::string> row{std::to_string(i)};
      row.insert(row.end(), jobs[i].coords.begin(), jobs[i].coords.end());
      if (outcomes[i].ok()) {
        const SimResult& r = outcomes[i].result;
        row.push_back(TextTable::pct(r.avg_residency(), 2));
        row.push_back(TextTable::num(r.lifetime_years(), 3));
        row.push_back(TextTable::pct(r.energy_saving(), 2));
        row.push_back(TextTable::num(r.cache_stats.hit_rate(), 4));
      } else {
        // A failed job is a hole, not a row of zeros — zeros look like
        // data and would poison downstream diffs.
        row.insert(row.end(), 4, "-");
      }
      table.add_row(std::move(row));
    }
    return table;
  }

  // Pivot mode: rows axis x cols axis x metric cells, mean-reduced over
  // every other axis (accumulated in job order, so cell means match a
  // bench that sums its inner workload loop and divides).
  std::size_t row_axis = 0, col_axis = 0;
  bool has_cols = !table_.cols.empty();
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    if (axes_[i].key == table_.rows) row_axis = i;
    if (has_cols && axes_[i].key == table_.cols) col_axis = i;
  }
  const std::vector<std::string>& row_values = axes_[row_axis].values;
  const std::vector<std::string> col_values =
      has_cols ? axes_[col_axis].values : std::vector<std::string>{""};

  const auto index_of = [](const std::vector<std::string>& values,
                           const std::string& v) {
    return static_cast<std::size_t>(
        std::find(values.begin(), values.end(), v) - values.begin());
  };

  const std::size_t nm = table_.metrics.size();
  std::vector<double> sums(row_values.size() * col_values.size() * nm, 0.0);
  std::vector<std::uint64_t> counts(row_values.size() * col_values.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Failed jobs contribute nothing: the cell mean is taken over the
    // jobs that succeeded, and a cell with no survivors renders as a
    // hole ("-") rather than a zero that looks like data.
    if (!outcomes[i].ok()) continue;
    const std::size_t r = index_of(row_values, jobs[i].coords[row_axis]);
    const std::size_t c =
        has_cols ? index_of(col_values, jobs[i].coords[col_axis]) : 0;
    const std::size_t cell = r * col_values.size() + c;
    for (std::size_t m = 0; m < nm; ++m)
      sums[cell * nm + m] +=
          grid_metric_value(outcomes[i].result, table_.metrics[m].metric);
    ++counts[cell];
  }

  std::vector<std::string> header{table_.row_header};
  for (std::size_t c = 0; c < col_values.size(); ++c) {
    for (const TableMetric& m : table_.metrics) {
      header.push_back(has_cols
                           ? table_.col_prefix + col_values[c] + ":" + m.label
                           : m.label);
      if (!m.paper.empty() && c < m.paper.front().size())
        header.push_back("(p)");
    }
  }
  TextTable table(std::move(header));

  for (std::size_t r = 0; r < row_values.size(); ++r) {
    std::vector<std::string> row;
    row.push_back(table_.row_format == "size"
                      ? format_size(parse_number(row_values[r], "row value"))
                      : row_values[r]);
    for (std::size_t c = 0; c < col_values.size(); ++c) {
      const std::size_t cell = r * col_values.size() + c;
      for (std::size_t m = 0; m < nm; ++m) {
        const TableMetric& metric = table_.metrics[m];
        if (counts[cell] == 0) {
          row.push_back("-");
          if (!metric.paper.empty() && c < metric.paper.front().size())
            row.push_back(TextTable::num(metric.paper[r][c], metric.decimals));
          continue;
        }
        const double mean =
            sums[cell * nm + m] / static_cast<double>(counts[cell]);
        row.push_back(metric.percent ? TextTable::pct(mean, metric.decimals)
                                     : TextTable::num(mean, metric.decimals));
        if (!metric.paper.empty() && c < metric.paper.front().size())
          row.push_back(TextTable::num(metric.paper[r][c], metric.decimals));
      }
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace pcal
