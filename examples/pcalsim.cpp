// pcalsim — the command-line front-end to the simulator.
//
// Runs one workload on one architecture configuration described by an
// INI file (plus command-line overrides) and prints the full report:
// idleness, energy breakdown, lifetime, cache statistics.
//
// pcalsim is a thin front end over api::run: every INI key maps onto the
// shared RunConfig vocabulary (core/run_assembly.h) and passes its value
// on as the raw string, so values parse, validate and run exactly as in
// pcalsweep and the Python module.  A section or key pcalsim does not
// translate is refused with exit 1, naming it; so is any invalid value.
// A trace:<path> workload replays at most workload.accesses records.
//
// Usage:
//   pcalsim <config.ini> [section.key=value ...] [--timeline out.json]
//   pcalsim --example            # print the annotated example config
//
// The --example text (kExampleConfig below) documents every section and
// key; kIniKeys and translate() say where each one goes.
#include <algorithm>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/pcal.h"
#include "api/timeline.h"
#include "core/run_assembly.h"
#include "util/config_file.h"
#include "util/error.h"
#include "util/table.h"

namespace {

using namespace pcal;

constexpr const char* kExampleConfig = R"(# pcalsim example configuration
# Unknown sections and keys are refused.

# name: a MediaBench name, uniform, streaming, hotspot, or trace:<path>
# (.pct or text; replays at most `accesses` records).  Also takes
# footprint (default 64k): the uniform/streaming/hotspot footprint.
[workload]
name = rijndael_i
accesses = 2000000

[cache]
size = 8k
line = 16
ways = 1

# granularity: monolithic | bank | line | way; indexing: static |
# probing | scrambling; policy: gated | drowsy, where drowsy_window is
# the extra idle cycles at the drowsy voltage.  Also takes breakeven
# (0, the default, derives it from the energy model).
[partition]
granularity = bank
banks = 4
indexing = probing
updates = 16
policy = gated
drowsy_window = 0

# Stall cycles; all zero keeps the idealized clock.
[latency]
hit = 0
miss = 0
drowsy_wake = 0
gated_wake = 0

# Finite L1 resources, 0 = unlimited (docs/CONTENTION.md): MSHRs, ports
# per bank, fill bytes per cycle toward the next level, cycles an MSHR
# stays allocated per miss, bank busy cycles per access.
[contention]
mshrs = 0
ports = 0
bandwidth = 0
mshr_latency = 32
port_cycles = 1

# Optional lower levels, size 0 = disabled.  inclusion: noninclusive |
# inclusive | exclusive | victim.  Each level also takes line, ways,
# indexing, policy, drowsy_window, drowsy_wake, gated_wake and its own
# mshrs, ports and bandwidth.  A key [l3] leaves out takes the [l2]
# default, not [l2]'s value.
[l2]
size = 0
banks = 4
granularity = bank
breakeven = 64
inclusion = noninclusive
hit_latency = 0
miss_latency = 0

[l3]
size = 0

# Energy model preset: paper | st45 (docs/ENERGY_MODEL.md):
[energy]
preset = paper

# Interleave programs in round-robin quanta (overrides workload.name,
# also on the cores of a [multicore] run); quantum boundaries align
# re-indexing:
# [multiprogram]
# programs = cjpeg+sha
# quantum = 100000

# N cores of the stack above over a shared LLC (docs/MULTICORE.md).
# Also takes llc_ways, llc_banks, llc_breakeven, llc_mshrs, llc_ports,
# llc_bandwidth and inclusion (the LLC's).  [core<k>] overrides the
# workload of core k < cores:
# [multicore]
# cores = 2
# llc_size = 64k
# llc_ways_per_core = 4
# [core1]
# workload = streaming
)";

/// The INI keys ("section.key") that map one-to-one onto a shared
/// RunConfig key.  [l2] and [l3] keys map to l2_<key> / l3_<key>;
/// [multiprogram] and [core<k>] are translated in translate().
const std::map<std::string, std::string> kIniKeys = {
    {"workload.name", "workload"}, {"workload.accesses", "accesses"},
    {"workload.footprint", "footprint"}, {"cache.size", "cache_size"},
    {"cache.line", "line_size"}, {"cache.ways", "ways"},
    {"partition.granularity", "granularity"}, {"partition.banks", "banks"},
    {"partition.indexing", "indexing"}, {"partition.updates", "updates"},
    {"partition.breakeven", "breakeven"}, {"partition.policy", "policy"},
    {"partition.drowsy_window", "drowsy_window"},
    {"latency.hit", "hit_latency"}, {"latency.miss", "miss_latency"},
    {"latency.drowsy_wake", "drowsy_wake"},
    {"latency.gated_wake", "gated_wake"}, {"contention.mshrs", "mshrs"},
    {"contention.ports", "ports"}, {"contention.bandwidth", "bandwidth"},
    {"contention.mshr_latency", "mshr_latency"},
    {"contention.port_cycles", "port_cycles"}, {"energy.preset", "energy"},
    {"multicore.cores", "cores"}, {"multicore.inclusion", "llc_inclusion"},
    {"multicore.llc_size", "llc_size"}, {"multicore.llc_ways", "llc_ways"},
    {"multicore.llc_banks", "llc_banks"},
    {"multicore.llc_breakeven", "llc_breakeven"},
    {"multicore.llc_ways_per_core", "llc_ways_per_core"},
    {"multicore.llc_mshrs", "llc_mshrs"},
    {"multicore.llc_ports", "llc_ports"},
    {"multicore.llc_bandwidth", "llc_bandwidth"},
};

/// Under the shared rule an [l3] key left out inherits [l2]'s value.
/// pcalsim's [l3] does not: a key [l2] sets and [l3] leaves out takes
/// the [l2] default instead, where geometry and wakeups follow L1.
struct LevelDefault {
  const char* key;
  const char* value;
  const char* l1_section = nullptr;  // the L1 key the value follows
  const char* l1_key = nullptr;
};

const LevelDefault kLevelDefaults[] = {
    {"line", "16", "cache", "line"},
    {"ways", "1", "cache", "ways"},
    {"drowsy_wake", "0", "latency", "drowsy_wake"},
    {"gated_wake", "0", "latency", "gated_wake"},
    {"granularity", "bank"}, {"banks", "4"}, {"indexing", "static"},
    {"breakeven", "64"}, {"policy", "gated"}, {"drowsy_window", "0"},
    {"hit_latency", "0"}, {"miss_latency", "0"}, {"mshrs", "0"},
    {"ports", "0"}, {"bandwidth", "0"}, {"inclusion", "noninclusive"},
};

/// Maps the INI onto the shared RunConfig vocabulary, every value as its
/// raw string.  Each section or key with no mapping is appended to
/// `unknown`.
api::RunConfig translate(const ConfigFile& ini,
                         std::vector<api::ConfigIssue>& unknown) {
  api::RunConfig rc;
  // pcalsim's defaults where the shared ones differ.
  rc.set("workload", "rijndael_i");
  rc.set("cache_size", "8k");

  // [core<k>] is accepted for every core k < multicore.cores; a
  // malformed cores value is reported by validate() and bounds nothing.
  std::uint64_t cores = 0;
  if (const auto value = ini.get("multicore", "cores")) {
    try {
      cores = parse_config_number(*value, "cores");
    } catch (const Error&) {
      cores = UINT64_MAX;
    }
  }

  for (const auto& [section, keys] : ini.sections()) {
    for (const auto& [key, value] : keys) {
      const std::string name = section + "." + key;
      const auto mapped = kIniKeys.find(name);
      const int core = core_workload_index(section + "_" + key);
      if (mapped != kIniKeys.end()) {
        rc.set(mapped->second, value);
      } else if ((section == "l2" || section == "l3") &&
                 api::RunConfig::knows(section + "_" + key)) {
        rc.set(section + "_" + key, value);
      } else if (core >= 0) {
        if (static_cast<std::uint64_t>(core) < cores)
          rc.set(section + "_" + key, value);
        else
          unknown.push_back({name, value, "no such core (multicore.cores)"});
      } else if (name != "multiprogram.programs" &&
                 name != "multiprogram.quantum") {
        unknown.push_back({name, value, "unknown pcalsim key"});
      }
    }
  }

  for (const LevelDefault& d : kLevelDefaults) {
    if (!ini.get("l2", d.key) || ini.get("l3", d.key)) continue;
    const auto l1 = d.l1_section ? ini.get(d.l1_section, d.l1_key)
                                 : std::nullopt;
    rc.set(std::string("l3_") + d.key, l1.value_or(d.value));
  }

  const auto programs = ini.get("multiprogram", "programs");
  const auto quantum = ini.get("multiprogram", "quantum");
  if (programs) {
    std::string spec = "multiprog:" + *programs;
    std::replace(spec.begin(), spec.end(), ',', '+');
    if (quantum) spec += "@" + *quantum;
    rc.set("workload", spec);
  } else if (quantum) {
    unknown.push_back({"multiprogram.quantum", *quantum,
                       "needs multiprogram.programs"});
  }
  return rc;
}

std::string hex_mask(std::uint64_t mask) {
  std::ostringstream os;
  os << "0x" << std::hex << mask;
  return os.str();
}

/// The single-stream report: per-unit table, cache and level stats,
/// energy breakdown, lifetime.
void print_single(const SimResult& r) {
  std::cout << "pcalsim: " << r.workload << " on " << r.config_label << "\n"
            << "accesses: " << r.accesses
            << ", breakeven: " << r.breakeven_cycles << " cycles"
            << ", re-indexing updates: " << r.reindex_updates_applied
            << "\n"
            << "cycles: " << r.total_cycles << " total, " << r.stall_cycles
            << " stalled, avg access latency "
            << TextTable::num(r.avg_access_latency(), 3) << "\n";
  if (r.mshr_stall_cycles + r.port_stall_cycles + r.bw_stall_cycles > 0)
    std::cout << "contention stalls: mshr " << r.mshr_stall_cycles
              << ", port " << r.port_stall_cycles << ", bandwidth "
              << r.bw_stall_cycles << "\n";
  std::cout << "\n";

  // At line granularity there are hundreds of units; cap the table.
  const std::size_t shown = std::min<std::size_t>(r.units.size(), 32);
  TextTable units({"unit", "accesses", "sleep residency",
                   "idle intervals > BE", "sleep episodes",
                   "lifetime (y)"});
  for (std::size_t u = 0; u < shown; ++u) {
    const UnitResult& ur = r.units[u];
    units.add_row({std::to_string(u), std::to_string(ur.accesses),
                   TextTable::pct(ur.sleep_residency, 2),
                   TextTable::pct(ur.useful_idleness_count, 2),
                   std::to_string(ur.sleep_episodes),
                   TextTable::num(ur.lifetime_years, 3)});
  }
  units.render(std::cout);
  if (shown < r.units.size())
    std::cout << "... (" << r.units.size() - shown << " more units)\n";

  std::cout << "\ncache: hit rate "
            << TextTable::num(r.cache_stats.hit_rate(), 4) << " ("
            << r.cache_stats.hits << " hits, " << r.cache_stats.misses
            << " misses, " << r.cache_stats.writebacks << " writebacks, "
            << r.cache_stats.flushes << " flushes)\n";
  for (std::size_t lvl = 1; lvl < r.num_levels(); ++lvl) {
    const CacheStats& s = r.level_stats[lvl];
    std::cout << "L" << (lvl + 1) << ": hit rate "
              << TextTable::num(s.hit_rate(), 4) << " (" << s.accesses
              << " accesses, " << s.hits << " hits, " << s.misses
              << " misses)\n";
  }

  const EnergyBreakdown& e = r.energy.partitioned;
  std::cout << "energy (pJ): dynamic " << TextTable::num(e.dynamic_pj, 0)
            << ", leakage active " << TextTable::num(e.leakage_active_pj, 0)
            << ", leakage drowsy " << TextTable::num(e.leakage_drowsy_pj, 0)
            << ", leakage gated/retention "
            << TextTable::num(e.leakage_retention_pj, 0) << ", transitions "
            << TextTable::num(e.transition_pj, 0) << "\n"
            << "saving vs monolithic baseline: "
            << TextTable::pct(r.energy_saving(), 2) << " %\n"
            << "cache lifetime: " << TextTable::num(r.lifetime_years(), 3)
            << " years (limiting bank "
            << (r.lifetime ? r.lifetime->limiting_bank : 0) << ")\n";
}

/// The [multicore] report: system totals, one row per core, the shared
/// LLC.
void print_multicore(const SimResult& r,
                     const std::vector<CoreResult>& cores) {
  std::cout << "pcalsim: " << r.workload << " on " << r.config_label << "\n"
            << "accesses: " << r.accesses << ", cycles: " << r.total_cycles
            << " total, " << r.stall_cycles << " stalled, avg access latency "
            << TextTable::num(r.avg_access_latency(), 3) << "\n";
  if (r.mshr_stall_cycles + r.port_stall_cycles + r.bw_stall_cycles > 0)
    std::cout << "contention stalls: mshr " << r.mshr_stall_cycles
              << ", port " << r.port_stall_cycles << ", bandwidth "
              << r.bw_stall_cycles << "\n";
  std::cout << "\n";

  TextTable table({"core", "workload", "accesses", "stalls", "L1 hit",
                   "LLC acc", "LLC hit", "way mask", "energy (pJ)",
                   "idleness"});
  for (std::size_t k = 0; k < cores.size(); ++k) {
    const CoreResult& c = cores[k];
    table.add_row({std::to_string(k), c.workload, std::to_string(c.accesses),
                   std::to_string(c.stall_cycles),
                   TextTable::num(c.l1_hit_rate(), 4),
                   std::to_string(c.llc_stats.accesses),
                   TextTable::num(c.llc_hit_rate(), 4),
                   hex_mask(c.llc_way_mask),
                   TextTable::num(c.energy.partitioned.total_pj(), 0),
                   TextTable::pct(c.avg_residency, 2)});
  }
  table.render(std::cout);

  const CacheStats& llc_stats = r.level_stats.back();
  const EnergyBreakdown& e = r.energy.partitioned;
  std::cout << "\nLLC: hit rate " << TextTable::num(llc_stats.hit_rate(), 4)
            << " (" << llc_stats.accesses << " accesses, " << llc_stats.hits
            << " hits, " << llc_stats.misses << " misses)\n"
            << "energy (pJ): total " << TextTable::num(e.total_pj(), 0)
            << ", saving vs monolithic baseline "
            << TextTable::pct(r.energy_saving(), 2) << " %\n"
            << "system idleness: " << TextTable::pct(r.avg_residency(), 2)
            << " %, lifetime " << TextTable::num(r.lifetime_years(), 3)
            << " years\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--example") {
    std::cout << kExampleConfig;
    return 0;
  }
  // --timeline <out.json>: write the per-interval power-state timeline
  // artifact (docs/TIMELINE.md).  Off by default — without the flag no
  // observer is attached and the run (and its output) is bit-identical.
  std::string timeline_path;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--timeline") {
      if (i + 1 >= argc) {
        std::cerr << "pcalsim: --timeline needs an output path\n";
        return 2;
      }
      timeline_path = argv[++i];
      continue;
    }
    args.push_back(arg);
  }
  if (args.empty()) {
    std::cerr << "usage: pcalsim <config.ini> [section.key=value ...] "
                 "[--timeline out.json]\n"
                 "       pcalsim --example\n";
    return 2;
  }
  try {
    ConfigFile ini = ConfigFile::load(args[0]);
    for (std::size_t i = 1; i < args.size(); ++i)
      ini.apply_override(args[i]);

    // Structured pre-flight: every unknown key, bad value and invalid
    // combination reported at once.
    std::vector<api::ConfigIssue> issues;
    const api::RunConfig rc = translate(ini, issues);
    for (api::ConfigIssue& issue : rc.validate())
      issues.push_back(std::move(issue));
    if (!issues.empty()) {
      std::cerr << "pcalsim: invalid configuration:\n"
                << api::describe(issues) << "\n";
      return 1;
    }

    api::TimelineRecorder recorder;
    api::RunOptions options;
    if (!timeline_path.empty()) {
      recorder.price_with(rc);
      options.observer = recorder.observer();
    }
    const api::RunOutput out = api::run(rc, options);
    if (out.cores.empty())
      print_single(out.result);
    else
      print_multicore(out.result, out.cores);

    if (!timeline_path.empty()) {
      recorder.set_run_label(out.result.workload + " on " +
                             out.result.config_label);
      recorder.write_json_file(timeline_path);
      std::cerr << "pcalsim: timeline written to " << timeline_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pcalsim: error: " << e.what() << "\n";
    return 1;
  }
}
