// Hierarchy depth x inclusion policy x latency sweep.
//
// The DATE'11 evaluation manages a single level on an idealized
// one-access-per-cycle clock.  This bench exercises everything the
// N-level refactor added on top of that: 1/2/3-level stacks, the four
// inclusion policies (non-inclusive, inclusive, exclusive, victim), and
// the latency-aware timing core — each stack is run twice, once on the
// ideal (zero-latency) clock and once on a realistic latency point
// (L1 miss 8 cycles to L2, L2 hit 2 / miss 30, L3 hit 4 / miss 60 to
// memory, wakeups 1 drowsy / 3 gated), so drowsy-vs-gated finally has a
// performance axis next to the energy one.
//
// Gates (exit 1 on violation):
//   - ideal rows keep the idealized clock: total_cycles == accesses;
//   - timed rows stall: total_cycles > accesses and avg latency > 1;
//   - every row prices nonzero energy (the honest-energy invariant).
//
// BENCH_hierarchy_depth.json carries a pcalsweep-style per-job results
// array including the new total_cycles / stall_cycles / avg_latency
// fields, which tools/check_bench_json.py validates in CI.
#include "bench_common.h"

#include <array>
#include <vector>

namespace {

using namespace pcal;
using namespace pcal::bench;

struct Combo {
  int depth;
  InclusionPolicy inclusion;
  const char* label;
};

const std::array<Combo, 9> kCombos = {{
    {1, InclusionPolicy::kNonInclusive, "L1"},
    {2, InclusionPolicy::kNonInclusive, "L1+L2"},
    {2, InclusionPolicy::kInclusive, "L1+L2 incl"},
    {2, InclusionPolicy::kExclusive, "L1+L2 excl"},
    {2, InclusionPolicy::kVictim, "L1+VC"},
    {3, InclusionPolicy::kNonInclusive, "L1+L2+L3"},
    {3, InclusionPolicy::kInclusive, "3lvl incl"},
    {3, InclusionPolicy::kExclusive, "3lvl excl"},
    {3, InclusionPolicy::kVictim, "3lvl victim"},
}};

constexpr std::array<const char*, 3> kWorkloads = {"cjpeg", "dijkstra",
                                                   "fft_1"};

/// One stack: the paper's 8kB/16B M=4 L1, optionally a 32kB L2 and a
/// 128kB L3 (same inclusion policy down the stack).  `timed` prices the
/// realistic latency point; the last level's miss penalty is memory.
SimConfig stack_config(const Combo& combo, bool timed) {
  SimConfig cfg = paper_config(8192, 16, 4);
  // Every row pays the st45 sleep-network overheads.
  cfg.energy_params = EnergyParams::st45();
  if (timed) {
    // Wake costs come from the energy model's sleep-hardware constants.
    cfg.latency = wake_latencies(cfg.energy_params);
    // A level's miss penalty prices whatever sits beyond it: the next
    // level's port (8 cycles) when that level serves fills, memory (60)
    // when nothing below does — a victim sink holds evictions only, so
    // victim stacks pay the full memory penalty at L1.
    const bool lower_serves_fills =
        combo.depth > 1 && combo.inclusion != InclusionPolicy::kVictim;
    cfg.latency.miss_cycles = lower_serves_fills ? 8 : 60;
  }
  if (combo.depth >= 2) {
    cfg = with_lower_level(cfg, 32 * 1024, 4, 64, combo.inclusion);
    if (timed) {
      LatencyParams& l2 = cfg.lower_levels[0].topology.latency;
      l2 = wake_latencies(cfg.energy_params);
      l2.hit_cycles = 2;
      l2.miss_cycles = combo.depth == 2 ? 60 : 30;
    }
  }
  if (combo.depth >= 3) {
    cfg = with_lower_level(cfg, 128 * 1024, 8, 128, combo.inclusion);
    if (timed) {
      LatencyParams& l3 = cfg.lower_levels[1].topology.latency;
      l3 = wake_latencies(cfg.energy_params);
      l3.hit_cycles = 4;
      l3.miss_cycles = 60;
    }
  }
  return cfg;
}

}  // namespace

int main() {
  print_header(
      "Hierarchy depth x inclusion policy x latency",
      "N-level extension of DATE'11 (depths 1-3, four inclusion "
      "policies, ideal vs timed clock)");

  SweepGrid grid(aging(), accesses());
  std::vector<std::string> job_workloads;
  for (const Combo& combo : kCombos) {
    for (const bool timed : {false, true}) {
      const SimConfig cfg = stack_config(combo, timed);
      for (const char* w : kWorkloads) {
        grid.add(make_mediabench_workload(w), cfg);
        job_workloads.push_back(w);
      }
    }
  }

  grid.run("hierarchy_depth", [&](std::ostream& f) {
    f << "  \"cross_product\": " << grid.size() << ",\n";
    f << "  \"results\": [\n";
    for (std::size_t i = 0; i < grid.size(); ++i) {
      f << "    ";
      write_result_row(f, grid.result(i), job_workloads[i], /*ok=*/true);
      f << (i + 1 < grid.size() ? ",\n" : "\n");
    }
    f << "  ],\n";
  });

  const std::size_t per_mode = kWorkloads.size();
  TextTable table({"stack", "ideal:Idl", "ideal:Esav", "timed:Lat",
                   "timed:stall%", "timed:Idl", "timed:Esav"});
  bool ok = true;
  std::size_t next = 0;
  for (const Combo& combo : kCombos) {
    double ideal_idl = 0.0, ideal_esav = 0.0;
    double timed_lat = 0.0, timed_stall = 0.0;
    double timed_idl = 0.0, timed_esav = 0.0;
    for (const bool timed : {false, true}) {
      for (std::size_t w = 0; w < per_mode; ++w) {
        const SimResult& r = grid.result(next++);
        if (!(r.energy.partitioned.total_pj() > 0.0)) {
          std::cerr << "FAIL: zero energy for " << r.config_label << "\n";
          ok = false;
        }
        if (!timed) {
          if (r.total_cycles != r.accesses || r.stall_cycles != 0) {
            std::cerr << "FAIL: ideal clock stalled for " << r.config_label
                      << "\n";
            ok = false;
          }
          ideal_idl += r.avg_residency();
          ideal_esav += r.energy_saving();
        } else {
          if (r.total_cycles <= r.accesses ||
              !(r.avg_access_latency() > 1.0)) {
            std::cerr << "FAIL: timed clock did not stall for "
                      << r.config_label << "\n";
            ok = false;
          }
          timed_lat += r.avg_access_latency();
          timed_stall += static_cast<double>(r.stall_cycles) /
                         static_cast<double>(r.total_cycles);
          timed_idl += r.avg_residency();
          timed_esav += r.energy_saving();
        }
      }
    }
    const double n = static_cast<double>(per_mode);
    table.add_row({combo.label, TextTable::pct(ideal_idl / n, 1),
                   TextTable::pct(ideal_esav / n, 1),
                   TextTable::num(timed_lat / n, 3),
                   TextTable::pct(timed_stall / n, 1),
                   TextTable::pct(timed_idl / n, 1),
                   TextTable::pct(timed_esav / n, 1)});
  }
  print_table(table);

  std::cout << "expected shape: deeper stacks trade stall cycles for "
               "idleness harvested in the lower levels; a victim level "
               "sleeps the most (it wakes only for evictions); the timed "
               "columns give wakeups and misses a performance price the "
               "idealized clock hid.\n";
  return ok ? 0 : 1;
}
