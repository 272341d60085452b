// Output checks: exact per-job digests against a recorded reference, and
// invariants that hold for any seed.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {
namespace {

using pcal::CacheStats;
using pcal::EnergyReport;

class Canon {
 public:
  void u(const char* name, std::uint64_t v) {
    os_ << name << '=' << v << '\n';
  }
  /// Hex float: every bit of the value, no decimal rounding.
  void f(const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    os_ << name << '=' << buf << '\n';
  }
  void stats(const char* name, const CacheStats& s) {
    os_ << name << '=' << s.accesses << ',' << s.hits << ',' << s.misses
        << ',' << s.writebacks << ',' << s.flushes << ','
        << s.flushed_dirty << '\n';
  }
  void energy(const EnergyReport& e) {
    f("e.dynamic", e.partitioned.dynamic_pj);
    f("e.leak_active", e.partitioned.leakage_active_pj);
    f("e.leak_retention", e.partitioned.leakage_retention_pj);
    f("e.leak_drowsy", e.partitioned.leakage_drowsy_pj);
    f("e.transition", e.partitioned.transition_pj);
    f("e.baseline", e.baseline_pj);
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

bool same(const CacheStats& a, const CacheStats& b) {
  return a.accesses == b.accesses && a.hits == b.hits &&
         a.misses == b.misses && a.writebacks == b.writebacks &&
         a.flushes == b.flushes && a.flushed_dirty == b.flushed_dirty;
}

bool unit_interval(double v) { return v >= 0.0 && v <= 1.0; }

}  // namespace

std::string canonical_outputs(const pcal::SweepOutcome& o) {
  const pcal::SimResult& r = o.result;
  Canon c;
  c.u("accesses", r.accesses);
  c.u("total_cycles", r.total_cycles);
  c.u("stall_cycles", r.stall_cycles);
  c.u("mshr_stall", r.mshr_stall_cycles);
  c.u("port_stall", r.port_stall_cycles);
  c.u("bw_stall", r.bw_stall_cycles);
  c.u("breakeven", r.breakeven_cycles);
  c.u("reindex", r.reindex_updates_applied);
  c.stats("stats", r.cache_stats);
  for (const CacheStats& s : r.level_stats) c.stats("level", s);
  for (const std::uint64_t n : r.level_units) c.u("level_units", n);
  for (const pcal::UnitResult& u : r.units) {
    c.u("u.accesses", u.accesses);
    c.u("u.sleep_cycles", u.sleep_cycles);
    c.u("u.episodes", u.sleep_episodes);
    c.u("u.drowsy_cycles", u.drowsy_cycles);
    c.u("u.gated_episodes", u.gated_episodes);
    c.f("u.residency", u.sleep_residency);
    c.f("u.idleness_count", u.useful_idleness_count);
    c.f("u.lifetime", u.lifetime_years);
  }
  c.energy(r.energy);
  if (r.lifetime) {
    c.f("lifetime", r.lifetime->lifetime_years);
    c.u("limiting_bank", r.lifetime->limiting_bank);
  }
  for (const pcal::CoreResult& core : o.cores) {
    c.u("core.accesses", core.accesses);
    c.u("core.stall", core.stall_cycles);
    c.u("core.mask", core.llc_way_mask);
    for (const CacheStats& s : core.level_stats) c.stats("core.level", s);
    c.stats("core.llc", core.llc_stats);
    c.energy(core.energy);
    c.f("core.residency", core.avg_residency);
  }
  return c.str();
}

std::string digest(const pcal::SweepOutcome& outcome) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : canonical_outputs(outcome)) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string check_invariants(const pcal::SweepOutcome& o) {
  if (!o.ok()) return "job threw: " + o.error_what;
  const pcal::SimResult& r = o.result;
  if (r.accesses == 0) return "no accesses simulated";
  if (r.total_cycles != r.accesses + r.stall_cycles)
    return "total_cycles != accesses + stall_cycles";
  if (r.mshr_stall_cycles + r.port_stall_cycles + r.bw_stall_cycles >
      r.stall_cycles)
    return "contention stalls exceed stall_cycles";
  if (r.level_stats.empty() || !same(r.level_stats.front(), r.cache_stats))
    return "L1 level_stats != cache_stats";
  for (const pcal::UnitResult& u : r.units)
    if (!unit_interval(u.sleep_residency))
      return "unit residency outside [0,1]";
  if (!unit_interval(r.drowsy_residency()))
    return "drowsy residency outside [0,1]";
  for (const pcal::CoreResult& core : o.cores)
    if (!unit_interval(core.avg_residency))
      return "core residency outside [0,1]";
  return "";
}

std::string reference_path(const Options& opt, const std::string& workload,
                           std::uint64_t accesses) {
  return opt.root + "/perfbench/reference/" + workload + "-n" +
         std::to_string(accesses) + ".ref";
}

Reference load_reference(const std::string& path) {
  Reference ref;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    ref[line.substr(sp + 1)] = line.substr(0, sp);
  }
  return ref;
}

void save_reference(const std::string& path, const Reference& ref) {
  std::ofstream out(path);
  out << "# pcal perfbench reference: <digest of exact outputs> <job label>"
         ", default seed\n";
  for (const auto& [label, d] : ref) out << d << ' ' << label << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

void perturb_one_ulp(pcal::SweepOutcome* outcome) {
  pcal::SimResult& r = outcome->result;
  double& v = r.units.empty() ? r.energy.baseline_pj
                              : r.units.front().sleep_residency;
  v = std::nextafter(v, 2.0 * v + 1.0);
}

}  // namespace perfbench
