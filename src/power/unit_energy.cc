#include "power/unit_energy.h"

#include <cmath>

#include "util/error.h"

namespace pcal {
namespace {

std::uint64_t unit_bytes_of(const CacheTopology& topology) {
  const CacheConfig& c = topology.cache;
  switch (topology.granularity) {
    case Granularity::kMonolithic: return c.size_bytes;
    case Granularity::kBank:
      return c.size_bytes / topology.partition.num_banks;
    case Granularity::kWay:
      return c.size_bytes / (topology.partition.num_banks * c.ways);
    case Granularity::kLine: return c.line_bytes;
  }
  return c.size_bytes;
}

}  // namespace

EnergyParams EnergyParams::paper() {
  EnergyParams p;
  p.gated_leak_fraction = 0.05;
  p.sleep_area_leak_overhead = 0.0;
  p.control_leak_uw_per_unit = 0.0;
  p.gate_transition_fixed_pj = 0.0;
  return p;
}

EnergyParams EnergyParams::preset(const std::string& name) {
  if (name == "paper") return paper();
  if (name == "st45") return st45();
  throw ConfigError("unknown energy preset: \"" + name +
                    "\" (expected paper | st45)");
}

void EnergyParams::validate() const {
  PCAL_CONFIG_CHECK(gated_leak_fraction > 0.0 &&
                        gated_leak_fraction < drowsy_leak_fraction &&
                        drowsy_leak_fraction < 1.0,
                    "need 0 < gated < drowsy < 1 leakage fractions");
  PCAL_CONFIG_CHECK(sleep_area_leak_overhead >= 0.0 &&
                        control_leak_uw_per_unit >= 0.0,
                    "sleep-network overheads must be non-negative");
  PCAL_CONFIG_CHECK(drowsy_transition_fraction > 0.0 &&
                        drowsy_transition_fraction < 1.0,
                    "drowsy transition fraction must be in (0,1)");
  PCAL_CONFIG_CHECK(gate_transition_fixed_pj >= 0.0 &&
                        drowsy_transition_fixed_pj >= 0.0,
                    "fixed transition costs must be non-negative");
}

UnitEnergyModel::UnitEnergyModel(const EnergyParams& params,
                                 const TechnologyParams& tech,
                                 const CacheTopology& topology)
    : params_(params), tech_(tech), topology_(topology) {
  topology_.cache.validate();
  if (topology_.granularity == Granularity::kBank ||
      topology_.granularity == Granularity::kWay)
    topology_.partition.validate(topology_.cache);
  params_.validate();
  PCAL_CONFIG_CHECK(tech_.vdd > tech_.vdd_retention &&
                        tech_.vdd_retention > 0.0,
                    "need vdd > vdd_retention > 0");
  PCAL_CONFIG_CHECK(tech_.clock_ns > 0.0, "clock period must be positive");
  unit_bytes_ = unit_bytes_of(topology_);
  PCAL_CONFIG_CHECK(unit_bytes_ > 0, "empty power-management unit");
}

double UnitEnergyModel::clock_ns() const { return tech_.clock_ns; }

double UnitEnergyModel::array_leak_mw(std::uint64_t bytes) const {
  const CacheConfig& c = topology_.cache;
  const double tag_bytes = static_cast<double>(bytes) /
                           static_cast<double>(c.line_bytes) *
                           static_cast<double>(c.tag_bits()) / 8.0;
  const double kb = (static_cast<double>(bytes) + tag_bytes) / 1024.0;
  return tech_.leak_mw_per_kb * kb *
         std::pow(kb / tech_.leak_ref_kb, tech_.leak_size_exponent);
}

double UnitEnergyModel::array_access_pj(std::uint64_t bytes) const {
  const double kb = static_cast<double>(bytes) / 1024.0;
  return tech_.dyn_base_pj + tech_.dyn_sqrt_pj * std::sqrt(kb) +
         tech_.dyn_line_pj_per_byte *
             static_cast<double>(topology_.cache.line_bytes);
}

double UnitEnergyModel::unit_leak_mw() const {
  return array_leak_mw(unit_bytes_) *
             (1.0 + params_.sleep_area_leak_overhead) +
         params_.control_leak_uw_per_unit * 1e-3;
}

double UnitEnergyModel::unit_drowsy_mw() const {
  return array_leak_mw(unit_bytes_) * params_.drowsy_leak_fraction +
         params_.control_leak_uw_per_unit * 1e-3;
}

double UnitEnergyModel::unit_gated_mw() const {
  return array_leak_mw(unit_bytes_) * params_.gated_leak_fraction +
         params_.control_leak_uw_per_unit * 1e-3;
}

double UnitEnergyModel::access_energy_pj() const {
  const std::uint64_t size = topology_.cache.size_bytes;
  switch (topology_.granularity) {
    case Granularity::kMonolithic:
      return array_access_pj(size);
    case Granularity::kBank:
    case Granularity::kWay: {
      // One bank array through the partition: decoder D plus wiring
      // overhead growing with M.
      const std::uint64_t banks = topology_.partition.num_banks;
      const double wiring =
          1.0 + tech_.wiring_dyn_per_bank * static_cast<double>(banks - 1);
      return array_access_pj(size / banks) * wiring + tech_.decoder_pj;
    }
    case Granularity::kLine:
      // One flat array plus the full-index rotation decoder of [7].
      return array_access_pj(size) + tech_.decoder_pj;
  }
  return array_access_pj(size);
}

double UnitEnergyModel::gate_transition_pj() const {
  const double unit_kb = static_cast<double>(unit_bytes_) / 1024.0;
  const double tag_component =
      tech_.transition_tag_pj_per_bit_byte *
      static_cast<double>(topology_.cache.tag_bits()) *
      static_cast<double>(topology_.cache.line_bytes);
  return tech_.transition_pj_per_kb * unit_kb + tag_component +
         params_.gate_transition_fixed_pj;
}

double UnitEnergyModel::drowsy_transition_pj() const {
  const double full =
      gate_transition_pj() - params_.gate_transition_fixed_pj;
  return params_.drowsy_transition_fraction * full +
         params_.drowsy_transition_fixed_pj;
}

double UnitEnergyModel::breakeven_for(double saved_mw,
                                      double transition_pj) const {
  PCAL_ASSERT(saved_mw > 0.0);
  const double pj_per_cycle = saved_mw * tech_.clock_ns;  // mW == pJ/ns
  return std::ceil(transition_pj / pj_per_cycle);
}

std::uint64_t UnitEnergyModel::gate_breakeven_cycles() const {
  const double saved = unit_leak_mw() - unit_gated_mw();
  return static_cast<std::uint64_t>(
      breakeven_for(saved, gate_transition_pj()));
}

std::uint64_t UnitEnergyModel::drowsy_breakeven_cycles() const {
  const double saved = unit_leak_mw() - unit_drowsy_mw();
  return static_cast<std::uint64_t>(
      breakeven_for(saved, drowsy_transition_pj()));
}

double UnitEnergyModel::baseline_pj(std::uint64_t accesses,
                                    std::uint64_t cycles) const {
  const double t_ns = static_cast<double>(cycles) * tech_.clock_ns;
  const std::uint64_t size = topology_.cache.size_bytes;
  return static_cast<double>(accesses) * array_access_pj(size) +
         array_leak_mw(size) * t_ns;
}

LatencyParams wake_latencies(const EnergyParams& params) {
  LatencyParams latency;
  latency.drowsy_wake_cycles = params.drowsy_wake_cycles;
  latency.gated_wake_cycles = params.gated_wake_cycles;
  return latency;
}

EnergyBreakdown price_unit(const UnitEnergyModel& model,
                           const UnitActivity& a,
                           std::uint64_t total_cycles) {
  PCAL_ASSERT_MSG(a.sleep_cycles <= total_cycles,
                  "unit sleeps longer than the run");
  PCAL_ASSERT_MSG(a.drowsy_cycles <= a.sleep_cycles,
                  "drowsy cycles exceed sleep cycles");
  PCAL_ASSERT_MSG(a.gated_episodes <= a.sleep_episodes,
                  "gated episodes exceed sleep episodes");
  const double clock_ns = model.clock_ns();
  const double t_ns = static_cast<double>(total_cycles) * clock_ns;
  const double sleep_ns = static_cast<double>(a.sleep_cycles) * clock_ns;
  const double drowsy_ns = static_cast<double>(a.drowsy_cycles) * clock_ns;
  const double gated_ns = sleep_ns - drowsy_ns;
  EnergyBreakdown e;
  e.dynamic_pj = static_cast<double>(a.accesses) * model.access_energy_pj();
  e.leakage_active_pj = model.unit_leak_mw() * (t_ns - sleep_ns);
  e.leakage_drowsy_pj = model.unit_drowsy_mw() * drowsy_ns;
  e.leakage_retention_pj = model.unit_gated_mw() * gated_ns;
  // Drowsy-only episodes pay the shallow round trip; episodes that
  // deepen into gating pay the full one (the drowsy pass-through is
  // absorbed into the gate cost).
  e.transition_pj =
      static_cast<double>(a.sleep_episodes - a.gated_episodes) *
          model.drowsy_transition_pj() +
      static_cast<double>(a.gated_episodes) * model.gate_transition_pj();
  return e;
}

EnergyReport price_unit_run(const UnitEnergyModel& model,
                            const std::vector<UnitActivity>& activity,
                            std::uint64_t total_cycles) {
  PCAL_ASSERT_MSG(activity.size() == model.topology().num_units(),
                  "activity size " << activity.size() << " != units "
                                   << model.topology().num_units());
  EnergyReport report;
  std::uint64_t total_accesses = 0;
  for (const UnitActivity& a : activity) {
    total_accesses += a.accesses;
    report.partitioned += price_unit(model, a, total_cycles);
  }
  report.baseline_pj = model.baseline_pj(total_accesses, total_cycles);
  return report;
}

}  // namespace pcal
