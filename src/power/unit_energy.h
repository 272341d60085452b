// The energy model: prices every run at every power-management
// granularity.
//
// One model covers the paper's bank partition and everything this repo
// grew past the paper: the monolithic reference, per-line units, per-way
// units, the drowsy/gated hybrid, multi-level hierarchies and multi-core
// systems.  Array leakage, access and tag costs come from the 45nm-class
// TechnologyParams; the sleep hardware is an explicitly parameterized
// overhead model (EnergyParams) instead of silent zeros:
//
//   - every independently power-managed unit pays for its sleep network:
//     a leakage overhead proportional to the unit's own leakage (sleep
//     transistors are sized to the current they must gate) plus a fixed
//     always-on control tax (breakeven counter, drive, level shifters)
//     that is what actually punishes fine granularity — 512 per-line
//     controllers cost more than 4 per-bank ones;
//   - sleep has two depths: drowsy (state-preserving retention voltage,
//     drowsy_leak_fraction of active leakage, cheap transitions) and
//     power-gated (gated_leak_fraction, full transition cost);
//   - transition energy scales with the unit's capacity plus a fixed
//     per-event control pulse, so gating a line is cheap per event but
//     never free.
//
// Two presets: paper() is the DATE'11 bank model (no sleep-network
// overheads, 5% leakage in the low-power state) and the default of every
// run; st45() adds the sleep-network costs for cross-granularity studies.
//
// The baseline every report compares against is the never-sleeping
// monolithic cache of the same total capacity, with no sleep network and
// no bank decoder.  See docs/ENERGY_MODEL.md for the derivation and
// defaults.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/managed_cache.h"
#include "power/tech_params.h"

namespace pcal {

/// Energy breakdown of one run (all in pJ).
struct EnergyBreakdown {
  double dynamic_pj = 0.0;      // unit accesses incl. decoder + wiring
  double leakage_active_pj = 0.0;
  /// Leakage spent power-gated (the deepest low-power state).
  double leakage_retention_pj = 0.0;
  /// Leakage spent at the drowsy voltage.
  double leakage_drowsy_pj = 0.0;
  double transition_pj = 0.0;

  double total_pj() const {
    return dynamic_pj + leakage_active_pj + leakage_retention_pj +
           leakage_drowsy_pj + transition_pj;
  }

  /// Component-wise accumulation (units and levels sum).  Keep in
  /// lockstep with total_pj() when adding fields.
  EnergyBreakdown& operator+=(const EnergyBreakdown& other) {
    dynamic_pj += other.dynamic_pj;
    leakage_active_pj += other.leakage_active_pj;
    leakage_retention_pj += other.leakage_retention_pj;
    leakage_drowsy_pj += other.leakage_drowsy_pj;
    transition_pj += other.transition_pj;
    return *this;
  }
};

struct EnergyReport {
  EnergyBreakdown partitioned;
  double baseline_pj = 0.0;  // monolithic, never sleeping
  /// Fractional saving vs the monolithic baseline (paper's Esav).
  double saving() const {
    return baseline_pj > 0.0 ? 1.0 - partitioned.total_pj() / baseline_pj
                             : 0.0;
  }

  /// Accumulates another level's report (components and baseline add).
  EnergyReport& operator+=(const EnergyReport& other) {
    partitioned += other.partitioned;
    baseline_pj += other.baseline_pj;
    return *this;
  }
};

/// Sleep-network and drowsy-state parameters of the energy model.
/// Leakage fractions are relative to the unit's active leakage.
struct EnergyParams {
  /// Leakage remaining at the drowsy (state-preserving) voltage.
  double drowsy_leak_fraction = 0.25;
  /// Leakage remaining through an off sleep transistor (state lost).
  double gated_leak_fraction = 0.02;
  /// Leakage overhead of the sleep devices themselves, as a fraction of
  /// the unit's active leakage (sleep transistors are sized to the unit's
  /// switched current, so this scales with the unit automatically).
  double sleep_area_leak_overhead = 0.06;
  /// Always-on control leakage per unit (breakeven counter + gate drive +
  /// level shifters), in microwatts.  Unit-count-proportional: the term
  /// that makes per-line management expensive.
  double control_leak_uw_per_unit = 1.2;
  /// Fixed control-pulse energy per gate transition (pJ), on top of the
  /// capacity-proportional part.
  double gate_transition_fixed_pj = 1.0;
  /// Drowsy round trip as a fraction of the full gate round trip of the
  /// same unit (a Vdd dip, not a power cut).
  double drowsy_transition_fraction = 0.12;
  /// Fixed part of one drowsy round trip (pJ).
  double drowsy_transition_fixed_pj = 0.25;
  /// Wakeup latencies of the sleep hardware.  These are the recommended
  /// values for the timing core's LatencyParams wake costs (see
  /// wake_latencies() below); the driver stalls the clock by them when a
  /// run opts into timing, and leakage is then priced against the
  /// stall-stretched wall clock.
  std::uint64_t drowsy_wake_cycles = 1;
  std::uint64_t gated_wake_cycles = 3;

  void validate() const;

  /// The paper's bank model, the default of every run: no sleep-network
  /// leakage or control tax, no fixed gate pulse, and 5% of active
  /// leakage left in the low-power state.
  static EnergyParams paper();
  /// The 45nm-class sleep-network costs (the field defaults above).
  static EnergyParams st45() { return EnergyParams{}; }
  /// The preset named "paper" or "st45"; ConfigError otherwise.
  static EnergyParams preset(const std::string& name);
};

/// Prices one power-management granularity of one cache level.
class UnitEnergyModel {
 public:
  /// `topology` fixes the geometry, granularity and unit count; `params`
  /// the sleep-network overheads; `tech` the base 45nm-class numbers.
  /// Throws ConfigError on an invalid geometry, preset or technology.
  UnitEnergyModel(const EnergyParams& params, const TechnologyParams& tech,
                  const CacheTopology& topology);

  const EnergyParams& params() const { return params_; }
  const CacheTopology& topology() const { return topology_; }
  double clock_ns() const;

  // ---- per-unit building blocks ----

  /// Data bytes of one power-management unit.
  std::uint64_t unit_bytes() const { return unit_bytes_; }

  /// Active leakage power of one unit (mW), including its share of the
  /// sleep network (area overhead + control tax).
  double unit_leak_mw() const;

  /// Leakage power of one unit at the drowsy voltage (mW).  The control
  /// tax never sleeps.
  double unit_drowsy_mw() const;

  /// Leakage power of one gated unit (mW).  Ditto.
  double unit_gated_mw() const;

  /// Dynamic energy of one access through this organization (pJ).
  double access_energy_pj() const;

  /// One full power-gate round trip of one unit (pJ).
  double gate_transition_pj() const;

  /// One drowsy round trip of one unit (pJ).
  double drowsy_transition_pj() const;

  // ---- derived thresholds ----

  /// Idle cycles whose gated-state saving repays one gate round trip.
  std::uint64_t gate_breakeven_cycles() const;

  /// Idle cycles whose drowsy-state saving repays one drowsy round trip
  /// (always <= gate_breakeven_cycles with sane parameters).
  std::uint64_t drowsy_breakeven_cycles() const;

  /// Never-sleeping monolithic baseline of the same total capacity (pJ).
  double baseline_pj(std::uint64_t accesses, std::uint64_t cycles) const;

  // ---- array building blocks (no sleep network) ----

  /// Active leakage power (mW) of an array of `bytes` data capacity,
  /// including its tag bits; superlinear in size.
  double array_leak_mw(std::uint64_t bytes) const;

  /// Dynamic energy (pJ) of one data + tag read of an array of `bytes`
  /// capacity with the configured line width.
  double array_access_pj(std::uint64_t bytes) const;

 private:
  double breakeven_for(double saved_mw, double transition_pj) const;

  EnergyParams params_;
  TechnologyParams tech_;
  CacheTopology topology_;
  std::uint64_t unit_bytes_ = 0;
};

/// Prices one unit over a run of `total_cycles` (drowsy split included —
/// pure-gated backends report drowsy_cycles = 0 and gated_episodes =
/// sleep_episodes, so one formula covers both).
EnergyBreakdown price_unit(const UnitEnergyModel& model,
                           const UnitActivity& activity,
                           std::uint64_t total_cycles);

/// Prices a run at any granularity from the per-unit activity vector:
/// the sum of price_unit over every unit, against baseline_pj.
/// `activity.size()` must equal the topology's unit count.
///
/// Stall-aware: `total_cycles` is the timing core's stretched wall clock
/// (accesses + stall cycles), so wakeup and miss stalls are priced as
/// real time — active or sleeping leakage for every unit — on both the
/// managed side and the never-sleeping monolithic baseline, which lives
/// on the same clock.
EnergyReport price_unit_run(const UnitEnergyModel& model,
                            const std::vector<UnitActivity>& activity,
                            std::uint64_t total_cycles);

/// The timing-core wake costs this energy model recommends: a
/// LatencyParams with the drowsy/gated wakeup latencies filled in and
/// hit/miss costs left at zero (those are a cache-geometry property, not
/// a sleep-hardware one).
LatencyParams wake_latencies(const EnergyParams& params);

}  // namespace pcal
