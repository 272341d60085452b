// Experiment plumbing shared by the paper-table benches and examples.
//
// AgingContext owns the calibrated characterizer and its LUT (built once,
// reused across hundreds of runs).  run_three_way() evaluates one workload
// on the three architectures every paper table compares:
//   - monolithic: one bank, the 2.93-year reference point,
//   - static:     power-managed partition, no re-indexing (column LT0),
//   - reindexed:  the proposed dynamic-indexing architecture (column LT).
#pragma once

#include <cstdint>
#include <memory>

#include "aging/aging_lut.h"
#include "core/simulator.h"
#include "trace/workloads.h"

namespace pcal {

class AgingContext {
 public:
  /// Builds and calibrates the characterizer, then the LUT: nine
  /// critical-shift bisections, one per distinct stress-duty pair of the
  /// default p0 axis.  About 0.7 s on one x86-64 Xeon core (see
  /// docs/PERFORMANCE.md, "Aging characterization"); share one instance
  /// per process.
  explicit AgingContext(AgingParams params = AgingParams::st45());

  const AgingLut& lut() const { return *lut_; }
  const CellAgingCharacterizer& characterizer() const { return *chr_; }

  /// Lifetime of the never-sleeping nominal cell (the paper's 2.93 years).
  double nominal_lifetime_years() const {
    return lut_->lifetime_years(0.5, 0.0);
  }

  /// The drowsy equivalent-stress factor (DESIGN.md gamma ~= 0.226).
  double sleep_stress_factor() const { return chr_->sleep_stress_factor(); }

 private:
  std::unique_ptr<CellAgingCharacterizer> chr_;
  std::unique_ptr<AgingLut> lut_;
};

struct ThreeWayResult {
  SimResult reindexed;
  SimResult static_pm;   // partitioned, power managed, no re-indexing
  SimResult monolithic;  // M = 1 reference

  /// Lifetime extension of re-indexing vs the monolithic reference.
  double extension_vs_monolithic() const {
    return monolithic.lifetime_years() > 0.0
               ? reindexed.lifetime_years() / monolithic.lifetime_years()
               : 0.0;
  }
  /// Lifetime extension of plain power management vs monolithic.
  double static_extension_vs_monolithic() const {
    return monolithic.lifetime_years() > 0.0
               ? static_pm.lifetime_years() / monolithic.lifetime_years()
               : 0.0;
  }
};

/// Runs one workload spec through the three architectures with
/// `num_accesses` accesses each (same trace for all three).
ThreeWayResult run_three_way(const WorkloadSpec& workload,
                             const SimConfig& config,
                             const AgingContext& aging,
                             std::uint64_t num_accesses);

/// Runs just the given configuration.
SimResult run_workload(const WorkloadSpec& workload, const SimConfig& config,
                       const AgingContext& aging,
                       std::uint64_t num_accesses);

/// The reference SimConfig of the paper's evaluation: direct-mapped cache
/// of `size_bytes` with `line_bytes` lines, M banks, Probing re-indexing.
SimConfig paper_config(std::uint64_t size_bytes, std::uint64_t line_bytes,
                       std::uint64_t num_banks);

}  // namespace pcal
