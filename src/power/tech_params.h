// Technology parameters for the 45nm-class power/energy model.
//
// The paper characterizes energy from an industrial STMicroelectronics
// 45nm design kit we do not have.  These parameters define a CACTI-style
// analytical stand-in; absolute joules are not the reproduction target
// (the paper's own numbers are kit specific), but the *relations* the
// evaluation leans on are encoded here:
//   - leakage grows superlinearly with array size (larger memories have a
//     higher static/dynamic ratio -> energy savings grow with cache size),
//   - dynamic access energy grows with array size (sqrt term: longer
//     bitlines/wordlines) and with line width,
//   - reactivation (Vdd_low -> Vdd) energy has a tag-array component that
//     grows with tag width x line width (tags have a larger reactivation
//     penalty -> savings shrink with line size, paper Table III),
//   - partitioning adds wiring/decoder overhead growing with M (paper:
//     beyond 4-5 banks overhead eats the savings; uniform banks stay
//     feasible to M = 16).
#pragma once

namespace pcal {

struct TechnologyParams {
  // Supplies (V).  Retention voltage preserves state (drowsy operation).
  double vdd = 1.1;
  double vdd_retention = 0.75;

  // Cycle time (ns): one access per cycle.
  double clock_ns = 1.0;

  // Operating temperature (C): accelerates both leakage and NBTI.
  double temperature_c = 80.0;

  // ---- leakage ----
  // Active leakage power of an array holding `kb` kbytes:
  //   P = leak_mw_per_kb * kb * (kb / leak_ref_kb)^leak_size_exponent  [mW]
  double leak_mw_per_kb = 1.0;
  double leak_ref_kb = 16.0;
  double leak_size_exponent = 0.5;
  // What remains of it in the low-power states is a property of the
  // sleep hardware: EnergyParams (power/unit_energy.h).

  // ---- dynamic access energy (pJ per access) ----
  //   E = dyn_base_pj + dyn_sqrt_pj * sqrt(kb) + dyn_line_pj_per_byte * line
  double dyn_base_pj = 6.0;
  double dyn_sqrt_pj = 2.0;
  double dyn_line_pj_per_byte = 0.15;

  // ---- partitioning overhead ----
  // Decoder D energy per access (f() + 1-hot encoder + Block Control).
  double decoder_pj = 0.3;
  // Dynamic wiring overhead factor: x (1 + wiring_dyn_per_bank * (M - 1)).
  // Characterized from the trends reported for partitioned scratchpads
  // ([10] in the paper).
  double wiring_dyn_per_bank = 0.012;

  // ---- Vdd transition (sleep entry + wake) energy ----
  // Data-array component per kbyte of bank, plus the tag-array component
  // that scales with (tag bits per line) x (line bytes).
  double transition_pj_per_kb = 20.0;
  double transition_tag_pj_per_bit_byte = 0.03;

  /// Defaults above: the 45nm-class operating point used throughout the
  /// reproduction.
  static TechnologyParams st45() { return TechnologyParams{}; }
};

}  // namespace pcal
