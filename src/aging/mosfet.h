// Sakurai–Newton alpha-power-law MOSFET model.
//
// The SPICE level of detail the paper uses is overkill for what it
// extracts (DC butterfly curves of a 6T cell); the alpha-power law captures
// the short-channel saturation behaviour that shapes SNM while staying
// closed form.  Only drain-current *ratios* matter for SNM, so beta is in
// arbitrary consistent units.
#pragma once

#include "aging/aging_params.h"

namespace pcal {

/// An n-type device (source-referenced, all voltages >= 0 in normal
/// operation) at a fixed gate bias `vgs`, evaluated per drain voltage:
///   cutoff      (vgs <= vth):        0
///   saturation  (vds >= vdsat):      beta * (vgs - vth)^alpha
///   triode      (vds <  vdsat):      Idsat * (2 - vds/vdsat)*(vds/vdsat)
/// with vdsat = (vgs - vth)^(alpha/2).  The two gate-only powers are
/// taken once at construction, so a solve that sweeps vds at a fixed gate
/// pays them once instead of per step.  p-type devices are handled by the
/// caller flipping signs (pass |vgs|, |vds| and its own params).
class FixedGateDevice {
 public:
  FixedGateDevice(const DeviceParams& dev, double vgs);

  /// Drain current at drain-source voltage `vds`.
  double id(double vds) const;

 private:
  bool on_ = false;
  double idsat_ = 0.0;
  double vdsat_ = 0.0;
};

/// Drain current of an n-type device: FixedGateDevice(dev, vgs).id(vds).
double alpha_power_id(const DeviceParams& dev, double vgs, double vds);

/// `dev` with its |vth| raised by the NBTI shift `dvth` (NBTI only
/// increases |vth|: negative shifts are clamped to 0).
DeviceParams vth_shifted(const DeviceParams& dev, double dvth);

}  // namespace pcal
