#include "aging/mosfet.h"

#include <algorithm>
#include <cmath>

namespace pcal {

FixedGateDevice::FixedGateDevice(const DeviceParams& dev, double vgs) {
  const double vov = vgs - dev.vth;
  if (vov <= 0.0) return;
  on_ = true;
  idsat_ = dev.beta * std::pow(vov, dev.alpha);
  vdsat_ = std::pow(vov, dev.alpha / 2.0);
}

// Out of line on purpose: the VTC solvers sum these currents, and keeping
// each one a call result keeps a multiply-add contraction from ever fusing
// the triode product into that sum, whatever the target ISA.
double FixedGateDevice::id(double vds) const {
  if (!on_ || vds <= 0.0) return 0.0;
  if (vds >= vdsat_) return idsat_;
  const double x = vds / vdsat_;
  return idsat_ * (2.0 - x) * x;
}

double alpha_power_id(const DeviceParams& dev, double vgs, double vds) {
  return FixedGateDevice(dev, vgs).id(vds);
}

DeviceParams vth_shifted(const DeviceParams& dev, double dvth) {
  DeviceParams shifted = dev;
  shifted.vth = dev.vth + std::max(0.0, dvth);
  return shifted;
}

}  // namespace pcal
