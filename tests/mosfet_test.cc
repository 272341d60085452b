#include "aging/mosfet.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pcal {
namespace {

DeviceParams dev() { return DeviceParams{0.4, 1.3, 2.0}; }

TEST(Mosfet, CutoffBelowThreshold) {
  EXPECT_EQ(alpha_power_id(dev(), 0.0, 1.0), 0.0);
  EXPECT_EQ(alpha_power_id(dev(), 0.4, 1.0), 0.0);
  EXPECT_EQ(alpha_power_id(dev(), 0.39, 1.0), 0.0);
}

TEST(Mosfet, ZeroVdsZeroCurrent) {
  EXPECT_EQ(alpha_power_id(dev(), 1.0, 0.0), 0.0);
}

TEST(Mosfet, SaturationValue) {
  // vgs = 1.4: vov = 1.0 -> idsat = beta * 1.0^1.3 = beta.
  EXPECT_NEAR(alpha_power_id(dev(), 1.4, 5.0), 2.0, 1e-12);
  // vov = 0.5: idsat = 2 * 0.5^1.3.
  EXPECT_NEAR(alpha_power_id(dev(), 0.9, 5.0), 2.0 * std::pow(0.5, 1.3),
              1e-12);
}

TEST(Mosfet, TriodeContinuousAtVdsat) {
  const double vgs = 1.0;
  const double vov = vgs - 0.4;
  const double vdsat = std::pow(vov, 1.3 / 2.0);
  const double just_below = alpha_power_id(dev(), vgs, vdsat * (1 - 1e-9));
  const double at = alpha_power_id(dev(), vgs, vdsat);
  EXPECT_NEAR(just_below, at, at * 1e-6);
}

TEST(Mosfet, MonotoneInVgs) {
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 1.2; vgs += 0.05) {
    const double id = alpha_power_id(dev(), vgs, 1.2);
    EXPECT_GE(id, prev);
    prev = id;
  }
}

TEST(Mosfet, MonotoneInVds) {
  double prev = -1.0;
  for (double vds = 0.0; vds <= 1.2; vds += 0.02) {
    const double id = alpha_power_id(dev(), 1.0, vds);
    EXPECT_GE(id, prev * (1 - 1e-12));
    prev = id;
  }
}

TEST(Mosfet, ShiftedThresholdWeakensDevice) {
  const double fresh = alpha_power_id(dev(), 1.0, 1.0);
  const double aged = alpha_power_id(vth_shifted(dev(), 0.05), 1.0, 1.0);
  EXPECT_LT(aged, fresh);
  // A negative "shift" is clamped (NBTI only increases |vth|).
  EXPECT_EQ(alpha_power_id(vth_shifted(dev(), -0.1), 1.0, 1.0), fresh);
}

TEST(Mosfet, BetaScalesLinearly) {
  DeviceParams d1 = dev(), d2 = dev();
  d2.beta = 2.0 * d1.beta;
  EXPECT_NEAR(alpha_power_id(d2, 1.0, 0.3),
              2.0 * alpha_power_id(d1, 1.0, 0.3), 1e-12);
}

}  // namespace
}  // namespace pcal
