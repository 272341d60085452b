#include "aging/sram_cell.h"

#include <algorithm>
#include <cmath>

#include "aging/mosfet.h"
#include "util/error.h"

namespace pcal {
namespace {

/// Root of a node current f in (0, vdd) by at most `steps` halvings, given
/// f(0) > 0 >= f(vdd).  Every step keeps f(lo) > 0 and f(hi) <= 0, so once
/// the midpoint rounds onto lo or hi the next step would re-assign that
/// same end: (lo, hi) is at its fixed point, and stopping there returns
/// the same bits as running every remaining step.
template <typename F>
double bisect_root(const F& f, double vdd, int steps) {
  double lo = 0.0, hi = vdd;
  for (int it = 0; it < steps; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    if (f(mid) > 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

SramCell::SramCell(const SramCellParams& params) : params_(params) {
  PCAL_CONFIG_CHECK(params_.vdd > params_.nmos_driver.vth,
                    "vdd must exceed the driver threshold");
}

double SramCell::inverter_vtc(double vin, double dvth_p) const {
  const double vdd = params_.vdd;
  PCAL_ASSERT(vin >= 0.0 && vin <= vdd + 1e-9);

  // Node equation at the output: pull-up (pMOS from vdd) + access pull-up
  // (nMOS from the precharged bitline at vdd) balance the pull-down nMOS.
  // The load's and the driver's gates sit at vin for the whole solve:
  //   pMOS load: |vgs| = vdd - vin, |vds| = vdd - vout, NBTI-shifted vth;
  //   driver nMOS: gate vin, drain vout.
  const FixedGateDevice load(vth_shifted(params_.pmos_load, dvth_p),
                             vdd - vin);
  const FixedGateDevice driver(params_.nmos_driver, vin);
  // Currents *into* the node minus currents out, as a function of vout.
  // Only the access nMOS moves its gate with vout: gate at vdd (wordline),
  // drain at vdd (bitline), source at vout: vgs = vds = vdd - vout.
  const auto node_current = [&](double vout) {
    const double ip = load.id(vdd - vout);
    const double ia =
        alpha_power_id(params_.nmos_access, vdd - vout, vdd - vout);
    const double in = driver.id(vout);
    return ip + ia - in;
  };

  // node_current is monotone non-increasing in vout (pull-ups weaken, the
  // pull-down strengthens), so bisection is exact.
  const double f_lo = node_current(0.0);
  if (f_lo <= 0.0) return 0.0;  // pull-down wins everywhere
  const double f_hi = node_current(vdd);
  if (f_hi >= 0.0) return vdd;  // pull-ups win everywhere
  return bisect_root(node_current, vdd, 80);
}

double SramCell::read_disturb_voltage(double dvth_p) const {
  return inverter_vtc(params_.vdd, dvth_p);
}

std::vector<double> SramCell::sample_vtc(double dvth_p,
                                         std::size_t points) const {
  PCAL_ASSERT(points >= 2);
  std::vector<double> out(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double vin = params_.vdd * static_cast<double>(i) /
                       static_cast<double>(points - 1);
    out[i] = inverter_vtc(vin, dvth_p);
  }
  return out;
}

double SramCell::inverter_vtc_hold(double vin, double dvth_p,
                                   double vdd) const {
  PCAL_ASSERT(vdd > 0.0 && vin >= 0.0 && vin <= vdd + 1e-9);
  const FixedGateDevice load(vth_shifted(params_.pmos_load, dvth_p),
                             vdd - vin);
  const FixedGateDevice driver(params_.nmos_driver, vin);
  const auto node_current = [&](double vout) {
    return load.id(vdd - vout) - driver.id(vout);
  };
  // With both devices cut off the node floats; resolve toward the rail
  // the last conducting device pointed at: input below the driver
  // threshold holds '1', above it holds '0' (an idealization of the
  // leakage that actually settles the node).
  const double f_lo = node_current(0.0);
  const double f_hi = node_current(vdd);
  if (f_lo <= 0.0 && f_hi <= 0.0) {
    if (f_lo == 0.0 && f_hi == 0.0)
      return vin <= params_.nmos_driver.vth ? vdd : 0.0;
    return 0.0;
  }
  if (f_hi >= 0.0) return vdd;
  return bisect_root(node_current, vdd, 60);
}

double hold_snm(const SramCell& cell, double vdd, double dvth_p0,
                double dvth_p1, std::size_t samples) {
  PCAL_ASSERT(samples >= 16);
  constexpr double kSqrt2 = 1.4142135623730951;
  // Same 45-degree construction as read_snm, parameterized on the hold
  // VTCs.  Duplicating the small rotation loop keeps the two entry points
  // independent (read_snm stays tied to the cell's nominal read supply).
  std::vector<double> uA, vA, uB, vB;
  uA.reserve(samples);
  vA.reserve(samples);
  uB.reserve(samples);
  vB.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const double t =
        vdd * static_cast<double>(i) / static_cast<double>(samples - 1);
    const double y2 = cell.inverter_vtc_hold(t, dvth_p1, vdd);
    uA.push_back((t - y2) / kSqrt2);
    vA.push_back((t + y2) / kSqrt2);
    const double x1 = cell.inverter_vtc_hold(t, dvth_p0, vdd);
    uB.push_back((x1 - t) / kSqrt2);
    vB.push_back((x1 + t) / kSqrt2);
  }
  const auto eval = [](const std::vector<double>& us,
                       const std::vector<double>& vs, double u) {
    // Curves are monotone in u by construction; binary search a segment.
    const bool increasing = us.front() < us.back();
    std::size_t lo = 0, hi = us.size() - 1;
    if (increasing ? (u <= us.front()) : (u >= us.front()))
      return vs.front();
    if (increasing ? (u >= us.back()) : (u <= us.back())) return vs.back();
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      if (increasing ? (us[mid] <= u) : (us[mid] >= u))
        lo = mid;
      else
        hi = mid;
    }
    const double t = (u - us[lo]) / (us[hi] - us[lo]);
    return vs[lo] + t * (vs[hi] - vs[lo]);
  };
  const double lo_u = std::max(std::min(uA.front(), uA.back()),
                               std::min(uB.front(), uB.back()));
  const double hi_u = std::min(std::max(uA.front(), uA.back()),
                               std::max(uB.front(), uB.back()));
  if (hi_u <= lo_u) return 0.0;
  double d_max = 0.0, d_min = 0.0;
  const std::size_t grid = samples * 4;
  for (std::size_t i = 0; i <= grid; ++i) {
    const double u = lo_u + (hi_u - lo_u) * static_cast<double>(i) /
                                static_cast<double>(grid);
    const double d = eval(uB, vB, u) - eval(uA, vA, u);
    d_max = std::max(d_max, d);
    d_min = std::min(d_min, d);
  }
  return std::min(std::max(0.0, d_max), std::max(0.0, -d_min)) / kSqrt2;
}

double data_retention_voltage(const SramCell& cell, double dvth_p0,
                              double dvth_p1, double required_snm) {
  const double vdd_nom = cell.params().vdd;
  if (hold_snm(cell, vdd_nom, dvth_p0, dvth_p1) < required_snm)
    return vdd_nom;  // cell cannot even hold at nominal supply
  double lo = 0.05, hi = vdd_nom;  // lo: certainly failing
  for (int it = 0; it < 40; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (hold_snm(cell, mid, dvth_p0, dvth_p1) >= required_snm)
      hi = mid;
    else
      lo = mid;
  }
  return hi;
}

}  // namespace pcal
