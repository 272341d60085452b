#include "aging/snm.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"

namespace pcal {
namespace {

constexpr double kSqrt2 = 1.4142135623730951;

/// Piecewise-linear function v(u) from unordered samples (sorted on build).
class Curve {
 public:
  Curve(std::vector<double> us, std::vector<double> vs)
      : us_(std::move(us)), vs_(std::move(vs)) {
    PCAL_ASSERT(us_.size() == vs_.size() && us_.size() >= 2);
    // Samples are monotone in u by construction (decreasing VTCs), but the
    // direction depends on the parameterization; normalize to increasing.
    if (us_.front() > us_.back()) {
      std::reverse(us_.begin(), us_.end());
      std::reverse(vs_.begin(), vs_.end());
    }
  }

  double u_min() const { return us_.front(); }
  double u_max() const { return us_.back(); }

  double operator()(double u) const {
    if (u <= us_.front()) return vs_.front();
    if (u >= us_.back()) return vs_.back();
    const auto it = std::upper_bound(us_.begin(), us_.end(), u);
    const std::size_t i = static_cast<std::size_t>(it - us_.begin()) - 1;
    const double t = (u - us_[i]) / (us_[i + 1] - us_[i]);
    return vs_[i] + t * (vs_[i + 1] - vs_[i]);
  }

 private:
  std::vector<double> us_;
  std::vector<double> vs_;
};

}  // namespace

SnmResult read_snm(const SramCell& cell, double dvth_p0, double dvth_p1,
                   std::size_t samples) {
  PCAL_ASSERT(samples >= 16);
  const double vdd = cell.params().vdd;

  // Butterfly axes: X = V(Q), Y = V(QB).
  // Inverter 1 (pMOS shift dvth_p0): input QB, output Q  ->  X = f1(Y).
  // Inverter 2 (pMOS shift dvth_p1): input Q,  output QB ->  Y = f2(X).
  // Rotated frame: u = (X - Y)/sqrt(2), v = (X + Y)/sqrt(2).
  std::vector<double> uA, vA, uB, vB;
  uA.reserve(samples);
  vA.reserve(samples);
  uB.reserve(samples);
  vB.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const double t = vdd * static_cast<double>(i) /
                     static_cast<double>(samples - 1);
    // Curve A: parameterized by X = t, Y = f2(X).
    const double y2 = cell.inverter_vtc(t, dvth_p1);
    uA.push_back((t - y2) / kSqrt2);
    vA.push_back((t + y2) / kSqrt2);
    // Curve B: parameterized by Y = t, X = f1(Y).  Equal shifts make f1
    // and f2 the same solve, so its sample is reused: uB = -uA and
    // vB = vA then hold exactly.
    const double x1 =
        dvth_p0 == dvth_p1 ? y2 : cell.inverter_vtc(t, dvth_p0);
    uB.push_back((x1 - t) / kSqrt2);
    vB.push_back((x1 + t) / kSqrt2);
  }
  const Curve a(std::move(uA), std::move(vA));
  const Curve b(std::move(uB), std::move(vB));

  // Scan the overlapping u range for the extreme separations d(u) = vB - vA:
  // the positive extreme is one lobe's diagonal, the negative the other's.
  const double lo = std::max(a.u_min(), b.u_min());
  const double hi = std::min(a.u_max(), b.u_max());
  SnmResult r;
  if (hi <= lo) return r;  // degenerate (should not happen for a real cell)
  double d_max = 0.0, d_min = 0.0;
  const std::size_t grid = samples * 4;
  for (std::size_t i = 0; i <= grid; ++i) {
    const double u =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(grid);
    const double d = b(u) - a(u);
    d_max = std::max(d_max, d);
    d_min = std::min(d_min, d);
  }
  r.lobe0 = std::max(0.0, d_max) / kSqrt2;
  r.lobe1 = std::max(0.0, -d_min) / kSqrt2;
  r.snm = std::min(r.lobe0, r.lobe1);
  return r;
}

}  // namespace pcal
