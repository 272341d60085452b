// The (p0, P_sleep) -> lifetime lookup table.
//
// "The collected data are stored in a lookup table, which is used by the
// cache simulator to estimate the aging of the cache banks" — this is that
// table.  Building it runs one critical-shift bisection per distinct
// stress-duty pair of the p0 axis (nine on the default axes, about 0.7 s
// of CPU) and fills each sleep point in closed form; queries are then
// O(log grid) bilinear interpolations, which is what the per-bank lifetime
// evaluation in the simulator uses.
#pragma once

#include <iosfwd>
#include <string>

#include "aging/characterizer.h"
#include "util/interp.h"

namespace pcal {

class AgingLut {
 public:
  /// Builds from a characterizer with sensible default axes (dense where
  /// lifetime curves bend: high sleep residency).
  static AgingLut build(const CellAgingCharacterizer& characterizer);

  /// Builds on caller-provided axes.
  static AgingLut build(const CellAgingCharacterizer& characterizer,
                        std::vector<double> p0_axis,
                        std::vector<double> sleep_axis);

  /// Lifetime (years) for a cell population with stored-zero probability
  /// `p0` and sleep residency `sleep`; arguments are clamped to [0, 1].
  double lifetime_years(double p0, double sleep) const;

  void serialize(std::ostream& os) const { table_.serialize(os); }
  static AgingLut deserialize(std::istream& is);

  const BilinearTable2D& table() const { return table_; }

 private:
  explicit AgingLut(BilinearTable2D table) : table_(std::move(table)) {}
  BilinearTable2D table_;
};

}  // namespace pcal
