// Pins the aging characterization bit for bit.
//
// FNV-1a digests over hex-float renderings of every layer the lifetime
// lookup table is built from:
//
//   - the default LUT (both axes and all 176 values) and the critical
//     shift at p0 = 0, 0.1, ..., 1;
//   - read_snm (snm and both lobes) over equal, one-sided, mixed and
//     past-failure shift pairs at 16, 400 and 800 samples;
//   - the read and hold inverter VTCs over a vin x dvth grid that
//     includes vin = 0 and vin = vdd, the hold solve at several supplies;
//   - hold_snm and data_retention_voltage at a few points;
//   - one non-default technology (105 C, weaker loads, 15 % criterion),
//     so exactness is not shown only at the defaults.
//
// The digests were recorded before the VTC solve and the critical-shift
// search were made cheaper and must never change: a one-ulp drift in a
// drain current, a bisection that stops one step early or a critical
// shift reused for the wrong duty pair all show up here, ahead of the
// paper tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "aging/aging_lut.h"
#include "aging/characterizer.h"
#include "aging/snm.h"
#include "aging/sram_cell.h"
#include "core/experiment.h"

namespace pcal {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a;", v);
    add(std::string(buf));
  }
};

void expect_digest(const char* label, std::uint64_t got,
                   std::uint64_t recorded) {
  EXPECT_EQ(got, recorded) << label << ": digest 0x" << std::hex << got
                           << " (recorded 0x" << recorded << ")";
}

const AgingContext& default_aging() {
  static const AgingContext* ctx = new AgingContext();
  return *ctx;
}

/// The default technology's nominal critical shift, the natural scale of
/// the shift grids below.
double nominal_critical_shift() {
  static const double c = default_aging().characterizer().critical_shift(0.5);
  return c;
}

std::uint64_t lut_digest(const AgingLut& lut) {
  Fnv1a fnv;
  const BilinearTable2D& t = lut.table();
  for (const double x : t.xs()) fnv.add(x);
  fnv.add("|");
  for (const double y : t.ys()) fnv.add(y);
  fnv.add("|");
  for (std::size_t i = 0; i < t.xs().size(); ++i)
    for (std::size_t j = 0; j < t.ys().size(); ++j) fnv.add(t.at(i, j));
  return fnv.h;
}

TEST(AgingIdentity, DefaultLutMatchesRecordedDigest) {
  const AgingLut& lut = default_aging().lut();
  ASSERT_EQ(lut.table().xs().size() * lut.table().ys().size(), 176u);
  expect_digest("default LUT", lut_digest(lut), 0x45ca5dd1a72c946dull);
}

TEST(AgingIdentity, CriticalShiftsMatchRecordedDigest) {
  const CellAgingCharacterizer& chr = default_aging().characterizer();
  Fnv1a fnv;
  fnv.add(chr.nominal_snm());
  fnv.add(chr.sleep_stress_factor());
  for (int i = 0; i <= 10; ++i) fnv.add(chr.critical_shift(i / 10.0));
  expect_digest("critical shifts", fnv.h, 0xecd1a54738ddfb35ull);
}

TEST(AgingIdentity, ReadSnmMatchesRecordedDigest) {
  const SramCell cell(SramCellParams{});
  const double c = nominal_critical_shift();
  const std::vector<std::pair<double, double>> pairs = {
      {0.0, 0.0},  {c, c},     {0.05, 0.05}, {c, 0.0},
      {0.0, c},    {0.1, 0.03}, {0.03, 0.1}, {c, 0.8 * c},
      {2.0, 0.0},  {0.0, 2.0},  {2.0, 2.0}};
  Fnv1a fnv;
  for (const std::size_t samples : {16, 400, 800})
    for (const auto& [d0, d1] : pairs) {
      const SnmResult r = read_snm(cell, d0, d1, samples);
      fnv.add(r.snm);
      fnv.add(r.lobe0);
      fnv.add(r.lobe1);
    }
  expect_digest("read_snm", fnv.h, 0x7ff83d687bcf08e4ull);
}

TEST(AgingIdentity, InverterVtcsMatchRecordedDigest) {
  const SramCell cell(SramCellParams{});
  const double c = nominal_critical_shift();
  const std::vector<double> shifts = {-0.05, 0.0, 0.01, c, 0.3, 2.0};
  constexpr int kPoints = 23;
  Fnv1a read, hold;
  for (const double dvth : shifts) {
    const double vdd = cell.params().vdd;
    for (int i = 0; i < kPoints; ++i)
      read.add(cell.inverter_vtc(vdd * i / (kPoints - 1), dvth));
    read.add(cell.inverter_vtc(vdd, dvth));
    for (const double supply : {1.1, 0.75, 0.5, 0.42, 0.3}) {
      for (int i = 0; i < kPoints; ++i)
        hold.add(
            cell.inverter_vtc_hold(supply * i / (kPoints - 1), dvth, supply));
      hold.add(cell.inverter_vtc_hold(supply, dvth, supply));
    }
  }
  expect_digest("inverter_vtc", read.h, 0xfe94ab8639308ee5ull);
  expect_digest("inverter_vtc_hold", hold.h, 0x02802cb384085de9ull);
}

TEST(AgingIdentity, RetentionMatchesRecordedDigest) {
  const SramCell cell(SramCellParams{});
  const double c = nominal_critical_shift();
  Fnv1a fnv;
  fnv.add(hold_snm(cell, 1.1, 0.0, 0.0));
  fnv.add(hold_snm(cell, 0.75, 0.0, 0.0));
  fnv.add(hold_snm(cell, 0.75, c, 0.0));
  fnv.add(hold_snm(cell, 0.5, 0.05, 0.02, 16));
  fnv.add(data_retention_voltage(cell, 0.0, 0.0));
  fnv.add(data_retention_voltage(cell, c, 0.0));
  fnv.add(data_retention_voltage(cell, 0.1, 0.1, 0.1));
  expect_digest("retention", fnv.h, 0xd59a8990d4e64e3eull);
}

TEST(AgingIdentity, NonDefaultTechnologyLutMatchesRecordedDigest) {
  AgingParams params = AgingParams::st45();
  params.temperature_c = 105.0;
  params.cell.pmos_load.beta = 1.6;
  params.criterion.snm_degradation = 0.15;
  const AgingContext ctx(params);
  Fnv1a fnv;
  fnv.add(ctx.characterizer().nominal_snm());
  fnv.add(ctx.characterizer().params().nbti.kdc);
  fnv.add(std::to_string(lut_digest(ctx.lut())));
  expect_digest("105C beta1.6 crit0.15 LUT", fnv.h, 0x853e4285595c2215ull);
}

}  // namespace
}  // namespace pcal
