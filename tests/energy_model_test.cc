// The energy model's array building blocks and the paper preset's bank
// breakeven (UnitEnergyModel under EnergyParams::paper()).
#include <gtest/gtest.h>

#include "power/unit_energy.h"
#include "util/error.h"

namespace pcal {
namespace {

CacheTopology topology(std::uint64_t size_kb, std::uint64_t line = 16,
                       std::uint64_t banks = 4,
                       Granularity g = Granularity::kBank) {
  CacheTopology t;
  t.granularity = g;
  t.cache.size_bytes = size_kb * 1024;
  t.cache.line_bytes = line;
  t.partition.num_banks = banks;
  return t;
}

UnitEnergyModel make_model(std::uint64_t size_kb, std::uint64_t line = 16,
                           std::uint64_t banks = 4,
                           Granularity g = Granularity::kBank) {
  return UnitEnergyModel(EnergyParams::paper(), TechnologyParams::st45(),
                         topology(size_kb, line, banks, g));
}

TEST(EnergyModel, PaperPresetIsTheBareBankModel) {
  const EnergyParams p = EnergyParams::paper();
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.gated_leak_fraction, 0.05);
  EXPECT_EQ(p.sleep_area_leak_overhead, 0.0);
  EXPECT_EQ(p.control_leak_uw_per_unit, 0.0);
  EXPECT_EQ(p.gate_transition_fixed_pj, 0.0);
  EXPECT_EQ(EnergyParams::preset("paper").gated_leak_fraction, 0.05);
  EXPECT_EQ(EnergyParams::preset("st45").control_leak_uw_per_unit,
            EnergyParams::st45().control_leak_uw_per_unit);
  EXPECT_THROW(EnergyParams::preset("legacy"), ConfigError);
}

TEST(EnergyModel, BreakevenIsAFewTensOfCycles) {
  // The paper: breakeven times "in the order of a few tens of cycles",
  // representable with 5-6 bit Block Control counters (its configurations
  // use M = 4).  The smallest banks (1kB at 8kB/M=8) leak so little that
  // their breakeven stretches to a 7-bit counter — still "a few tens".
  for (std::uint64_t size : {8u, 16u, 32u}) {
    for (std::uint64_t m : {2u, 4u, 8u}) {
      const std::uint64_t be =
          make_model(size, 16, m).gate_breakeven_cycles();
      EXPECT_GE(be, 8u) << size << "kB M=" << m;
      EXPECT_LE(be, 128u) << size << "kB M=" << m;
      if (m == 4) {
        EXPECT_LE(be, 64u) << size << "kB M=" << m;
      }
    }
  }
}

TEST(EnergyModel, LeakageGrowsSuperlinearly) {
  const UnitEnergyModel m = make_model(16);
  const double l8 = m.array_leak_mw(8 * 1024);
  const double l16 = m.array_leak_mw(16 * 1024);
  const double l32 = m.array_leak_mw(32 * 1024);
  EXPECT_GT(l16, 2.0 * l8 * 0.99);   // at least ~linear
  EXPECT_GT(l32 / l16, l16 / l8 * 0.999);  // ratio non-decreasing
  EXPECT_GT(l32, 2.0 * l16);         // strictly superlinear
}

TEST(EnergyModel, GatedLeakageIsSmallFraction) {
  const UnitEnergyModel m = make_model(16);
  const double frac = m.unit_gated_mw() / m.unit_leak_mw();
  EXPECT_NEAR(frac, EnergyParams::paper().gated_leak_fraction, 1e-12);
  EXPECT_LT(frac, 0.2);
}

TEST(EnergyModel, AccessEnergyGrowsWithSizeAndLine) {
  const UnitEnergyModel m16 = make_model(16, 16);
  EXPECT_GT(m16.array_access_pj(8192), m16.array_access_pj(2048));
  const UnitEnergyModel m32line = make_model(16, 32);
  EXPECT_GT(m32line.array_access_pj(4096), m16.array_access_pj(4096));
}

TEST(EnergyModel, BankedAccessCheaperThanMonolithic) {
  // The whole point of partitioned access: activating one 4kB bank costs
  // less than driving the full 16kB array, decoder overhead included.
  EXPECT_LT(make_model(16).access_energy_pj(),
            make_model(16, 16, 4, Granularity::kMonolithic)
                .access_energy_pj());
}

TEST(EnergyModel, MonolithicPaysNoDecoder) {
  // A monolithic cache has no bank decoder: its access is the bare
  // array's, exactly the baseline's per-access cost.
  const UnitEnergyModel mono = make_model(16, 16, 4, Granularity::kMonolithic);
  EXPECT_EQ(mono.access_energy_pj(), mono.array_access_pj(16 * 1024));
  EXPECT_EQ(mono.baseline_pj(1, 0), mono.access_energy_pj());
}

TEST(EnergyModel, WiringOverheadGrowsWithBanks) {
  const UnitEnergyModel m2 = make_model(16, 16, 2);
  const UnitEnergyModel m16 = make_model(16, 16, 16);
  // Overhead factor = banked / plain bank access; grows with M.
  EXPECT_GT(m16.access_energy_pj() / m16.array_access_pj(1024),
            m2.access_energy_pj() / m2.array_access_pj(8 * 1024));
}

TEST(EnergyModel, TransitionEnergyGrowsWithLineWidth) {
  // Larger lines -> larger per-line tag reactivation cost (Table III's
  // mechanism): the 32B-line transition costs more than the 16B one even
  // though the bank capacity is identical.
  EXPECT_GT(make_model(16, 32).gate_transition_pj(),
            make_model(16, 16).gate_transition_pj());
}

TEST(EnergyModel, LineSizeLengthensBreakeven) {
  EXPECT_GT(make_model(16, 32).gate_breakeven_cycles(),
            make_model(16, 16).gate_breakeven_cycles());
}

TEST(EnergyModel, LeakageCountsTagBits) {
  // 16kB/16B: 1024 lines of 18 tag bits on top of the data array.
  const UnitEnergyModel m = make_model(16);
  TechnologyParams tech = TechnologyParams::st45();
  tech.leak_size_exponent = 0.0;  // linear: leakage per kB is constant
  const UnitEnergyModel linear(EnergyParams::paper(), tech, topology(16));
  EXPECT_EQ(m.topology().cache.tag_bits(), 18u);
  EXPECT_NEAR(linear.array_leak_mw(16 * 1024),
              tech.leak_mw_per_kb * (16.0 + 1024.0 * 18.0 / 8.0 / 1024.0),
              1e-12);
}

TEST(EnergyModel, RejectsBadTech) {
  TechnologyParams tech = TechnologyParams::st45();
  tech.vdd_retention = tech.vdd + 0.1;
  EXPECT_THROW(UnitEnergyModel(EnergyParams::paper(), tech, topology(8)),
               ConfigError);
  tech = TechnologyParams::st45();
  tech.clock_ns = 0.0;
  EXPECT_THROW(UnitEnergyModel(EnergyParams::paper(), tech, topology(8)),
               ConfigError);
  EnergyParams bad = EnergyParams::paper();
  bad.gated_leak_fraction = 1.5;
  EXPECT_THROW(
      UnitEnergyModel(bad, TechnologyParams::st45(), topology(8)),
      ConfigError);
}

}  // namespace
}  // namespace pcal
