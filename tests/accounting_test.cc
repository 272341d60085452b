// Pricing one run: price_unit_run over the paper preset's bank model.
#include <gtest/gtest.h>

#include "power/unit_energy.h"
#include "util/error.h"

namespace pcal {
namespace {

UnitEnergyModel make_model() {
  CacheTopology topo;
  topo.cache.size_bytes = 8192;
  topo.cache.line_bytes = 16;
  topo.partition.num_banks = 4;
  return UnitEnergyModel(EnergyParams::paper(), TechnologyParams::st45(),
                         topo);
}

/// A gated unit's activity: every sleep episode power-gates.
UnitActivity gated(std::uint64_t accesses, std::uint64_t sleep_cycles,
                   std::uint64_t episodes) {
  UnitActivity a;
  a.accesses = accesses;
  a.sleep_cycles = sleep_cycles;
  a.sleep_episodes = a.gated_episodes = episodes;
  return a;
}

TEST(Accounting, RejectsWrongUnitCount) {
  EXPECT_THROW(price_unit_run(make_model(), std::vector<UnitActivity>(3), 100),
               Error);
}

TEST(Accounting, RejectsImpossibleSleep) {
  std::vector<UnitActivity> act(4);
  act[0].sleep_cycles = 101;
  EXPECT_THROW(price_unit_run(make_model(), act, 100), Error);
}

TEST(Accounting, HandComputedScenario) {
  const UnitEnergyModel m = make_model();
  const TechnologyParams tech = TechnologyParams::st45();
  const double t_ns = 1000.0;  // 1000 cycles at 1ns

  std::vector<UnitActivity> act = {
      gated(1000, 0, 0),  // the hot bank takes all accesses
      gated(0, 900, 1),   // sleeps 90% with one episode
      gated(0, 900, 1),
      gated(0, 0, 0),     // idle but never long enough to sleep
  };
  const EnergyReport r = price_unit_run(m, act, 1000);

  // The paper preset adds nothing to the bare bank array: active leakage
  // is the array's, 5% of it remains gated, and a gate round trip is
  // the capacity + tag reactivation cost alone.
  const double bank_leak = m.array_leak_mw(2048);
  EXPECT_EQ(m.unit_leak_mw(), bank_leak);
  EXPECT_EQ(m.unit_gated_mw(), bank_leak * 0.05);
  const double tag_bits = static_cast<double>(m.topology().cache.tag_bits());
  const double expect_tr_one = tech.transition_pj_per_kb * 2.0 +
                               tech.transition_tag_pj_per_bit_byte *
                                   tag_bits * 16.0;
  EXPECT_NEAR(m.gate_transition_pj(), expect_tr_one, 1e-9);
  // Bank access: the 2kB array through decoder D and M = 4 wiring.
  const double expect_access =
      m.array_access_pj(2048) * (1.0 + 3.0 * tech.wiring_dyn_per_bank) +
      tech.decoder_pj;
  EXPECT_NEAR(m.access_energy_pj(), expect_access, 1e-12);

  const double expect_dyn = 1000.0 * expect_access;
  const double expect_active =
      bank_leak * (t_ns + 100.0 + 100.0 + t_ns);  // banks 0,3 full time
  const double expect_ret = bank_leak * 0.05 * 1800.0;
  const double expect_tr = 2.0 * expect_tr_one;
  EXPECT_NEAR(r.partitioned.dynamic_pj, expect_dyn, 1e-6);
  EXPECT_NEAR(r.partitioned.leakage_active_pj, expect_active, 1e-6);
  EXPECT_NEAR(r.partitioned.leakage_retention_pj, expect_ret, 1e-6);
  EXPECT_EQ(r.partitioned.leakage_drowsy_pj, 0.0);
  EXPECT_NEAR(r.partitioned.transition_pj, expect_tr, 1e-6);
  EXPECT_NEAR(r.partitioned.total_pj(),
              expect_dyn + expect_active + expect_ret + expect_tr, 1e-6);

  const double expect_base =
      1000.0 * m.array_access_pj(8192) + m.array_leak_mw(8192) * t_ns;
  EXPECT_NEAR(r.baseline_pj, expect_base, 1e-6);
  EXPECT_NEAR(r.saving(), 1.0 - r.partitioned.total_pj() / expect_base,
              1e-12);
}

TEST(Accounting, SleepingSavesEnergy) {
  std::vector<UnitActivity> never(4), often(4);
  for (int b = 0; b < 4; ++b) {
    never[b] = gated(250, 0, 0);
    often[b] = gated(250, 800, 2);
  }
  const UnitEnergyModel m = make_model();
  const double e_never = price_unit_run(m, never, 1000).partitioned.total_pj();
  const double e_often = price_unit_run(m, often, 1000).partitioned.total_pj();
  EXPECT_LT(e_often, e_never);
}

TEST(Accounting, SavingIsZeroWithoutBaseline) {
  EnergyReport r;
  EXPECT_EQ(r.saving(), 0.0);
}

}  // namespace
}  // namespace pcal
