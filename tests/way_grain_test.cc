// WayGrainCache: per-way power management within each bank.
//
// The load-bearing contract is the degeneracy the ISSUE pins: with a
// direct-mapped cache (one way per bank set) the way-grain backend must
// reproduce BankedCache bit for bit — same outcome stream, same tag-store
// stats, same per-unit activity and residencies.
#include "bank/way_grain_cache.h"

#include <gtest/gtest.h>

#include "bank/banked_cache.h"
#include "core/experiment.h"
#include "core/simulator.h"
#include "trace/trace.h"
#include "trace/workloads.h"

namespace pcal {
namespace {

CacheTopology way_topology(std::uint64_t ways) {
  CacheTopology topo;
  topo.granularity = Granularity::kWay;
  topo.cache.size_bytes = 8192;
  topo.cache.line_bytes = 16;
  topo.cache.ways = ways;
  topo.partition.num_banks = 4;
  topo.indexing = IndexingKind::kProbing;
  topo.breakeven_cycles = 24;
  return topo;
}

Trace make_trace(std::uint64_t accesses) {
  SyntheticTraceSource src(make_hotspot_workload(32 * 1024), accesses);
  return Trace::materialize(src);
}

TEST(WayGrain, UnitCountIsBanksTimesWays) {
  EXPECT_EQ(way_topology(1).num_units(), 4u);
  EXPECT_EQ(way_topology(4).num_units(), 16u);
  auto cache = make_managed_cache(way_topology(4));
  EXPECT_EQ(cache->num_units(), 16u);
}

// The degeneracy parity: 1 way/bank == BankedCache, bit for bit.
TEST(WayGrain, DirectMappedMatchesBankedBitForBit) {
  const CacheTopology topo = way_topology(1);
  const Trace trace = make_trace(30'000);

  BankedCacheConfig bc;
  bc.cache = topo.cache;
  bc.partition = topo.partition;
  bc.indexing = topo.indexing;
  bc.indexing_seed = topo.indexing_seed;
  bc.breakeven_cycles = topo.breakeven_cycles;
  BankedCache reference(bc);

  auto unified = make_managed_cache(topo);
  ManagedCache& mc = *unified;
  ASSERT_NE(dynamic_cast<WayGrainCache*>(&mc), nullptr);

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool is_write = trace[i].kind == AccessKind::kWrite;
    const AccessOutcome want = reference.access(trace[i].address, is_write);
    const AccessOutcome got = mc.access(trace[i].address, is_write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
    ASSERT_EQ(got.logical_unit, want.logical_unit) << "access " << i;
    ASSERT_EQ(got.physical_unit, want.physical_unit) << "access " << i;
    ASSERT_EQ(got.woke_unit, want.woke_unit) << "access " << i;
    ASSERT_EQ(got.wake, want.wake) << "access " << i;
    ASSERT_EQ(got.evicted, want.evicted) << "access " << i;
    ASSERT_EQ(got.victim_address, want.victim_address) << "access " << i;
    if (i % 5'000 == 4'999) {
      ASSERT_EQ(mc.update_indexing(), reference.update_indexing());
    }
  }
  reference.finish();
  mc.finish();
  EXPECT_EQ(mc.stats().hits, reference.cache().stats().hits);
  EXPECT_EQ(mc.stats().writebacks, reference.cache().stats().writebacks);
  EXPECT_EQ(mc.indexing_updates(), reference.indexing_updates());
  ASSERT_EQ(mc.num_units(), reference.num_units());
  for (std::uint64_t u = 0; u < mc.num_units(); ++u) {
    EXPECT_DOUBLE_EQ(mc.unit_residency(u), reference.unit_residency(u));
    const UnitActivity a = mc.unit_activity(u);
    const UnitActivity b = reference.unit_activity(u);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.sleep_cycles, b.sleep_cycles);
    EXPECT_EQ(a.sleep_episodes, b.sleep_episodes);
    EXPECT_EQ(a.gated_episodes, b.gated_episodes);
    EXPECT_EQ(a.drowsy_cycles, 0u);
  }
}

// Set-associative: accesses are attributed to (bank, way) units, nothing
// is lost, and the unit index always decomposes consistently.
TEST(WayGrain, AssociativeAttributionConserved) {
  const CacheTopology topo = way_topology(4);
  const Trace trace = make_trace(30'000);
  auto cache = make_managed_cache(topo);

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const AccessOutcome out = cache->access(
        trace[i].address, trace[i].kind == AccessKind::kWrite);
    ASSERT_LT(out.physical_unit, topo.num_units());
  }
  cache->finish();

  std::uint64_t total = 0;
  for (std::uint64_t u = 0; u < cache->num_units(); ++u) {
    total += cache->unit_activity(u).accesses;
    EXPECT_GE(cache->unit_residency(u), 0.0);
    EXPECT_LE(cache->unit_residency(u), 1.0);
  }
  EXPECT_EQ(total, trace.size());
}

// A way-grain Simulator run reports per-way units and (unlike pre-PR-3
// non-bank granularities) nonzero energy.
TEST(WayGrain, SimulatorRunPricesEnergy) {
  SimConfig cfg;
  cfg.granularity = Granularity::kWay;
  cfg.cache.size_bytes = 8192;
  cfg.cache.line_bytes = 16;
  cfg.cache.ways = 4;
  cfg.partition.num_banks = 4;
  SyntheticTraceSource src(make_hotspot_workload(64 * 1024), 100'000);
  const SimResult r = Simulator(cfg).run(src);

  EXPECT_EQ(r.granularity, Granularity::kWay);
  ASSERT_EQ(r.units.size(), 16u);
  EXPECT_GT(r.energy.baseline_pj, 0.0);
  EXPECT_GT(r.energy.partitioned.total_pj(), 0.0);
  EXPECT_LT(r.energy_saving(), 1.0);
}

// With the same breakeven, way-grain harvests at least as much idleness
// as the banked scheme on the same trace (units are strictly finer).
TEST(WayGrain, FinerGrainHarvestsMoreIdleness) {
  SimConfig bank = paper_config(8192, 16, 4);
  bank.cache.ways = 4;
  bank.breakeven_override = 24;
  SimConfig way = way_grain_variant(bank);

  SyntheticTraceSource src(make_mediabench_workload("cjpeg"), 150'000);
  const SimResult rb = Simulator(bank).run(src);
  const SimResult rw = Simulator(way).run(src);
  EXPECT_GE(rw.avg_residency(), rb.avg_residency());
}

}  // namespace
}  // namespace pcal
