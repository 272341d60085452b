// Backend parity and factory tests for the polymorphic ManagedCache API.
//
// Every backend built by make_managed_cache must reproduce an independent
// reference bit for bit: the plain CacheModel for the monolithic cache,
// and a hand replay from the tag store, the address mapping and Block
// Control for the bank and line backends.  Plus the factory over the full
// Granularity x IndexingKind matrix.
#include "core/managed_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "bank/block_control.h"
#include "bank/decoder.h"
#include "cache/cache.h"
#include "core/enum_strings.h"
#include "core/hierarchy.h"
#include "core/monolithic_cache.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/error.h"
#include "util/lfsr.h"

namespace pcal {
namespace {

CacheTopology base_topology(Granularity g) {
  CacheTopology topo;
  topo.granularity = g;
  topo.cache.size_bytes = 8192;
  topo.cache.line_bytes = 16;
  topo.cache.ways = 1;
  topo.partition.num_banks = 4;
  topo.indexing = IndexingKind::kProbing;
  topo.breakeven_cycles = 24;
  return topo;
}

Trace make_trace(std::uint64_t accesses) {
  SyntheticTraceSource src(make_hotspot_workload(32 * 1024), accesses);
  return Trace::materialize(src);
}

TEST(GranularityStrings, RoundTrip) {
  for (Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                        Granularity::kLine, Granularity::kWay})
    EXPECT_EQ(granularity_from_string(to_string(g)), g);
  EXPECT_THROW(granularity_from_string("banked"), ConfigError);
}

TEST(IndexingKindStrings, RoundTrip) {
  for (IndexingKind k : {IndexingKind::kStatic, IndexingKind::kProbing,
                         IndexingKind::kScrambling})
    EXPECT_EQ(indexing_kind_from_string(to_string(k)), k);
  EXPECT_THROW(indexing_kind_from_string("probe"), ConfigError);
}

TEST(PowerPolicyStrings, RoundTrip) {
  // to_string spells the hybrid "drowsy"; the parser must accept both
  // that short form and the enum's own "drowsy_hybrid" spelling, so
  // every to_string output round-trips.
  for (PowerPolicy p : {PowerPolicy::kGated, PowerPolicy::kDrowsyHybrid})
    EXPECT_EQ(power_policy_from_string(to_string(p)), p);
  EXPECT_EQ(power_policy_from_string("drowsy_hybrid"),
            PowerPolicy::kDrowsyHybrid);
  EXPECT_EQ(power_policy_from_string("drowsy"),
            PowerPolicy::kDrowsyHybrid);
  EXPECT_THROW(power_policy_from_string("drowsyhybrid"), ConfigError);
  EXPECT_THROW(power_policy_from_string("sleepy"), ConfigError);
}

TEST(InclusionPolicyStrings, RoundTrip) {
  for (InclusionPolicy p :
       {InclusionPolicy::kNonInclusive, InclusionPolicy::kInclusive,
        InclusionPolicy::kExclusive, InclusionPolicy::kVictim})
    EXPECT_EQ(inclusion_policy_from_string(to_string(p)), p);
  EXPECT_EQ(inclusion_policy_from_string("non-inclusive"),
            InclusionPolicy::kNonInclusive);
  EXPECT_THROW(inclusion_policy_from_string("mostly-inclusive"),
               ConfigError);
}

TEST(CacheTopology, UnitCounts) {
  EXPECT_EQ(base_topology(Granularity::kMonolithic).num_units(), 1u);
  EXPECT_EQ(base_topology(Granularity::kBank).num_units(), 4u);
  EXPECT_EQ(base_topology(Granularity::kLine).num_units(), 512u);
  EXPECT_EQ(base_topology(Granularity::kWay).num_units(), 4u);
  CacheTopology assoc = base_topology(Granularity::kWay);
  assoc.cache.ways = 4;
  EXPECT_EQ(assoc.num_units(), 16u);
}

TEST(CacheTopology, Describe) {
  EXPECT_EQ(base_topology(Granularity::kBank).describe(),
            "8kB/16B/DM M=4 probing");
  EXPECT_EQ(base_topology(Granularity::kMonolithic).describe(),
            "8kB/16B/DM M=1 probing");
  EXPECT_EQ(base_topology(Granularity::kLine).describe(),
            "8kB/16B/DM line-grain probing");
}

// kMonolithic must reproduce CacheModel::access_address exactly: same
// hit/miss/writeback stream, same stats.
TEST(BackendParity, MonolithicMatchesCacheModel) {
  const CacheTopology topo = base_topology(Granularity::kMonolithic);
  const Trace trace = make_trace(20'000);

  CacheModel reference(topo.cache);
  auto unified = make_managed_cache(topo);
  ManagedCache& mc = *unified;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool is_write = trace[i].kind == AccessKind::kWrite;
    const CacheAccessResult want =
        reference.access_address(trace[i].address, is_write);
    const AccessOutcome got = mc.access(trace[i].address, is_write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
    ASSERT_EQ(got.physical_unit, 0u);
  }
  mc.finish();
  EXPECT_EQ(mc.stats().hits, reference.stats().hits);
  EXPECT_EQ(mc.stats().misses, reference.stats().misses);
  EXPECT_EQ(mc.stats().writebacks, reference.stats().writebacks);
  EXPECT_EQ(mc.cycles(), trace.size());
  EXPECT_EQ(mc.num_units(), 1u);
}

// ---- independent oracles: leaf backends replayed from their parts ----
//
// The unified backend must match a hand replay built from the pieces it
// composes — the CacheModel tag store, the backend's address mapping and
// Block Control through its *asserting* on_access — with the wake, stall
// and clock arithmetic written out here instead of shared with the
// backend's kernel.  on_access re-checks the per-access invariants
// (non-decreasing cycles, one access per unit per cycle) on every access.

/// Where one address lands: tag, physical set, logical / physical unit.
struct Where {
  std::uint64_t tag, set, logical, physical;
};

struct HandReplay {
  CacheModel cache;
  BlockControl control;
  CacheTopology topo;
  std::uint64_t cycle = 0;

  explicit HandReplay(const CacheTopology& t)
      : cache(t.cache), control(t.num_units(), t.breakeven_cycles), topo(t) {}

  AccessOutcome serve(const Where& w, std::uint64_t address, bool is_write,
                      bool allocate) {
    AccessOutcome want;
    want.woke_unit = control.is_sleeping(w.physical, cycle);
    want.wake = classify_wake(want.woke_unit,
                              control.idle_gap(w.physical, cycle),
                              topo.gate_cycles());
    const CacheAccessResult r =
        allocate ? cache.access(w.tag, w.set, is_write, address)
                 : cache.probe(w.tag, w.set);
    want.hit = r.hit;
    want.writeback = r.writeback;
    want.evicted = r.evicted;
    want.victim_address = r.victim_address;
    want.logical_unit = w.logical;
    want.physical_unit = w.physical;
    want.stall_cycles = topo.latency.event_stall(r.hit, want.wake);
    want.add_event(0, r.hit, r.writeback, w.physical, address);
    control.on_access(w.physical, cycle);
    cycle += 1 + want.stall_cycles;
    return want;
  }
};

void expect_same_outcome(const AccessOutcome& want, const AccessOutcome& got,
                         std::size_t i) {
  ASSERT_EQ(got.hit, want.hit) << "access " << i;
  ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
  ASSERT_EQ(got.logical_unit, want.logical_unit) << "access " << i;
  ASSERT_EQ(got.physical_unit, want.physical_unit) << "access " << i;
  ASSERT_EQ(got.woke_unit, want.woke_unit) << "access " << i;
  ASSERT_EQ(got.wake, want.wake) << "access " << i;
  ASSERT_EQ(got.stall_cycles, want.stall_cycles) << "access " << i;
  ASSERT_EQ(got.evicted, want.evicted) << "access " << i;
  ASSERT_EQ(got.victim_address, want.victim_address) << "access " << i;
  ASSERT_EQ(got.num_events, want.num_events) << "access " << i;
  const LevelEvent& g = got.events[0];
  const LevelEvent& w = want.events[0];
  ASSERT_EQ(g.level, w.level) << "access " << i;
  ASSERT_EQ(g.hit, w.hit) << "access " << i;
  ASSERT_EQ(g.writeback, w.writeback) << "access " << i;
  ASSERT_EQ(g.unit, w.unit) << "access " << i;
  ASSERT_EQ(g.address, w.address) << "access " << i;
}

/// Drives make_managed_cache(topo) and the hand replay side by side:
/// accesses with a probe every 7th step, re-indexing every 4000 accesses
/// (`remap` advances the oracle's mapping), then compares every unit's
/// final activity and residency.
void expect_matches_hand_replay(
    const CacheTopology& topo,
    const std::function<Where(std::uint64_t)>& where,
    const std::function<void()>& remap) {
  const Trace trace = make_trace(20'000);
  auto mc = make_managed_cache(topo);
  HandReplay oracle(topo);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t address = trace[i].address;
    const bool probe = i % 7 == 3;
    const bool is_write = !probe && trace[i].kind == AccessKind::kWrite;
    const AccessOutcome want =
        oracle.serve(where(address), address, is_write, !probe);
    const AccessOutcome got =
        probe ? mc->probe(address) : mc->access(address, is_write);
    mc->advance_idle(got.stall_cycles);
    expect_same_outcome(want, got, i);
    if (::testing::Test::HasFatalFailure()) return;
    if (i % 4'000 == 3'999) {
      remap();
      EXPECT_EQ(mc->update_indexing(), oracle.cache.flush());
    }
  }
  mc->finish();
  oracle.control.finish(oracle.cycle);
  EXPECT_EQ(mc->cycles(), oracle.cycle);
  EXPECT_EQ(mc->indexing_updates(), trace.size() / 4'000);
  EXPECT_EQ(mc->stats().hits, oracle.cache.stats().hits);
  EXPECT_EQ(mc->stats().misses, oracle.cache.stats().misses);
  EXPECT_EQ(mc->stats().writebacks, oracle.cache.stats().writebacks);
  EXPECT_EQ(mc->stats().flushed_dirty, oracle.cache.stats().flushed_dirty);
  ASSERT_EQ(mc->num_units(), topo.num_units());
  for (std::uint64_t u = 0; u < mc->num_units(); ++u) {
    const BlockControl& c = oracle.control;
    const UnitActivity a = mc->unit_activity(u);
    EXPECT_EQ(a.accesses, c.accesses(u)) << "unit " << u;
    EXPECT_EQ(a.sleep_cycles, c.sleep_cycles(u)) << "unit " << u;
    EXPECT_EQ(a.sleep_episodes, c.sleep_episodes(u)) << "unit " << u;
    EXPECT_EQ(a.useful_idleness_count, c.useful_idleness_count(u))
        << "unit " << u;
    if (!topo.drowsy_active()) {
      EXPECT_EQ(a.drowsy_cycles, 0u) << "unit " << u;
      EXPECT_EQ(a.gated_episodes, a.sleep_episodes) << "unit " << u;
    }
    EXPECT_EQ(mc->unit_residency(u), c.sleep_residency(u, oracle.cycle))
        << "unit " << u;
  }
}

/// Nonzero latencies so stalls stretch the clock, and both the pure
/// gated policy and a drowsy window (drowsy vs gated wakeups).
std::vector<CacheTopology> oracle_topologies(Granularity g) {
  std::vector<CacheTopology> out;
  for (IndexingKind k : {IndexingKind::kProbing, IndexingKind::kScrambling})
    for (std::uint64_t window : {0u, 40u}) {
      CacheTopology topo = base_topology(g);
      topo.cache.ways = 2;
      topo.indexing = k;
      topo.policy = PowerPolicy::kDrowsyHybrid;
      topo.drowsy_window_cycles = window;
      topo.latency.hit_cycles = 1;
      topo.latency.miss_cycles = 5;
      topo.latency.drowsy_wake_cycles = 2;
      topo.latency.gated_wake_cycles = 7;
      out.push_back(topo);
    }
  return out;
}

TEST(BackendOracle, BankMatchesHandReplay) {
  for (const CacheTopology& topo : oracle_topologies(Granularity::kBank)) {
    SCOPED_TRACE(topo.describe());
    BankDecoder decoder(topo.cache, topo.partition,
                        make_indexing_policy(topo.indexing,
                                             topo.partition.num_banks,
                                             topo.indexing_seed));
    expect_matches_hand_replay(
        topo,
        [&](std::uint64_t address) {
          const DecodedIndex d =
              decoder.decode(topo.cache.set_index_of(address));
          return Where{topo.cache.tag_of(address), d.physical_set,
                       d.logical_bank, d.physical_bank};
        },
        [&] { decoder.update(); });
  }
}

// The full-index map of reference [7], restated: probing adds a rotation
// counter to the whole set index, scrambling XORs it with an LFSR word.
TEST(BackendOracle, LineMatchesHandReplay) {
  for (const CacheTopology& topo : oracle_topologies(Granularity::kLine)) {
    SCOPED_TRACE(topo.describe());
    const std::uint64_t sets = topo.cache.num_sets();
    GaloisLfsr lfsr(std::min(24u, topo.cache.index_bits() + 8u),
                    topo.indexing_seed);
    std::uint64_t offset = 0;
    const bool probing = topo.indexing == IndexingKind::kProbing;
    expect_matches_hand_replay(
        topo,
        [&](std::uint64_t address) {
          const std::uint64_t logical = topo.cache.set_index_of(address);
          const std::uint64_t physical =
              (probing ? logical + offset : logical ^ offset) & (sets - 1);
          return Where{topo.cache.tag_of(address), physical, logical,
                       physical};
        },
        [&] {
          offset = probing ? (offset + 1) & (sets - 1)
                           : lfsr.step() & (sets - 1);
        });
  }
}

// Every Granularity x IndexingKind combination constructs, runs, updates
// and reports consistently through the factory.
TEST(Factory, RoundTripAllCombinations) {
  const Trace trace = make_trace(4'000);
  for (Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                        Granularity::kLine, Granularity::kWay}) {
    for (IndexingKind k : {IndexingKind::kStatic, IndexingKind::kProbing,
                           IndexingKind::kScrambling}) {
      CacheTopology topo = base_topology(g);
      topo.indexing = k;
      auto cache = make_managed_cache(topo);
      ASSERT_NE(cache, nullptr);
      EXPECT_EQ(cache->num_units(), topo.num_units());

      for (std::size_t i = 0; i < trace.size(); ++i) {
        const AccessOutcome out = cache->access(
            trace[i].address, trace[i].kind == AccessKind::kWrite);
        ASSERT_LT(out.physical_unit, topo.num_units());
      }
      cache->update_indexing();
      EXPECT_EQ(cache->stats().flushes, 1u);
      cache->finish();

      EXPECT_EQ(cache->cycles(), trace.size());
      EXPECT_EQ(cache->stats().accesses, trace.size());
      std::uint64_t unit_accesses = 0;
      for (std::uint64_t u = 0; u < cache->num_units(); ++u) {
        unit_accesses += cache->unit_activity(u).accesses;
        EXPECT_GE(cache->unit_residency(u), 0.0);
        EXPECT_LE(cache->unit_residency(u), 1.0);
      }
      EXPECT_EQ(unit_accesses, trace.size());
      EXPECT_LE(cache->min_residency(), cache->avg_residency() + 1e-12);
    }
  }
}

// ---- advance_idle edge cases, at every granularity ----
//
// Every backend (the drowsy hybrid wrapper and a two-level hierarchy
// included) must treat a zero-cycle advance as a no-op, reject time
// advancing after finish(), and turn an idle-only run into full sleep
// residency.

std::vector<CacheTopology> all_backend_topologies() {
  std::vector<CacheTopology> topos;
  for (Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                        Granularity::kLine, Granularity::kWay})
    topos.push_back(base_topology(g));
  CacheTopology hybrid = base_topology(Granularity::kBank);
  hybrid.policy = PowerPolicy::kDrowsyHybrid;
  hybrid.drowsy_window_cycles = 40;
  topos.push_back(hybrid);
  return topos;
}

std::unique_ptr<ManagedCache> hierarchy_backend() {
  HierarchyConfig config;
  config.levels.push_back(
      {base_topology(Granularity::kBank), InclusionPolicy::kNonInclusive});
  CacheTopology l2 = base_topology(Granularity::kBank);
  l2.cache.size_bytes = 32 * 1024;
  config.levels.push_back({l2, InclusionPolicy::kNonInclusive});
  return std::make_unique<HierarchicalCache>(config);
}

TEST(AdvanceIdle, ZeroCycleAdvanceIsANoOp) {
  for (const CacheTopology& topo : all_backend_topologies()) {
    auto cache = make_managed_cache(topo);
    cache->access(0x40, false);
    const std::uint64_t before = cache->cycles();
    cache->advance_idle(0);
    EXPECT_EQ(cache->cycles(), before) << topo.describe();
  }
  auto hier = hierarchy_backend();
  hier->access(0x40, false);
  hier->advance_idle(0);
  EXPECT_EQ(hier->cycles(), 1u);
}

TEST(AdvanceIdle, RejectedAfterFinish) {
  for (const CacheTopology& topo : all_backend_topologies()) {
    auto cache = make_managed_cache(topo);
    cache->access(0x40, false);
    cache->finish();
    cache->finish();  // idempotent
    EXPECT_THROW(cache->advance_idle(1), Error) << topo.describe();
    EXPECT_THROW(cache->access(0x40, false), Error) << topo.describe();
  }
  auto hier = hierarchy_backend();
  hier->access(0x40, false);
  hier->finish();
  EXPECT_THROW(hier->advance_idle(1), Error);
}

TEST(AdvanceIdle, IdleOnlyRunSleepsFullyAtEveryGranularity) {
  constexpr std::uint64_t kIdle = 10'000;
  for (const CacheTopology& topo : all_backend_topologies()) {
    auto cache = make_managed_cache(topo);
    cache->advance_idle(kIdle);
    cache->finish();
    EXPECT_EQ(cache->cycles(), kIdle);
    const double expected =
        static_cast<double>(kIdle - topo.breakeven_cycles) /
        static_cast<double>(kIdle);
    for (std::uint64_t u = 0; u < cache->num_units(); ++u) {
      EXPECT_DOUBLE_EQ(cache->unit_residency(u), expected)
          << topo.describe() << " unit " << u;
      const UnitActivity a = cache->unit_activity(u);
      EXPECT_EQ(a.accesses, 0u);
      EXPECT_EQ(a.sleep_cycles, kIdle - topo.breakeven_cycles);
      EXPECT_EQ(a.sleep_episodes, 1u);
      if (topo.drowsy_active()) {
        // One interval spanning the whole run: the drowsy share is the
        // window, the rest deepened into the gated state.
        EXPECT_EQ(a.drowsy_cycles, topo.drowsy_window_cycles);
        EXPECT_EQ(a.gated_episodes, 1u);
      }
    }
  }
  auto hier = hierarchy_backend();
  hier->advance_idle(kIdle);
  hier->finish();
  const double expected = static_cast<double>(kIdle - 24) /
                          static_cast<double>(kIdle);
  for (std::uint64_t u = 0; u < hier->num_units(); ++u)
    EXPECT_DOUBLE_EQ(hier->unit_residency(u), expected) << "unit " << u;
}

TEST(Factory, RejectsInvalidTopology) {
  CacheTopology topo = base_topology(Granularity::kBank);
  topo.partition.num_banks = 3;
  EXPECT_THROW(make_managed_cache(topo), ConfigError);
  topo = base_topology(Granularity::kLine);
  topo.breakeven_cycles = 0;
  EXPECT_THROW(make_managed_cache(topo), ConfigError);
}

}  // namespace
}  // namespace pcal
