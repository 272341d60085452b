// Batch-size equivalence: ManagedCache::access_batch and the Simulator's
// driver loop must reproduce the per-access path bit for bit — same
// outcomes, same SimResult, same per-unit interval histograms, same
// timeline artifact — for every backend, granularity, power policy and
// batch size.  The per-access references are the driver at batch size 1
// and, backend-level, access() + advance_idle.  This is the contract that
// makes batching purely a throughput knob, never a semantic fork.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/timeline.h"
#include "core/enum_strings.h"
#include "core/hierarchy.h"
#include "core/managed_cache.h"
#include "core/simulator.h"
#include "trace/synthetic.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/stats.h"

namespace pcal {
namespace {

// The batch sizes the acceptance gate pins: degenerate (1), odd and
// chunk-straddling (7), the default-ish (64), and larger than the
// backends' internal 256-entry chunk (4096).
const std::uint64_t kBatchSizes[] = {1, 7, 64, 4096};

SimConfig base_config(Granularity g, PowerPolicy policy,
                      std::uint64_t drowsy_window) {
  SimConfig cfg;
  cfg.granularity = g;
  cfg.cache.size_bytes = 8192;
  cfg.cache.line_bytes = 16;
  cfg.cache.ways = (g == Granularity::kWay) ? 4 : 2;
  cfg.partition.num_banks = 4;
  cfg.indexing = IndexingKind::kProbing;
  cfg.policy = policy;
  cfg.drowsy_window_cycles = drowsy_window;
  cfg.reindex_updates = 8;
  // Nonzero event costs so stalls stretch the clock (self-applied by the
  // batch entry point, advance_idle'd after a per-access call).
  cfg.latency.hit_cycles = 1;
  cfg.latency.miss_cycles = 6;
  cfg.latency.drowsy_wake_cycles = 2;
  cfg.latency.gated_wake_cycles = 4;
  return cfg;
}

struct RunArtifacts {
  SimResult result;
  std::string timeline_json;
};

RunArtifacts run_once(const SimConfig& cfg, std::uint64_t accesses,
                      std::uint64_t batch_size) {
  SimConfig run_cfg = cfg;
  run_cfg.batch_size = batch_size;
  SyntheticTraceSource source(make_hotspot_workload(32 * 1024), accesses);
  api::TimelineRecorder recorder;
  const Simulator sim(run_cfg);
  RunArtifacts art;
  art.result = sim.run(source, nullptr, recorder.observer());
  std::ostringstream os;
  recorder.write_json(os);
  art.timeline_json = os.str();
  return art;
}

void expect_same_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.breakeven_cycles, b.breakeven_cycles);
  EXPECT_EQ(a.reindex_updates_applied, b.reindex_updates_applied);
  EXPECT_EQ(a.cache_stats.accesses, b.cache_stats.accesses);
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  EXPECT_EQ(a.cache_stats.misses, b.cache_stats.misses);
  EXPECT_EQ(a.cache_stats.writebacks, b.cache_stats.writebacks);
  EXPECT_EQ(a.cache_stats.flushes, b.cache_stats.flushes);
  EXPECT_EQ(a.cache_stats.flushed_dirty, b.cache_stats.flushed_dirty);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t u = 0; u < a.units.size(); ++u) {
    EXPECT_EQ(a.units[u].accesses, b.units[u].accesses) << "unit " << u;
    EXPECT_EQ(a.units[u].sleep_cycles, b.units[u].sleep_cycles)
        << "unit " << u;
    EXPECT_EQ(a.units[u].sleep_episodes, b.units[u].sleep_episodes)
        << "unit " << u;
    EXPECT_EQ(a.units[u].drowsy_cycles, b.units[u].drowsy_cycles)
        << "unit " << u;
    EXPECT_EQ(a.units[u].gated_episodes, b.units[u].gated_episodes)
        << "unit " << u;
    // Identical inputs through identical arithmetic: doubles must match
    // exactly, not approximately.
    EXPECT_EQ(a.units[u].sleep_residency, b.units[u].sleep_residency)
        << "unit " << u;
    EXPECT_EQ(a.units[u].useful_idleness_count,
              b.units[u].useful_idleness_count)
        << "unit " << u;
  }
  EXPECT_EQ(a.energy.saving(), b.energy.saving());
}

struct Variant {
  Granularity granularity;
  PowerPolicy policy;
  std::uint64_t drowsy_window;
  const char* label;
};

const Variant kVariants[] = {
    {Granularity::kMonolithic, PowerPolicy::kGated, 0, "mono/gated"},
    {Granularity::kBank, PowerPolicy::kGated, 0, "bank/gated"},
    {Granularity::kWay, PowerPolicy::kGated, 0, "way/gated"},
    {Granularity::kLine, PowerPolicy::kGated, 0, "line/gated"},
    {Granularity::kBank, PowerPolicy::kDrowsyHybrid, 48, "bank/drowsy"},
    {Granularity::kWay, PowerPolicy::kDrowsyHybrid, 48, "way/drowsy"},
    {Granularity::kLine, PowerPolicy::kDrowsyHybrid, 48, "line/drowsy"},
};

TEST(BatchedSimulatorEquivalence, AllBackendsAllBatchSizes) {
  const std::uint64_t kAccesses = 60000;
  for (const Variant& v : kVariants) {
    const SimConfig cfg =
        base_config(v.granularity, v.policy, v.drowsy_window);
    const RunArtifacts scalar = run_once(cfg, kAccesses, /*batch=*/1);
    for (const std::uint64_t batch : kBatchSizes) {
      const RunArtifacts batched = run_once(cfg, kAccesses, batch);
      SCOPED_TRACE(std::string(v.label) + " batch=" +
                   std::to_string(batch));
      expect_same_result(scalar.result, batched.result);
      // The timeline artifact is byte-identical: same boundaries, same
      // censuses, same deltas.
      EXPECT_EQ(scalar.timeline_json, batched.timeline_json);
    }
  }
}

TEST(BatchedSimulatorEquivalence, StaticIndexingObserverCadence) {
  // No re-indexing updates: boundaries come from the observer-only
  // cadence, which the batched driver must still split at exactly.
  for (const Granularity g :
       {Granularity::kMonolithic, Granularity::kBank, Granularity::kLine}) {
    SimConfig cfg = base_config(g, PowerPolicy::kGated, 0);
    cfg.indexing = IndexingKind::kStatic;
    cfg.reindex_updates = 0;
    const RunArtifacts scalar = run_once(cfg, 40000, 1);
    const RunArtifacts batched = run_once(cfg, 40000, 4096);
    expect_same_result(scalar.result, batched.result);
    EXPECT_EQ(scalar.timeline_json, batched.timeline_json);
  }
}

TEST(BatchedSimulatorEquivalence, HierarchyTakesDefaultBatchPath) {
  // A two-level stack routes through the driver's hit-run body; at
  // every batch size it must reproduce the per-access driver.
  SimConfig cfg = base_config(Granularity::kBank, PowerPolicy::kGated, 0);
  cfg = two_level_variant(cfg, 32 * 1024);
  const RunArtifacts scalar = run_once(cfg, 40000, 1);
  for (const std::uint64_t batch : {std::uint64_t{7}, std::uint64_t{512}}) {
    const RunArtifacts batched = run_once(cfg, 40000, batch);
    expect_same_result(scalar.result, batched.result);
    EXPECT_EQ(scalar.timeline_json, batched.timeline_json);
  }
}

// ---- backend-level: raw access_batch vs the per-access NVI loop ----

CacheTopology backend_topology(Granularity g, PowerPolicy policy,
                               std::uint64_t drowsy_window) {
  CacheTopology topo;
  topo.granularity = g;
  topo.cache.size_bytes = 8192;
  topo.cache.line_bytes = 16;
  topo.cache.ways = (g == Granularity::kWay) ? 4 : 2;
  topo.partition.num_banks = 4;
  topo.indexing = IndexingKind::kProbing;
  topo.breakeven_cycles = 24;
  topo.policy = policy;
  topo.drowsy_window_cycles = drowsy_window;
  topo.latency.hit_cycles = 1;
  topo.latency.miss_cycles = 5;
  topo.latency.drowsy_wake_cycles = 2;
  topo.latency.gated_wake_cycles = 7;
  return topo;
}

void expect_same_outcome(const AccessOutcome& s, const AccessOutcome& b,
                         std::size_t i) {
  EXPECT_EQ(s.hit, b.hit) << "access " << i;
  EXPECT_EQ(s.writeback, b.writeback) << "access " << i;
  EXPECT_EQ(s.logical_unit, b.logical_unit) << "access " << i;
  EXPECT_EQ(s.physical_unit, b.physical_unit) << "access " << i;
  EXPECT_EQ(s.woke_unit, b.woke_unit) << "access " << i;
  EXPECT_EQ(s.wake, b.wake) << "access " << i;
  EXPECT_EQ(s.stall_cycles, b.stall_cycles) << "access " << i;
  EXPECT_EQ(s.evicted, b.evicted) << "access " << i;
  EXPECT_EQ(s.victim_address, b.victim_address) << "access " << i;
  ASSERT_EQ(s.num_events, b.num_events) << "access " << i;
  for (std::uint8_t e = 0; e < s.num_events; ++e) {
    EXPECT_EQ(s.events[e].level, b.events[e].level) << "access " << i;
    EXPECT_EQ(s.events[e].hit, b.events[e].hit) << "access " << i;
    EXPECT_EQ(s.events[e].writeback, b.events[e].writeback)
        << "access " << i;
    EXPECT_EQ(s.events[e].unit, b.events[e].unit) << "access " << i;
    EXPECT_EQ(s.events[e].address, b.events[e].address) << "access " << i;
  }
}

TEST(AccessBatchEquivalence, OutcomesAndStatsMatchScalarLoop) {
  SyntheticTraceSource src(make_uniform_workload(48 * 1024), 20000);
  const Trace trace = Trace::materialize(src);
  const std::vector<MemAccess>& accesses = trace.accesses();

  for (const Variant& v : kVariants) {
    SCOPED_TRACE(v.label);
    const CacheTopology topo =
        backend_topology(v.granularity, v.policy, v.drowsy_window);
    std::unique_ptr<ManagedCache> scalar = make_managed_cache(topo);
    std::unique_ptr<ManagedCache> batched = make_managed_cache(topo);

    std::vector<AccessOutcome> outs(4096);
    std::size_t pos = 0;
    std::size_t which = 0;
    while (pos < accesses.size()) {
      const std::uint64_t want = kBatchSizes[which++ % 4];
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(want, accesses.size() - pos));
      batched->access_batch(accesses.data() + pos, take, outs.data());
      for (std::size_t i = 0; i < take; ++i) {
        const MemAccess& a = accesses[pos + i];
        const AccessOutcome s =
            scalar->access(a.address, a.kind == AccessKind::kWrite);
        if (s.stall_cycles != 0) scalar->advance_idle(s.stall_cycles);
        expect_same_outcome(s, outs[i], pos + i);
      }
      pos += take;
      EXPECT_EQ(scalar->cycles(), batched->cycles());
    }

    scalar->finish();
    batched->finish();
    EXPECT_EQ(scalar->stats().hits, batched->stats().hits);
    EXPECT_EQ(scalar->stats().misses, batched->stats().misses);
    EXPECT_EQ(scalar->stats().writebacks, batched->stats().writebacks);
    ASSERT_EQ(scalar->num_units(), batched->num_units());
    for (std::uint64_t u = 0; u < scalar->num_units(); ++u) {
      EXPECT_EQ(scalar->unit_residency(u), batched->unit_residency(u));
      const IntervalAccumulator& si = scalar->unit_intervals(u);
      const IntervalAccumulator& bi = batched->unit_intervals(u);
      EXPECT_EQ(si.interval_count(), bi.interval_count());
      EXPECT_EQ(si.total_idle_cycles(), bi.total_idle_cycles());
      EXPECT_EQ(si.longest(), bi.longest());
      EXPECT_EQ(si.sleep_cycles(24), bi.sleep_cycles(24));
    }
  }
}

// A null outcome buffer asks for stalls only: the same accesses are
// simulated (clock, statistics, residencies) and the same summed stall
// comes back — for every leaf backend, the drowsy wrapper that forwards
// the null, and a hierarchy on route_run.
TEST(AccessBatchEquivalence, NullOutcomesMeanStallsOnly) {
  SyntheticTraceSource src(make_uniform_workload(48 * 1024), 20000);
  const Trace trace = Trace::materialize(src);
  const std::vector<MemAccess>& accesses = trace.accesses();

  std::vector<std::pair<std::string, std::function<std::unique_ptr<
                                         ManagedCache>()>>>
      makers;
  for (const Variant& v : kVariants) {
    const CacheTopology topo =
        backend_topology(v.granularity, v.policy, v.drowsy_window);
    makers.emplace_back(v.label, [topo] { return make_managed_cache(topo); });
  }
  HierarchyConfig h;
  const CacheTopology l1 =
      backend_topology(Granularity::kBank, PowerPolicy::kGated, 0);
  CacheTopology l2 = l1;
  l2.cache.size_bytes = 32 * 1024;
  l2.indexing = IndexingKind::kStatic;
  h.levels = {{l1, InclusionPolicy::kNonInclusive},
              {l2, InclusionPolicy::kNonInclusive}};
  makers.emplace_back("L1+L2",
                      [h] { return std::make_unique<HierarchicalCache>(h); });

  for (const auto& [label, make] : makers) {
    SCOPED_TRACE(label);
    std::unique_ptr<ManagedCache> with_out = make();
    std::unique_ptr<ManagedCache> stalls_only = make();
    std::vector<AccessOutcome> outs(4096);
    std::size_t pos = 0;
    std::size_t which = 0;
    while (pos < accesses.size()) {
      const std::size_t take = static_cast<std::size_t>(std::min<std::uint64_t>(
          kBatchSizes[which++ % 4], accesses.size() - pos));
      std::uint64_t summed = 0;
      const std::uint64_t stalls =
          with_out->access_batch(accesses.data() + pos, take, outs.data());
      for (std::size_t i = 0; i < take; ++i) summed += outs[i].stall_cycles;
      EXPECT_EQ(stalls, summed);
      EXPECT_EQ(stalls_only->access_batch(accesses.data() + pos, take,
                                          nullptr),
                stalls);
      EXPECT_EQ(stalls_only->cycles(), with_out->cycles());
      pos += take;
    }
    with_out->finish();
    stalls_only->finish();
    EXPECT_EQ(stalls_only->stats().hits, with_out->stats().hits);
    EXPECT_EQ(stalls_only->stats().misses, with_out->stats().misses);
    EXPECT_EQ(stalls_only->stats().writebacks, with_out->stats().writebacks);
    ASSERT_EQ(stalls_only->num_units(), with_out->num_units());
    for (std::uint64_t u = 0; u < with_out->num_units(); ++u)
      EXPECT_EQ(stalls_only->unit_residency(u), with_out->unit_residency(u));
  }
}

TEST(AccessBatchEquivalence, UpdateIndexingBetweenBatches) {
  // Interleave re-indexing updates with batches: the batched state
  // machine must pick up the rotated mapping exactly like the scalar
  // one (the driver guarantees updates never land mid-batch).
  SyntheticTraceSource src(make_hotspot_workload(32 * 1024), 12000);
  const Trace trace = Trace::materialize(src);
  const std::vector<MemAccess>& accesses = trace.accesses();

  for (const Granularity g :
       {Granularity::kBank, Granularity::kWay, Granularity::kLine}) {
    const CacheTopology topo =
        backend_topology(g, PowerPolicy::kGated, 0);
    std::unique_ptr<ManagedCache> scalar = make_managed_cache(topo);
    std::unique_ptr<ManagedCache> batched = make_managed_cache(topo);

    std::vector<AccessOutcome> outs(1024);
    const std::size_t kStride = 1000;
    std::size_t pos = 0;
    while (pos < accesses.size()) {
      const std::size_t take = std::min(kStride, accesses.size() - pos);
      batched->access_batch(accesses.data() + pos, take, outs.data());
      for (std::size_t i = 0; i < take; ++i) {
        const MemAccess& a = accesses[pos + i];
        const AccessOutcome s =
            scalar->access(a.address, a.kind == AccessKind::kWrite);
        if (s.stall_cycles != 0) scalar->advance_idle(s.stall_cycles);
        expect_same_outcome(s, outs[i], pos + i);
      }
      pos += take;
      EXPECT_EQ(scalar->update_indexing(), batched->update_indexing());
    }
    EXPECT_EQ(scalar->cycles(), batched->cycles());
  }
}

// ---- HierarchicalCache::access_batch vs a per-access loop ----

/// An L1 + L2 (+ L3) stack on a timed clock: every lower level is tied
/// to the one above by `inclusion`, the L2 rotates (so updates flush it,
/// and an inclusive L2 cascades the flush into L1), the L3 is static.
HierarchyConfig stack_of(InclusionPolicy inclusion, std::size_t depth) {
  HierarchyConfig h;
  const CacheTopology l1 =
      backend_topology(Granularity::kBank, PowerPolicy::kGated, 0);
  h.levels.push_back({l1, InclusionPolicy::kNonInclusive});
  CacheTopology l2 = l1;
  l2.cache.size_bytes = 16 * 1024;
  l2.indexing_seed = 2;
  l2.breakeven_cycles = 48;
  l2.latency.hit_cycles = 2;
  l2.latency.miss_cycles = 9;
  h.levels.push_back({l2, inclusion});
  if (depth > 2) {
    CacheTopology l3 = l2;
    l3.cache.size_bytes = 64 * 1024;
    l3.cache.ways = 4;
    l3.indexing = IndexingKind::kStatic;
    l3.latency.miss_cycles = 30;
    h.levels.push_back({l3, inclusion});
  }
  return h;
}

void expect_same_stats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.flushes, b.flushes);
  EXPECT_EQ(a.flushed_dirty, b.flushed_dirty);
}

TEST(AccessBatchEquivalence, HierarchyMatchesPerAccessLoop) {
  // Hotspot traffic over a footprint between L1 and L3 size: long hit
  // runs, misses at every level, dirty victims and evictions.
  SyntheticTraceSource src(make_hotspot_workload(48 * 1024), 24000);
  const Trace trace = Trace::materialize(src);
  const std::vector<MemAccess>& accesses = trace.accesses();
  constexpr std::size_t kUpdateEvery = 5000;

  for (const InclusionPolicy inclusion :
       {InclusionPolicy::kNonInclusive, InclusionPolicy::kInclusive,
        InclusionPolicy::kExclusive, InclusionPolicy::kVictim}) {
    for (const std::size_t depth : {std::size_t{2}, std::size_t{3}}) {
      for (const std::size_t batch :
           {std::size_t{1}, std::size_t{7}, std::size_t{256},
            std::size_t{4096}}) {
        SCOPED_TRACE(std::string(to_string(inclusion)) + " depth " +
                     std::to_string(depth) + " batch " +
                     std::to_string(batch));
        const HierarchyConfig h = stack_of(inclusion, depth);
        HierarchicalCache scalar(h);
        HierarchicalCache batched(h);
        std::vector<AccessOutcome> outs(batch);
        std::size_t pos = 0;
        std::size_t calls = 0;
        while (pos < accesses.size()) {
          const std::size_t next_update =
              (pos / kUpdateEvery + 1) * kUpdateEvery;
          const std::size_t take =
              std::min({batch, accesses.size() - pos, next_update - pos});
          // Every other call asks for stalls only.
          const bool keep = calls++ % 2 == 0;
          const std::uint64_t stalls = batched.access_batch(
              accesses.data() + pos, take, keep ? outs.data() : nullptr);
          std::uint64_t summed = 0;
          for (std::size_t i = 0; i < take; ++i) {
            const MemAccess& a = accesses[pos + i];
            const AccessOutcome o =
                scalar.access(a.address, a.kind == AccessKind::kWrite);
            if (o.stall_cycles != 0) scalar.advance_idle(o.stall_cycles);
            summed += o.stall_cycles;
            if (keep) expect_same_outcome(o, outs[i], pos + i);
          }
          ASSERT_EQ(stalls, summed) << "at access " << pos;
          ASSERT_EQ(scalar.cycles(), batched.cycles()) << "at access " << pos;
          pos += take;
          if (pos % kUpdateEvery == 0) {
            EXPECT_EQ(scalar.update_indexing(), batched.update_indexing());
          }
        }
        scalar.finish();
        batched.finish();
        for (std::size_t l = 0; l < depth; ++l) {
          SCOPED_TRACE("level " + std::to_string(l));
          EXPECT_EQ(scalar.level(l).cycles(), batched.level(l).cycles());
          expect_same_stats(scalar.level_stats(l), batched.level_stats(l));
        }
        ASSERT_EQ(scalar.num_units(), batched.num_units());
        for (std::uint64_t u = 0; u < scalar.num_units(); ++u) {
          EXPECT_EQ(scalar.unit_residency(u), batched.unit_residency(u))
              << "unit " << u;
          const UnitActivity sa = scalar.unit_activity(u);
          const UnitActivity ba = batched.unit_activity(u);
          EXPECT_EQ(sa.accesses, ba.accesses) << "unit " << u;
          EXPECT_EQ(sa.sleep_cycles, ba.sleep_cycles) << "unit " << u;
          EXPECT_EQ(sa.sleep_episodes, ba.sleep_episodes) << "unit " << u;
          const IntervalAccumulator& si = scalar.unit_intervals(u);
          const IntervalAccumulator& bi = batched.unit_intervals(u);
          EXPECT_EQ(si.interval_count(), bi.interval_count()) << "unit " << u;
          EXPECT_EQ(si.total_idle_cycles(), bi.total_idle_cycles())
              << "unit " << u;
          EXPECT_EQ(si.longest(), bi.longest()) << "unit " << u;
          EXPECT_EQ(si.sleep_cycles(24), bi.sleep_cycles(24)) << "unit " << u;
          EXPECT_EQ(si.sleep_cycles(48), bi.sleep_cycles(48)) << "unit " << u;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pcal
