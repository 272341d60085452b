// N-level cache hierarchy with inclusion policies, as one ManagedCache.
//
// A HierarchyConfig is an ordered list of levels — level 0 faces the CPU,
// each further level backs the one above it.  Every level is an
// independently-configured ManagedCache (any granularity, indexing,
// power policy and latency point, all built through make_managed_cache),
// and its InclusionPolicy selects which stream of its upper neighbour it
// consumes, one event per global cycle (the single-port approximation:
// whatever rides together in a cycle shares the port):
//
//   kNonInclusive  the upper level's *miss* stream: an upper miss becomes
//                  one access at the missed address, with a dirty upper
//                  victim folded in as a write.  This is the legacy
//                  L1+L2 semantics, preserved bit for bit.
//   kInclusive     the same miss stream, plus back-invalidation coupling
//                  at two granularities: a victim evicted from this level
//                  is invalidated line by line in every level above (the
//                  subset property holds per line, not just per flush),
//                  and whenever this level's re-index update flushes it,
//                  the level above is flushed too, cascading upward
//                  through further inclusive links.  Back-invalidation is
//                  a pure tag-store drop: no cycle, no wakeup, and a
//                  dirty upper copy is dropped without a writeback (the
//                  documented approximation).
//   kExclusive     the upper level's *eviction* stream: an upper miss
//                  that evicted a valid victim installs that victim here
//                  (a write iff it was dirty); a victimless upper miss
//                  probes the missed address instead (the lookup that
//                  would catch a previously-installed line).  Content
//                  converges to "lines evicted from above".
//   kVictim        the eviction stream only: victims are installed,
//                  every other cycle idles.  A pure victim sink — the
//                  maximal-idleness lower level.
//
// Levels that are not referenced in a cycle advance_idle(1), so every
// level lives on the same global clock and its residencies and leakage
// are priced against real time.  Stalls compose: an access's
// AccessOutcome::stall_cycles is the sum over every level it actually
// referenced (each level priced by its own CacheTopology::latency), and
// the driver stretches the global clock by that sum.
//
// A run of L1 hits references nothing below L1, so route_run serves it
// through L1 alone and the levels below catch up on the run's cycles in
// one advance_idle before the next miss is routed (and at the end of
// the run): every level is on the global clock whenever the call
// returns.
//
// The hierarchy presents the concatenated unit vector — level 0's units
// first, then each level below in order — for callers that want a
// stack as one ManagedCache.  The driver (MultiCoreSystem::run, which
// Simulator::run calls) does not wrap stacks in it: it walks each
// core's chain with route_run directly, and keeps access_batch for a
// lone single-level core without contention.  HierarchicalCache's
// access_batch is the same route_run, and both apply the same flush
// rule, update_flush_plan.
// stats() is level 0's tag store (what the CPU sees); level_stats(i)
// exposes the others.  update_indexing fires the update signal into every
// level whose indexing actually rotates (a static-indexed or single-unit
// level has nothing to re-map and is not flushed), then applies the
// inclusive back-invalidation cascade described above.
//
// Known modeling asymmetries (unchanged from the two-level ancestor):
// dirty lines written back by a *flush* leave the hierarchy without
// touching the level below (flush writebacks have no per-line addresses
// in the tag-store model), and exclusivity is approximate — a line moved
// conceptually upward by a probe hit cannot be invalidated below, so it
// may be double-counted until its lower frame is reused.
//
// Degeneracies (pinned in tests/hierarchy_test.cc and the backend parity
// suite at 1 and 8 sweep workers): a 1-level hierarchy is the bare
// backend bit for bit; a 2-level non-inclusive hierarchy is the legacy
// SimConfig L1+L2 path bit for bit; zero latencies keep the idealized
// clock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/managed_cache.h"

namespace pcal {

/// What a level holds relative to its upper neighbour, i.e. which of the
/// neighbour's streams it consumes.  Level 0 has no upper neighbour; its
/// policy is ignored.
enum class InclusionPolicy : std::uint8_t {
  kNonInclusive = 0,  // miss stream, no content coupling (the default)
  kInclusive = 1,     // miss stream + back-invalidation flush coupling
  kExclusive = 2,     // eviction installs, probe on victimless misses
  kVictim = 3,        // eviction installs only (pure victim sink)
};

/// One level of a routing chain as route_access() sees it: a borrowed
/// backend plus the inclusion policy tying it to the level above.
struct RoutedLevel {
  ManagedCache* cache = nullptr;
  InclusionPolicy inclusion = InclusionPolicy::kNonInclusive;
};

/// Routes one CPU access through `levels` (levels[0] faces the CPU),
/// applying the per-level stream semantics documented above: each lower
/// level consumes its upper neighbour's miss or eviction stream per its
/// InclusionPolicy, unreferenced levels advance_idle(1), and the
/// returned outcome is level 0's with stall_cycles summed over every
/// level actually referenced.  This is HierarchicalCache's access path,
/// exposed as a free function so MultiCoreSystem can route per-core
/// private levels into a *shared* LLC it appends to each core's chain
/// (core/multicore.h) with identical semantics, bit for bit.
AccessOutcome route_access(RoutedLevel* levels, std::size_t num_levels,
                           std::uint64_t address, bool is_write);

/// The resource replay route_run applies to a routed access: given its
/// outcome (every level event) and its event time, counted in cycles
/// from the start of the run, returns the extra stall the access pays.
/// The driver plugs the contention model in here (core/contention.h).
using RouteReplay =
    std::function<std::uint64_t(const AccessOutcome&, std::uint64_t)>;

/// Serves accesses[0..n) through `levels`, exactly as n calls of
/// route_access, each followed by advance_idle(stall + replay stall) on
/// every level — at a fraction of the cost.  Every inclusion policy
/// touches a lower level only on an L1 miss, so a run of L1 hits is pure
/// idle time below L1: the hit run is served by L1's access_until_miss,
/// the levels below are owed one cycle plus the stall of each hit, and
/// they catch up with one advance_idle just before the miss is routed
/// on from L1's outcome, and again at the end.  No level is out of step
/// outside the call.
///
/// `replay` (if set) is called once per routed miss and its stall joins
/// the miss's; hits skip it unless `replay_hits` asks for per-access
/// replay (a hit's only event is its L1 event, which only a multi-cycle
/// port hold can stall: docs/CONTENTION.md).  Access i's outcome, as
/// route_access returns it (its stall excludes the replay's), is
/// written to out[i * out_stride]: stride 1 keeps every outcome, stride
/// 0 reuses one caller-owned slot — cheaper than a fresh outcome per
/// call, whose zeroing costs a short run more than its routing.
/// Returns the run's summed stall, replay included.
std::uint64_t route_run(RoutedLevel* levels, std::size_t num_levels,
                        const MemAccess* accesses, std::size_t n,
                        AccessOutcome* out, std::size_t out_stride,
                        const RouteReplay& replay = {},
                        bool replay_hits = false);

/// One level of a hierarchy: its cache architecture plus how it relates
/// to the level above it.
struct LevelConfig {
  CacheTopology topology;
  InclusionPolicy inclusion = InclusionPolicy::kNonInclusive;

  /// A zero-size level is disabled — configs drop it before building
  /// the hierarchy (the degeneracy the parity tests pin).
  bool enabled() const { return topology.cache.size_bytes > 0; }
};

/// Which levels of a routing chain (chain[0] faces the CPU) one
/// re-indexing update flushes: every level that rotates — a
/// non-rotating level has nothing to re-map — plus, for the inclusive
/// back-invalidation cascade, the upper neighbour of every flushed
/// inclusive level, climbing through further inclusive links.  The one
/// flush rule of HierarchicalCache::update_indexing and the
/// MultiCoreSystem driver.
std::vector<bool> update_flush_plan(const std::vector<LevelConfig>& chain);

/// Ordered description of a whole hierarchy; levels[0] faces the CPU.
struct HierarchyConfig {
  std::vector<LevelConfig> levels;

  std::size_t num_levels() const { return levels.size(); }

  /// Requires at least one level, every level non-empty and valid.
  void validate() const;

  /// "8kB/16B/DM M=4 probing | L2 64kB/16B/DM M=4 static | L3/victim ..."
  /// — level 0 bare, lower levels tagged L<k> with a /policy suffix for
  /// non-default inclusion, each carrying its full topology describe()
  /// so hierarchy rows are distinguishable in BENCH JSON records.
  std::string describe() const;
};

class HierarchicalCache final : public ManagedCache {
 public:
  /// Builds every level via make_managed_cache.  Throws ConfigError on
  /// an empty hierarchy or invalid level topologies.
  explicit HierarchicalCache(const HierarchyConfig& config);

  // ManagedCache (units are level 0's units, then level 1's, ...):
  std::uint64_t update_indexing() override;
  void advance_idle(std::uint64_t cycles) override;
  void finish() override;
  std::uint64_t cycles() const override { return levels_.front().cache->cycles(); }
  std::uint64_t num_units() const override { return total_units_; }
  double unit_residency(std::uint64_t unit) const override;
  /// Level 0's tag-store statistics (the level the CPU sees).
  const CacheStats& stats() const override {
    return levels_.front().cache->stats();
  }
  std::uint64_t indexing_updates() const override { return updates_; }
  UnitActivity unit_activity(std::uint64_t unit) const override;
  const IntervalAccumulator& unit_intervals(
      std::uint64_t unit) const override;
  UnitPowerState unit_state(std::uint64_t unit) const override;

  // ---- level access ----
  std::size_t num_levels() const { return levels_.size(); }
  const ManagedCache& level(std::size_t i) const {
    return *levels_.at(i).cache;
  }
  const CacheStats& level_stats(std::size_t i) const {
    return levels_.at(i).cache->stats();
  }
  InclusionPolicy level_inclusion(std::size_t i) const {
    return levels_.at(i).inclusion;
  }
  /// Number of power-management units of one level.
  std::uint64_t level_units(std::size_t i) const {
    return levels_.at(i).cache->num_units();
  }
  /// Units of level 0 (they lead the concatenated unit vector).
  std::uint64_t l1_units() const { return levels_.front().cache->num_units(); }

 private:
  struct Level {
    std::unique_ptr<ManagedCache> cache;
    InclusionPolicy inclusion;
    bool flush;  // flushed by update_indexing (update_flush_plan)
    std::uint64_t unit_offset;  // index of its first unit in the vector
  };

  AccessOutcome do_access(std::uint64_t address, bool is_write) override;
  AccessOutcome do_probe(std::uint64_t address) override;
  /// Batches ride route_run, the driver's own routing body.
  std::uint64_t do_access_batch(const MemAccess* accesses, std::size_t n,
                                AccessOutcome* out) override;
  const Level& level_of_unit(std::uint64_t unit, std::uint64_t* local) const;

  std::vector<Level> levels_;
  std::vector<RoutedLevel> routing_;  // borrowed views for route_access
  AccessOutcome scratch_;  // the outcome slot of stalls-only batches
  std::uint64_t total_units_ = 0;
  std::uint64_t updates_ = 0;
};

}  // namespace pcal
