// The polymorphic power-managed-cache API.
//
// The paper's evaluation is a comparison across architectures that differ
// only in the *granularity* at which idleness is harvested and re-indexed:
// the monolithic cache (no management), the paper's uniformly partitioned
// banks, and the per-line scheme of its reference [7].  ManagedCache is the
// one interface all of them implement, so a single driver (core/simulator)
// can run any of them from a CacheTopology description — the same shape as
// make_indexing_policy, one level up.
//
// A "unit" is the architecture's power-management granule: the whole cache
// (monolithic), one bank, one way-column of a bank (way-grain), or one
// line.  All residency / activity queries are per-unit; aggregate helpers
// are derived from them.
//
// Every backend has exactly one per-access body.  The four leaf backends
// (monolithic, bank, way, line) share it through LeafCache
// (core/leaf_cache.h) and only describe their address mapping; the
// composites (DrowsyHybridCache, HierarchicalCache) forward to the
// leaves they own.  access(), probe(), access_batch() and
// access_until_miss() are the only entry points, all four behind the
// non-virtual interface below.
//
// ## Ownership, thread-safety and determinism (the API contract)
//
// - make_managed_cache returns a uniquely-owned backend; the topology is
//   copied into it, so the CacheTopology may be destroyed afterwards.
//   DrowsyHybridCache and HierarchicalCache own their wrapped backends.
// - A ManagedCache instance is NOT thread-safe: all mutating calls
//   (access, update_indexing, advance_idle, finish) must come from one
//   thread at a time.  Distinct instances share no mutable state, which is
//   what lets SweepRunner drive one instance per worker with no locks.
// - Every backend is deterministic: the same topology and the same access
//   sequence produce bit-identical outcomes, statistics and residencies,
//   on any machine and regardless of what other instances are doing.
// - Query order: residency/activity/interval queries are only valid after
//   finish(); access/update_indexing/advance_idle are only valid before.
//   finish() is idempotent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bank/partition_config.h"
#include "cache/cache.h"
#include "cache/cache_config.h"
#include "core/contention.h"
#include "core/timing.h"
#include "indexing/index_policy.h"
#include "trace/access.h"

namespace pcal {

class IntervalAccumulator;

/// Power-management granularity of a cache architecture.
enum class Granularity : std::uint8_t {
  kMonolithic = 0,  // one unit: the whole cache (no partitioning)
  kBank = 1,        // the paper's M uniform banks
  kLine = 2,        // per-line management, reference [7]'s upper bound
  kWay = 3,         // per-way within each bank: M x W units
};

/// What happens to an idle unit once its breakeven counter saturates.
enum class PowerPolicy : std::uint8_t {
  /// Straight to the state-destructive power-gated state (the paper's
  /// scheme; lowest sleep leakage, full wakeup cost).
  kGated = 0,
  /// First to the state-preserving drowsy voltage (reference [7]'s
  /// comparison point: reduced-but-nonzero leakage, cheap wakeup), then
  /// power-gate after a second threshold (`drowsy_window_cycles` more
  /// idle cycles).  A zero window degenerates exactly to kGated.
  kDrowsyHybrid = 1,
};

/// One level's slice of a routed access: which level was referenced,
/// at what address, which physical unit served it, and whether it hit /
/// shed a dirty victim.  route_access (core/hierarchy.h) records one per
/// referenced level; a bare backend's access records its single level 0
/// event.  This is what the contention layer (core/contention.h) replays
/// — each event claims that level's ports / MSHRs / edge bandwidth.
struct LevelEvent {
  std::uint8_t level = 0;
  bool hit = false;
  bool writeback = false;
  std::uint64_t unit = 0;
  std::uint64_t address = 0;
};

/// Deepest chain an AccessOutcome can trace: 3 private levels + a shared
/// LLC is the deepest machine the configs can build; 6 leaves headroom
/// without bloating the per-access struct.
constexpr std::size_t kMaxTraceLevels = 6;

/// Outcome of one access through the unified interface.  `unit` is the
/// power-management granule index (bank number, line number, bank*W+way,
/// or 0).
struct AccessOutcome {
  bool hit = false;
  bool writeback = false;  // a dirty victim was evicted
  std::uint64_t logical_unit = 0;
  std::uint64_t physical_unit = 0;
  /// The access had to wake its unit from retention (costs a transition).
  bool woke_unit = false;
  /// How deep that unit was sleeping (kAwake when !woke_unit; kGated for
  /// every wakeup under the pure gated policy; the hybrid distinguishes
  /// drowsy wakeups within the window from gated ones past it).
  WakeDepth wake = WakeDepth::kAwake;
  /// Stall cycles this access costs beyond its one base cycle, priced by
  /// the level's CacheTopology::latency (0 under the default all-zero
  /// latencies — the idealized clock).  Hierarchies report the sum over
  /// every level the access actually referenced.
  std::uint64_t stall_cycles = 0;
  /// A valid line was evicted by this access (whether or not it was
  /// dirty; `writeback` flags the dirty case).  `victim_address` is its
  /// line-aligned address — the eviction stream a victim or exclusive
  /// lower level consumes.
  bool evicted = false;
  std::uint64_t victim_address = 0;
  /// Per-level event trace (see LevelEvent): a leaf backend records its
  /// single level 0 event, route_access the full chain.
  std::uint8_t num_events = 0;
  LevelEvent events[kMaxTraceLevels];

  /// Appends one level event (drops silently past kMaxTraceLevels —
  /// deeper chains than the configs can build).
  void add_event(std::uint8_t level, bool level_hit, bool level_writeback,
                 std::uint64_t unit, std::uint64_t address) {
    if (num_events >= kMaxTraceLevels) return;
    LevelEvent& e = events[num_events++];
    e.level = level;
    e.hit = level_hit;
    e.writeback = level_writeback;
    e.unit = unit;
    e.address = address;
  }
};

/// What ManagedCache::access_until_miss served: the number of accesses
/// (the hits, plus the miss that ended the run, if one did) and the
/// summed stall of the hits, which the cache has already applied.
struct HitRun {
  std::size_t served = 0;
  std::uint64_t hit_stalls = 0;
};

/// Instantaneous power state of one unit, as the interval observer and
/// the timeline artifact report it (docs/TIMELINE.md).  With one access
/// per cycle a unit's state is a pure function of its current idle gap:
/// shorter than the breakeven it is awake, past the gate threshold it has
/// power-gated, in between (the hybrid policy's drowsy window) it holds
/// at the drowsy voltage.  Under the pure gated policy the two thresholds
/// coincide, so kDrowsy never appears.
enum class UnitPowerState : std::uint8_t {
  kAwake = 0,
  kDrowsy = 1,
  kGated = 2,
};

/// One-letter spelling used by the compact timeline encoding ("AADG").
inline char to_char(UnitPowerState s) {
  switch (s) {
    case UnitPowerState::kAwake:
      return 'A';
    case UnitPowerState::kDrowsy:
      return 'D';
    case UnitPowerState::kGated:
      return 'G';
  }
  return '?';
}

/// Per-unit activity facts, valid after finish().
///
/// `sleep_cycles`/`sleep_episodes` count *any* low-power state.  Under
/// PowerPolicy::kGated every episode power-gates, so `drowsy_cycles` is 0
/// and `gated_episodes == sleep_episodes`; the drowsy hybrid splits sleep
/// into a state-preserving drowsy share and the gated remainder.
struct UnitActivity {
  std::uint64_t accesses = 0;
  std::uint64_t sleep_cycles = 0;
  std::uint64_t sleep_episodes = 0;
  double useful_idleness_count = 0.0;  // share of idle intervals > breakeven
  /// Cycles of sleep spent at the drowsy (state-preserving) voltage.
  /// Gated cycles = sleep_cycles - drowsy_cycles.
  std::uint64_t drowsy_cycles = 0;
  /// Sleep episodes that deepened into the power-gated state.
  std::uint64_t gated_episodes = 0;
};

/// Complete description of one cache architecture: what every backend
/// needs to construct itself.  `partition` is consulted at kBank and kWay
/// granularity; `indexing` selects the time-varying mapping f() (kStatic
/// disables rotation at any granularity).
struct CacheTopology {
  Granularity granularity = Granularity::kBank;
  CacheConfig cache;
  PartitionConfig partition;
  IndexingKind indexing = IndexingKind::kProbing;
  std::uint64_t indexing_seed = 1;
  /// Idle cycles before a unit enters the low-power state (drowsy entry
  /// for the hybrid policy, power gating otherwise).
  std::uint64_t breakeven_cycles = 32;
  /// What the low-power state is (see PowerPolicy).
  PowerPolicy policy = PowerPolicy::kGated;
  /// kDrowsyHybrid only: additional idle cycles a unit dwells at the
  /// drowsy voltage before it is power-gated.  0 disables the drowsy
  /// window (the hybrid then *is* the gated backend, bit for bit).
  std::uint64_t drowsy_window_cycles = 0;
  /// Event costs of this level in stall cycles (core/timing.h).  The
  /// all-zero default keeps the idealized one-access-per-cycle clock.
  LatencyParams latency;
  /// Finite-resource limits of this level (core/contention.h): MSHRs,
  /// per-bank ports, downstream bandwidth.  The all-unlimited default
  /// keeps contention off — the driver charges nothing.
  ContentionParams contention;

  /// Number of power-management units this topology yields.
  std::uint64_t num_units() const;

  /// True iff the drowsy window is actually in play.
  bool drowsy_active() const {
    return policy == PowerPolicy::kDrowsyHybrid && drowsy_window_cycles > 0;
  }

  /// Idle cycles after which a unit is power-gated (breakeven plus the
  /// drowsy window when the hybrid policy is active).
  std::uint64_t gate_cycles() const {
    return breakeven_cycles + (drowsy_active() ? drowsy_window_cycles : 0);
  }

  /// True iff this topology has anything to re-index: a time-varying
  /// mapping over more than one unit.  The single source of truth for
  /// both the Simulator's update cadence and HierarchicalCache's
  /// per-level update forwarding — a non-rotating level is never
  /// flushed by the update signal.
  bool rotates() const {
    return indexing != IndexingKind::kStatic && num_units() > 1;
  }

  void validate() const;

  /// Human-readable label, e.g. "8kB/16B/DM M=4 probing".
  std::string describe() const;
};

/// Abstract power-managed cache: one access consumed per cycle, explicit
/// re-indexing updates, per-unit idleness bookkeeping.
///
/// Thread-safety: instances are confined to one thread at a time (see the
/// file comment); const queries after finish() may be read concurrently.
class ManagedCache {
 public:
  virtual ~ManagedCache() = default;

  /// Simulates one access at the next cycle.  The access consumes its
  /// one base cycle; its stall_cycles are the caller's to apply (with
  /// advance_idle), which is what lets a hierarchy stretch every level's
  /// clock by the whole routed stall.
  AccessOutcome access(std::uint64_t address, bool is_write) {
    return do_access(address, is_write);
  }

  /// Simulates one lookup at the next cycle *without allocating on a
  /// miss*: the serving unit is activated exactly as for access() (it
  /// wakes if sleeping, its idle counter resets, hit/miss statistics
  /// and stall cycles count), but a missing line stays absent — nothing
  /// is installed, nothing evicted.  This is the exclusive hierarchy's
  /// probe path (core/hierarchy.h): the probed line, if found,
  /// conceptually moves up rather than filling this level.
  AccessOutcome probe(std::uint64_t address) {
    return do_probe(address);
  }

  /// Simulates `n` accesses in one call, writing one outcome per access
  /// into `out` (caller-owned, length >= n).  Semantically identical to
  ///
  ///   for each i: out[i] = access(a[i]);
  ///               advance_idle(out[i].stall_cycles);
  ///
  /// — each access's stall advances the clock before the next access is
  /// served, so sleep/wake classification, statistics and residencies
  /// are bit-identical to the per-access loop at every batch size.  The
  /// leaf backends run the same per-access body over a pre-decoded
  /// chunk; a hierarchy serves L1 hits in runs (route_run).
  /// One caveat for `out` reuse across calls: entries of events[] at
  /// and past num_events are unspecified.
  ///
  /// A null `out` means stalls only: the accesses are simulated exactly
  /// as above and no outcome is stored.  The driver (MultiCoreSystem::run)
  /// passes null; a 256-access outcome array is larger than a typical L1
  /// data cache.
  ///
  /// Returns the batch's summed stall_cycles, so the driver's clock
  /// never has to re-read the strided outcome array.
  std::uint64_t access_batch(const MemAccess* accesses, std::size_t n,
                             AccessOutcome* out) {
    return do_access_batch(accesses, n, out);
  }

  /// Serves accesses[0..n) in order until one misses, serves that one
  /// too and stops after it (n >= 1).  Each hit is followed by its own
  /// stall, exactly as in access_batch; the miss's stall is the
  /// caller's to apply, as with access().  That is what lets a
  /// hierarchy treat a run of hits as pure idle time for every level
  /// below, and route the miss on before the clock moves
  /// (route_run, core/hierarchy.h).  Outcome i is written to
  /// out[i * out_stride]: stride 1 keeps every outcome, stride 0 only
  /// the last one, in out[0].  The last outcome's `hit` says whether the
  /// run ended on a miss.
  HitRun access_until_miss(const MemAccess* accesses, std::size_t n,
                           AccessOutcome* out, std::size_t out_stride) {
    return do_access_until_miss(accesses, n, out, out_stride);
  }

  /// Fires the update signal: advances the time-varying indexing and
  /// flushes the cache.  Returns the number of dirty lines written back.
  virtual std::uint64_t update_indexing() = 0;

  /// Advances time by `cycles` with no access: every unit idles.  This is
  /// how a hierarchy keeps a lower level on the global clock while the
  /// upper level absorbs hits (L2 cycles == L1 cycles, so L2 residencies
  /// and leakage are priced against real time, not its access count).
  virtual void advance_idle(std::uint64_t cycles) = 0;

  /// Finalizes idle-interval bookkeeping; call when the trace ends.
  /// Residency/activity queries are only valid afterwards.  Idempotent.
  virtual void finish() = 0;

  /// Cycles simulated so far (accesses consumed + idle cycles advanced).
  virtual std::uint64_t cycles() const = 0;

  /// Number of independently power-managed units.
  virtual std::uint64_t num_units() const = 0;

  /// Sleep residency of one physical unit over the simulated time.
  virtual double unit_residency(std::uint64_t unit) const = 0;

  /// Mean / worst-case unit residency (worst case limits lifetime).
  virtual double avg_residency() const;
  virtual double min_residency() const;

  /// Tag-store statistics (hits, misses, writebacks, flushes).
  virtual const CacheStats& stats() const = 0;

  /// Number of re-indexing updates applied so far.
  virtual std::uint64_t indexing_updates() const = 0;

  /// Per-unit activity for energy accounting; valid after finish().
  virtual UnitActivity unit_activity(std::uint64_t unit) const = 0;

  /// One unit's raw idle-interval histogram.  This is what lets policy
  /// layers (the drowsy hybrid) and energy models re-slice idleness at
  /// thresholds other than the breakeven the backend ran with.
  virtual const IntervalAccumulator& unit_intervals(
      std::uint64_t unit) const = 0;

  /// Instantaneous power state of one unit at the current cycle — what
  /// the interval observer samples for the power-state timeline.  Valid
  /// at any point of the run (unlike the post-finish() activity
  /// queries).  The default covers backends with no idleness tracking;
  /// every leaf backend derives the state from its Block Control idle
  /// gap (LeafCache::unit_state).
  virtual UnitPowerState unit_state(std::uint64_t /*unit*/) const {
    return UnitPowerState::kAwake;
  }

  /// Restricts *allocation* (miss-victim choice) to the tag-store ways
  /// whose mask bit is set; hits are still served from any way, so a
  /// line resident outside the mask is found and touched — standard
  /// way-partitioning semantics, used by the multi-core shared LLC for
  /// QoS isolation (core/multicore.h).  Returns false when the backend
  /// has no way-organized tag store to mask (per-line management);
  /// passing the full mask (~0) restores unrestricted allocation.
  virtual bool set_alloc_way_mask(std::uint64_t /*mask*/) { return false; }

  /// Drops the line containing `address` from the tag store if resident:
  /// a pure tag-store operation — no cycle is consumed, no unit wakes, no
  /// statistics move, and a dirty line is dropped without a writeback
  /// (the inclusive back-invalidation approximation, documented in
  /// core/hierarchy.h).  Returns true iff a line was invalidated.  The
  /// default covers composites with no single tag store of their own.
  virtual bool invalidate_line(std::uint64_t /*address*/) { return false; }

 private:
  virtual AccessOutcome do_access(std::uint64_t address, bool is_write) = 0;
  virtual AccessOutcome do_probe(std::uint64_t address) = 0;

  /// Hit-run body behind access_until_miss().  The default (a
  /// hierarchy's) serves one access through access(), a run of length
  /// one; the leaf backends serve the whole run and the drowsy wrapper
  /// forwards to its base.
  virtual HitRun do_access_until_miss(const MemAccess* accesses,
                                      std::size_t /*n*/, AccessOutcome* out,
                                      std::size_t /*out_stride*/) {
    HitRun run;
    run.served = 1;
    out[0] = access(accesses[0].address,
                    accesses[0].kind == AccessKind::kWrite);
    if (out[0].hit) {
      if (out[0].stall_cycles != 0) advance_idle(out[0].stall_cycles);
      run.hit_stalls = out[0].stall_cycles;
    }
    return run;
  }

  /// Batched access body behind access_batch(): the leaf backends run
  /// it over a pre-decoded chunk, the drowsy wrapper forwards to its
  /// base and a hierarchy serves the batch through route_run.
  virtual std::uint64_t do_access_batch(const MemAccess* accesses,
                                        std::size_t n,
                                        AccessOutcome* out) = 0;
};

/// Builds the backend for a topology: MonolithicCache, BankedCache,
/// LineManagedCache or WayGrainCache — wrapped in a DrowsyHybridCache when
/// the topology's drowsy window is active (a zero window returns the bare
/// gated backend, which is the degeneracy the parity tests pin).  Throws
/// ConfigError on invalid topologies.
std::unique_ptr<ManagedCache> make_managed_cache(
    const CacheTopology& topology);

}  // namespace pcal
