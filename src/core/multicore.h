// Multi-core simulation: per-core private hierarchies over a shared LLC.
//
// The paper's deployment story is multi-programmed — re-indexing updates
// piggyback on flushes that "occur regularly in the system (e.g., on a
// context switch)" — and this subsystem models the system those streams
// actually run on: N cores, each with its own private cache stack (any
// depth, each level a full CacheTopology built via make_managed_cache),
// all backed by ONE shared managed LLC, advanced on a single global
// clock.
//
// ## One driver
//
// MultiCoreSystem::run is the engine's only driver: Simulator::run is
// its one-core case with no shared level (a disabled `llc`).  The update
// cadence, quantum alignment (applied whenever the system has one
// core), context-switch flags, flush plan, census, contention replay,
// clock checks, pricing and result assembly each exist here once.  The
// serving loop hands each core a run of accesses: a lone core with a
// single level and no contention passes the run to
// ManagedCache::access_batch; every other chain serves it with
// route_run (core/hierarchy.h), L1 hits in runs and each miss routed
// on.
//
// ## Data flow (one issued access)
//
//   core k's TraceSource --> [core k L1 .. Lp] --> shared LLC
//
// Each core consumes its own TraceSource; cores issue in weighted
// round-robin order (core k issues `ipc_weight` consecutive accesses per
// round, in deterministic core order — the per-core-IPC interleave).
// Core k's addresses are offset by k * address_stride so the streams
// occupy disjoint address ranges (core 0 is unshifted — the 1-core
// degeneracy below).  The access routes through the core's private
// levels and the appended LLC with route_run (core/hierarchy.h), so
// miss/eviction-stream semantics, probe behavior and stall composition
// are HierarchicalCache's, bit for bit.  While core k's run occupies
// the chain, every other core's private levels are owed its cycles,
// stalls included, and catch up in one advance_idle when their turn
// starts, at every boundary and before finish() — every level of every
// core and the LLC live on the same clock, so leakage and residency
// stay exact.
//
// ## Way partitioning (QoS)
//
// The shared LLC optionally gives each core an allocation way mask
// (ManagedCache::set_alloc_way_mask): core k's misses may only victimize
// its own ways, while hits are served from any way.  This isolates a
// well-behaved core's LLC share from a streaming noisy neighbour —
// bench/multicore_qos.cc measures exactly that effect.  Masks must be
// nonzero, pairwise disjoint, within the LLC's associativity, and either
// all cores have one or none do (all-zero = fully shared).
//
// ## Degeneracy (pinned by tests/multicore_test.cc)
//
//   1 core, unpartitioned LLC  ==  single-stream Simulator whose config
//   is the core's levels with the LLC appended as the last lower level —
//   bit for bit: cycles, per-unit stats, update positions, census counts
//   and energy, on plain, multiprogrammed and contended streams.  Only
//   the census `core` tag differs: the private levels carry core 0 when
//   the LLC is shared, -1 when every level is private.
//
// ## Attribution
//
// MultiCoreResult carries the system-wide SimResult (units ordered
// depth-major: every core's L1 units, then every core's L2 units, ...,
// then the LLC's — which collapses to the Simulator's level order at one
// core) plus one CoreResult per core: its accesses, stalls, private-level
// stats, its delta-attributed slice of the LLC's tag-store traffic, and
// an energy figure = the core's own private levels plus the LLC report
// scaled by the core's share of LLC accesses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/simulator.h"

namespace pcal {

/// Static description of an N-core system.
struct MultiCoreConfig {
  struct Core {
    /// The core's private stack, L1 first (each a full CacheTopology +
    /// the inclusion policy tying it to the level above).
    std::vector<LevelConfig> levels;
    /// LLC allocation way mask for this core; 0 = unrestricted.  If any
    /// core sets one, all cores must, and masks must be disjoint.
    std::uint64_t llc_way_mask = 0;
    /// Accesses this core issues per round-robin round (>= 1).
    std::uint64_t ipc_weight = 1;
  };

  std::vector<Core> cores;
  /// The shared last-level cache; its inclusion policy relates it to the
  /// private level above it, exactly as in a HierarchyConfig.  A
  /// disabled (zero-size) LLC means no shared level, which only one core
  /// may have: the Simulator's shape.
  LevelConfig llc;
  /// Re-indexing updates spread evenly over the run (Simulator
  /// semantics; 0 disables).
  std::uint64_t reindex_updates = 16;
  /// Offset between consecutive cores' address spaces (core k adds
  /// k * address_stride to every address it issues).  Core 0 is
  /// unshifted, which is what makes the 1-core degeneracy exact.
  std::uint64_t address_stride = std::uint64_t{1} << 20;
  TechnologyParams tech = TechnologyParams::st45();
  EnergyParams energy_params = EnergyParams::paper();

  /// True iff any core carries an LLC way mask.
  bool partitioned() const;

  /// Structural validation: >= 1 core, homogeneous private depth, every
  /// level enabled and valid, and the way-mask rules above.  Throws
  /// ConfigError.
  void validate() const;

  /// Label for reports.  One unpartitioned core degenerates to the
  /// equivalent HierarchyConfig::describe(); otherwise
  /// "Nx[<private stack>] | LLC <topology>" with a partition suffix.
  std::string describe() const;
};

/// Per-core slice of a multi-core run.
struct CoreResult {
  std::string workload;
  std::uint64_t accesses = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t llc_way_mask = 0;
  /// Tag-store stats of the core's private levels, L1 first.
  std::vector<CacheStats> level_stats;
  /// The core's delta-attributed slice of the shared LLC's traffic
  /// (snapshots taken around each routed access; update flushes are
  /// attributed to no core).
  CacheStats llc_stats;
  /// The core's private-level energy plus the LLC report scaled by its
  /// share of LLC accesses (even split if the LLC saw none).
  EnergyReport energy;
  /// Mean sleep residency over the core's private units.
  double avg_residency = 0.0;

  double l1_hit_rate() const {
    return level_stats.empty() ? 0.0 : level_stats.front().hit_rate();
  }
  double llc_hit_rate() const { return llc_stats.hit_rate(); }
};

struct MultiCoreResult {
  /// System-wide observables in the single-stream shape (units
  /// depth-major as documented above; workload is the '+'-joined source
  /// names).  At one core this IS the Simulator's SimResult, bit for
  /// bit.
  SimResult system;
  std::vector<CoreResult> cores;
};

class MultiCoreSystem {
 public:
  /// Validates the config (throws ConfigError).
  explicit MultiCoreSystem(MultiCoreConfig config);

  /// Runs every source to exhaustion (cores whose stream ends early drop
  /// out of the rotation; the rest keep issuing).  `sources` must hold
  /// one non-null source per configured core.  If `lut` is non-null the
  /// result includes per-unit and cache lifetimes.  If `observer` is
  /// non-null it is called at every re-indexing boundary (for runs with
  /// no updates: at a default cadence of 16 intervals when every
  /// source's size is known) and once after the run completes; its
  /// `stats` are core 0's L1.  `batch_size` accesses are fetched per
  /// TraceSource::next_batch call (clamped to [1, 65536]); every batch
  /// size gives bit-identical results.  Throws ConfigError if the clock
  /// passes kMaxClockCycles.
  MultiCoreResult run(const std::vector<TraceSource*>& sources,
                      const AgingLut* lut = nullptr,
                      const IntervalObserver& observer = {},
                      std::uint64_t batch_size = 256) const;

  const MultiCoreConfig& config() const { return config_; }

 private:
  MultiCoreConfig config_;
};

/// Builds the homogeneous N-core system of a single-stream SimConfig:
/// every core's private stack is the config's L1 (with its resolved
/// breakeven) plus its enabled lower levels, and `llc` is the shared
/// last level.  `ways_per_core` > 0 assigns core k the contiguous mask
/// ((1 << wpc) - 1) << (k * wpc); 0 leaves the LLC fully shared.  A
/// disabled (zero-size) `llc` builds the one-core, no-shared-level
/// system Simulator::run drives.  With num_cores == 1 and
/// ways_per_core == 0 the result reproduces
/// Simulator(config-with-llc-appended) bit for bit.
MultiCoreConfig make_multicore(const SimConfig& config,
                               std::size_t num_cores,
                               const LevelConfig& llc,
                               std::uint64_t ways_per_core = 0);

}  // namespace pcal
