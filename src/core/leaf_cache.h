// The one access kernel every leaf backend shares.
//
// A leaf backend (MonolithicCache, BankedCache, WayGrainCache,
// LineManagedCache) is one tag store plus one Block Control over its
// power-management units.  The four differ only in how an address maps
// to a physical set and to the unit that serves it; everything else —
// wake classification, the tag-store touch, the outcome and its level 0
// event, Block Control bookkeeping and the clock — is the same.  So each
// backend writes only its mapping, as decode() and remap() (plus
// unit_of() where the serving unit depends on the tag store's way), and
// LeafCache writes the per-access body, serve(), once.  The four
// ManagedCache entry points are thin shells over it:
//
//   access(a)                decode(a), then serve(allocate)
//   probe(a)                 decode(a), then serve(no allocate)
//   access_batch(a, n)       per 256-access chunk: decode every address,
//                            then serve each access and add its stall
//                            to the clock
//   access_until_miss(a, n)  decode and serve one access at a time,
//                            adding each hit's stall to the clock, and
//                            stop after the first miss
//
// serve() consumes the access's one base cycle but not its stall: the
// per-access caller (the driver, a hierarchy) stretches the clock with
// advance_idle, and the batch and hit-run bodies add each stall
// themselves before serving the next access.  Every entry point
// therefore lands on the same clock, bit for bit.  The hit-run body
// leaves the miss's stall to its caller, so a hierarchy can route the
// miss below before the clock moves.  Decoding a whole chunk ahead of
// serving it is exact because the mapping only moves on
// update_indexing(), which the driver never fires mid-batch.
#pragma once

#include <algorithm>
#include <cstdint>

#include "bank/block_control.h"
#include "cache/cache.h"
#include "core/managed_cache.h"
#include "util/error.h"

namespace pcal {

/// Where one address lands in a leaf backend: its tag and physical set
/// in the tag store, and the logical/physical unit the mapping assigns
/// (before any per-way attribution, see LeafCache::unit_of).  No member
/// initializers: the batch body's 256-entry scratch array is written
/// before it is read, and zeroing its 8 kB on every call would dominate
/// batches of one (the contention path).
struct LeafIndex {
  std::uint64_t tag;
  std::uint64_t set;
  std::uint64_t logical_unit;
  std::uint64_t physical_unit;
};

/// CRTP base of the leaf backends.  `Derived` provides
///
///   LeafIndex decode(std::uint64_t address) const;
///
/// and may hide remap() to advance a time-varying mapping and unit_of()
/// to attribute an access to a per-way unit.
template <class Derived>
class LeafCache : public ManagedCache {
 public:
  /// Fires the update signal: advances the mapping and flushes the tag
  /// store ("every time the indexing is updated the entire cache content
  /// becomes unusable").  Returns the dirty lines written back.
  std::uint64_t update_indexing() override {
    PCAL_ASSERT_MSG(!finished_, "cache already finished");
    static_cast<Derived&>(*this).remap();
    ++updates_;
    return cache_.flush();
  }

  std::uint64_t indexing_updates() const override { return updates_; }

  void advance_idle(std::uint64_t cycles) override {
    PCAL_ASSERT_MSG(!finished_, "cache already finished");
    cycle_ += cycles;
  }

  void finish() override {
    if (finished_) return;
    control_.finish(cycle_);
    finished_ = true;
  }

  std::uint64_t cycles() const override { return cycle_; }
  std::uint64_t num_units() const override { return control_.num_banks(); }
  const CacheStats& stats() const override { return cache_.stats(); }

  double unit_residency(std::uint64_t unit) const override {
    PCAL_ASSERT_MSG(finished_, "call finish() first");
    return control_.sleep_residency(unit, cycle_);
  }

  /// Pure-gated semantics: all sleep is gated (drowsy_cycles = 0,
  /// gated_episodes = sleep_episodes); the drowsy hybrid re-slices it.
  UnitActivity unit_activity(std::uint64_t unit) const override {
    PCAL_ASSERT_MSG(finished_, "call finish() first");
    UnitActivity a;
    a.accesses = control_.accesses(unit);
    a.sleep_cycles = control_.sleep_cycles(unit);
    a.sleep_episodes = control_.sleep_episodes(unit);
    a.useful_idleness_count = control_.useful_idleness_count(unit);
    a.gated_episodes = a.sleep_episodes;
    return a;
  }

  const IntervalAccumulator& unit_intervals(
      std::uint64_t unit) const override {
    PCAL_ASSERT_MSG(finished_, "call finish() first");
    return control_.intervals(unit);
  }

  /// Below the breakeven a unit is awake, at or past the gate threshold
  /// it has power-gated, in between it is drowsy (never, under the pure
  /// gated policy, where the two thresholds coincide).
  UnitPowerState unit_state(std::uint64_t unit) const override {
    const std::uint64_t gap = control_.idle_gap(unit, cycle_);
    if (gap < control_.breakeven_cycles()) return UnitPowerState::kAwake;
    if (gap >= gate_cycles_) return UnitPowerState::kGated;
    return UnitPowerState::kDrowsy;
  }

  bool set_alloc_way_mask(std::uint64_t mask) override {
    cache_.set_alloc_way_mask(mask);
    return true;
  }

  /// The same decode as an access — same time-varying mapping — but a
  /// pure tag-store drop: no cycle, no Block Control touch, no stats.
  bool invalidate_line(std::uint64_t address) override {
    const LeafIndex ix = self().decode(address);
    return cache_.invalidate(ix.tag, ix.set);
  }

  // ---- component access ----
  const CacheModel& cache() const { return cache_; }
  const BlockControl& block_control() const { return control_; }

 protected:
  /// `gate_cycles`: idle cycles past which a sleeping unit has
  /// power-gated (== breakeven for the pure gated policy).
  LeafCache(const CacheConfig& cache, std::uint64_t num_units,
            std::uint64_t breakeven_cycles, std::uint64_t gate_cycles,
            const LatencyParams& latency)
      : cache_(cache),
        control_(num_units, breakeven_cycles),
        latency_(latency),
        gate_cycles_(gate_cycles) {}

  /// Advances the time-varying mapping; identity backends keep none.
  void remap() {}

  /// The unit an access to mapped unit `unit` is charged to, given the
  /// tag-store way that served it.  Unit-per-mapping backends ignore the
  /// way; the way-grain backend hides this.
  std::uint64_t unit_of(std::uint64_t unit, std::uint64_t /*way*/) const {
    return unit;
  }

  CacheModel cache_;

 private:
  AccessOutcome do_access(std::uint64_t address, bool is_write) override {
    PCAL_ASSERT_MSG(!finished_, "cache already finished");
    AccessOutcome out;
    serve(self().decode(address), address, is_write, /*allocate=*/true,
          out);
    return out;
  }

  AccessOutcome do_probe(std::uint64_t address) override {
    PCAL_ASSERT_MSG(!finished_, "cache already finished");
    AccessOutcome out;
    serve(self().decode(address), address, /*is_write=*/false,
          /*allocate=*/false, out);
    return out;
  }

  std::uint64_t do_access_batch(const MemAccess* accesses, std::size_t n,
                                AccessOutcome* out) override {
    PCAL_ASSERT_MSG(!finished_, "cache already finished");
    constexpr std::size_t kChunk = 256;
    LeafIndex ix[kChunk];
    AccessOutcome discard;  // the one outcome slot of a stalls-only batch
    std::uint64_t stalls = 0;
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = std::min(kChunk, n - base);
      for (std::size_t j = 0; j < m; ++j)
        ix[j] = self().decode(accesses[base + j].address);
      for (std::size_t j = 0; j < m; ++j) {
        const MemAccess& a = accesses[base + j];
        const std::uint64_t stall =
            serve(ix[j], a.address, a.kind == AccessKind::kWrite,
                  /*allocate=*/true, out ? out[base + j] : discard);
        cycle_ += stall;
        stalls += stall;
      }
    }
    return stalls;
  }

  /// No chunked pre-decode here: the run stops at its first miss, so
  /// decoding ahead would waste the work past it.
  HitRun do_access_until_miss(const MemAccess* accesses, std::size_t n,
                              AccessOutcome* out,
                              std::size_t out_stride) override {
    PCAL_ASSERT_MSG(!finished_, "cache already finished");
    HitRun run;
    while (run.served < n) {
      const MemAccess& a = accesses[run.served];
      AccessOutcome& o = out[run.served * out_stride];
      const std::uint64_t stall =
          serve(self().decode(a.address), a.address,
                a.kind == AccessKind::kWrite, /*allocate=*/true, o);
      ++run.served;
      if (!o.hit) break;
      cycle_ += stall;
      run.hit_stalls += stall;
    }
    return run;
  }

  /// The per-access body.  Writes every field of `out` (callers may
  /// reuse outcome buffers), consumes one cycle and returns the stall
  /// it also stores in out.stall_cycles.  Block Control is updated
  /// through the assert-free record_access: the clock only moves
  /// forward and one unit is served per cycle, by construction.
  std::uint64_t serve(const LeafIndex& ix, std::uint64_t address,
                      bool is_write, bool allocate, AccessOutcome& out) {
    const CacheAccessResult r =
        allocate ? cache_.access(ix.tag, ix.set, is_write, address)
                 : cache_.probe(ix.tag, ix.set);
    const std::uint64_t unit = self().unit_of(ix.physical_unit, r.way);
    const std::uint64_t nf = control_.next_free(unit);
    const std::uint64_t gap = cycle_ >= nf ? cycle_ - nf : 0;
    out.hit = r.hit;
    out.writeback = r.writeback;
    out.evicted = r.evicted;
    out.victim_address = r.victim_address;
    out.logical_unit = self().unit_of(ix.logical_unit, r.way);
    out.physical_unit = unit;
    out.woke_unit = cycle_ >= nf && gap >= control_.breakeven_cycles();
    out.wake = classify_wake(out.woke_unit, gap, gate_cycles_);
    const std::uint64_t stall = latency_.event_stall(r.hit, out.wake);
    out.stall_cycles = stall;
    out.num_events = 0;
    out.add_event(0, r.hit, r.writeback, unit, address);
    control_.record_access(unit, cycle_);
    ++cycle_;
    return stall;
  }

  const Derived& self() const { return static_cast<const Derived&>(*this); }

  BlockControl control_;
  LatencyParams latency_;
  std::uint64_t gate_cycles_;
  std::uint64_t cycle_ = 0;
  std::uint64_t updates_ = 0;
  bool finished_ = false;
};

}  // namespace pcal
