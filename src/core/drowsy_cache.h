// Drowsy / state-destructive hybrid power management.
//
// The paper's scheme power-gates an idle unit as soon as its breakeven
// counter saturates (state destroyed, full wakeup); the drowsy caches it
// cites as the state-preserving alternative (reference [7]'s comparison
// bound) drop the unit to a retention voltage instead — leakage shrinks
// but does not vanish, state survives, and wakeup is cheap.  The hybrid
// does both in sequence: after `drowsy_cycles` of idleness the unit goes
// drowsy, and only after `gate_cycles` (>= drowsy_cycles) does it
// power-gate.  This turns the paper's drowsy-vs-gated comparison, which
// is only a citation there, into a simulated data point.
//
// With one access per cycle, a unit's power state is a pure function of
// the length of its current idle gap, so the hybrid needs no second set
// of hardware counters in the model: it decorates any gated backend
// (whose breakeven is the drowsy threshold) and re-slices each unit's
// idle-interval histogram at the gate threshold after the run.  The
// decomposition is exact — an idle interval of length len contributes
//   drowsy cycles: min(len, gate) - drowsy   (if len > drowsy)
//   gated  cycles: len - gate                (if len > gate)
// — and is cross-checked against manual interval arithmetic in
// tests/drowsy_cache_test.cc.  Access outcomes, tag-store statistics and
// sleep residencies are the base backend's, unchanged: the hybrid alters
// what sleep *costs* (priced by power/unit_energy), not who sleeps.
//
// make_managed_cache builds this wrapper when CacheTopology::policy is
// kDrowsyHybrid with a nonzero window; a zero window returns the bare
// gated backend, so the degeneracy "no drowsy window == state-destructive
// backend" holds bit for bit.
#pragma once

#include <cstdint>
#include <memory>

#include "core/managed_cache.h"

namespace pcal {

class DrowsyHybridCache final : public ManagedCache {
 public:
  /// Wraps `base` (built with breakeven == `drowsy_cycles`).  Requires
  /// gate_cycles >= drowsy_cycles > 0.
  DrowsyHybridCache(std::unique_ptr<ManagedCache> base,
                    std::uint64_t drowsy_cycles, std::uint64_t gate_cycles);

  // ManagedCache (all structural queries forward to the base backend):
  std::uint64_t update_indexing() override {
    return base_->update_indexing();
  }
  void advance_idle(std::uint64_t cycles) override {
    base_->advance_idle(cycles);
  }
  void finish() override { base_->finish(); }
  std::uint64_t cycles() const override { return base_->cycles(); }
  std::uint64_t num_units() const override { return base_->num_units(); }
  double unit_residency(std::uint64_t unit) const override {
    return base_->unit_residency(unit);
  }
  const CacheStats& stats() const override { return base_->stats(); }
  std::uint64_t indexing_updates() const override {
    return base_->indexing_updates();
  }
  /// Base activity with sleep split into drowsy and gated shares.
  UnitActivity unit_activity(std::uint64_t unit) const override;
  const IntervalAccumulator& unit_intervals(
      std::uint64_t unit) const override {
    return base_->unit_intervals(unit);
  }
  /// The base backend runs with breakeven == the drowsy threshold and
  /// gate_cycles == the gate threshold, so its state classification IS
  /// the hybrid's.
  UnitPowerState unit_state(std::uint64_t unit) const override {
    return base_->unit_state(unit);
  }
  bool set_alloc_way_mask(std::uint64_t mask) override {
    return base_->set_alloc_way_mask(mask);
  }
  bool invalidate_line(std::uint64_t address) override {
    return base_->invalidate_line(address);
  }

  // ---- hybrid-specific queries ----
  const ManagedCache& base() const { return *base_; }
  std::uint64_t drowsy_threshold() const { return drowsy_cycles_; }
  std::uint64_t gate_threshold() const { return gate_cycles_; }

  /// Time share one unit spends power-gated (subset of unit_residency).
  double unit_gated_residency(std::uint64_t unit) const;

 private:
  AccessOutcome do_access(std::uint64_t address, bool is_write) override {
    return base_->access(address, is_write);
  }
  AccessOutcome do_probe(std::uint64_t address) override {
    return base_->probe(address);
  }
  /// Batches and hit runs ride the base backend's tight loops: the
  /// hybrid only re-prices idleness after the fact, it never alters
  /// access outcomes.
  std::uint64_t do_access_batch(const MemAccess* accesses, std::size_t n,
                                AccessOutcome* out) override {
    return base_->access_batch(accesses, n, out);
  }
  HitRun do_access_until_miss(const MemAccess* accesses, std::size_t n,
                              AccessOutcome* out,
                              std::size_t out_stride) override {
    return base_->access_until_miss(accesses, n, out, out_stride);
  }

  std::unique_ptr<ManagedCache> base_;
  std::uint64_t drowsy_cycles_;
  std::uint64_t gate_cycles_;
};

}  // namespace pcal
