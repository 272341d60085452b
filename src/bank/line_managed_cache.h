// Fine-grain (per-line) power management with full-index dynamic indexing.
//
// This is the architecture of the paper's reference [7] ("Dynamic
// Indexing: Concurrent Leakage and Aging Optimization for Caches"), which
// the DATE'11 paper coarsens to bank granularity.  Each cache *line* is an
// independently power-managed unit with its own breakeven counter, and the
// time-varying indexing rotates the entire n-bit index, not just its p
// MSBs.  It is the aging-optimal design — idleness is harvested and
// balanced at the finest possible grain — but it requires modifying the
// SRAM array internals (per-line sleep transistors and control), which is
// exactly what the DATE'11 paper's bank-level scheme avoids.  We implement
// it as the upper-bound baseline for the granularity-comparison bench.
#pragma once

#include <cstdint>
#include <memory>

#include "core/leaf_cache.h"
#include "indexing/index_policy.h"
#include "util/lfsr.h"

namespace pcal {

struct LineManagedConfig {
  CacheConfig cache;
  /// Full-index rotation scheme.  kProbing adds a counter to the whole
  /// index (mod L); kScrambling XORs it with an n-bit LFSR pattern;
  /// kStatic disables rotation (plain per-line power management).
  IndexingKind indexing = IndexingKind::kProbing;
  std::uint64_t indexing_seed = 1;
  /// Idle cycles before one line enters the drowsy state.  Per-line
  /// transition energy is tiny, so this is comparable to the bank-level
  /// breakeven despite the much smaller unit.
  std::uint64_t breakeven_cycles = 28;
  /// Idle cycles past which a sleeping line has power-gated (0 means
  /// "== breakeven_cycles": every wakeup is a gated wakeup).
  std::uint64_t gate_cycles = 0;
  /// Event costs in stall cycles (all-zero = the idealized clock).
  LatencyParams latency;

  void validate() const { cache.validate(); }
};

class LineManagedCache final : public LeafCache<LineManagedCache> {
 public:
  explicit LineManagedCache(const LineManagedConfig& config);

  const LineManagedConfig& config() const { return config_; }

  /// Per-line management keeps no way-organized unit to mask.
  bool set_alloc_way_mask(std::uint64_t /*mask*/) override { return false; }

 private:
  friend class LeafCache<LineManagedCache>;

  /// The full-index mapping; units are physical lines (sets).
  LeafIndex decode(std::uint64_t address) const {
    const std::uint64_t logical = config_.cache.set_index_of(address);
    const std::uint64_t physical = map_set(logical);
    return {config_.cache.tag_of(address), physical, logical, physical};
  }
  std::uint64_t map_set(std::uint64_t logical_set) const {
    switch (config_.indexing) {
      case IndexingKind::kStatic:
        return logical_set;
      case IndexingKind::kProbing:
        return (logical_set + rotation_) & (num_sets_ - 1);
      case IndexingKind::kScrambling:
        return (logical_set ^ xor_pattern_) & (num_sets_ - 1);
    }
    return logical_set;
  }
  void remap();

  LineManagedConfig config_;
  std::uint64_t num_sets_;
  // Full-index rotation state: a counter for probing, an LFSR pattern for
  // scrambling (reusing IndexingPolicy with M = num_sets would demand
  // pow-2 <= 16 banks; lines need the general form, so the small state
  // machine lives here).
  std::uint64_t rotation_ = 0;
  std::unique_ptr<GaloisLfsr> lfsr_;
  std::uint64_t xor_pattern_ = 0;
};

}  // namespace pcal
