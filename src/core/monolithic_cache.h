// The unmanaged baseline as a ManagedCache backend.
//
// A monolithic cache is one power-management unit: the whole array.  It
// never re-maps addresses (update_indexing is a plain flush with an
// identity mapping), and its single Block Control counter almost never
// saturates under real traffic — which is exactly the paper's reference
// point: no useful idleness, nominal aging, zero savings.
#pragma once

#include <cstdint>

#include "core/leaf_cache.h"

namespace pcal {

class MonolithicCache final : public LeafCache<MonolithicCache> {
 public:
  // CacheModel validates the geometry and BlockControl the breakeven.
  explicit MonolithicCache(const CacheTopology& topology)
      : LeafCache(topology.cache, 1, topology.breakeven_cycles,
                  topology.gate_cycles(), topology.latency) {}

 private:
  friend class LeafCache<MonolithicCache>;

  /// Identity mapping: the plain set index, unit 0.
  LeafIndex decode(std::uint64_t address) const {
    const CacheConfig& cc = cache_.config();
    return {cc.tag_of(address), cc.set_index_of(address), 0, 0};
  }
};

}  // namespace pcal
