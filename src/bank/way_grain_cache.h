// Way-grain power management: per-way sleep within each bank.
//
// The paper's banked scheme gates whole banks; its reference [7] gates
// single lines.  Way-grain sits between them for set-associative caches:
// each of a bank's W way-columns is an independently power-managed unit
// (M x W units total), so a working set that fits in a fraction of the
// associativity lets the remaining way-columns sleep without touching the
// SRAM array internals the way per-line control must.  Bank selection and
// re-indexing are identical to BankedCache (p-MSB decode through the
// time-varying f()); the way within the set is whatever way the tag store
// touches (the hitting way, or the LRU victim on a miss).
//
// Degeneracy: with a direct-mapped cache (W = 1) every set has one way,
// so unit == physical bank and this backend reproduces BankedCache bit
// for bit — pinned by tests/way_grain_test.cc.
#pragma once

#include <cstdint>

#include "bank/decoder.h"
#include "core/leaf_cache.h"

namespace pcal {

class WayGrainCache final : public LeafCache<WayGrainCache> {
 public:
  // Units are (physical bank, way) pairs, numbered bank * W + way.
  // make_managed_cache validates the topology before construction.
  explicit WayGrainCache(const CacheTopology& topology)
      : LeafCache(topology.cache,
                  topology.partition.num_banks * topology.cache.ways,
                  topology.breakeven_cycles, topology.gate_cycles(),
                  topology.latency),
        decoder_(topology.cache, topology.partition,
                 make_indexing_policy(topology.indexing,
                                      topology.partition.num_banks,
                                      topology.indexing_seed)),
        ways_(topology.cache.ways) {}

  // ---- component access ----
  const BankDecoder& decoder() const { return decoder_; }
  std::uint64_t ways() const { return ways_; }

 private:
  friend class LeafCache<WayGrainCache>;

  /// The banked decode; the way is only known once the tag store has
  /// served the access (the hitting way, or the LRU victim), so unit_of
  /// finishes the attribution.  A probe miss touches no way: CacheModel
  /// reports way 0, so its cost lands on the set's first way-column.
  LeafIndex decode(std::uint64_t address) const {
    const CacheConfig& cc = cache_.config();
    const std::uint64_t tag = cc.tag_of(address);  // see BankedCache
    const DecodedIndex d = decoder_.decode(cc.set_index_of(address));
    return {tag, d.physical_set, d.logical_bank, d.physical_bank};
  }
  std::uint64_t unit_of(std::uint64_t bank, std::uint64_t way) const {
    return bank * ways_ + way;
  }
  void remap() { decoder_.update(); }

  BankDecoder decoder_;
  std::uint64_t ways_;
};

}  // namespace pcal
