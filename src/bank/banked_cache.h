// The M-block uniformly partitioned cache (paper Fig. 1 + Fig. 2).
//
// Composition of the standard pieces: a behavioural cache (tag store), the
// bank decoder with its time-varying indexing f(), and Block Control
// idleness tracking.  One access is consumed per cycle.  Firing
// update_indexing() advances f() and flushes the cache, exactly as the
// paper requires ("every time the indexing is updated the entire cache
// content becomes unusable and a cache flush is required") — in deployment
// the update piggybacks on flushes that happen anyway (context switches).
#pragma once

#include <cstdint>

#include "bank/decoder.h"
#include "core/leaf_cache.h"

namespace pcal {

struct BankedCacheConfig {
  CacheConfig cache;
  PartitionConfig partition;
  IndexingKind indexing = IndexingKind::kProbing;
  std::uint64_t indexing_seed = 1;
  /// Idle cycles before a bank enters the drowsy state.  Normally computed
  /// from the power model (power::breakeven_cycles); a plain number here
  /// keeps src/bank independent of src/power.
  std::uint64_t breakeven_cycles = 32;
  /// Idle cycles past which a sleeping bank has power-gated (wakeups from
  /// deeper sleep stall longer).  0 means "== breakeven_cycles": every
  /// wakeup is a gated wakeup, the pure-gated-policy semantics.
  std::uint64_t gate_cycles = 0;
  /// Event costs in stall cycles (all-zero = the idealized clock).
  LatencyParams latency;

  void validate() const {
    cache.validate();
    partition.validate(cache);
  }
};

class BankedCache final : public LeafCache<BankedCache> {
 public:
  explicit BankedCache(const BankedCacheConfig& config);

  // ---- component access ----
  const BankedCacheConfig& config() const { return config_; }
  const BankDecoder& decoder() const { return decoder_; }
  const IndexingPolicy& policy() const { return decoder_.policy(); }

 private:
  friend class LeafCache<BankedCache>;

  /// p-MSB bank select through the time-varying f(); units are banks.
  /// The tag is taken before the out-of-line decoder call, which lets
  /// the compiler share the geometry arithmetic with set_index_of.
  LeafIndex decode(std::uint64_t address) const {
    const std::uint64_t tag = config_.cache.tag_of(address);
    const DecodedIndex d =
        decoder_.decode(config_.cache.set_index_of(address));
    return {tag, d.physical_set, d.logical_bank, d.physical_bank};
  }
  void remap() { decoder_.update(); }

  BankedCacheConfig config_;
  BankDecoder decoder_;
};

}  // namespace pcal
