#include "bank/banked_cache.h"

namespace pcal {
namespace {

const BankedCacheConfig& validated(const BankedCacheConfig& config) {
  config.validate();
  return config;
}

}  // namespace

BankedCache::BankedCache(const BankedCacheConfig& config)
    : LeafCache(validated(config).cache, config.partition.num_banks,
                config.breakeven_cycles,
                config.gate_cycles != 0 ? config.gate_cycles
                                        : config.breakeven_cycles,
                config.latency),
      config_(config),
      decoder_(config.cache, config.partition,
               make_indexing_policy(config.indexing,
                                    config.partition.num_banks,
                                    config.indexing_seed)) {}

}  // namespace pcal
