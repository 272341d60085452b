#include "bank/line_managed_cache.h"

#include <algorithm>

namespace pcal {
namespace {

const LineManagedConfig& validated(const LineManagedConfig& config) {
  config.validate();
  return config;
}

}  // namespace

LineManagedCache::LineManagedCache(const LineManagedConfig& config)
    : LeafCache(validated(config).cache, config.cache.num_sets(),
                config.breakeven_cycles,
                config.gate_cycles != 0 ? config.gate_cycles
                                        : config.breakeven_cycles,
                config.latency),
      config_(config),
      num_sets_(config.cache.num_sets()) {
  if (config_.indexing == IndexingKind::kScrambling) {
    const unsigned width =
        std::min(24u, config_.cache.index_bits() + 8u);
    lfsr_ = std::make_unique<GaloisLfsr>(width, config_.indexing_seed);
  }
}

void LineManagedCache::remap() {
  switch (config_.indexing) {
    case IndexingKind::kStatic:
      break;
    case IndexingKind::kProbing:
      rotation_ = (rotation_ + 1) & (num_sets_ - 1);
      break;
    case IndexingKind::kScrambling:
      xor_pattern_ = lfsr_->step() & (num_sets_ - 1);
      break;
  }
}

}  // namespace pcal
