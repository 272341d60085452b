#include "core/managed_cache.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "bank/banked_cache.h"
#include "bank/line_managed_cache.h"
#include "bank/way_grain_cache.h"
#include "core/drowsy_cache.h"
#include "core/enum_strings.h"
#include "core/monolithic_cache.h"
#include "util/error.h"

namespace pcal {

std::uint64_t CacheTopology::num_units() const {
  switch (granularity) {
    case Granularity::kMonolithic: return 1;
    case Granularity::kBank: return partition.num_banks;
    case Granularity::kLine: return cache.num_sets();
    case Granularity::kWay: return partition.num_banks * cache.ways;
  }
  return 1;
}

void CacheTopology::validate() const {
  cache.validate();
  if (granularity == Granularity::kBank || granularity == Granularity::kWay)
    partition.validate(cache);
  PCAL_CONFIG_CHECK(breakeven_cycles > 0, "breakeven time must be positive");
  contention.validate();
  // No cycle parameter may exceed 2^32, so no run the driver serves can
  // wrap the 64-bit clock before its 2^63 check sees it.
  const std::uint64_t bpc = contention.bytes_per_cycle;
  const std::uint64_t transfer =
      bpc == 0 ? 0 : cache.line_bytes / bpc + (cache.line_bytes % bpc != 0);
  const std::pair<const char*, std::uint64_t> cycle_params[] = {
      {"hit latency", latency.hit_cycles},
      {"miss latency", latency.miss_cycles},
      {"drowsy wake latency", latency.drowsy_wake_cycles},
      {"gated wake latency", latency.gated_wake_cycles},
      {"mshr_latency", contention.mshr_latency_cycles},
      {"port_cycles", contention.port_cycles},
      {"line transfer", transfer},
      {"breakeven", breakeven_cycles},
      {"drowsy window", drowsy_window_cycles}};
  for (const auto& [name, cycles] : cycle_params)
    PCAL_CONFIG_CHECK(cycles <= kMaxLevelCycles,
                      name << " = " << cycles << " exceeds 2^32 cycles");
}

std::string CacheTopology::describe() const {
  std::ostringstream os;
  os << cache.describe() << " ";
  switch (granularity) {
    case Granularity::kMonolithic:
      os << "M=1";
      break;
    case Granularity::kBank:
      os << "M=" << partition.num_banks;
      break;
    case Granularity::kLine:
      os << "line-grain";
      break;
    case Granularity::kWay:
      os << "M=" << partition.num_banks << " way-grain";
      break;
  }
  os << " " << to_string(indexing);
  if (drowsy_active()) os << " drowsy+" << drowsy_window_cycles;
  // Timed levels carry their latency point; untimed labels are unchanged
  // (the zero-latency degeneracy extends to config labels).
  if (!latency.zero()) os << " lat=" << latency.describe();
  // Same rule for contention: an all-unlimited level's label is unchanged
  // (the contention-off degeneracy extends to config labels).
  if (contention.enabled()) os << " cont=" << contention.describe();
  return os.str();
}

double ManagedCache::avg_residency() const {
  const std::uint64_t n = num_units();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) sum += unit_residency(i);
  return sum / static_cast<double>(n);
}

double ManagedCache::min_residency() const {
  const std::uint64_t n = num_units();
  if (n == 0) return 0.0;
  double lo = unit_residency(0);
  for (std::uint64_t i = 1; i < n; ++i)
    lo = std::min(lo, unit_residency(i));
  return lo;
}

namespace {

std::unique_ptr<ManagedCache> make_gated_backend(
    const CacheTopology& topology) {
  switch (topology.granularity) {
    case Granularity::kMonolithic:
      return std::make_unique<MonolithicCache>(topology);
    case Granularity::kBank: {
      BankedCacheConfig bc;
      bc.cache = topology.cache;
      bc.partition = topology.partition;
      bc.indexing = topology.indexing;
      bc.indexing_seed = topology.indexing_seed;
      bc.breakeven_cycles = topology.breakeven_cycles;
      bc.gate_cycles = topology.gate_cycles();
      bc.latency = topology.latency;
      return std::make_unique<BankedCache>(bc);
    }
    case Granularity::kLine: {
      LineManagedConfig lc;
      lc.cache = topology.cache;
      lc.indexing = topology.indexing;
      lc.indexing_seed = topology.indexing_seed;
      lc.breakeven_cycles = topology.breakeven_cycles;
      lc.gate_cycles = topology.gate_cycles();
      lc.latency = topology.latency;
      return std::make_unique<LineManagedCache>(lc);
    }
    case Granularity::kWay:
      return std::make_unique<WayGrainCache>(topology);
  }
  throw ConfigError("unknown granularity");
}

}  // namespace

std::unique_ptr<ManagedCache> make_managed_cache(
    const CacheTopology& topology) {
  topology.validate();
  std::unique_ptr<ManagedCache> base = make_gated_backend(topology);
  // A zero drowsy window normalizes to the bare gated backend, so
  // "window disabled == state-destructive backend" holds bit for bit.
  if (topology.drowsy_active())
    return std::make_unique<DrowsyHybridCache>(
        std::move(base), topology.breakeven_cycles, topology.gate_cycles());
  return base;
}

}  // namespace pcal
