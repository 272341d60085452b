#include "core/simulator.h"

#include <algorithm>

#include "core/multicore.h"
#include "util/error.h"

namespace pcal {
namespace {

/// The L1 partition.  A monolithic cache is one bank of the full size
/// regardless of what `partition` says (it is ignored at that
/// granularity).
PartitionConfig effective_partition(const SimConfig& config) {
  if (config.granularity == Granularity::kMonolithic) {
    PartitionConfig mono;
    mono.num_banks = 1;
    return mono;
  }
  return config.partition;
}

}  // namespace

std::vector<LevelConfig> SimConfig::enabled_lower_levels() const {
  std::vector<LevelConfig> enabled;
  for (const LevelConfig& level : lower_levels)
    if (level.enabled()) enabled.push_back(level);
  return enabled;
}

LevelConfig SimConfig::make_level(std::uint64_t size_bytes) const {
  LevelConfig level;
  CacheTopology& topo = level.topology;
  topo.granularity = Granularity::kBank;
  topo.cache = cache;
  topo.cache.size_bytes = size_bytes;
  topo.partition.num_banks = 4;
  topo.indexing = IndexingKind::kStatic;
  // Depth-offset seed: stacked levels must never share rotation phase.
  topo.indexing_seed = indexing_seed + lower_levels.size() + 1;
  topo.breakeven_cycles = 64;
  return level;
}

void SimConfig::validate() const {
  // The L1 topology: geometry, the partition where the backend reads it
  // (kBank/kWay; monolithic and line-grain runs never consult it),
  // contention and the bounds on every cycle parameter.
  topology(std::max<std::uint64_t>(breakeven_override, 1)).validate();
  energy_params.validate();
  for (const LevelConfig& level : lower_levels)
    if (level.enabled()) level.topology.validate();
}

CacheTopology SimConfig::topology(std::uint64_t breakeven_cycles) const {
  CacheTopology topo;
  topo.granularity = granularity;
  topo.cache = cache;
  topo.partition = effective_partition(*this);
  topo.indexing = indexing;
  topo.indexing_seed = indexing_seed;
  topo.breakeven_cycles = breakeven_cycles;
  topo.policy = policy;
  topo.drowsy_window_cycles = drowsy_window_cycles;
  topo.latency = latency;
  topo.contention = contention;
  return topo;
}

double SimResult::avg_residency() const {
  if (units.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& u : units) sum += u.sleep_residency;
  return sum / static_cast<double>(units.size());
}

double SimResult::min_residency() const {
  if (units.empty()) return 0.0;
  double lo = units.front().sleep_residency;
  for (const auto& u : units) lo = std::min(lo, u.sleep_residency);
  return lo;
}

double SimResult::drowsy_residency() const {
  if (units.empty() || total_cycles == 0) return 0.0;
  double drowsy = 0.0;
  for (const auto& u : units)
    drowsy += static_cast<double>(u.drowsy_cycles);
  return drowsy / (static_cast<double>(total_cycles) *
                   static_cast<double>(units.size()));
}

Simulator::Simulator(SimConfig config) : config_(std::move(config)) {
  config_.validate();
}

std::uint64_t Simulator::breakeven_cycles() const {
  if (config_.breakeven_override != 0) return config_.breakeven_override;
  // Monolithic and bank units count with the paper's Block Control
  // counter; way and line units with the run's own sleep hardware.
  const bool paper_counter = config_.granularity == Granularity::kMonolithic ||
                             config_.granularity == Granularity::kBank;
  const UnitEnergyModel model(
      paper_counter ? EnergyParams::paper() : config_.energy_params,
      config_.tech, config_.topology(/*breakeven=*/1));
  return std::max<std::uint64_t>(1, model.gate_breakeven_cycles());
}

SimResult Simulator::run(TraceSource& source, const AgingLut* lut,
                         const IntervalObserver& observer) const {
  // One core whose private stack is every level; no shared level.
  LevelConfig no_shared_level;
  no_shared_level.topology.cache.size_bytes = 0;
  const MultiCoreSystem system(make_multicore(config_, 1, no_shared_level));
  return system.run({&source}, lut, observer, config_.batch_size).system;
}

SimConfig monolithic_variant(const SimConfig& config) {
  SimConfig mono = config;
  mono.granularity = Granularity::kMonolithic;
  mono.partition.num_banks = 1;
  mono.indexing = IndexingKind::kStatic;
  mono.reindex_updates = 0;
  return mono;
}

SimConfig static_variant(const SimConfig& config) {
  SimConfig st = config;
  st.indexing = IndexingKind::kStatic;
  st.reindex_updates = 0;
  return st;
}

SimConfig line_grain_variant(const SimConfig& config) {
  SimConfig line = config;
  line.granularity = Granularity::kLine;
  // Per-line transition energy is tiny, so the breakeven is a property of
  // the line-level sleep hardware, not of the bank energy model; 28 is the
  // reference [7] operating point (LineManagedConfig's default).
  if (line.breakeven_override == 0) line.breakeven_override = 28;
  return line;
}

SimConfig way_grain_variant(const SimConfig& config) {
  SimConfig way = config;
  way.granularity = Granularity::kWay;
  return way;
}

SimConfig drowsy_hybrid_variant(const SimConfig& config,
                                std::uint64_t window_cycles) {
  SimConfig drowsy = config;
  drowsy.policy = PowerPolicy::kDrowsyHybrid;
  drowsy.drowsy_window_cycles = window_cycles;
  return drowsy;
}

SimConfig two_level_variant(const SimConfig& config,
                            std::uint64_t l2_size_bytes,
                            std::uint64_t l2_banks,
                            std::uint64_t l2_breakeven) {
  SimConfig two = config;
  two.lower_levels.clear();
  return with_lower_level(two, l2_size_bytes, l2_banks, l2_breakeven,
                          InclusionPolicy::kNonInclusive);
}

SimConfig with_lower_level(const SimConfig& config,
                           std::uint64_t size_bytes, std::uint64_t banks,
                           std::uint64_t breakeven,
                           InclusionPolicy inclusion) {
  SimConfig out = config;
  LevelConfig level = config.make_level(size_bytes);
  level.inclusion = inclusion;
  level.topology.partition.num_banks = banks;
  level.topology.indexing = config.indexing;
  level.topology.breakeven_cycles = breakeven;
  out.lower_levels.push_back(level);
  return out;
}

}  // namespace pcal
