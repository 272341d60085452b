#include "core/hierarchy.h"

#include <sstream>

#include "core/enum_strings.h"
#include "util/error.h"

namespace pcal {

void HierarchyConfig::validate() const {
  PCAL_CONFIG_CHECK(!levels.empty(), "hierarchy needs at least one level");
  for (const LevelConfig& level : levels) {
    PCAL_CONFIG_CHECK(level.enabled(),
                      "hierarchy level has zero size (drop disabled levels "
                      "before building the hierarchy)");
    level.topology.validate();
  }
}

std::string HierarchyConfig::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) {
      os << " | L" << (i + 1);
      if (levels[i].inclusion != InclusionPolicy::kNonInclusive)
        os << "/" << to_string(levels[i].inclusion);
      os << " ";
    }
    os << levels[i].topology.describe();
  }
  return os.str();
}

std::vector<bool> update_flush_plan(const std::vector<LevelConfig>& chain) {
  std::vector<bool> flush(chain.size(), false);
  for (std::size_t i = 0; i < chain.size(); ++i)
    flush[i] = chain[i].topology.rotates();
  for (std::size_t i = chain.size(); i-- > 1;)
    if (flush[i] && chain[i].inclusion == InclusionPolicy::kInclusive)
      flush[i - 1] = true;
  return flush;
}

HierarchicalCache::HierarchicalCache(const HierarchyConfig& config) {
  config.validate();
  const std::vector<bool> flush = update_flush_plan(config.levels);
  levels_.reserve(config.levels.size());
  for (std::size_t i = 0; i < config.levels.size(); ++i) {
    const LevelConfig& lc = config.levels[i];
    Level level;
    level.cache = make_managed_cache(lc.topology);
    level.inclusion = lc.inclusion;
    level.flush = flush[i];
    level.unit_offset = total_units_;
    total_units_ += level.cache->num_units();
    levels_.push_back(std::move(level));
  }
  routing_.reserve(levels_.size());
  for (Level& level : levels_)
    routing_.push_back({level.cache.get(), level.inclusion});
}

AccessOutcome route_access(RoutedLevel* levels, std::size_t num_levels,
                           std::uint64_t address, bool is_write) {
  AccessOutcome top = levels[0].cache->access(address, is_write);
  std::uint64_t stall = top.stall_cycles;
  top.num_events = 0;
  top.add_event(0, top.hit, top.writeback, top.physical_unit, address);

  // Route one event per level down the hierarchy; once a level is not
  // referenced (its policy has nothing for it this cycle), it and every
  // level below idle the cycle away.
  AccessOutcome cur = top;
  std::uint64_t cur_address = address;
  bool active = true;
  for (std::size_t i = 1; i < num_levels; ++i) {
    RoutedLevel& level = levels[i];
    if (active) {
      bool referenced = false;
      std::uint64_t event_address = 0;
      bool event_write = false;
      switch (level.inclusion) {
        case InclusionPolicy::kNonInclusive:
        case InclusionPolicy::kInclusive:
          // The upper miss stream: the fill, with a dirty upper victim
          // folded in as a write (single-port approximation).
          if (!cur.hit) {
            referenced = true;
            event_address = cur_address;
            event_write = cur.writeback;
          }
          break;
        case InclusionPolicy::kExclusive:
          if (!cur.hit) {
            referenced = true;
            if (cur.evicted) {
              event_address = cur.victim_address;  // the victim moves down
              event_write = cur.writeback;
            } else {
              // Victimless (cold) miss: a non-allocating probe — the
              // missed line fills the level above, never this one, so
              // exclusivity survives post-flush refill bursts.
              cur = level.cache->probe(cur_address);
              stall += cur.stall_cycles;
              top.add_event(static_cast<std::uint8_t>(i), cur.hit,
                            cur.writeback, cur.physical_unit, cur_address);
              continue;
            }
          }
          break;
        case InclusionPolicy::kVictim:
          if (!cur.hit && cur.evicted) {
            referenced = true;
            event_address = cur.victim_address;
            event_write = cur.writeback;
          }
          break;
      }
      if (referenced) {
        cur = level.cache->access(event_address, event_write);
        cur_address = event_address;
        stall += cur.stall_cycles;
        top.add_event(static_cast<std::uint8_t>(i), cur.hit, cur.writeback,
                      cur.physical_unit, event_address);
        // Inclusive back-invalidation at line granularity: a victim
        // leaving an inclusive level may still be resident above, where
        // its frame must be dropped to keep the subset property.  A pure
        // tag-store operation on the whole upper stack (a dirty upper
        // copy is dropped without a writeback — the documented
        // approximation; the upper levels' line containing the victim's
        // base address is invalidated when line sizes differ).
        if (level.inclusion == InclusionPolicy::kInclusive && cur.evicted)
          for (std::size_t j = 0; j < i; ++j)
            levels[j].cache->invalidate_line(cur.victim_address);
        continue;
      }
      active = false;
    }
    level.cache->advance_idle(1);
  }

  top.stall_cycles = stall;
  return top;
}

AccessOutcome HierarchicalCache::do_access(std::uint64_t address,
                                           bool is_write) {
  return route_access(routing_.data(), routing_.size(), address, is_write);
}

AccessOutcome HierarchicalCache::do_probe(std::uint64_t address) {
  // A probe of the hierarchy probes the CPU-facing level only; the
  // levels below idle the cycle (nothing propagates — a probe neither
  // fills nor evicts).
  AccessOutcome out = levels_.front().cache->probe(address);
  for (std::size_t i = 1; i < levels_.size(); ++i)
    levels_[i].cache->advance_idle(1);
  return out;
}

std::uint64_t HierarchicalCache::update_indexing() {
  std::uint64_t dirty = 0;
  for (Level& level : levels_)
    if (level.flush) dirty += level.cache->update_indexing();
  ++updates_;
  return dirty;
}

void HierarchicalCache::advance_idle(std::uint64_t cycles) {
  for (Level& level : levels_) level.cache->advance_idle(cycles);
}

void HierarchicalCache::finish() {
  for (Level& level : levels_) level.cache->finish();
}

const HierarchicalCache::Level& HierarchicalCache::level_of_unit(
    std::uint64_t unit, std::uint64_t* local) const {
  PCAL_ASSERT_MSG(unit < total_units_, "unit out of range");
  for (std::size_t i = levels_.size(); i-- > 0;) {
    if (unit >= levels_[i].unit_offset) {
      *local = unit - levels_[i].unit_offset;
      return levels_[i];
    }
  }
  *local = unit;
  return levels_.front();
}

double HierarchicalCache::unit_residency(std::uint64_t unit) const {
  std::uint64_t local = 0;
  const Level& level = level_of_unit(unit, &local);
  return level.cache->unit_residency(local);
}

UnitActivity HierarchicalCache::unit_activity(std::uint64_t unit) const {
  std::uint64_t local = 0;
  const Level& level = level_of_unit(unit, &local);
  return level.cache->unit_activity(local);
}

const IntervalAccumulator& HierarchicalCache::unit_intervals(
    std::uint64_t unit) const {
  std::uint64_t local = 0;
  const Level& level = level_of_unit(unit, &local);
  return level.cache->unit_intervals(local);
}

UnitPowerState HierarchicalCache::unit_state(std::uint64_t unit) const {
  std::uint64_t local = 0;
  const Level& level = level_of_unit(unit, &local);
  return level.cache->unit_state(local);
}

}  // namespace pcal
