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

namespace {

/// Routes one access on below level 0, given level 0's outcome `top`
/// for it (its level 0 event already recorded): one event per level
/// down the chain, and top.stall_cycles becomes the sum over every level
/// actually referenced.  `top` is updated in place — copying the
/// outcome per routed access costs the contention runs measurably.
void route_below(RoutedLevel* levels, std::size_t num_levels,
                 AccessOutcome& top, std::uint64_t address) {
  // The upper neighbour's streams: level 0's, then each referenced
  // level's in turn.  Once a level is not referenced (its policy has
  // nothing for it this cycle), it and every level below idle the cycle
  // away.
  bool hit = top.hit;
  bool writeback = top.writeback;
  bool evicted = top.evicted;
  std::uint64_t victim = top.victim_address;
  std::uint64_t cur_address = address;
  std::uint64_t stall = top.stall_cycles;
  const auto consume = [&](std::size_t i, const AccessOutcome& o,
                           std::uint64_t at) {
    hit = o.hit;
    writeback = o.writeback;
    evicted = o.evicted;
    victim = o.victim_address;
    stall += o.stall_cycles;
    top.add_event(static_cast<std::uint8_t>(i), o.hit, o.writeback,
                  o.physical_unit, at);
  };
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
          if (!hit) {
            referenced = true;
            event_address = cur_address;
            event_write = writeback;
          }
          break;
        case InclusionPolicy::kExclusive:
          if (!hit) {
            referenced = true;
            if (evicted) {
              event_address = victim;  // the victim moves down
              event_write = writeback;
            } else {
              // Victimless (cold) miss: a non-allocating probe — the
              // missed line fills the level above, never this one, so
              // exclusivity survives post-flush refill bursts.
              consume(i, level.cache->probe(cur_address), cur_address);
              continue;
            }
          }
          break;
        case InclusionPolicy::kVictim:
          if (!hit && evicted) {
            referenced = true;
            event_address = victim;
            event_write = writeback;
          }
          break;
      }
      if (referenced) {
        consume(i, level.cache->access(event_address, event_write),
                event_address);
        cur_address = event_address;
        // Inclusive back-invalidation at line granularity: a victim
        // leaving an inclusive level may still be resident above, where
        // its frame must be dropped to keep the subset property.  A pure
        // tag-store operation on the whole upper stack (a dirty upper
        // copy is dropped without a writeback — the documented
        // approximation; the upper levels' line containing the victim's
        // base address is invalidated when line sizes differ).
        if (level.inclusion == InclusionPolicy::kInclusive && evicted)
          for (std::size_t j = 0; j < i; ++j)
            levels[j].cache->invalidate_line(victim);
        continue;
      }
      active = false;
    }
    level.cache->advance_idle(1);
  }
  top.stall_cycles = stall;
}

}  // namespace

AccessOutcome route_access(RoutedLevel* levels, std::size_t num_levels,
                           std::uint64_t address, bool is_write) {
  AccessOutcome top = levels[0].cache->access(address, is_write);
  top.num_events = 0;
  top.add_event(0, top.hit, top.writeback, top.physical_unit, address);
  route_below(levels, num_levels, top, address);
  return top;
}

std::uint64_t route_run(RoutedLevel* levels, std::size_t num_levels,
                        const MemAccess* accesses, std::size_t n,
                        AccessOutcome* out, std::size_t out_stride,
                        const RouteReplay& replay, bool replay_hits) {
  ManagedCache& l1 = *levels[0].cache;
  std::uint64_t cycles = 0;  // consumed so far: one per access + stalls
  std::uint64_t owed = 0;    // of those, what the levels below L1 lack
  const auto catch_up = [&] {
    if (owed == 0) return;
    for (std::size_t l = 1; l < num_levels; ++l)
      levels[l].cache->advance_idle(owed);
    owed = 0;
  };
  std::size_t i = 0;
  while (i < n) {
    AccessOutcome* const slot = out + i * out_stride;
    const HitRun run = l1.access_until_miss(
        accesses + i, replay_hits ? 1 : n - i, slot, out_stride);
    AccessOutcome& last = slot[(run.served - 1) * out_stride];
    const bool missed = !last.hit;
    const std::uint64_t hit_cycles =
        run.served - (missed ? 1 : 0) + run.hit_stalls;
    cycles += hit_cycles;
    owed += hit_cycles;
    i += run.served;
    if (!missed && !replay_hits) continue;

    // `last` is a miss, or a hit under per-access replay.  A miss is
    // routed on below once the levels there have caught up; its stall
    // is still owed to every level.
    std::uint64_t stall = 0;
    if (missed) {
      catch_up();
      route_below(levels, num_levels, last, accesses[i - 1].address);
      stall = last.stall_cycles;
      cycles += 1;
    }
    // The access's events sit at its issue cycle plus its latency stall.
    if (replay) stall += replay(last, cycles - 1 + stall);
    if (stall != 0) l1.advance_idle(stall);
    cycles += stall;
    owed += stall;
  }
  catch_up();
  return cycles - n;
}

AccessOutcome HierarchicalCache::do_access(std::uint64_t address,
                                           bool is_write) {
  return route_access(routing_.data(), routing_.size(), address, is_write);
}

std::uint64_t HierarchicalCache::do_access_batch(const MemAccess* accesses,
                                                 std::size_t n,
                                                 AccessOutcome* out) {
  return route_run(routing_.data(), routing_.size(), accesses, n,
                   out ? out : &scratch_, out ? 1 : 0);
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
