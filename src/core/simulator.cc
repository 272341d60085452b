#include "core/simulator.h"

#include <algorithm>
#include <cstddef>

#include "core/contention.h"
#include "core/hierarchy.h"
#include "util/error.h"

namespace pcal {
namespace {

/// Ceiling on SimConfig::batch_size: caps the driver's per-batch staging
/// buffers (MemAccess + AccessOutcome) at a few MB.
constexpr std::uint64_t kMaxDriverBatch = 1 << 16;

/// Observer cadence for runs with no re-indexing updates (static /
/// monolithic configs still stream interval stats).
constexpr std::uint64_t kDefaultObserverIntervals = 16;

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
  cache.validate();
  // The partition feeds the backend at kBank/kWay only.  Monolithic and
  // line-grain runs never consult it (the per-unit energy model that
  // derives the kLine breakeven substitutes M = 1).
  if (granularity == Granularity::kBank ||
      granularity == Granularity::kWay)
    partition.validate(cache);
  energy_params.validate();
  contention.validate();
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
  const CacheTopology topo = config_.topology(breakeven_cycles());
  // The hierarchy description: L1 first, then every enabled lower level.
  // A single level skips the HierarchicalCache wrapper entirely (the
  // 1-level degeneracy the parity tests pin holds either way).
  HierarchyConfig hconfig;
  hconfig.levels.push_back({topo, InclusionPolicy::kNonInclusive});
  for (const LevelConfig& level : config_.enabled_lower_levels())
    hconfig.levels.push_back(level);
  const bool hierarchy = hconfig.levels.size() > 1;
  std::unique_ptr<ManagedCache> cache;
  const HierarchicalCache* hier = nullptr;
  if (hierarchy) {
    auto h = std::make_unique<HierarchicalCache>(hconfig);
    hier = h.get();
    cache = std::move(h);
  } else {
    cache = make_managed_cache(topo);
  }

  // Spread the requested updates evenly: fire after every `interval`
  // accesses.  Static indexing never rotates, so skip the (pointless)
  // flushes there — the conventional cache does not flush for aging — and
  // a single unit has nothing to rotate over.
  source.reset();
  const auto hint = source.size_hint();
  // A hierarchy rotates if any level does (HierarchicalCache applies the
  // same CacheTopology::rotates() rule per level when forwarding the
  // update signal, so e.g. a monolithic L1 is never flushed just because
  // a rotating L2 sits behind it).
  bool any_rotates = false;
  for (const LevelConfig& level : hconfig.levels)
    any_rotates = any_rotates || level.topology.rotates();
  const bool updates_enabled = any_rotates && config_.reindex_updates > 0;
  std::uint64_t update_interval = 0;
  if (updates_enabled && hint && *hint > config_.reindex_updates)
    update_interval = *hint / (config_.reindex_updates + 1);
  // Context-switch alignment (the paper's zero-overhead piggybacking): a
  // source with a natural boundary — a multiprogrammed stream's quantum —
  // gets the update interval rounded down to a whole number of quanta,
  // so every flush lands exactly on a context switch that flushes
  // anyway.  Quanta longer than the interval cannot be aligned to
  // without starving the update budget; those stay on the even spread.
  const auto quantum = source.boundary_hint();
  if (update_interval != 0 && quantum && *quantum > 0 &&
      update_interval >= *quantum)
    update_interval -= update_interval % *quantum;
  std::uint64_t interval = update_interval;
  if (interval == 0 && observer && hint)
    interval = std::max<std::uint64_t>(1, *hint / kDefaultObserverIntervals);

  // The latency-aware clock: every access consumes its base cycle inside
  // the backend; its reported stall stretches the global clock with no
  // access consumed (all units idle — see core/timing.h).  With all-zero
  // latencies no stall ever occurs and the loop is the idealized engine.
  //
  // Finite-resource contention rides the same clock: each access's
  // per-level event trace replays through the ContentionModel at the
  // access's position on the stretched clock, and any extra stall it
  // charges (no free MSHR / port / bandwidth slot) is folded into the
  // stall that stretches the clock — so residencies, leakage pricing and
  // the total == accesses + stalls invariant all see one consistent
  // timeline.  With all-unlimited params the model is disabled and
  // charges nothing.
  std::vector<ContentionLevelShape> shapes;
  shapes.reserve(hconfig.levels.size());
  for (const LevelConfig& level : hconfig.levels)
    shapes.push_back(contention_shape_of(level.topology));
  ContentionModel contention(std::move(shapes));

  // Snapshot buffers, reused across boundaries (observers must copy what
  // they keep — see IntervalSnapshot).  The group table is one row per
  // hierarchy level; the census re-reads every unit's state per boundary.
  std::vector<UnitGroupStates> snap_groups;
  std::vector<UnitPowerState> snap_states;
  const auto fill_unit_states = [&](IntervalSnapshot& snap) {
    const std::uint64_t n = cache->num_units();
    snap_states.resize(n);
    snap_groups.clear();
    const std::size_t levels = hierarchy ? hier->num_levels() : 1;
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i < levels; ++i) {
      UnitGroupStates g;
      g.core = -1;
      g.level = i;
      g.first_unit = offset;
      g.units = hierarchy ? hier->level_units(i) : n;
      g.stats = hierarchy ? hier->level_stats(i) : cache->stats();
      for (std::uint64_t u = 0; u < g.units; ++u) {
        const UnitPowerState s = cache->unit_state(offset + u);
        snap_states[offset + u] = s;
        if (s == UnitPowerState::kAwake)
          ++g.awake;
        else if (s == UnitPowerState::kDrowsy)
          ++g.drowsy;
        else
          ++g.gated;
      }
      offset += g.units;
      snap_groups.push_back(g);
    }
    snap.groups = &snap_groups;
    snap.unit_states = &snap_states;
  };

  TimingModel timing;
  std::uint64_t since_boundary = 0;
  std::uint64_t boundary_index = 0;

  // Everything that happens at an update/observer boundary: fire the
  // re-indexing update while budget remains, then hand the observer its
  // snapshot.
  const auto on_boundary = [&]() {
    since_boundary = 0;
    ++boundary_index;
    bool fired = false;
    if (update_interval != 0 &&
        cache->indexing_updates() < config_.reindex_updates) {
      cache->update_indexing();
      fired = true;
    }
    if (observer) {
      IntervalSnapshot snap;
      snap.interval = boundary_index;
      snap.cycles = cache->cycles();
      snap.updates_applied = cache->indexing_updates();
      snap.fired_update = fired;
      snap.context_switch = quantum && *quantum > 0 &&
                            timing.accesses() % *quantum == 0;
      snap.accesses = timing.accesses();
      snap.stall_cycles = timing.stall_cycles();
      snap.stats = &cache->stats();
      snap.cache = cache.get();
      fill_unit_states(snap);
      observer(snap);
    }
  };

  // One loop: whole runs of accesses go to the backend's batch entry
  // point, split exactly at boundaries so updates and snapshots land on
  // the same access positions at every batch size (the clock-agreement
  // assert below and tests/batched_access_test.cc pin it).  Contention
  // runs hand over one access at a time: the backend has already applied
  // that access's latency stall to its clock, its level events then
  // replay through the resource model at their position on the
  // stretched clock — latency stalls land before resource arbitration
  // (the fill is in flight while the core stalls), and each event sees
  // the stalls charged so far — and the resource stall advances every
  // unit's clock on top.
  const std::size_t batch_size = static_cast<std::size_t>(
      std::min<std::uint64_t>(std::max<std::uint64_t>(config_.batch_size, 1),
                              kMaxDriverBatch));
  const std::size_t max_take = contention.enabled() ? 1 : batch_size;
  std::vector<MemAccess> buf(batch_size);
  // Only contention reads outcomes; every other run asks for stalls only.
  std::vector<AccessOutcome> outs(contention.enabled() ? 1 : 0);
  AccessOutcome* const out = outs.empty() ? nullptr : outs.data();
  for (;;) {
    const std::size_t n = source.next_batch(buf.data(), batch_size);
    if (n == 0) break;
    std::size_t pos = 0;
    while (pos < n) {
      std::size_t take = std::min(n - pos, max_take);
      if (interval != 0)
        take = std::min<std::uint64_t>(take, interval - since_boundary);
      std::uint64_t stalls =
          cache->access_batch(buf.data() + pos, take, out);
      if (contention.enabled()) {
        const std::uint64_t now = timing.total_cycles();
        std::uint64_t extra = 0;
        for (std::uint8_t e = 0; e < outs[0].num_events; ++e) {
          const LevelEvent& le = outs[0].events[e];
          ContentionEvent ev;
          ev.level = le.level;
          ev.unit = le.unit;
          ev.address = le.address;
          ev.miss = !le.hit;
          ev.writeback = le.writeback;
          extra += contention.on_event(ev, now + stalls + extra).total();
        }
        if (extra != 0) cache->advance_idle(extra);
        stalls += extra;
      }
      timing.on_batch(take, stalls);
      pos += take;
      since_boundary += take;
      if (interval != 0 && since_boundary >= interval) on_boundary();
    }
  }
  cache->finish();

  // One clock: the driver's stall accounting and the backend's cycle
  // counter must agree (total = accesses + stalls is a CI-gated record
  // invariant; a new non-access clock advance would break it here, next
  // to its cause, rather than in the bench-JSON gate).
  const std::uint64_t cycles = timing.total_cycles();
  PCAL_ASSERT_MSG(cycles == cache->cycles(),
                  "driver clock " << cycles << " != backend clock "
                                  << cache->cycles());
  const std::uint64_t num_units = cache->num_units();

  SimResult r;
  r.workload = source.name();
  r.config_label = hierarchy ? hconfig.describe() : topo.describe();
  r.granularity = config_.granularity;
  r.policy = config_.policy;
  r.accesses = timing.accesses();
  r.total_cycles = cycles;
  r.stall_cycles = timing.stall_cycles();
  r.mshr_stall_cycles = contention.totals().mshr;
  r.port_stall_cycles = contention.totals().port;
  r.bw_stall_cycles = contention.totals().bw;
  r.breakeven_cycles = topo.breakeven_cycles;
  r.reindex_updates_applied = cache->indexing_updates();
  r.cache_stats = cache->stats();
  if (hierarchy) {
    for (std::size_t i = 0; i < hier->num_levels(); ++i) {
      r.level_stats.push_back(hier->level_stats(i));
      r.level_units.push_back(hier->level_units(i));
    }
  } else {
    r.level_stats.push_back(cache->stats());
    r.level_units.push_back(num_units);
  }

  std::vector<UnitActivity> activity(num_units);
  std::vector<double> residency(num_units);
  r.units.resize(num_units);
  for (std::uint64_t u = 0; u < num_units; ++u) {
    UnitResult& ur = r.units[u];
    const UnitActivity a = cache->unit_activity(u);
    activity[u] = a;
    ur.accesses = a.accesses;
    ur.sleep_cycles = a.sleep_cycles;
    ur.sleep_residency = cache->unit_residency(u);
    ur.useful_idleness_count = a.useful_idleness_count;
    ur.sleep_episodes = a.sleep_episodes;
    ur.drowsy_cycles = a.drowsy_cycles;
    ur.gated_episodes = a.gated_episodes;
    residency[u] = ur.sleep_residency;
  }

  // Price each level with its own unit model and add the reports; the
  // baseline is the never-sleeping monolithic stack of the same levels.
  // Leakage is priced over the stall-stretched wall clock.
  std::size_t offset = 0;
  for (const LevelConfig& level : hconfig.levels) {
    const std::uint64_t n = level.topology.num_units();
    const std::vector<UnitActivity> slice(
        activity.begin() + static_cast<std::ptrdiff_t>(offset),
        activity.begin() + static_cast<std::ptrdiff_t>(offset + n));
    const UnitEnergyModel model(config_.energy_params, config_.tech,
                                level.topology);
    r.energy += price_unit_run(model, slice, cycles);
    offset += n;
  }

  if (lut != nullptr) {
    const CacheLifetimeEvaluator evaluator(*lut);
    r.lifetime = evaluator.evaluate(residency);
    for (std::uint64_t u = 0; u < num_units; ++u)
      r.units[u].lifetime_years = r.lifetime->banks[u].lifetime_years;
  }

  if (observer) {
    IntervalSnapshot snap;
    snap.interval = 0;
    snap.cycles = cycles;
    snap.updates_applied = r.reindex_updates_applied;
    snap.final_snapshot = true;
    snap.accesses = timing.accesses();
    snap.stall_cycles = timing.stall_cycles();
    snap.stats = &cache->stats();
    snap.cache = cache.get();
    fill_unit_states(snap);
    observer(snap);
  }
  return r;
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
