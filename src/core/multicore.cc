#include "core/multicore.h"

#include <algorithm>
#include <cstddef>
#include <sstream>

#include "core/contention.h"
#include "core/enum_strings.h"
#include "core/result_fields.h"
#include "power/unit_energy.h"
#include "util/error.h"

namespace pcal {
namespace {

/// Accesses fetched per TraceSource::next_batch call (the Simulator's
/// batch size — same consumption order at one core).  The engine stays
/// on the per-access access() path: the round-robin IPC interleave serves
/// one access per core per slot, and the shared LLC's way-mask swaps
/// between cores mid-stream, so no core ever owns a long enough
/// uninterrupted run for ManagedCache::access_batch to apply.
constexpr std::size_t kBatchSize = 256;

/// Observer cadence for runs with no re-indexing updates.
constexpr std::uint64_t kDefaultObserverIntervals = 16;

void add_stats(CacheStats& into, const CacheStats& s) {
  for_each_field(into, [](const char*, std::uint64_t& a,
                          std::uint64_t b) { a += b; }, s);
}

/// Accumulates `after - before` into `into` — the delta attribution of
/// one routed access's LLC traffic to its issuing core.
void add_delta(CacheStats& into, const CacheStats& before,
               const CacheStats& after) {
  for_each_field(into, [](const char*, std::uint64_t& a, std::uint64_t b0,
                          std::uint64_t b1) { a += b1 - b0; }, before, after);
}

/// `report` scaled by `f` — how the shared LLC's energy is apportioned
/// to cores by their access share.
EnergyReport scale_report(EnergyReport report, double f) {
  for_each_field(report, [f](const char*, double& pj) { pj *= f; });
  return report;
}

}  // namespace

bool MultiCoreConfig::partitioned() const {
  for (const Core& core : cores)
    if (core.llc_way_mask != 0) return true;
  return false;
}

void MultiCoreConfig::validate() const {
  PCAL_CONFIG_CHECK(!cores.empty(),
                    "multi-core system needs at least one core");
  const std::size_t depth = cores.front().levels.size();
  PCAL_CONFIG_CHECK(depth > 0,
                    "every core needs at least one private level");
  for (std::size_t k = 0; k < cores.size(); ++k) {
    const Core& core = cores[k];
    PCAL_CONFIG_CHECK(core.levels.size() == depth,
                      "cores must share one private-level depth (stats and "
                      "energy aggregate per depth): core "
                          << k << " has " << core.levels.size()
                          << " levels, core 0 has " << depth);
    PCAL_CONFIG_CHECK(core.ipc_weight >= 1,
                      "core " << k << ": ipc_weight must be >= 1");
    for (const LevelConfig& level : core.levels) {
      PCAL_CONFIG_CHECK(level.enabled(),
                        "core " << k << " has a zero-size private level");
      level.topology.validate();
    }
  }
  PCAL_CONFIG_CHECK(llc.enabled(), "the shared LLC needs a nonzero size");
  llc.topology.validate();
  PCAL_CONFIG_CHECK(address_stride > 0, "address_stride must be nonzero");

  std::size_t masked = 0;
  for (const Core& core : cores) masked += core.llc_way_mask != 0 ? 1 : 0;
  if (masked == 0) return;
  PCAL_CONFIG_CHECK(masked == cores.size(),
                    "LLC way partitioning is all-or-none: "
                        << masked << " of " << cores.size()
                        << " cores carry a mask (an empty partition would "
                           "starve the unmasked cores' misses)");
  PCAL_CONFIG_CHECK(llc.topology.granularity != Granularity::kLine,
                    "per-line LLC management has no way-organized tag "
                    "store to partition");
  const std::uint64_t ways = llc.topology.cache.ways;
  PCAL_CONFIG_CHECK(ways <= 64, "way masks support at most 64 LLC ways");
  const std::uint64_t usable =
      ways >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << ways) - 1;
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < cores.size(); ++k) {
    const std::uint64_t mask = cores[k].llc_way_mask;
    PCAL_CONFIG_CHECK((mask & ~usable) == 0,
                      "core " << k << " way mask 0x" << std::hex << mask
                              << std::dec << " names ways beyond the LLC's "
                              << ways << "-way associativity");
    PCAL_CONFIG_CHECK((mask & seen) == 0,
                      "core " << k << " way mask 0x" << std::hex << mask
                              << std::dec
                              << " overlaps another core's partition");
    seen |= mask;
  }
}

std::string MultiCoreConfig::describe() const {
  HierarchyConfig priv;
  priv.levels = cores.front().levels;
  if (cores.size() == 1 && !partitioned()) {
    // The 1-core degeneracy keeps the Simulator's label too.
    HierarchyConfig chain = priv;
    chain.levels.push_back(llc);
    return chain.describe();
  }
  std::ostringstream os;
  os << cores.size() << "x[" << priv.describe() << "] | LLC";
  if (llc.inclusion != InclusionPolicy::kNonInclusive)
    os << "/" << to_string(llc.inclusion);
  os << " " << llc.topology.describe();
  if (partitioned()) {
    os << " part(";
    for (std::size_t k = 0; k < cores.size(); ++k)
      os << (k ? "," : "") << "0x" << std::hex << cores[k].llc_way_mask
         << std::dec;
    os << ")";
  }
  return os.str();
}

MultiCoreSystem::MultiCoreSystem(MultiCoreConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

MultiCoreResult MultiCoreSystem::run(
    const std::vector<TraceSource*>& sources, const AgingLut* lut,
    const IntervalObserver& observer) const {
  const std::size_t num_cores = config_.cores.size();
  PCAL_CONFIG_CHECK(sources.size() == num_cores,
                    "got " << sources.size() << " trace sources for "
                           << num_cores << " cores");
  for (TraceSource* source : sources)
    PCAL_CONFIG_CHECK(source != nullptr, "null trace source");

  // Per-core runtime state: the private backends plus the routing chain
  // route_access walks — the private levels with the shared LLC
  // appended, so the stream semantics are HierarchicalCache's.
  struct CoreRt {
    std::vector<std::unique_ptr<ManagedCache>> levels;
    std::vector<RoutedLevel> route;
    TraceSource* source = nullptr;
    std::uint64_t offset = 0;
    std::vector<MemAccess> batch;
    std::size_t batch_n = 0;
    std::size_t batch_i = 0;
    bool done = false;
    std::uint64_t accesses = 0;
    std::uint64_t stalls = 0;
    CacheStats llc_stats;
  };

  std::unique_ptr<ManagedCache> llc = make_managed_cache(config_.llc.topology);
  const bool partitioned = config_.partitioned();
  if (partitioned)
    PCAL_CONFIG_CHECK(llc->set_alloc_way_mask(~std::uint64_t{0}),
                      "LLC topology '"
                          << config_.llc.topology.describe()
                          << "' has no way-organized tag store; way "
                             "partitioning needs monolithic, bank or way "
                             "granularity");

  std::vector<CoreRt> rt(num_cores);
  for (std::size_t k = 0; k < num_cores; ++k) {
    CoreRt& c = rt[k];
    c.source = sources[k];
    c.source->reset();
    c.offset = k * config_.address_stride;
    c.batch.resize(kBatchSize);
    for (const LevelConfig& level : config_.cores[k].levels)
      c.levels.push_back(make_managed_cache(level.topology));
    for (std::size_t i = 0; i < c.levels.size(); ++i)
      c.route.push_back(
          {c.levels[i].get(), config_.cores[k].levels[i].inclusion});
    c.route.push_back({llc.get(), config_.llc.inclusion});
  }

  // Update cadence: the Simulator's even spread, computed over the
  // summed size hints of all sources (identical to the single-stream
  // cadence at one core).
  std::uint64_t total_hint = 0;
  bool all_hints = true;
  for (std::size_t k = 0; k < num_cores; ++k) {
    const auto h = rt[k].source->size_hint();
    if (h)
      total_hint += *h;
    else
      all_hints = false;
  }
  bool any_rotates = config_.llc.topology.rotates();
  for (const MultiCoreConfig::Core& core : config_.cores)
    for (const LevelConfig& level : core.levels)
      any_rotates = any_rotates || level.topology.rotates();
  const bool updates_enabled = any_rotates && config_.reindex_updates > 0;
  std::uint64_t update_interval = 0;
  if (updates_enabled && all_hints && total_hint > config_.reindex_updates)
    update_interval = total_hint / (config_.reindex_updates + 1);
  std::uint64_t interval = update_interval;
  if (interval == 0 && observer && all_hints)
    interval =
        std::max<std::uint64_t>(1, total_hint / kDefaultObserverIntervals);

  // The flush plan of one update, mirroring
  // HierarchicalCache::update_indexing per core chain: the signal
  // enters every rotating level; the inclusive back-invalidation
  // cascade climbs from the shared LLC into each core's last private
  // level, then upward within each private stack.
  const bool llc_rotates = config_.llc.topology.rotates();
  std::vector<std::vector<char>> flush(num_cores);
  for (std::size_t k = 0; k < num_cores; ++k) {
    const std::vector<LevelConfig>& levels = config_.cores[k].levels;
    flush[k].resize(levels.size(), 0);
    for (std::size_t i = 0; i < levels.size(); ++i)
      flush[k][i] = levels[i].topology.rotates() ? 1 : 0;
    if (llc_rotates && config_.llc.inclusion == InclusionPolicy::kInclusive)
      flush[k].back() = 1;
    for (std::size_t i = levels.size(); i-- > 1;)
      if (flush[k][i] && levels[i].inclusion == InclusionPolicy::kInclusive)
        flush[k][i - 1] = 1;
  }
  const auto fire_update = [&] {
    for (std::size_t k = 0; k < num_cores; ++k)
      for (std::size_t i = 0; i < rt[k].levels.size(); ++i)
        if (flush[k][i]) rt[k].levels[i]->update_indexing();
    if (llc_rotates) llc->update_indexing();
  };

  // Finite-resource contention over the whole system: one model whose
  // levels are every core's private stack (core-major) with the shared
  // LLC last — so LLC MSHRs, ports and fill bandwidth are genuinely
  // shared across cores while private resources stay per core.  At one
  // core the shape order collapses to the Simulator's, preserving the
  // 1-core degeneracy bit for bit (contention on or off).
  const std::size_t depth = config_.cores.front().levels.size();
  std::vector<ContentionLevelShape> shapes;
  shapes.reserve(num_cores * depth + 1);
  for (std::size_t k = 0; k < num_cores; ++k)
    for (const LevelConfig& level : config_.cores[k].levels)
      shapes.push_back(contention_shape_of(level.topology));
  shapes.push_back(contention_shape_of(config_.llc.topology));
  ContentionModel contention(std::move(shapes));

  // Snapshot buffers, reused across boundaries (observers must copy what
  // they keep).  The group table is one row per (depth, core) private
  // level plus the shared LLC, in the depth-major unit order the result
  // reports — at one core this collapses to the Simulator's per-level
  // table with the same core = -1 convention for the chain's last level.
  std::vector<UnitGroupStates> snap_groups;
  std::vector<UnitPowerState> snap_states;
  const auto fill_unit_states = [&](IntervalSnapshot& snap) {
    snap_groups.clear();
    snap_states.clear();
    std::uint64_t offset = 0;
    const auto census = [&](const ManagedCache& cache, int core,
                            std::uint64_t level) {
      UnitGroupStates g;
      g.core = core;
      g.level = level;
      g.first_unit = offset;
      g.units = cache.num_units();
      g.stats = cache.stats();
      for (std::uint64_t u = 0; u < g.units; ++u) {
        const UnitPowerState s = cache.unit_state(u);
        snap_states.push_back(s);
        if (s == UnitPowerState::kAwake)
          ++g.awake;
        else if (s == UnitPowerState::kDrowsy)
          ++g.drowsy;
        else
          ++g.gated;
      }
      offset += g.units;
      snap_groups.push_back(g);
    };
    for (std::size_t d = 0; d < depth; ++d)
      for (std::size_t k = 0; k < num_cores; ++k)
        census(*rt[k].levels[d], static_cast<int>(k), d);
    census(*llc, -1, depth);
    snap.groups = &snap_groups;
    snap.unit_states = &snap_states;
  };

  // A boundary is a context switch when any core's multiprogrammed
  // source sits exactly on one of its quantum boundaries (the
  // Simulator's rule, per core).
  std::vector<std::uint64_t> quantum(num_cores, 0);
  for (std::size_t k = 0; k < num_cores; ++k) {
    const auto q = rt[k].source->boundary_hint();
    if (q) quantum[k] = *q;
  }
  const auto at_context_switch = [&] {
    for (std::size_t k = 0; k < num_cores; ++k)
      if (quantum[k] > 0 && rt[k].accesses > 0 &&
          rt[k].accesses % quantum[k] == 0)
        return true;
    return false;
  };

  // The global clock: one issued access per cycle plus its stalls;
  // unreferenced levels (and every other core) idle, so every backend's
  // cycle counter stays in lockstep with the TimingModel.
  TimingModel timing;
  std::uint64_t since_boundary = 0;
  std::uint64_t boundary_index = 0;
  std::uint64_t updates_applied = 0;
  std::size_t live = num_cores;
  std::size_t mask_owner = num_cores;  // sentinel: force the first switch
  while (live > 0) {
    for (std::size_t k = 0; k < num_cores; ++k) {
      CoreRt& c = rt[k];
      if (c.done) continue;
      const std::uint64_t weight = config_.cores[k].ipc_weight;
      for (std::uint64_t slot = 0; slot < weight; ++slot) {
        if (c.batch_i >= c.batch_n) {
          c.batch_n = c.source->next_batch(c.batch.data(), kBatchSize);
          c.batch_i = 0;
          if (c.batch_n == 0) {
            c.done = true;
            --live;
            break;
          }
        }
        const MemAccess a = c.batch[c.batch_i++];
        if (partitioned && mask_owner != k) {
          llc->set_alloc_way_mask(config_.cores[k].llc_way_mask);
          mask_owner = k;
        }
        const CacheStats llc_before = llc->stats();
        const AccessOutcome out =
            route_access(c.route.data(), c.route.size(),
                         a.address + c.offset,
                         a.kind == AccessKind::kWrite);
        add_delta(c.llc_stats, llc_before, llc->stats());
        std::uint64_t stall = out.stall_cycles;
        if (contention.enabled()) {
          // Replay the routed chain's level trace through the shared
          // resource model: private events map to this core's slots,
          // the last level to the shared LLC slot (Simulator semantics,
          // system wide).
          const std::uint64_t now = timing.total_cycles();
          for (std::uint8_t e = 0; e < out.num_events; ++e) {
            const LevelEvent& le = out.events[e];
            ContentionEvent ev;
            ev.level = le.level < depth ? k * depth + le.level
                                        : num_cores * depth;
            ev.unit = le.unit;
            ev.address = le.address;
            ev.miss = !le.hit;
            ev.writeback = le.writeback;
            stall += contention.on_event(ev, now + stall).total();
          }
        }
        // Every other core's private levels idle this cycle (the LLC
        // was advanced inside route_access, referenced or idle).
        for (std::size_t j = 0; j < num_cores; ++j) {
          if (j == k) continue;
          for (auto& level : rt[j].levels) level->advance_idle(1);
        }
        if (stall != 0) {
          for (CoreRt& other : rt)
            for (auto& level : other.levels)
              level->advance_idle(stall);
          llc->advance_idle(stall);
        }
        timing.on_access(stall);
        ++c.accesses;
        c.stalls += stall;
        if (interval != 0 && ++since_boundary >= interval) {
          since_boundary = 0;
          ++boundary_index;
          bool fired = false;
          if (update_interval != 0 &&
              updates_applied < config_.reindex_updates) {
            fire_update();
            ++updates_applied;
            fired = true;
          }
          if (observer) {
            IntervalSnapshot snap;
            snap.interval = boundary_index;
            snap.cycles = rt.front().levels.front()->cycles();
            snap.updates_applied = updates_applied;
            snap.fired_update = fired;
            snap.context_switch = at_context_switch();
            snap.accesses = timing.accesses();
            snap.stall_cycles = timing.stall_cycles();
            snap.stats = &rt.front().levels.front()->stats();
            fill_unit_states(snap);
            observer(snap);
          }
        }
      }
    }
  }
  for (CoreRt& c : rt)
    for (auto& level : c.levels) level->finish();
  llc->finish();

  // One clock: every level of every core and the LLC must agree with
  // the driver's stall accounting (the Simulator's invariant, system
  // wide).
  const std::uint64_t cycles = timing.total_cycles();
  for (const CoreRt& c : rt)
    for (const auto& level : c.levels)
      PCAL_ASSERT_MSG(cycles == level->cycles(),
                      "driver clock " << cycles << " != level clock "
                                      << level->cycles());
  PCAL_ASSERT_MSG(cycles == llc->cycles(),
                  "driver clock " << cycles << " != LLC clock "
                                  << llc->cycles());

  // Depth-major unit order: every core's L1 units, then every core's
  // L2 units, ..., then the LLC's — which collapses to the Simulator's
  // level order at one core.
  struct UnitRef {
    const ManagedCache* cache;
    std::uint64_t local;
  };
  std::vector<UnitRef> unit_order;
  for (std::size_t d = 0; d < depth; ++d)
    for (std::size_t k = 0; k < num_cores; ++k)
      for (std::uint64_t u = 0; u < rt[k].levels[d]->num_units(); ++u)
        unit_order.push_back({rt[k].levels[d].get(), u});
  for (std::uint64_t u = 0; u < llc->num_units(); ++u)
    unit_order.push_back({llc.get(), u});

  MultiCoreResult result;
  SimResult& r = result.system;
  {
    std::string workload;
    for (std::size_t k = 0; k < num_cores; ++k)
      workload += (k ? "+" : "") + sources[k]->name();
    r.workload = std::move(workload);
  }
  r.config_label = config_.describe();
  r.granularity = config_.cores.front().levels.front().topology.granularity;
  r.policy = config_.cores.front().levels.front().topology.policy;
  r.accesses = timing.accesses();
  r.total_cycles = cycles;
  r.stall_cycles = timing.stall_cycles();
  r.mshr_stall_cycles = contention.totals().mshr;
  r.port_stall_cycles = contention.totals().port;
  r.bw_stall_cycles = contention.totals().bw;
  r.breakeven_cycles =
      config_.cores.front().levels.front().topology.breakeven_cycles;
  r.reindex_updates_applied = updates_applied;
  // What "the CPU" sees: the sum of every core's L1 tag store.
  for (std::size_t k = 0; k < num_cores; ++k)
    add_stats(r.cache_stats, rt[k].levels.front()->stats());
  for (std::size_t d = 0; d < depth; ++d) {
    CacheStats agg;
    std::uint64_t units = 0;
    for (std::size_t k = 0; k < num_cores; ++k) {
      add_stats(agg, rt[k].levels[d]->stats());
      units += rt[k].levels[d]->num_units();
    }
    r.level_stats.push_back(agg);
    r.level_units.push_back(units);
  }
  r.level_stats.push_back(llc->stats());
  r.level_units.push_back(llc->num_units());

  const std::size_t num_units = unit_order.size();
  std::vector<UnitActivity> activity(num_units);
  std::vector<double> residency(num_units);
  r.units.resize(num_units);
  for (std::size_t u = 0; u < num_units; ++u) {
    const UnitRef& ref = unit_order[u];
    const UnitActivity a = ref.cache->unit_activity(ref.local);
    activity[u] = a;
    UnitResult& ur = r.units[u];
    ur.accesses = a.accesses;
    ur.sleep_cycles = a.sleep_cycles;
    ur.sleep_residency = ref.cache->unit_residency(ref.local);
    ur.useful_idleness_count = a.useful_idleness_count;
    ur.sleep_episodes = a.sleep_episodes;
    ur.drowsy_cycles = a.drowsy_cycles;
    ur.gated_episodes = a.gated_episodes;
    residency[u] = ur.sleep_residency;
  }

  // Per-(depth, core) slices priced with each level's own unit model,
  // accumulated in depth-outer / core-inner order — at one core this is
  // the Simulator's per-level addition order, so the doubles match bit
  // for bit.  The LLC is priced last.
  std::vector<EnergyReport> core_private(num_cores);
  std::size_t offset = 0;
  for (std::size_t d = 0; d < depth; ++d) {
    for (std::size_t k = 0; k < num_cores; ++k) {
      const std::uint64_t n = rt[k].levels[d]->num_units();
      const std::vector<UnitActivity> slice(
          activity.begin() + static_cast<std::ptrdiff_t>(offset),
          activity.begin() + static_cast<std::ptrdiff_t>(offset + n));
      const UnitEnergyModel model(config_.energy_params, config_.tech,
                                  config_.cores[k].levels[d].topology);
      const EnergyReport report = price_unit_run(model, slice, cycles);
      r.energy += report;
      core_private[k] += report;
      offset += n;
    }
  }
  EnergyReport llc_report;
  {
    const std::vector<UnitActivity> slice(
        activity.begin() + static_cast<std::ptrdiff_t>(offset),
        activity.end());
    const UnitEnergyModel model(config_.energy_params, config_.tech,
                                config_.llc.topology);
    llc_report = price_unit_run(model, slice, cycles);
    r.energy += llc_report;
  }

  if (lut != nullptr) {
    const CacheLifetimeEvaluator evaluator(*lut);
    r.lifetime = evaluator.evaluate(residency);
    for (std::size_t u = 0; u < num_units; ++u)
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
    snap.stats = &rt.front().levels.front()->stats();
    fill_unit_states(snap);
    observer(snap);
  }

  std::uint64_t total_llc = 0;
  for (const CoreRt& c : rt) total_llc += c.llc_stats.accesses;
  for (std::size_t k = 0; k < num_cores; ++k) {
    const CoreRt& c = rt[k];
    CoreResult cr;
    cr.workload = sources[k]->name();
    cr.accesses = c.accesses;
    cr.stall_cycles = c.stalls;
    cr.llc_way_mask = config_.cores[k].llc_way_mask;
    for (std::size_t d = 0; d < depth; ++d)
      cr.level_stats.push_back(c.levels[d]->stats());
    cr.llc_stats = c.llc_stats;
    cr.energy = core_private[k];
    const double share =
        total_llc > 0 ? static_cast<double>(c.llc_stats.accesses) /
                            static_cast<double>(total_llc)
                      : 1.0 / static_cast<double>(num_cores);
    cr.energy += scale_report(llc_report, share);
    double sum = 0.0;
    std::uint64_t n = 0;
    for (std::size_t d = 0; d < depth; ++d)
      for (std::uint64_t u = 0; u < c.levels[d]->num_units(); ++u) {
        sum += c.levels[d]->unit_residency(u);
        ++n;
      }
    cr.avg_residency = n > 0 ? sum / static_cast<double>(n) : 0.0;
    result.cores.push_back(std::move(cr));
  }
  return result;
}

MultiCoreConfig make_multicore(const SimConfig& config,
                               std::size_t num_cores,
                               const LevelConfig& llc,
                               std::uint64_t ways_per_core) {
  PCAL_CONFIG_CHECK(num_cores > 0, "need at least one core");
  if (ways_per_core > 0)
    PCAL_CONFIG_CHECK(num_cores * ways_per_core <= 64,
                      "contiguous way partitions need cores * ways_per_core "
                      "<= 64 mask bits; got "
                          << num_cores << " * " << ways_per_core);
  MultiCoreConfig mc;
  mc.llc = llc;
  mc.reindex_updates = config.reindex_updates;
  mc.tech = config.tech;
  mc.energy_params = config.energy_params;
  const Simulator sim(config);  // validates; resolves the L1 breakeven
  MultiCoreConfig::Core proto;
  proto.levels.push_back({config.topology(sim.breakeven_cycles()),
                          InclusionPolicy::kNonInclusive});
  for (const LevelConfig& level : config.enabled_lower_levels())
    proto.levels.push_back(level);
  for (std::size_t k = 0; k < num_cores; ++k) {
    MultiCoreConfig::Core core = proto;
    if (ways_per_core > 0)
      core.llc_way_mask = ((std::uint64_t{1} << ways_per_core) - 1)
                          << (k * ways_per_core);
    mc.cores.push_back(std::move(core));
  }
  return mc;
}

}  // namespace pcal
