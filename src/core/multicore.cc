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

/// Ceiling on the run() batch size: caps each core's staging buffer at
/// a few MB.
constexpr std::uint64_t kMaxDriverBatch = 1 << 16;

/// Observer cadence for runs with no re-indexing updates (static /
/// monolithic configs still stream interval stats).
constexpr std::uint64_t kDefaultObserverIntervals = 16;

void add_stats(CacheStats& into, const CacheStats& s) {
  for_each_field(into, [](const char*, std::uint64_t& a,
                          std::uint64_t b) { a += b; }, s);
}

/// Accumulates `after - before` into `into` — the delta attribution of
/// one routed run's LLC traffic to its issuing core.
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
  if (llc.enabled())
    llc.topology.validate();
  else
    PCAL_CONFIG_CHECK(cores.size() == 1,
                      cores.size() << " cores need a shared LLC");
  PCAL_CONFIG_CHECK(address_stride > 0, "address_stride must be nonzero");

  std::size_t masked = 0;
  for (const Core& core : cores) masked += core.llc_way_mask != 0 ? 1 : 0;
  if (masked == 0) return;
  PCAL_CONFIG_CHECK(llc.enabled(), "LLC way masks need a shared LLC");
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
    // One core is labelled like a single-stream hierarchy.
    if (llc.enabled()) priv.levels.push_back(llc);
    return priv.describe();
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
    const IntervalObserver& observer, std::uint64_t batch_size) const {
  const std::size_t num_cores = config_.cores.size();
  PCAL_CONFIG_CHECK(sources.size() == num_cores,
                    "got " << sources.size() << " trace sources for "
                           << num_cores << " cores");
  for (TraceSource* source : sources)
    PCAL_CONFIG_CHECK(source != nullptr, "null trace source");

  // Per-core runtime state: the private backends plus the routing chain
  // route_access walks — the private levels with the shared LLC (if
  // any) appended, so the stream semantics are HierarchicalCache's.
  struct CoreRt {
    std::vector<std::unique_ptr<ManagedCache>> levels;
    std::vector<RoutedLevel> route;
    std::vector<bool> flush;  // update_flush_plan of the routing chain
    TraceSource* source = nullptr;
    std::uint64_t offset = 0;
    std::uint64_t quantum = 0;  // the source's boundary_hint, 0 = none
    std::vector<MemAccess> batch;  // addresses already offset
    std::size_t batch_n = 0;
    std::size_t batch_i = 0;
    bool done = false;
    std::uint64_t accesses = 0;
    std::uint64_t stalls = 0;
    CacheStats llc_stats;
    // Global cycles the private levels have not seen yet: other cores'
    // runs, caught up lazily (see catch_up below).
    std::uint64_t owed = 0;
    RouteReplay replay;        // contention replay of this core's chain
    bool replay_hits = false;  // its L1 holds a port longer than a cycle
  };

  const bool shared = config_.llc.enabled();
  std::unique_ptr<ManagedCache> llc;
  if (shared) llc = make_managed_cache(config_.llc.topology);
  const bool partitioned = config_.partitioned();
  if (partitioned)
    PCAL_CONFIG_CHECK(llc->set_alloc_way_mask(~std::uint64_t{0}),
                      "LLC topology '"
                          << config_.llc.topology.describe()
                          << "' has no way-organized tag store; way "
                             "partitioning needs monolithic, bank or way "
                             "granularity");

  const std::size_t batch = static_cast<std::size_t>(
      std::min<std::uint64_t>(std::max<std::uint64_t>(batch_size, 1),
                              kMaxDriverBatch));
  const std::size_t depth = config_.cores.front().levels.size();
  std::vector<CoreRt> rt(num_cores);
  bool any_rotates = false;
  for (std::size_t k = 0; k < num_cores; ++k) {
    CoreRt& c = rt[k];
    c.source = sources[k];
    c.source->reset();
    c.offset = k * config_.address_stride;
    c.quantum = c.source->boundary_hint().value_or(0);
    c.batch.resize(batch);
    std::vector<LevelConfig> chain = config_.cores[k].levels;
    for (const LevelConfig& level : chain)
      c.levels.push_back(make_managed_cache(level.topology));
    for (std::size_t i = 0; i < depth; ++i)
      c.route.push_back({c.levels[i].get(), chain[i].inclusion});
    if (shared) {
      chain.push_back(config_.llc);
      c.route.push_back({llc.get(), config_.llc.inclusion});
    }
    c.flush = update_flush_plan(chain);
    for (const bool f : c.flush) any_rotates = any_rotates || f;
  }

  // One update: every core's chain per its flush plan, the shared LLC
  // once (its entry, whether it rotates, is the same in every plan).
  const auto fire_update = [&] {
    for (CoreRt& c : rt)
      for (std::size_t i = 0; i < depth; ++i)
        if (c.flush[i]) c.levels[i]->update_indexing();
    if (shared && rt.front().flush.back()) llc->update_indexing();
  };

  // Update cadence: the requested updates spread evenly over the summed
  // size hints of all sources.  Static indexing never rotates, so those
  // (pointless) flushes are skipped — the conventional cache does not
  // flush for aging.
  std::uint64_t total_hint = 0;
  bool all_hints = true;
  for (const CoreRt& c : rt) {
    const auto h = c.source->size_hint();
    if (h)
      total_hint += *h;
    else
      all_hints = false;
  }
  std::uint64_t update_interval = 0;
  if (any_rotates && config_.reindex_updates > 0 && all_hints &&
      total_hint > config_.reindex_updates)
    update_interval = total_hint / (config_.reindex_updates + 1);
  // Context-switch alignment (the paper's zero-overhead piggybacking): a
  // lone core whose source has a natural boundary — a multiprogrammed
  // stream's quantum — gets the update interval rounded down to a whole
  // number of quanta, so every flush lands exactly on a context switch
  // that flushes anyway.  Quanta longer than the interval cannot be
  // aligned to without starving the update budget; those stay on the
  // even spread.
  const std::uint64_t quantum = rt.front().quantum;
  if (num_cores == 1 && update_interval >= quantum && quantum > 0)
    update_interval -= update_interval % quantum;
  std::uint64_t interval = update_interval;
  if (interval == 0 && observer && all_hints)
    interval =
        std::max<std::uint64_t>(1, total_hint / kDefaultObserverIntervals);

  // Finite-resource contention over the whole system: one model whose
  // levels are every core's private stack (core-major) with the shared
  // LLC last — so LLC MSHRs, ports and fill bandwidth are genuinely
  // shared across cores while private resources stay per core.
  std::vector<ContentionLevelShape> shapes;
  shapes.reserve(num_cores * depth + 1);
  for (std::size_t k = 0; k < num_cores; ++k)
    for (const LevelConfig& level : config_.cores[k].levels)
      shapes.push_back(contention_shape_of(level.topology));
  if (shared) shapes.push_back(contention_shape_of(config_.llc.topology));
  ContentionModel contention(std::move(shapes));

  // Replays one access's level trace through the resource model, each
  // event at its position on the stretched clock (`now` already counts
  // the access's latency stall: the fill is in flight while the core
  // stalls, and each event sees the stalls charged so far).  Private
  // events map to core k's slots, the shared level to the last slot.
  // Returns the extra resource stall.
  const auto contend = [&](std::size_t k, const AccessOutcome& out,
                           std::uint64_t now) {
    std::uint64_t extra = 0;
    for (std::uint8_t e = 0; e < out.num_events; ++e) {
      const LevelEvent& le = out.events[e];
      ContentionEvent ev;
      ev.level = le.level < depth ? k * depth + le.level : num_cores * depth;
      ev.unit = le.unit;
      ev.address = le.address;
      ev.miss = !le.hit;
      ev.writeback = le.writeback;
      extra += contention.on_event(ev, now + extra).total();
    }
    return extra;
  };

  // Snapshot buffers, reused across boundaries (observers must copy what
  // they keep).  The group table is one row per (depth, core) private
  // level plus the shared LLC, in the depth-major unit order the result
  // reports.  A private level carries its core only when a shared level
  // exists; a lone core's stack reports core = -1 throughout.
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
        census(*rt[k].levels[d], shared ? static_cast<int>(k) : -1, d);
    if (shared) census(*llc, -1, depth);
    snap.groups = &snap_groups;
    snap.unit_states = &snap_states;
  };

  // The global clock: one issued access per cycle plus its stalls.
  // Every level of the serving core's chain (the LLC included) is on it
  // whenever route_run returns; every other core's private levels are
  // owed the cycles they sat out and catch up when their core's turn
  // starts, at every boundary and before finish(), so every backend's
  // cycle counter agrees with the TimingModel wherever it is read.
  TimingModel timing;
  std::uint64_t since_boundary = 0;
  std::uint64_t boundary_index = 0;
  std::uint64_t updates_applied = 0;

  const auto catch_up = [](CoreRt& c) {
    if (c.owed == 0) return;
    for (auto& level : c.levels) level->advance_idle(c.owed);
    c.owed = 0;
  };
  const auto catch_up_all = [&] {
    for (CoreRt& c : rt) catch_up(c);
  };

  const auto notify = [&](std::uint64_t index, bool fired) {
    IntervalSnapshot snap;
    snap.interval = index;
    snap.cycles = timing.total_cycles();
    snap.updates_applied = updates_applied;
    snap.fired_update = fired;
    snap.final_snapshot = index == 0;
    // A boundary is a context switch when any core's multiprogrammed
    // source sits exactly on one of its quantum boundaries (the final
    // snapshot is no boundary).
    for (const CoreRt& c : rt)
      if (!snap.final_snapshot && c.quantum > 0 && c.accesses > 0 &&
          c.accesses % c.quantum == 0)
        snap.context_switch = true;
    snap.accesses = timing.accesses();
    snap.stall_cycles = timing.stall_cycles();
    snap.stats = &rt.front().levels.front()->stats();
    fill_unit_states(snap);
    observer(snap);
  };

  // Everything that happens at an update/observer boundary: bring every
  // core onto the clock, fire the re-indexing update while budget
  // remains, then hand the observer its snapshot.
  const auto on_boundary = [&] {
    since_boundary = 0;
    ++boundary_index;
    catch_up_all();
    bool fired = false;
    if (update_interval != 0 && updates_applied < config_.reindex_updates) {
      fire_update();
      ++updates_applied;
      fired = true;
    }
    if (observer) notify(boundary_index, fired);
  };

  // Under contention each core's routed accesses replay through the
  // resource model at their position on the stretched clock.  A hit's
  // only event is its L1 event, and the model does nothing with it
  // unless that L1 holds a port longer than one cycle (each level sees
  // at most one event per access, and events are at least a cycle
  // apart, so a one-cycle hold never stalls).  So a core replays only
  // its misses, and every access only behind such an L1.
  if (contention.enabled())
    for (std::size_t k = 0; k < num_cores; ++k) {
      const ContentionParams& l1 =
          config_.cores[k].levels.front().topology.contention;
      rt[k].replay = [&contend, &timing, k](const AccessOutcome& out,
                                            std::uint64_t at) {
        return contend(k, out, timing.total_cycles() + at);
      };
      rt[k].replay_hits = l1.ports > 0 && l1.port_cycles > 1;
    }

  // Serves a run of `n` accesses of core k and returns their stall.  A
  // lone single-level core without contention hands the run to the
  // backend's batch entry point, which never has to stop at a miss.
  // Every other chain serves it through route_run: L1 hits in runs,
  // each miss routed below (and replayed).  The other cores are owed
  // the run's cycles; the LLC's traffic delta is the core's.
  const bool batched =
      num_cores == 1 && depth == 1 && !shared && !contention.enabled();
  std::size_t mask_owner = num_cores;  // sentinel: force the first switch
  AccessOutcome scratch;  // route_run's one outcome slot
  const auto serve_run = [&](std::size_t k, const MemAccess* accesses,
                             std::size_t n) -> std::uint64_t {
    CoreRt& c = rt[k];
    std::uint64_t stalls = 0;
    if (batched) {
      stalls = c.levels.front()->access_batch(accesses, n, nullptr);
    } else {
      catch_up(c);
      if (partitioned && mask_owner != k) {
        llc->set_alloc_way_mask(config_.cores[k].llc_way_mask);
        mask_owner = k;
      }
      CacheStats llc_before;
      if (shared) llc_before = llc->stats();
      stalls = route_run(c.route.data(), c.route.size(), accesses, n,
                         &scratch, 0, c.replay, c.replay_hits);
      if (shared) add_delta(c.llc_stats, llc_before, llc->stats());
      for (CoreRt& other : rt)
        if (&other != &c) other.owed += n + stalls;
    }
    timing.on_batch(n, stalls);
    return stalls;
  };

  // The one serving loop.  Cores take turns in weighted round-robin
  // order, each turn a run of up to ipc_weight accesses (a lone core's
  // turn lasts until its source ends); runs split exactly at boundaries,
  // so updates and snapshots land on the same access positions at every
  // batch size.
  std::size_t live = num_cores;
  while (live > 0) {
    for (std::size_t k = 0; k < num_cores; ++k) {
      CoreRt& c = rt[k];
      if (c.done) continue;
      std::uint64_t quota = num_cores == 1 ? ~std::uint64_t{0}
                                           : config_.cores[k].ipc_weight;
      while (quota > 0) {
        if (c.batch_i == c.batch_n) {
          c.batch_n = c.source->next_batch(c.batch.data(), batch);
          c.batch_i = 0;
          if (c.batch_n == 0) {
            c.done = true;
            --live;
            break;
          }
          if (c.offset != 0)
            for (std::size_t i = 0; i < c.batch_n; ++i)
              c.batch[i].address += c.offset;
        }
        std::uint64_t take =
            std::min<std::uint64_t>(c.batch_n - c.batch_i, quota);
        if (interval != 0) take = std::min(take, interval - since_boundary);
        const std::size_t n = static_cast<std::size_t>(take);
        c.stalls += serve_run(k, c.batch.data() + c.batch_i, n);
        c.batch_i += n;
        c.accesses += take;
        quota -= take;
        // Every cycle parameter is at most 2^32 (CacheTopology::validate),
        // so no run can wrap 2^64 before this check sees it.
        PCAL_CONFIG_CHECK(timing.total_cycles() <= kMaxClockCycles,
                          "the simulated clock passed 2^63 cycles after "
                              << timing.accesses() << " accesses");
        since_boundary += take;
        if (interval != 0 && since_boundary >= interval) on_boundary();
      }
    }
  }
  catch_up_all();
  for (CoreRt& c : rt)
    for (auto& level : c.levels) level->finish();
  if (shared) llc->finish();

  // One clock: every level of every core and the LLC must agree with
  // the driver's stall accounting (total = accesses + stalls is a
  // CI-gated record invariant; a new non-access clock advance would
  // break it here, next to its cause, rather than in the bench-JSON
  // gate).
  const std::uint64_t cycles = timing.total_cycles();
  for (const CoreRt& c : rt)
    for (const auto& level : c.levels)
      PCAL_ASSERT_MSG(cycles == level->cycles(),
                      "driver clock " << cycles << " != level clock "
                                      << level->cycles());
  if (shared)
    PCAL_ASSERT_MSG(cycles == llc->cycles(),
                    "driver clock " << cycles << " != LLC clock "
                                    << llc->cycles());

  // Depth-major unit order: every core's L1 units, then every core's
  // L2 units, ..., then the LLC's.
  struct UnitRef {
    const ManagedCache* cache;
    std::uint64_t local;
  };
  std::vector<UnitRef> unit_order;
  for (std::size_t d = 0; d < depth; ++d)
    for (std::size_t k = 0; k < num_cores; ++k)
      for (std::uint64_t u = 0; u < rt[k].levels[d]->num_units(); ++u)
        unit_order.push_back({rt[k].levels[d].get(), u});
  if (shared)
    for (std::uint64_t u = 0; u < llc->num_units(); ++u)
      unit_order.push_back({llc.get(), u});

  MultiCoreResult result;
  SimResult& r = result.system;
  for (std::size_t k = 0; k < num_cores; ++k)
    r.workload += (k ? "+" : "") + sources[k]->name();
  r.config_label = config_.describe();
  const CacheTopology& l1 = config_.cores.front().levels.front().topology;
  r.granularity = l1.granularity;
  r.policy = l1.policy;
  r.accesses = timing.accesses();
  r.total_cycles = cycles;
  r.stall_cycles = timing.stall_cycles();
  r.mshr_stall_cycles = contention.totals().mshr;
  r.port_stall_cycles = contention.totals().port;
  r.bw_stall_cycles = contention.totals().bw;
  r.breakeven_cycles = l1.breakeven_cycles;
  r.reindex_updates_applied = updates_applied;
  // What "the CPU" sees: the sum of every core's L1 tag store.
  for (const CoreRt& c : rt)
    add_stats(r.cache_stats, c.levels.front()->stats());
  for (std::size_t d = 0; d < depth; ++d) {
    CacheStats agg;
    std::uint64_t units = 0;
    for (const CoreRt& c : rt) {
      add_stats(agg, c.levels[d]->stats());
      units += c.levels[d]->num_units();
    }
    r.level_stats.push_back(agg);
    r.level_units.push_back(units);
  }
  if (shared) {
    r.level_stats.push_back(llc->stats());
    r.level_units.push_back(llc->num_units());
  }

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

  // Price each (depth, core) slice with its level's own unit model and
  // add the reports in depth-outer / core-inner order, the LLC last;
  // the baseline is the never-sleeping monolithic stack of the same
  // levels.  Leakage is priced over the stall-stretched wall clock.
  std::vector<EnergyReport> core_private(num_cores);
  std::size_t offset = 0;
  const auto price = [&](const CacheTopology& topology, std::uint64_t n) {
    const std::vector<UnitActivity> slice(
        activity.begin() + static_cast<std::ptrdiff_t>(offset),
        activity.begin() + static_cast<std::ptrdiff_t>(offset + n));
    const UnitEnergyModel model(config_.energy_params, config_.tech,
                                topology);
    const EnergyReport report = price_unit_run(model, slice, cycles);
    r.energy += report;
    offset += n;
    return report;
  };
  for (std::size_t d = 0; d < depth; ++d)
    for (std::size_t k = 0; k < num_cores; ++k)
      core_private[k] += price(config_.cores[k].levels[d].topology,
                               rt[k].levels[d]->num_units());
  EnergyReport llc_report;
  if (shared) llc_report = price(config_.llc.topology, llc->num_units());

  if (lut != nullptr) {
    const CacheLifetimeEvaluator evaluator(*lut);
    r.lifetime = evaluator.evaluate(residency);
    for (std::size_t u = 0; u < num_units; ++u)
      r.units[u].lifetime_years = r.lifetime->banks[u].lifetime_years;
  }

  if (observer) notify(0, false);

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
    if (shared) cr.energy += scale_report(llc_report, share);
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
