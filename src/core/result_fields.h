// The one list of result fields every serializer reads, in two tables:
//
//   Stored fields — for_each_field(s, v) calls v(name, field) for every
//   data member of the result structs, in declaration order, on const
//   and mutable structs alike.  The journal codec (core/checkpoint.cc)
//   is one writer/reader visitor pair over it, so no field can be
//   journaled without being read back.
//
//   Reported metrics — kResultMetrics (per SimResult) and kCoreMetrics
//   (per CoreResult), {name, getter} rows in BENCH-row order.  The BENCH
//   row (core/bench_record.cc), the Python dicts (bindings/), the .sweep
//   [table] cells (core/grid_spec.cc) and docs/result_schema_v1.json
//   (rendered by tests/result_fields_test.cc, read by
//   tools/check_bench_json.py) loop over them.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "core/multicore.h"
#include "core/simulator.h"

namespace pcal {

/// Calls v(name, field) for every stored field of `s` — one of the
/// result structs below, const or not — in declaration order.  Extra
/// structs of the same type are visited in lockstep: v(name, s.f,
/// more.f...).
template <class S, class V, class... More>
void for_each_field(S& s, V&& v, More&... more) {
  using T = std::remove_const_t<S>;
  // The field name is the member's own spelling, so it cannot mismatch.
#define PCAL_FIELD(member) v(#member, s.member, more.member...)
  if constexpr (std::is_same_v<T, CacheStats>) {
    PCAL_FIELD(accesses);
    PCAL_FIELD(hits);
    PCAL_FIELD(misses);
    PCAL_FIELD(writebacks);
    PCAL_FIELD(flushes);
    PCAL_FIELD(flushed_dirty);
  } else if constexpr (std::is_same_v<T, EnergyReport>) {
    PCAL_FIELD(partitioned.dynamic_pj);
    PCAL_FIELD(partitioned.leakage_active_pj);
    PCAL_FIELD(partitioned.leakage_retention_pj);
    PCAL_FIELD(partitioned.leakage_drowsy_pj);
    PCAL_FIELD(partitioned.transition_pj);
    PCAL_FIELD(baseline_pj);
  } else if constexpr (std::is_same_v<T, UnitResult>) {
    PCAL_FIELD(accesses);
    PCAL_FIELD(sleep_cycles);
    PCAL_FIELD(sleep_residency);
    PCAL_FIELD(useful_idleness_count);
    PCAL_FIELD(sleep_episodes);
    PCAL_FIELD(drowsy_cycles);
    PCAL_FIELD(gated_episodes);
    PCAL_FIELD(lifetime_years);
  } else if constexpr (std::is_same_v<T, BankLifetime>) {
    PCAL_FIELD(sleep_residency);
    PCAL_FIELD(p0);
    PCAL_FIELD(lifetime_years);
  } else if constexpr (std::is_same_v<T, CacheLifetimeResult>) {
    PCAL_FIELD(banks);
    PCAL_FIELD(lifetime_years);
    PCAL_FIELD(limiting_bank);
  } else if constexpr (std::is_same_v<T, SimResult>) {
    PCAL_FIELD(workload);
    PCAL_FIELD(config_label);
    PCAL_FIELD(granularity);
    PCAL_FIELD(policy);
    PCAL_FIELD(accesses);
    PCAL_FIELD(total_cycles);
    PCAL_FIELD(stall_cycles);
    PCAL_FIELD(mshr_stall_cycles);
    PCAL_FIELD(port_stall_cycles);
    PCAL_FIELD(bw_stall_cycles);
    PCAL_FIELD(breakeven_cycles);
    PCAL_FIELD(reindex_updates_applied);
    PCAL_FIELD(cache_stats);
    PCAL_FIELD(units);
    PCAL_FIELD(level_stats);
    PCAL_FIELD(level_units);
    PCAL_FIELD(energy);
    PCAL_FIELD(lifetime);
  } else if constexpr (std::is_same_v<T, CoreResult>) {
    PCAL_FIELD(workload);
    PCAL_FIELD(accesses);
    PCAL_FIELD(stall_cycles);
    PCAL_FIELD(llc_way_mask);
    PCAL_FIELD(level_stats);
    PCAL_FIELD(llc_stats);
    PCAL_FIELD(energy);
    PCAL_FIELD(avg_residency);
  } else {
    static_assert(sizeof(T) == 0, "no stored-field list for this type");
  }
#undef PCAL_FIELD
}

/// One reported observable of an `R`: its wire name and exactly one
/// getter.  u64 getters stay integers on every wire (JSON, Python int) —
/// as a double, 1000000 prints as 1e+06 and bits above 2^53 are lost.
template <class R>
struct Metric {
  const char* name;
  std::uint64_t (*u64)(const R&);
  double (*f64)(const R&) = nullptr;
  /// The .sweep [table] cell spelling, when it differs from `name`.
  const char* sweep_name = nullptr;

  std::string_view sweep_spelling() const {
    return sweep_name != nullptr ? sweep_name : name;
  }
};

using ResultMetric = Metric<SimResult>;
using CoreMetric = Metric<CoreResult>;

inline constexpr ResultMetric kResultMetrics[] = {
    {"accesses", [](auto& r) { return r.accesses; }},
    {"total_cycles", [](auto& r) { return r.total_cycles; }},
    {"stall_cycles", [](auto& r) { return r.stall_cycles; }},
    {"mshr_stall_cycles", [](auto& r) { return r.mshr_stall_cycles; }},
    {"port_stall_cycles", [](auto& r) { return r.port_stall_cycles; }},
    {"bw_stall_cycles", [](auto& r) { return r.bw_stall_cycles; }},
    {"breakeven_cycles", [](auto& r) { return r.breakeven_cycles; }},
    {"avg_latency", nullptr, [](auto& r) { return r.avg_access_latency(); }},
    {"energy_pj", nullptr,
     [](auto& r) { return r.energy.partitioned.total_pj(); }},
    {"energy_saving", nullptr, [](auto& r) { return r.energy_saving(); }},
    {"idleness", nullptr, [](auto& r) { return r.avg_residency(); }},
    {"min_idleness", nullptr, [](auto& r) { return r.min_residency(); }},
    {"drowsy_share", nullptr, [](auto& r) { return r.drowsy_residency(); }},
    {"hit_rate", nullptr, [](auto& r) { return r.cache_stats.hit_rate(); }},
    {"lifetime_years", nullptr,
     [](auto& r) { return r.lifetime_years(); }, "lifetime"},
};

inline constexpr CoreMetric kCoreMetrics[] = {
    {"accesses", [](auto& c) { return c.accesses; }},
    {"stall_cycles", [](auto& c) { return c.stall_cycles; }},
    {"llc_way_mask", [](auto& c) { return c.llc_way_mask; }},
    {"l1_hit_rate", nullptr, [](auto& c) { return c.l1_hit_rate(); }},
    {"llc_accesses", [](auto& c) { return c.llc_stats.accesses; }},
    {"llc_hits", [](auto& c) { return c.llc_stats.hits; }},
    {"energy_pj", nullptr,
     [](auto& c) { return c.energy.partitioned.total_pj(); }},
    {"idleness", nullptr, [](auto& c) { return c.avg_residency; }},
};

/// The kResultMetrics row a .sweep [table] cell names, or null.
inline const ResultMetric* find_sweep_metric(std::string_view spelling) {
  for (const ResultMetric& m : kResultMetrics)
    if (m.sweep_spelling() == spelling) return &m;
  return nullptr;
}

}  // namespace pcal
