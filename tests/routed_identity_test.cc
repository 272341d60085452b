// Pins the routed driver path bit for bit.
//
// FNV-1a digests over every stored field of the SimResult and of each
// CoreResult (result_fields.h; doubles as hexfloat), plus every
// interval snapshot an attached observer sees (clock, counters, the
// per-group census and the flat unit states), for MultiCoreSystem runs
// that route through private L1 + L2 stacks into a shared LLC:
//
//   contention off | mshrs=4 bandwidth=2 | ports=2 port_cycles=1 |
//   ports=2 port_cycles=2 | ports=1 port_cycles=3 (on every level)
//     x 1 and 2 cores x ipc_weight {1, 3}
//     x noninclusive and inclusive L2 and LLC
//
// plus a lone single-level core (the Simulator's shape) under each
// contention setting.  The shapes are chosen so that every knob moves
// the result: the rotating LLC's inclusive flush cascade empties L2,
// a uniform co-runner thrashes the shared LLC, MSHRs and fill
// bandwidth stall, and the three-cycle port hold stalls where the
// others never can.  Every case runs at batch sizes 256 and 7 and must
// land on the same digests.
//
// The digests were recorded before the driver served L1 hits in runs
// and must never change: a lower level that catches up a cycle late, a
// census taken before a core caught up, an LLC delta attributed to the
// wrong core or a contention event replayed at the wrong time all show
// up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/experiment.h"
#include "core/multicore.h"
#include "core/result_fields.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"

namespace pcal {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
    h ^= ';';
    h *= 0x100000001b3ull;
  }
};

/// Visitor for for_each_field: folds every stored field, recursing into
/// nested result structs, vectors and optionals.
struct FieldDigest {
  Fnv1a& fnv;

  template <class T>
  void operator()(const char* name, const T& value) {
    fnv.add(name);
    add(value);
  }

  void add(const std::string& s) { fnv.add(s); }
  void add(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    fnv.add(buf);
  }
  template <class T>
  void add(const std::vector<T>& v) {
    fnv.add("[" + std::to_string(v.size()));
    for (const T& x : v) add(x);
  }
  template <class T>
  void add(const std::optional<T>& o) {
    if (o)
      add(*o);
    else
      fnv.add("none");
  }
  template <class T>
  void add(const T& v) {
    if constexpr (std::is_enum_v<T>)
      fnv.add(std::to_string(static_cast<std::uint64_t>(v)));
    else if constexpr (std::is_integral_v<T>)
      fnv.add(std::to_string(v));
    else
      for_each_field(v, *this);
  }
};

template <class R>
void fold(Fnv1a& fnv, const R& r) {
  FieldDigest d{fnv};
  for_each_field(r, d);
}

struct Digests {
  std::uint64_t system = 0;
  std::uint64_t cores = 0;
  std::uint64_t snapshots = 0;
};

struct Case {
  std::string label;
  MultiCoreConfig config;
};

ContentionParams contention_setting(int which) {
  ContentionParams c;
  switch (which) {
    case 1:
      c.mshrs = 4;
      c.bytes_per_cycle = 2;
      break;
    case 2:
      c.ports = 2;
      c.port_cycles = 1;
      break;
    case 3:
      c.ports = 2;
      c.port_cycles = 2;
      break;
    case 4:
      c.ports = 1;
      c.port_cycles = 3;
      break;
    default:
      break;
  }
  return c;
}

const char* const kContentionLabels[] = {"off", "mshr4_bw2", "p2x1", "p2x2",
                                         "p1x3"};

/// The paper L1 (8kB/16B, M=4, probing) on a timed clock.
SimConfig timed_l1(const ContentionParams& contention) {
  SimConfig base = paper_config(8192, 16, 4);
  base.latency.miss_cycles = 2;
  base.latency.gated_wake_cycles = 3;
  base.contention = contention;
  return base;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (int c = 0; c < 5; ++c) {
    const ContentionParams contention = contention_setting(c);
    for (const std::size_t cores : {std::size_t{1}, std::size_t{2}})
      for (const std::uint64_t ipc : {std::uint64_t{1}, std::uint64_t{3}})
        for (const InclusionPolicy incl :
             {InclusionPolicy::kNonInclusive, InclusionPolicy::kInclusive}) {
          SimConfig base = timed_l1(contention);
          LevelConfig l2 = base.make_level(16 * 1024);
          l2.inclusion = incl;
          l2.topology.cache.ways = 2;
          l2.topology.latency.hit_cycles = 1;
          l2.topology.latency.miss_cycles = 3;
          l2.topology.contention = contention;
          base.lower_levels.push_back(l2);
          LevelConfig llc = base.make_level(32 * 1024);
          llc.inclusion = incl;
          llc.topology.cache.ways = 4;
          llc.topology.partition.num_banks = 4;
          llc.topology.indexing = IndexingKind::kProbing;
          llc.topology.breakeven_cycles = 64;
          llc.topology.latency.hit_cycles = 2;
          llc.topology.latency.miss_cycles = 6;
          llc.topology.contention = contention;
          MultiCoreConfig mc = make_multicore(base, cores, llc);
          for (MultiCoreConfig::Core& core : mc.cores) core.ipc_weight = ipc;
          out.push_back({std::string(kContentionLabels[c]) + "/" +
                             std::to_string(cores) + "c/ipc" +
                             std::to_string(ipc) +
                             (incl == InclusionPolicy::kInclusive ? "/incl"
                                                                  : "/nonincl"),
                         mc});
        }
    // A lone single-level core: the Simulator's shape.
    out.push_back({std::string(kContentionLabels[c]) + "/lone",
                   make_multicore(timed_l1(contention), 1, LevelConfig{})});
  }
  return out;
}

Digests run_case(const MultiCoreConfig& config, std::uint64_t batch) {
  std::vector<std::unique_ptr<TraceSource>> owned;
  owned.push_back(std::make_unique<SyntheticTraceSource>(
      make_mediabench_workload("cjpeg"), 30'000));
  if (config.cores.size() > 1)
    owned.push_back(std::make_unique<SyntheticTraceSource>(
        make_uniform_workload(64 * 1024), 30'000));
  std::vector<TraceSource*> sources;
  for (const auto& s : owned) sources.push_back(s.get());

  Fnv1a snaps;
  const IntervalObserver observer = [&snaps](const IntervalSnapshot& s) {
    snaps.add(std::to_string(s.interval) + "," + std::to_string(s.cycles) +
              "," + std::to_string(s.updates_applied) + "," +
              std::to_string(s.fired_update) + "," +
              std::to_string(s.final_snapshot) + "," +
              std::to_string(s.context_switch) + "," +
              std::to_string(s.accesses) + "," +
              std::to_string(s.stall_cycles));
    fold(snaps, *s.stats);
    for (const UnitGroupStates& g : *s.groups) {
      snaps.add(std::to_string(g.core) + "," + std::to_string(g.level) +
                "," + std::to_string(g.first_unit) + "," +
                std::to_string(g.units) + "," + std::to_string(g.awake) +
                "," + std::to_string(g.drowsy) + "," +
                std::to_string(g.gated));
      fold(snaps, g.stats);
    }
    std::string states;
    for (const UnitPowerState u : *s.unit_states) states += to_char(u);
    snaps.add(states);
  };

  const MultiCoreResult r =
      MultiCoreSystem(config).run(sources, nullptr, observer, batch);
  Digests d;
  Fnv1a system;
  fold(system, r.system);
  d.system = system.h;
  Fnv1a cores;
  for (const CoreResult& c : r.cores) fold(cores, c);
  d.cores = cores.h;
  d.snapshots = snaps.h;
  return d;
}

struct Recorded {
  const char* label;
  std::uint64_t system;
  std::uint64_t cores;
  std::uint64_t snapshots;
};

// Recorded before hit runs; see the file comment.  On a mismatch the
// test prints the table this build computes.
const Recorded kRecorded[] = {
    {"off/1c/ipc1/nonincl",
     0x5c460fd59650e624ull, 0xa18302815d34f5c2ull, 0x1ee083f6ab68e1e0ull},
    {"off/1c/ipc1/incl",
     0xb293de8724a3149eull, 0xa12ec19cd4588da6ull, 0x2a9dd51f99a4d487ull},
    {"off/1c/ipc3/nonincl",
     0x5c460fd59650e624ull, 0xa18302815d34f5c2ull, 0x1ee083f6ab68e1e0ull},
    {"off/1c/ipc3/incl",
     0xb293de8724a3149eull, 0xa12ec19cd4588da6ull, 0x2a9dd51f99a4d487ull},
    {"off/2c/ipc1/nonincl",
     0xa9e1c6daac4cf5f6ull, 0x8033904edea8a831ull, 0xb6b56b2fc9341c0full},
    {"off/2c/ipc1/incl",
     0x075636d2dd73a04full, 0x59456bdd70228ac5ull, 0xa7cb0e56ba9b9271ull},
    {"off/2c/ipc3/nonincl",
     0x0ef7bf3ed2421a61ull, 0x4aa91e1a3e3b266full, 0x13842b96ff43bc1dull},
    {"off/2c/ipc3/incl",
     0x3374775fd510c322ull, 0xb164037866e8a15cull, 0x414f64138a900b28ull},
    {"off/lone",
     0xf44efb5cc7d57c7dull, 0x17fd30172f3ad789ull, 0xbfb897687f9e2479ull},
    {"mshr4_bw2/1c/ipc1/nonincl",
     0x9c71809032d8f889ull, 0x69f965a1c0112c0eull, 0x5e7919da26d4237bull},
    {"mshr4_bw2/1c/ipc1/incl",
     0xe87cfe43cb9b4af5ull, 0xa12ec19cd4588da6ull, 0x2a9dd51f99a4d487ull},
    {"mshr4_bw2/1c/ipc3/nonincl",
     0x9c71809032d8f889ull, 0x69f965a1c0112c0eull, 0x5e7919da26d4237bull},
    {"mshr4_bw2/1c/ipc3/incl",
     0xe87cfe43cb9b4af5ull, 0xa12ec19cd4588da6ull, 0x2a9dd51f99a4d487ull},
    {"mshr4_bw2/2c/ipc1/nonincl",
     0xcd08f0096802d156ull, 0x27d0d1bdec4ee1b2ull, 0xcc317d2e61c1c5bbull},
    {"mshr4_bw2/2c/ipc1/incl",
     0x940dee84bce91970ull, 0xa982d016ef498b35ull, 0x479931d52e0290eeull},
    {"mshr4_bw2/2c/ipc3/nonincl",
     0x8d64225fd291adf7ull, 0x66da8110c4ff9affull, 0xe72c3cf102d29319ull},
    {"mshr4_bw2/2c/ipc3/incl",
     0x3f330f5fa3acc0d3ull, 0xfeac6f3ac1ac65d2ull, 0xcc2bc892149d0411ull},
    {"mshr4_bw2/lone",
     0xf79806426e1cf2deull, 0x64b3110d7a086d6full, 0x628a7b96d5b9fcc8ull},
    {"p2x1/1c/ipc1/nonincl",
     0x91f5a4e4cd303a57ull, 0xa18302815d34f5c2ull, 0x1ee083f6ab68e1e0ull},
    {"p2x1/1c/ipc1/incl",
     0xee38f559de4ced3full, 0xa12ec19cd4588da6ull, 0x2a9dd51f99a4d487ull},
    {"p2x1/1c/ipc3/nonincl",
     0x91f5a4e4cd303a57ull, 0xa18302815d34f5c2ull, 0x1ee083f6ab68e1e0ull},
    {"p2x1/1c/ipc3/incl",
     0xee38f559de4ced3full, 0xa12ec19cd4588da6ull, 0x2a9dd51f99a4d487ull},
    {"p2x1/2c/ipc1/nonincl",
     0xe139d5216be9faf1ull, 0x8033904edea8a831ull, 0xb6b56b2fc9341c0full},
    {"p2x1/2c/ipc1/incl",
     0x87258b73a0055c6eull, 0x59456bdd70228ac5ull, 0xa7cb0e56ba9b9271ull},
    {"p2x1/2c/ipc3/nonincl",
     0xe4ac4da07e291372ull, 0x4aa91e1a3e3b266full, 0x13842b96ff43bc1dull},
    {"p2x1/2c/ipc3/incl",
     0x223cac6e4041e823ull, 0xb164037866e8a15cull, 0x414f64138a900b28ull},
    {"p2x1/lone",
     0xf3055c4ee88d6da2ull, 0x17fd30172f3ad789ull, 0xbfb897687f9e2479ull},
    {"p2x2/1c/ipc1/nonincl",
     0xde35f2c56bd8cd0dull, 0xa18302815d34f5c2ull, 0x1ee083f6ab68e1e0ull},
    {"p2x2/1c/ipc1/incl",
     0x031538e5df409575ull, 0xa12ec19cd4588da6ull, 0x2a9dd51f99a4d487ull},
    {"p2x2/1c/ipc3/nonincl",
     0xde35f2c56bd8cd0dull, 0xa18302815d34f5c2ull, 0x1ee083f6ab68e1e0ull},
    {"p2x2/1c/ipc3/incl",
     0x031538e5df409575ull, 0xa12ec19cd4588da6ull, 0x2a9dd51f99a4d487ull},
    {"p2x2/2c/ipc1/nonincl",
     0xd27c1ec5c60fefd3ull, 0x8033904edea8a831ull, 0xb6b56b2fc9341c0full},
    {"p2x2/2c/ipc1/incl",
     0x5160e98cb0701d4cull, 0x59456bdd70228ac5ull, 0xa7cb0e56ba9b9271ull},
    {"p2x2/2c/ipc3/nonincl",
     0x3a6fcb2565cef540ull, 0x4aa91e1a3e3b266full, 0x13842b96ff43bc1dull},
    {"p2x2/2c/ipc3/incl",
     0xafadefd8cd97743dull, 0xb164037866e8a15cull, 0x414f64138a900b28ull},
    {"p2x2/lone",
     0xc7180ed717aa0708ull, 0x17fd30172f3ad789ull, 0xbfb897687f9e2479ull},
    {"p1x3/1c/ipc1/nonincl",
     0x7780cfa035217269ull, 0x51383a0f9e18b946ull, 0xb939ecdc26fdc53cull},
    {"p1x3/1c/ipc1/incl",
     0xc19fb054c3e31b62ull, 0x652ca2dd25b4b90bull, 0xd9d8645374a0177full},
    {"p1x3/1c/ipc3/nonincl",
     0x7780cfa035217269ull, 0x51383a0f9e18b946ull, 0xb939ecdc26fdc53cull},
    {"p1x3/1c/ipc3/incl",
     0xc19fb054c3e31b62ull, 0x652ca2dd25b4b90bull, 0xd9d8645374a0177full},
    {"p1x3/2c/ipc1/nonincl",
     0x06712934334a449bull, 0x7dfff3bc0904a22dull, 0x05438e3fea0ae668ull},
    {"p1x3/2c/ipc1/incl",
     0xa50dcd99eb1e54c9ull, 0xbcffa6c56ed56accull, 0x1368bea0f53818e1ull},
    {"p1x3/2c/ipc3/nonincl",
     0xf9ad2380da22b130ull, 0x8de4ea6e7e3116f6ull, 0x8471fe7790875322ull},
    {"p1x3/2c/ipc3/incl",
     0x2d6c8fec35f8b52aull, 0x959add19e1d3060full, 0xf836a45df70a6eaeull},
    {"p1x3/lone",
     0xd63a8710df738b89ull, 0x4755ad452f7e9e6dull, 0x87831ee2984885e1ull},
};

bool operator==(const Digests& a, const Digests& b) {
  return a.system == b.system && a.cores == b.cores &&
         a.snapshots == b.snapshots;
}

TEST(RoutedIdentity, DigestsMatchRecorded) {
  const std::vector<Case> all = cases();
  EXPECT_EQ(all.size(), std::size(kRecorded));
  std::string fresh;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Case& c = all[i];
    SCOPED_TRACE(c.label);
    const Digests d = run_case(c.config, 256);
    EXPECT_TRUE(run_case(c.config, 7) == d) << "batch size moved a digest";
    char line[160];
    std::snprintf(line, sizeof(line),
                  "    {\"%s\",\n"
                  "     0x%016llxull, 0x%016llxull, 0x%016llxull},\n",
                  c.label.c_str(), static_cast<unsigned long long>(d.system),
                  static_cast<unsigned long long>(d.cores),
                  static_cast<unsigned long long>(d.snapshots));
    fresh += line;
    if (i >= std::size(kRecorded)) continue;
    const Recorded& want = kRecorded[i];
    EXPECT_EQ(c.label, want.label);
    EXPECT_TRUE(d == (Digests{want.system, want.cores, want.snapshots}))
        << "digests moved";
  }
  if (HasFailure()) std::printf("computed digests:\n%s", fresh.c_str());
}

}  // namespace
}  // namespace pcal
