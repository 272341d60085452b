// Pins SimResult::energy bit for bit across the pricing code.
//
// Two sets of runs over the 18 MediaBench workloads at 20k accesses are
// hashed (FNV-1a over the hex-float EnergyBreakdown components, the
// baseline and the breakeven):
//
//   - every default-priced bank configuration of the paper's Tables
//     II-IV: 8/16/32 kB, 16 B and 32 B lines, every valid M (1..16; the
//     partition rejects M = 32), Probing and static indexing;
//   - every granularity and policy priced with the st45 EnergyParams
//     preset, drowsy window 48 included, plus an L1+L2 stack.
//
// The digests were recorded before the legacy bank pricing path was
// folded into the per-unit model and must never change: a reordered sum
// or a one-ulp drift in a leakage term shows up here, ahead of the paper
// tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/enum_strings.h"
#include "core/simulator.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"

namespace pcal {
namespace {

constexpr std::uint64_t kAccesses = 20'000;

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a;", v);
    add(std::string(buf));
  }
};

/// Digest of one config's energy over every MediaBench workload.
std::uint64_t energy_digest(const SimConfig& cfg) {
  Fnv1a fnv;
  for (const WorkloadSpec& spec : all_mediabench_workloads()) {
    SyntheticTraceSource source(spec, kAccesses);
    const SimResult r = Simulator(cfg).run(source);
    const EnergyBreakdown& e = r.energy.partitioned;
    fnv.add(spec.name);
    for (const double v :
         {e.dynamic_pj, e.leakage_active_pj, e.leakage_retention_pj,
          e.leakage_drowsy_pj, e.transition_pj, r.energy.baseline_pj})
      fnv.add(v);
    fnv.add(std::to_string(r.breakeven_cycles));
  }
  return fnv.h;
}

SimConfig base_config(std::uint64_t size, std::uint64_t line,
                      std::uint64_t banks) {
  SimConfig cfg;
  cfg.cache.size_bytes = size;
  cfg.cache.line_bytes = line;
  cfg.cache.ways = 1;
  cfg.partition.num_banks = banks;
  return cfg;
}

void expect_digest(const std::map<std::string, std::uint64_t>& recorded,
                   const std::string& label, const SimConfig& cfg) {
  const std::uint64_t got = energy_digest(cfg);
  const auto it = recorded.find(label);
  ASSERT_NE(it, recorded.end()) << label << ": no recorded digest (got 0x"
                                << std::hex << got << ")";
  EXPECT_EQ(got, it->second) << label << ": digest 0x" << std::hex << got
                             << " (recorded 0x" << it->second << ")";
}

TEST(EnergyIdentity, PaperBankConfigsMatchRecordedDigests) {
  static const std::map<std::string, std::uint64_t> kDigests = {
      {"8k/16B M=1 probing", 0x92c37f3ba2f644d1ull},
      {"8k/16B M=1 static", 0x92c37f3ba2f644d1ull},
      {"8k/16B M=2 probing", 0x58f53deeb5f117a4ull},
      {"8k/16B M=2 static", 0x671a392884dc1318ull},
      {"8k/16B M=4 probing", 0xd893f83dbf7bb436ull},
      {"8k/16B M=4 static", 0xac97dd2cabc616e0ull},
      {"8k/16B M=8 probing", 0xe954cab2361b5300ull},
      {"8k/16B M=8 static", 0x1f2f215d37c4e84aull},
      {"8k/16B M=16 probing", 0xfa9594e704dd24f7ull},
      {"8k/16B M=16 static", 0xc94128a2bb74909cull},
      {"8k/32B M=1 probing", 0xc8d61387ea4cad65ull},
      {"8k/32B M=1 static", 0xc8d61387ea4cad65ull},
      {"8k/32B M=2 probing", 0xc804963713fcb30dull},
      {"8k/32B M=2 static", 0x1f97a1792f60cc35ull},
      {"8k/32B M=4 probing", 0xdb56292dec87289cull},
      {"8k/32B M=4 static", 0x45106b6cb4d88a2dull},
      {"8k/32B M=8 probing", 0xc8cff29ef162e7d1ull},
      {"8k/32B M=8 static", 0xeb8b6f163877db54ull},
      {"8k/32B M=16 probing", 0x70c1d3531eb5d645ull},
      {"8k/32B M=16 static", 0x4b1d26911cf7682aull},
      {"16k/16B M=1 probing", 0x2d5a1a4ebad3151ull},
      {"16k/16B M=1 static", 0x2d5a1a4ebad3151ull},
      {"16k/16B M=2 probing", 0xcf7cdb2a356f33f6ull},
      {"16k/16B M=2 static", 0x944b7cc2641c1e49ull},
      {"16k/16B M=4 probing", 0x5f88c9b3f483b315ull},
      {"16k/16B M=4 static", 0xfdf4528eba75f04aull},
      {"16k/16B M=8 probing", 0x66904a0df95fcb49ull},
      {"16k/16B M=8 static", 0xbec29f3af6b1f328ull},
      {"16k/16B M=16 probing", 0x8e7c435b7537d19dull},
      {"16k/16B M=16 static", 0x8800ca2a189504full},
      {"16k/32B M=1 probing", 0xd0ff4e1c6e21a83dull},
      {"16k/32B M=1 static", 0xd0ff4e1c6e21a83dull},
      {"16k/32B M=2 probing", 0x46571e706e7c549eull},
      {"16k/32B M=2 static", 0x3a0105eaf8cfb786ull},
      {"16k/32B M=4 probing", 0xb56778cce13ec268ull},
      {"16k/32B M=4 static", 0x7ff33ece07679329ull},
      {"16k/32B M=8 probing", 0x429b2b5b0048b1d6ull},
      {"16k/32B M=8 static", 0xcf1180f3454fb10aull},
      {"16k/32B M=16 probing", 0xddb1a7162e05364cull},
      {"16k/32B M=16 static", 0xdc325b201d377ed7ull},
      {"32k/16B M=1 probing", 0x1d98b31b6c5040b1ull},
      {"32k/16B M=1 static", 0x1d98b31b6c5040b1ull},
      {"32k/16B M=2 probing", 0xce14d763bf22394dull},
      {"32k/16B M=2 static", 0x9bec1f2e90a6d95bull},
      {"32k/16B M=4 probing", 0xf391a766eb102789ull},
      {"32k/16B M=4 static", 0xfd35a86e3012878bull},
      {"32k/16B M=8 probing", 0x5f26dfdb3d3c6385ull},
      {"32k/16B M=8 static", 0x45a9f0f6e301095full},
      {"32k/16B M=16 probing", 0x2e82e438a81331baull},
      {"32k/16B M=16 static", 0x71bdf4b3e5fa5579ull},
      {"32k/32B M=1 probing", 0xf89e1b9f8ac6aeddull},
      {"32k/32B M=1 static", 0xf89e1b9f8ac6aeddull},
      {"32k/32B M=2 probing", 0xe078dc9c6b488028ull},
      {"32k/32B M=2 static", 0x880f115e1c588a3cull},
      {"32k/32B M=4 probing", 0xd603a9236c775964ull},
      {"32k/32B M=4 static", 0xa2f4679d570cd965ull},
      {"32k/32B M=8 probing", 0x1c028c0db9ca4833ull},
      {"32k/32B M=8 static", 0x5333104d37892d01ull},
      {"32k/32B M=16 probing", 0x73aff8e0fc81dc5ull},
      {"32k/32B M=16 static", 0x3bae479acd5d1247ull},
  };
  std::size_t checked = 0;
  for (const std::uint64_t size : {8192, 16384, 32768})
    for (const std::uint64_t line : {16, 32})
      for (const std::uint64_t banks : {1, 2, 4, 8, 16})
        for (const IndexingKind indexing :
             {IndexingKind::kProbing, IndexingKind::kStatic}) {
          SimConfig cfg = base_config(size, line, banks);
          cfg.indexing = indexing;
          const std::string label =
              std::to_string(size / 1024) + "k/" + std::to_string(line) +
              "B M=" + std::to_string(banks) + " " + to_string(indexing);
          expect_digest(kDigests, label, cfg);
          ++checked;
        }
  EXPECT_EQ(checked, kDigests.size());
}

TEST(EnergyIdentity, St45PricedGranularitiesMatchRecordedDigests) {
  static const std::map<std::string, std::uint64_t> kDigests = {
      {"bank + 32k L2", 0xa64b283e2a368567ull},
      {"bank drowsy48", 0x728f8dd11860c5cdull},
      {"bank gated", 0xf88efe1b9c872eb5ull},
      {"line drowsy48", 0x1c8ca338dfcdc9ddull},
      {"line gated", 0x254957387a063ca0ull},
      {"monolithic drowsy48", 0x673ea12ebb6a2f41ull},
      {"monolithic gated", 0x673ea12ebb6a2f41ull},
      {"way drowsy48", 0xa984abc69b9c4656ull},
      {"way gated", 0x214108b81bb78835ull},
  };
  std::map<std::string, SimConfig> configs;
  for (const Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                              Granularity::kWay, Granularity::kLine}) {
    SimConfig cfg = base_config(8192, 16, 4);
    cfg.granularity = g;
    if (g == Granularity::kWay) cfg.cache.ways = 4;
    const std::string name = to_string(g);
    configs[name + " gated"] = cfg;
    configs[name + " drowsy48"] = drowsy_hybrid_variant(cfg, 48);
  }
  configs["bank + 32k L2"] =
      two_level_variant(base_config(8192, 16, 4), 32768);
  for (auto& [label, cfg] : configs) {
    cfg.energy_params = EnergyParams::st45();
    expect_digest(kDigests, label, cfg);
  }
  EXPECT_EQ(configs.size(), kDigests.size());
}

}  // namespace
}  // namespace pcal
