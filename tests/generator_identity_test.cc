// Pins the synthetic generators' output bit for bit.
//
// Every MediaBench spec, the generic uniform / streaming / hotspot specs
// and one multiprogrammed mix are hashed (FNV-1a over each access's
// address and kind) at 100k accesses.  The digests were recorded before
// the generator became batch-native and must never change: a one-ulp
// drift in a Zipf rank, a reordered RNG draw or a run split at the wrong
// window boundary all show up here, ahead of the paper tables.  The same
// stream must come out of next() and of next_batch at every batch size,
// including sizes that end exactly on, and one past, a window boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace/multiprogram.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"

namespace pcal {
namespace {

constexpr std::uint64_t kAccesses = 100'000;
constexpr std::uint64_t kFootprint = 8 * 1024;

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void add(const MemAccess& a) {
    for (int i = 0; i < 8; ++i)
      byte(static_cast<std::uint8_t>(a.address >> (8 * i)));
    byte(static_cast<std::uint8_t>(a.kind));
  }
};

struct Case {
  std::string name;
  std::function<std::unique_ptr<TraceSource>()> make;
  std::uint64_t window_len;  // the generator's scheduling window
  std::uint64_t digest;      // recorded through next(), never edited
};

MultiProgramConfig mix_config() {
  MultiProgramConfig cfg;
  cfg.programs = {make_mediabench_workload("cjpeg"),
                  make_mediabench_workload("dijkstra"),
                  make_hotspot_workload(kFootprint)};
  // Not a multiple of the 2000-access windows: switches land mid-window.
  cfg.quantum_accesses = 7000;
  return cfg;
}

// Recorded through next() before the generator became batch-native.
const std::map<std::string, std::uint64_t>& recorded_digests() {
  static const std::map<std::string, std::uint64_t> kDigests = {
      {"adpcm.dec", 0x2c8d25badb05d5e9ull},
      {"cjpeg", 0xe376decf70c3a2eeull},
      {"CRC32", 0x3b77eae1de5213d0ull},
      {"dijkstra", 0x3cf19eadb01b9936ull},
      {"djpeg", 0x3d06acab643895dbull},
      {"fft_1", 0x4d7d1e98017a98ebull},
      {"fft_2", 0xdaee3794e629cbb1ull},
      {"gsmd", 0x629695015c03e026ull},
      {"gsme", 0x3d45e8b7ee52acccull},
      {"ispell", 0x63e1ac673b12ad50ull},
      {"lame", 0xf4b3ff19825dac7eull},
      {"mad", 0xe32a0a781a7615c2ull},
      {"rijndael_i", 0xe0429dcfd0e5e444ull},
      {"rijndael_o", 0xd3fda6b5dd8e6b81ull},
      {"say", 0x6148071433ead494ull},
      {"search", 0xe32ca57c9e128457ull},
      {"sha", 0x2f8ad0e3fe40654bull},
      {"tiff2bw", 0x7178de0da59678dfull},
      {"uniform", 0xa5353b1bbc24d13cull},
      {"streaming", 0x3c18f2e0c67cb098ull},
      {"hotspot", 0x595d991b69b67b48ull},
      {"multiprog", 0x975f07e7c37d9b5cull},
  };
  return kDigests;
}

std::vector<Case> cases() {
  std::vector<WorkloadSpec> specs = all_mediabench_workloads();
  specs.push_back(make_uniform_workload(kFootprint));
  specs.push_back(make_streaming_workload(kFootprint));
  specs.push_back(make_hotspot_workload(kFootprint));
  std::vector<Case> out;
  for (const WorkloadSpec& spec : specs) {
    out.push_back({spec.name,
                   [spec] {
                     return std::make_unique<SyntheticTraceSource>(spec,
                                                                   kAccesses);
                   },
                   spec.window_len, recorded_digests().at(spec.name)});
  }
  out.push_back({"multiprog",
                 [] {
                   return std::make_unique<MultiProgramSource>(mix_config(),
                                                               kAccesses);
                 },
                 mix_config().programs[0].window_len,
                 recorded_digests().at("multiprog")});
  EXPECT_EQ(out.size(), recorded_digests().size());
  return out;
}

/// Digest of one pass through next_batch at `batch` (0 = through next()).
std::uint64_t digest_of(TraceSource& source, std::size_t batch,
                        std::uint64_t* count) {
  source.reset();
  Fnv1a fnv;
  *count = 0;
  if (batch == 0) {
    while (auto a = source.next()) {
      fnv.add(*a);
      ++*count;
    }
    return fnv.h;
  }
  std::vector<MemAccess> buf(batch);
  for (;;) {
    const std::size_t n = source.next_batch(buf.data(), batch);
    if (n == 0) break;
    EXPECT_LE(n, batch);
    for (std::size_t i = 0; i < n; ++i) fnv.add(buf[i]);
    *count += n;
  }
  return fnv.h;
}

TEST(GeneratorIdentity, NextMatchesRecordedDigests) {
  for (const Case& c : cases()) {
    auto source = c.make();
    std::uint64_t count = 0;
    const std::uint64_t got = digest_of(*source, 0, &count);
    EXPECT_EQ(count, kAccesses) << c.name;
    EXPECT_EQ(got, c.digest)
        << c.name << ": digest 0x" << std::hex << got << " (recorded 0x"
        << c.digest << ")";
  }
}

TEST(GeneratorIdentity, EveryBatchSizeGivesTheSameStream) {
  for (const Case& c : cases()) {
    auto source = c.make();
    const std::size_t window = static_cast<std::size_t>(c.window_len);
    for (std::size_t batch :
         {std::size_t{1}, std::size_t{3}, std::size_t{255}, std::size_t{256},
          window, window + 1}) {
      std::uint64_t count = 0;
      EXPECT_EQ(digest_of(*source, batch, &count), c.digest)
          << c.name << " at batch " << batch;
      EXPECT_EQ(count, kAccesses) << c.name << " at batch " << batch;
    }
  }
}

// next() and next_batch interleaved on one source continue one stream.
TEST(GeneratorIdentity, MixedCallsContinueOneStream) {
  for (const Case& c : cases()) {
    auto source = c.make();
    Fnv1a fnv;
    std::vector<MemAccess> buf(c.window_len + 1);
    std::uint64_t count = 0;
    for (std::size_t step = 0;; ++step) {
      if (step % 2 == 0) {
        auto a = source->next();
        if (!a) break;
        fnv.add(*a);
        ++count;
        continue;
      }
      const std::size_t want = 1 + (step * 7919) % buf.size();
      const std::size_t n = source->next_batch(buf.data(), want);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) fnv.add(buf[i]);
      count += n;
    }
    EXPECT_EQ(count, kAccesses) << c.name;
    EXPECT_EQ(fnv.h, c.digest) << c.name;
  }
}

}  // namespace
}  // namespace pcal
