// Seeded mutation fuzz of the .pct packed-trace header
// (trace/binary_trace.h), in the journal_fuzz_test style: no fuzzing
// engine, fixed seeds, real inputs.  Real .pct files — a packed synthetic
// trace, a streamed one and an empty one — get their magic, version,
// flags or record-count bytes overwritten, are truncated, or have bytes
// appended.  Every mutant goes through BinaryTraceSource, pct_file_info
// and load_trace_file and must either load or be refused with ParseError:
// no other exception, no crash, nothing the ASan/UBSan legs flag.  A
// mutant that loads must replay exactly the record count its header
// declares.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "trace/binary_trace.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"
#include "util/error.h"
#include "util/rng.h"

namespace pcal {
namespace {

using Bytes = std::vector<unsigned char>;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/pid" + std::to_string(::getpid()) + "_" +
         name;
}

Bytes read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Real .pct files, as the writers produce them.
const std::vector<Bytes>& corpus() {
  static const std::vector<Bytes>* files = [] {
    auto* out = new std::vector<Bytes>;
    const std::string path = temp_path("pct_fuzz_corpus.pct");
    SyntheticTraceSource cjpeg(make_mediabench_workload("cjpeg"), 300);
    write_pct_file(Trace::materialize(cjpeg), path);
    out->push_back(read_bytes(path));
    SyntheticTraceSource hotspot(make_hotspot_workload(8 * 1024), 77);
    write_pct_stream(hotspot, path);
    out->push_back(read_bytes(path));
    write_pct_file(Trace{}, path);
    out->push_back(read_bytes(path));
    std::remove(path.c_str());
    return out;
  }();
  return *files;
}

void put_le(Bytes& b, std::size_t offset, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i)
    b[offset + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t get_le(const Bytes& b, std::size_t offset, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i)
    v |= static_cast<std::uint64_t>(b[offset + static_cast<std::size_t>(i)])
         << (8 * i);
  return v;
}

/// One random header-targeted mutation of a .pct image.
Bytes mutate(Bytes b, Xoshiro256& rng) {
  static const std::uint64_t kHostileCounts[] = {
      0,
      1,
      0xffffffffull,
      1ull << 61,
      (~0ull - kPctHeaderBytes) / kPctRecordBytes,
      (~0ull - kPctHeaderBytes) / kPctRecordBytes + 1,
      ~0ull};
  static const std::uint32_t kHostileWords[] = {0, 2, kPctVersion + 1,
                                                0x80000000u, 0xffffffffu};
  switch (rng.next_below(6)) {
    case 0: {  // magic: flip one bit of the first 8 bytes
      const std::size_t pos = rng.next_below(8);
      b[pos] =
          static_cast<unsigned char>(b[pos] ^ (1u << rng.next_below(8)));
      break;
    }
    case 1:  // version
      put_le(b, 8,
             rng.next_bool(0.5)
                 ? kHostileWords[rng.next_below(std::size(kHostileWords))]
                 : rng.next() & 0xffffffffu,
             4);
      break;
    case 2:  // reserved flags
      put_le(b, 12, 1u << rng.next_below(32), 4);
      break;
    case 3: {  // record count, sometimes with the payload resized to match
      const std::uint64_t count = get_le(b, 16, 8);
      std::uint64_t fresh =
          rng.next_bool(0.5)
              ? kHostileCounts[rng.next_below(std::size(kHostileCounts))]
              : count + rng.next_below(5) - 2;
      put_le(b, 16, fresh, 8);
      if (fresh <= count + 4 && rng.next_bool(0.5))
        b.resize(kPctHeaderBytes + fresh * kPctRecordBytes, 0x5a);
      break;
    }
    case 4:  // truncation (possibly into the header)
      b.resize(rng.next_below(b.size()));
      break;
    default:  // appended bytes
      for (std::uint64_t n = 1 + rng.next_below(17); n > 0; --n)
        b.push_back(static_cast<unsigned char>(rng.next()));
      break;
  }
  return b;
}

/// Runs `parse`; a ParseError is a refusal, returning normally a load.
/// Anything else fails the test.  Returns true iff it loaded.
template <class F>
bool loads_or_refuses(F&& parse, const char* reader, std::uint64_t mutant) {
  try {
    parse();
    return true;
  } catch (const ParseError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << reader << ": non-ParseError exception '" << e.what()
                  << "' for mutant " << mutant;
    return false;
  }
}

class PctFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PctFuzz, MutatedFilesLoadOrRaiseParseError) {
  Xoshiro256 rng(GetParam());
  const std::string path =
      temp_path("pct_fuzz_" + std::to_string(GetParam()) + ".pct");
  std::size_t loaded = 0, refused = 0;
  for (std::uint64_t i = 0; i < 120; ++i) {
    const Bytes mutant =
        mutate(corpus()[rng.next_below(corpus().size())], rng);
    write_bytes(path, mutant);
    const bool mapped = loads_or_refuses(
        [&] {
          BinaryTraceSource source(path);
          const std::uint64_t declared = get_le(mutant, 16, 8);
          EXPECT_EQ(source.size(), declared) << "mutant " << i;
          EXPECT_EQ(Trace::materialize(source).size(), declared)
              << "mutant " << i;
        },
        "BinaryTraceSource", i);
    const bool info = loads_or_refuses(
        [&] {
          const PctInfo header = pct_file_info(path);
          EXPECT_EQ(header.count, get_le(mutant, 16, 8)) << "mutant " << i;
        },
        "pct_file_info", i);
    EXPECT_EQ(mapped, info) << "the two header readers disagree on mutant "
                            << i;
    // A mangled magic sends load_trace_file to the text parser, which
    // must refuse binary noise just as cleanly.
    loads_or_refuses([&] { load_trace_file(path); }, "load_trace_file", i);
    ++(mapped ? loaded : refused);
  }
  // The header validator both accepted and refused mutants: the fuzz
  // reached it.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PctFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

TEST(PctFuzz, UnmutatedCorpusLoads) {
  const std::string path = temp_path("pct_fuzz_clean.pct");
  for (const Bytes& file : corpus()) {
    write_bytes(path, file);
    const std::uint64_t declared = get_le(file, 16, 8);
    BinaryTraceSource source(path);
    EXPECT_EQ(source.size(), declared);
    EXPECT_EQ(load_trace_file(path).size(), declared);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pcal
