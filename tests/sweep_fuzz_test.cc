// Seeded mutation fuzz of the .sweep parser (core/grid_spec.h), in the
// journal_fuzz_test style: no fuzzing engine, fixed seeds, real inputs.
// Every shipped examples/*.sweep is mutated by bit flips, line drops,
// line duplications, truncations, values swapped across keys and
// hostile value substitutions, then parsed and expanded.  Every mutant
// must either expand or be refused with ParseError / ConfigError: no
// other exception, no crash, nothing the ASan/UBSan legs flag.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/grid_spec.h"
#include "trace/binary_trace.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"
#include "util/error.h"
#include "util/rng.h"

namespace pcal {
namespace {

/// Mutants whose grid grows past this many points are parsed but not
/// expanded: a million-job expansion only costs memory.
constexpr std::size_t kMaxExpandedJobs = 20'000;

/// A small .pct trace standing in for the specs' trace:demo.pct.
const std::string& demo_trace() {
  static const std::string path = [] {
    const std::string p = ::testing::TempDir() + "/pid" +
                          std::to_string(::getpid()) + "_demo.pct";
    SyntheticTraceSource source(make_mediabench_workload("cjpeg"), 2000);
    write_pct_stream(source, p);
    return p;
  }();
  return path;
}

/// Every shipped spec as {file name, text}, its demo trace made absolute.
const std::vector<std::pair<std::string, std::string>>& corpus() {
  static const auto specs = [] {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(PCAL_SOURCE_DIR) / "examples")) {
      if (entry.path().extension() != ".sweep") continue;
      std::ifstream in(entry.path());
      std::string text{std::istreambuf_iterator<char>(in), {}};
      for (std::size_t at; (at = text.find("trace:demo.pct")) != text.npos;)
        text.replace(at, 14, "trace:" + demo_trace());
      out.emplace_back(entry.path().filename().string(), text);
    }
    std::sort(out.begin(), out.end());
    return out;
  }();
  return specs;
}

/// One random mutation of a spec text.
std::string mutate(const std::string& text, Xoshiro256& rng) {
  static const char* const kHostile[] = {
      "18446744073709551616", "-1", "0", "18014398509481985k", "4096..1",
      "0..16 log2", "1..8 step 0", "1..1000000", "nan", "1e999", "", ",",
      "trace:", "trace:/nonexistent.pct", "multiprog:sha@0", "8k, 8k",
      "mediabench, mediabench", "idleness:x:pct:99", "1 2 ; ; 3"};
  if (text.empty()) return "x";
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  std::vector<std::string*> kv;  // the "key = value" lines
  for (std::string& l : lines)
    if (!l.empty() && l[0] != '#' && l[0] != '[' && l.find('=') != l.npos)
      kv.push_back(&l);
  const std::size_t l = rng.next_below(lines.size());
  std::string s = text;
  switch (rng.next_below(6)) {
    case 0:  // bit flip
      s[rng.next_below(s.size())] ^= static_cast<char>(1 << rng.next_below(8));
      return s;
    case 1:  // truncation
      return s.substr(0, rng.next_below(s.size()));
    case 2:  // line drop
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(l));
      break;
    case 3:  // line duplication
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(l), lines[l]);
      break;
    case 4: {  // values swapped across keys
      if (kv.empty()) return s;
      std::string& a = *kv[rng.next_below(kv.size())];
      std::string& b = *kv[rng.next_below(kv.size())];
      const std::size_t ea = a.find('=') + 1, eb = b.find('=') + 1;
      const std::string va = a.substr(ea);
      a = a.substr(0, ea) + b.substr(eb);
      b = b.substr(0, eb) + va;
      break;
    }
    default: {  // hostile value
      if (kv.empty()) return s;
      std::string& a = *kv[rng.next_below(kv.size())];
      a = a.substr(0, a.find('=') + 1) + " " +
          kHostile[rng.next_below(std::size(kHostile))];
      break;
    }
  }
  s.clear();
  for (const std::string& line : lines) s += line + '\n';
  return s;
}

enum class Verdict { kExpanded, kTooLarge, kRefused };

/// Parses and expands `text`.  A ParseError / ConfigError is a refusal;
/// anything else fails the test.
Verdict parse_and_expand(const std::string& text) {
  try {
    std::istringstream is(text);
    const GridSpec spec = GridSpec::parse(is, "fuzz");
    if (spec.cross_product_size() > kMaxExpandedJobs)
      return Verdict::kTooLarge;
    (void)spec.expand();
    return Verdict::kExpanded;
  } catch (const ParseError&) {
  } catch (const ConfigError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected exception '" << e.what()
                  << "' for mutant:\n"
                  << text;
  }
  return Verdict::kRefused;
}

TEST(SweepFuzz, UnmutatedSpecsExpand) {
  ASSERT_GE(corpus().size(), 10u);
  for (const auto& [name, text] : corpus())
    EXPECT_EQ(parse_and_expand(text), Verdict::kExpanded) << name;
}

class SweepFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepFuzz, MutatedSpecsExpandOrRaiseConfigErrors) {
  Xoshiro256 rng(GetParam());
  std::size_t counts[3] = {};
  for (int i = 0; i < 400; ++i) {
    std::string text = corpus()[rng.next_below(corpus().size())].second;
    // Up to two mutations, so the second can land on broken input.
    for (std::uint64_t n = 1 + rng.next_below(2); n > 0; --n)
      text = mutate(text, rng);
    ++counts[static_cast<int>(parse_and_expand(text))];
  }
  // The parser both accepted and refused mutants: the fuzz reached it.
  EXPECT_GT(counts[static_cast<int>(Verdict::kExpanded)], 0u);
  EXPECT_GT(counts[static_cast<int>(Verdict::kRefused)], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

/// Removes the demo trace once every test has run.
class DemoTraceCleanup : public ::testing::Environment {
  void TearDown() override { std::remove(demo_trace().c_str()); }
};
const auto* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new DemoTraceCleanup);

}  // namespace
}  // namespace pcal
