// Seeded mutation fuzz of the journal parser (core/checkpoint.h), in the
// fuzz_invariants_test style: no fuzzing engine, fixed seeds, real
// inputs.  Real pcal-journal v2 headers and records — a bank job, a
// contention job, a two-core job and a failed job — are mutated by bit
// flips, truncations, token swaps, deletions, duplications and hostile
// token substitutions.  Every mutant must either load or be refused with
// ParseError: no other exception, no crash, nothing the ASan/UBSan legs
// flag.  Half the mutants are re-sealed with a fresh line checksum, so
// they reach the token decoder instead of stopping at the checksum.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/multicore.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"
#include "util/error.h"
#include "util/rng.h"

namespace pcal {
namespace {

constexpr std::uint64_t kAccesses = 5000;

const AgingContext& aging() {
  static AgingContext* ctx = new AgingContext();
  return *ctx;
}

SweepJob single_job(SimConfig cfg, WorkloadSpec spec) {
  SweepJob job;
  job.config = std::move(cfg);
  job.make_source = [spec] {
    return std::make_unique<SyntheticTraceSource>(spec, kAccesses);
  };
  job.lut = &aging().lut();
  return job;
}

/// Real outcomes: every record shape the journal carries.
const std::vector<SweepOutcome>& corpus_outcomes() {
  static const std::vector<SweepOutcome>* outcomes = [] {
    std::vector<SweepJob> jobs;
    jobs.push_back(single_job(paper_config(8192, 16, 4),
                              make_mediabench_workload("cjpeg")));
    SimConfig contended = paper_config(8192, 16, 4);
    contended.latency.miss_cycles = 8;
    contended.contention.mshrs = 1;
    contended.contention.bytes_per_cycle = 2;
    jobs.push_back(
        single_job(contended, make_streaming_workload(256 * 1024)));

    const SimConfig base = paper_config(8192, 16, 4);
    LevelConfig llc = base.make_level(32 * 1024);
    llc.topology.cache.ways = 8;
    llc.topology.partition.num_banks = 4;
    SweepJob mc;
    mc.multicore = std::make_shared<const MultiCoreConfig>(
        make_multicore(base, 2, llc, 4));
    for (const char* w : {"cjpeg", "dijkstra"})
      mc.core_sources.push_back([w] {
        return std::make_unique<SyntheticTraceSource>(
            make_mediabench_workload(w), kAccesses);
      });
    mc.lut = &aging().lut();
    jobs.push_back(std::move(mc));

    auto* out = new std::vector<SweepOutcome>(SweepRunner(1).run(jobs));
    SweepOutcome failed;
    failed.attempts = 3;
    failed.timed_out = true;
    failed.label = "banks=4 workload=dijkstra";
    failed.error_what = "job deadline exceeded";
    failed.error = std::make_exception_ptr(Error(failed.error_what));
    out->push_back(failed);
    return out;
  }();
  return *outcomes;
}

JournalHeader corpus_header() {
  JournalHeader h;
  h.name = "journal fuzz";
  h.fingerprint = 0x0123456789abcdefull;
  h.jobs = corpus_outcomes().size();
  h.accesses = kAccesses;
  return h;
}

/// The header line then one record line per corpus outcome.
std::vector<std::string> corpus_lines() {
  std::vector<std::string> lines{render_journal_header(corpus_header())};
  const std::vector<SweepOutcome>& outcomes = corpus_outcomes();
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    lines.push_back(render_journal_record(i, 100 + i, outcomes[i]));
  return lines;
}

std::vector<std::string> split_tokens(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t cut = s.find(' ', start);
    if (cut == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, cut - start));
    start = cut + 1;
  }
  return out;
}

std::string join_tokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (std::size_t i = 0; i < tokens.size(); ++i)
    out += (i ? " " : "") + tokens[i];
  return out;
}

/// `payload` plus the FNV-1a line checksum the journal writes.
std::string seal(const std::string& payload) {
  Fingerprint fp;
  fp.add(payload);
  char sum[17];
  std::snprintf(sum, sizeof(sum), "%016" PRIx64, fp.value());
  return payload + ' ' + sum;
}

std::string unseal(const std::string& line) {
  return line.substr(0, line.find_last_of(' '));
}

/// One random mutation of `s` (never a no-op on a non-empty string).
std::string mutate(std::string s, Xoshiro256& rng) {
  static const char* const kHostile[] = {
      "18446744073709551615", "18446744073709551616", "-1", "4294967296",
      "99999999999999999999", "nan", "-inf", "1e999", "0x1p+1", "~",
      "~%", "~%4", "~%G0", "", "J", "v1", "~bank", "~drowsy", "2"};
  if (s.empty()) return "x";
  std::vector<std::string> tokens = split_tokens(s);
  const std::size_t t = rng.next_below(tokens.size());
  switch (rng.next_below(6)) {
    case 0: {  // bit flip
      const std::size_t pos = rng.next_below(s.size());
      s[pos] = static_cast<char>(s[pos] ^ (1 << rng.next_below(8)));
      return s;
    }
    case 1:  // truncation
      s.resize(rng.next_below(s.size()));
      return s;
    case 2:  // token swap
      std::swap(tokens[t], tokens[rng.next_below(tokens.size())]);
      break;
    case 3:  // token deletion
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(t));
      break;
    case 4:  // token duplication
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                    tokens[t]);
      break;
    default:  // hostile substitution
      tokens[t] = kHostile[rng.next_below(std::size(kHostile))];
      break;
  }
  return join_tokens(tokens);
}

/// Runs `parse`; a ParseError is a refusal, returning normally a load.
/// Anything else fails the test.  Returns true iff it loaded.
template <class F>
bool loads_or_refuses(F&& parse, const std::string& mutant) {
  try {
    parse();
    return true;
  } catch (const ParseError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-ParseError exception '" << e.what()
                  << "' for mutant: " << mutant;
    return false;
  }
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/pid" + std::to_string(::getpid()) + "_" +
         name;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
}

class JournalFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JournalFuzz, MutatedRecordsLoadOrRaiseParseError) {
  Xoshiro256 rng(GetParam());
  const std::vector<SweepOutcome>& outcomes = corpus_outcomes();
  std::size_t loaded = 0, refused = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string tokens =
        serialize_outcome(outcomes[rng.next_below(outcomes.size())]);
    const std::string mutant = mutate(tokens, rng);
    if (loads_or_refuses([&] { deserialize_outcome(mutant); }, mutant))
      ++loaded;
    else
      ++refused;
  }
  // The decoder both accepted and refused mutants: the fuzz reached it.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
}

TEST_P(JournalFuzz, MutatedJournalFilesLoadOrRaiseParseError) {
  Xoshiro256 rng(GetParam());
  const std::vector<std::string> lines = corpus_lines();
  const std::string path =
      temp_path("fuzz_" + std::to_string(GetParam()) + ".pcalj");
  for (int i = 0; i < 60; ++i) {
    std::vector<std::string> mutated = lines;
    std::string& line = mutated[rng.next_below(mutated.size())];
    line = rng.next_bool(0.5) ? seal(mutate(unseal(line), rng))
                              : mutate(line, rng);
    write_lines(path, mutated);
    loads_or_refuses([&] { load_journal(path); }, line);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

TEST(JournalFuzz, UnmutatedCorpusLoads) {
  const std::string path = temp_path("fuzz_clean.pcalj");
  write_lines(path, corpus_lines());
  const LoadedJournal loaded = load_journal(path);
  EXPECT_FALSE(loaded.torn_tail);
  ASSERT_EQ(loaded.entries.size(), corpus_outcomes().size());
  for (std::size_t i = 0; i < loaded.entries.size(); ++i)
    EXPECT_EQ(serialize_outcome(loaded.entries[i].outcome),
              serialize_outcome(corpus_outcomes()[i]));
  std::remove(path.c_str());
}

// A v1 journal predates the contention stall fields; reading its records
// as v2 would misalign every later field, so the header refuses it.
TEST(JournalVersion, V1HeaderIsRefusedByName) {
  std::vector<std::string> lines = corpus_lines();
  std::string header = unseal(lines[0]);
  ASSERT_EQ(header.rfind("pcal-journal v2 ", 0), 0u) << header;
  header.replace(0, 15, "pcal-journal v1");
  lines[0] = seal(header);
  const std::string path = temp_path("journal_v1.pcalj");
  write_lines(path, lines);
  try {
    load_journal(path);
    FAIL() << "a v1 journal was loaded";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("pcal-journal v1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(JournalWriter(path, corpus_header(), {1, 2, 3, 4},
                             /*append=*/true),
               ParseError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pcal
