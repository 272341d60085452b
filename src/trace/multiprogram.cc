#include "trace/multiprogram.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "trace/workloads.h"
#include "util/error.h"
#include "util/string_util.h"

namespace pcal {

namespace {

/// Resolves one program name the way pcalsweep's workload axis does:
/// MediaBench names, or the generic uniform / streaming / hotspot
/// shapes over `footprint_bytes`.
WorkloadSpec resolve_program(const std::string& name,
                             std::uint64_t footprint_bytes) {
  if (name == "uniform") return make_uniform_workload(footprint_bytes);
  if (name == "streaming") return make_streaming_workload(footprint_bytes);
  if (name == "hotspot") return make_hotspot_workload(footprint_bytes);
  return make_mediabench_workload(name);  // throws on unknown names
}

/// "200000" / "100k" / "2M" -> accesses; throws ConfigError otherwise.
std::uint64_t parse_quantum(const std::string& text) {
  std::uint64_t scale = 1;
  std::string digits = text;
  if (!digits.empty() && (digits.back() == 'k' || digits.back() == 'K')) {
    scale = 1024;
    digits.pop_back();
  } else if (!digits.empty() &&
             (digits.back() == 'm' || digits.back() == 'M')) {
    scale = 1024 * 1024;
    digits.pop_back();
  }
  PCAL_CONFIG_CHECK(!digits.empty(), "empty multiprog quantum");
  for (char c : digits)
    PCAL_CONFIG_CHECK(c >= '0' && c <= '9',
                      "bad multiprog quantum \"" << text << "\"");
  errno = 0;
  const std::uint64_t value = std::strtoull(digits.c_str(), nullptr, 10);
  PCAL_CONFIG_CHECK(errno != ERANGE && value <= UINT64_MAX / scale,
                    "multiprog quantum \"" << text << "\" overflows 64 bits");
  PCAL_CONFIG_CHECK(value > 0, "multiprog quantum must be nonzero");
  return value * scale;
}

}  // namespace

MultiProgramConfig parse_multiprogram_spec(const std::string& spec,
                                           std::uint64_t footprint_bytes) {
  std::string programs = spec;
  MultiProgramConfig config;
  const std::size_t at = programs.find('@');
  if (at != std::string::npos) {
    config.quantum_accesses =
        parse_quantum(std::string(trim(programs.substr(at + 1))));
    programs.erase(at);
  }
  for (const std::string& field : split(programs, '+')) {
    const std::string name(trim(field));
    PCAL_CONFIG_CHECK(!name.empty(),
                      "empty program name in multiprog list \"" << spec
                                                                << "\"");
    config.programs.push_back(resolve_program(name, footprint_bytes));
  }
  PCAL_CONFIG_CHECK(!config.programs.empty(),
                    "multiprog needs at least one program");
  config.validate();
  return config;
}

void MultiProgramConfig::validate() const {
  PCAL_CONFIG_CHECK(!programs.empty(), "need at least one program");
  PCAL_CONFIG_CHECK(quantum_accesses > 0, "quantum must be nonzero");
  for (const auto& p : programs) p.validate();
  for (const auto& p : programs) {
    PCAL_CONFIG_CHECK(p.footprint_bytes <= address_stride,
                      "program footprint exceeds the address stride; "
                      "spaces would overlap");
  }
}

MultiProgramSource::MultiProgramSource(MultiProgramConfig config,
                                       std::uint64_t num_accesses)
    : config_(std::move(config)), num_accesses_(num_accesses) {
  config_.validate();
  reset();
}

void MultiProgramSource::reset() {
  produced_ = 0;
  sources_.clear();
  for (const auto& spec : config_.programs) {
    // Each program individually produces up to the whole run's accesses;
    // the scheduler decides how many it actually gets.
    sources_.push_back(
        std::make_unique<SyntheticTraceSource>(spec, num_accesses_));
  }
}

std::optional<MemAccess> MultiProgramSource::next() {
  MemAccess a;
  if (next_batch(&a, 1) == 0) return std::nullopt;
  return a;
}

std::size_t MultiProgramSource::next_batch(MemAccess* out, std::size_t max) {
  const std::uint64_t quantum = config_.quantum_accesses;
  std::size_t n = 0;
  while (n < max && produced_ < num_accesses_) {
    const std::uint64_t prog = program_at(produced_);
    const std::size_t run = static_cast<std::size_t>(std::min<std::uint64_t>(
        {max - n, num_accesses_ - produced_, quantum - produced_ % quantum}));
    // Programs are sized to the whole run, so they cannot run dry before
    // the scheduler does.
    const std::size_t got = sources_[prog]->next_batch(out + n, run);
    PCAL_ASSERT(got == run);
    const std::uint64_t offset = prog * config_.address_stride;
    for (std::size_t i = n; i < n + run; ++i) out[i].address += offset;
    n += run;
    produced_ += run;
  }
  return n;
}

std::string MultiProgramSource::name() const {
  std::ostringstream os;
  os << "multi[";
  for (std::size_t i = 0; i < config_.programs.size(); ++i) {
    if (i) os << '+';
    os << config_.programs[i].name;
  }
  os << ']';
  return os.str();
}

}  // namespace pcal
