// The benchmark workloads: how each is expanded from .sweep specs
// and how its synthetic inputs are re-seeded.  Why each workload exists
// is recorded in perfbench/README.md.
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "bench.h"
#include "trace/binary_trace.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"

namespace perfbench {
namespace {

using pcal::GridJob;
using pcal::GridSpec;
using pcal::WorkloadSpec;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// timing_stack's packed traces: four MediaBench programs that mostly
/// hit, plus two miss- and writeback-heavy streams.
const char* const kTimingTraces[] = {"cjpeg",  "dijkstra",  "fft_1",
                                     "ispell", "streaming", "uniform"};
/// The streaming/uniform footprint: examples/multicore.sweep's aggressor
/// footprint, larger than every level of the timing stack.
constexpr std::uint64_t kWideFootprint = 256 * 1024;

WorkloadSpec timing_spec(const std::string& name) {
  if (name == "streaming") return pcal::make_streaming_workload(kWideFootprint);
  if (name == "uniform") return pcal::make_uniform_workload(kWideFootprint);
  return pcal::make_mediabench_workload(name);
}

/// Grid coordinates with trace-file paths reduced to their stem, so a
/// label names the same job whichever directory the traces sit in.
std::string stable_label(const GridSpec& spec, const GridJob& job) {
  std::string label = spec.name() + ":";
  for (std::size_t i = 0; i < spec.axes().size(); ++i) {
    std::string value = job.coords[i];
    if (value.rfind("trace:", 0) == 0)
      value = "trace:" + std::filesystem::path(value.substr(6)).stem().string();
    label += " " + spec.axes()[i].key + "=" + value;
  }
  return label;
}

/// The seeded stand-in for one source factory: synthetic sources get
/// their spec re-seeded; packed-trace sources (already seeded when they
/// were written) stay as they are.  `pct_of` maps a synthetic spec to a
/// packed file when the workload replays traces instead of generating.
pcal::TraceSourceFactory seeded_factory(
    const pcal::TraceSourceFactory& original, std::uint64_t accesses,
    const Options& opt, const std::map<std::string, std::string>* pct_of,
    std::vector<WorkloadSpec>* seen) {
  const std::unique_ptr<pcal::TraceSource> probe = original();
  const auto* synthetic =
      dynamic_cast<const pcal::SyntheticTraceSource*>(probe.get());
  if (synthetic == nullptr) return original;
  const WorkloadSpec spec = seeded(synthetic->spec(), opt.seed);
  bool known = false;
  for (const WorkloadSpec& s : *seen)
    known = known || (s.name == spec.name &&
                      s.footprint_bytes == spec.footprint_bytes);
  if (!known) seen->push_back(spec);
  if (pct_of != nullptr) {
    const auto it = pct_of->find(spec.name);
    if (it == pct_of->end() ||
        timing_spec(spec.name).footprint_bytes != spec.footprint_bytes)
      throw std::runtime_error("timing_stack has no packed trace for '" +
                               spec.name + "'");
    const std::string path = it->second;
    return [path] { return std::make_unique<pcal::BinaryTraceSource>(path); };
  }
  const std::uint64_t n = probe->size_hint().value_or(accesses);
  return [spec, n] {
    return std::make_unique<pcal::SyntheticTraceSource>(spec, n);
  };
}

}  // namespace

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

WorkloadSpec seeded(WorkloadSpec spec, std::uint64_t seed) {
  if (seed != 0) spec.seed = splitmix64(spec.seed ^ splitmix64(seed));
  return spec;
}

bool is_zipf_family(const WorkloadSpec& spec) {
  for (const pcal::StreamSpec& s : spec.streams)
    if (s.pattern == pcal::StreamPattern::kZipf) return true;
  return false;
}

std::string trace_dir(const Options& opt, const std::string& name) {
  // One directory per use, rewritten by every run: disk use stays flat
  // however many seeds a session runs.
  const std::string dir = opt.out + "/traces/" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_grid",
                                                  "timing_stack"};
  return names;
}

std::uint64_t default_accesses(const std::string& /*workload*/) {
  // A tenth of the paper's 2M-access traces: every job still spans 400+
  // scheduling windows and all 16 re-index updates, and each workload
  // completes at least one whole pass in a few seconds.
  return 200000;
}

Inputs prepare_inputs(const Options& opt) {
  Inputs in;
  in.accesses = opt.accesses != 0 ? opt.accesses
                                   : default_accesses(opt.workload);
  if (opt.workload != "timing_stack") return in;
  const std::string dir = trace_dir(opt, opt.workload);
  for (const char* name : kTimingTraces) {
    const WorkloadSpec spec = seeded(timing_spec(name), opt.seed);
    const std::string path = dir + "/" + name + ".pct";
    pcal::SyntheticTraceSource source(spec, in.accesses);
    pcal::write_pct_stream(source, path);
    in.specs.push_back(spec);
    in.pct_files.push_back(path);
  }
  return in;
}

Setup build_setup(const Options& opt, const Inputs& inputs) {
  Setup s;
  const std::uint64_t n = inputs.accesses;
  const std::string examples = opt.root + "/examples/";

  s.lut_begin = now_s();
  s.aging = std::make_unique<pcal::AgingContext>();
  s.lut_end = now_s();

  // Spec parse + expand, and (timing_stack) the .pct header checks
  // expand() runs when it opens every trace-file workload.
  std::vector<std::pair<std::shared_ptr<GridSpec>, std::vector<GridJob>>>
      grids;
  const auto add = [&](const std::string& path,
                       const std::vector<std::string>& overrides) {
    auto spec = std::make_shared<GridSpec>(GridSpec::load(path, overrides));
    std::vector<GridJob> jobs = spec->expand(n);
    grids.emplace_back(std::move(spec), std::move(jobs));
  };
  if (opt.workload == "paper_grid") {
    add(examples + "table4.sweep", {});
  } else if (opt.workload == "timing_stack") {
    std::string list;
    for (const std::string& f : inputs.pct_files)
      list += (list.empty() ? "" : ", ") + ("trace:" + f);
    const std::string workloads = "sweep.workload=" + list;
    add(examples + "hierarchy.sweep", {workloads});
    add(examples + "hierarchy.sweep",
        {workloads, "sweep.mshrs=4", "sweep.bandwidth=2"});
    add(examples + "multicore.sweep", {});
  } else {
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
  }
  s.expand_end = now_s();

  // Untimed input preparation: seeded sources and stable labels.
  std::map<std::string, std::string> pct_of;
  for (std::size_t i = 0; i < inputs.pct_files.size(); ++i)
    pct_of[inputs.specs[i].name] = inputs.pct_files[i];
  const auto* pct_map = inputs.pct_files.empty() ? nullptr : &pct_of;
  s.input_specs = inputs.specs;
  std::vector<WorkloadSpec> seen;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const GridSpec& spec = *grids[g].first;
    for (std::size_t k = 0; k < grids[g].second.size(); ++k) {
      const GridJob& gj = grids[g].second[k];
      BenchJob bj;
      bj.label = stable_label(spec, gj);
      bj.job.config = gj.config;
      bj.job.multicore = gj.multicore;
      bj.job.lut = &s.aging->lut();
      bj.job.label = bj.label;
      if (gj.multicore) {
        for (const auto& f : gj.core_sources)
          bj.job.core_sources.push_back(
              seeded_factory(f, n, opt, pct_map, &seen));
      } else {
        bj.job.make_source = seeded_factory(gj.make_source, n, opt,
                                            nullptr, &seen);
      }
      // timing_stack's second hierarchy grid is the first one with
      // contention on, point for point.
      if (opt.workload == "timing_stack" && g == 1)
        bj.contention_twin = static_cast<long>(k);
      s.jobs.push_back(std::move(bj));
    }
  }
  if (s.input_specs.empty()) s.input_specs = seen;
  if (opt.workload == "paper_grid") {
    s.paper_spec = grids[0].first;
    s.paper_grid_jobs = grids[0].second;
  }
  return s;
}

PaperProbe build_paper_probe(const Options& opt, const Setup& setup,
                             std::uint64_t accesses) {
  // The [paper] matrices stop at M = 8, so only those grid points count.
  PaperProbe p;
  p.spec = std::make_shared<GridSpec>(GridSpec::load(
      opt.root + "/examples/table4.sweep", {"filter.banks<=8"}));
  p.grid_jobs = p.spec->expand(accesses);
  std::vector<WorkloadSpec> seen;
  for (const GridJob& gj : p.grid_jobs) {
    BenchJob bj;
    bj.label = stable_label(*p.spec, gj);
    bj.job.config = gj.config;
    bj.job.lut = &setup.aging->lut();
    bj.job.label = bj.label;
    bj.job.make_source =
        seeded_factory(gj.make_source, accesses, opt, nullptr, &seen);
    p.jobs.push_back(std::move(bj));
  }
  return p;
}

}  // namespace perfbench
