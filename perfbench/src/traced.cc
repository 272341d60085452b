// The traced run: per-layer numbers, measured from the benchmark's own
// code around calls into each layer's public functions (nothing inside
// src/ is instrumented).
//
//  * Spans.  One untraced and one traced pass over the workload's jobs.
//    The traced pass wraps every source in a next_batch timing
//    decorator; a job starts at its source-factory call and completes at
//    the runner's completion-sink call; its stream ends at the first
//    empty next_batch.  Shares and counts come from these spans.
//  * Direct replays.  Every *_maccs_per_s rate replays the workload's
//    own inputs straight through the layer's entry point
//    (SyntheticTraceSource / BinaryTraceSource::next_batch,
//    make_managed_cache(...)->access_batch, HierarchicalCache,
//    MultiCoreSystem::run), so every workload reports every rate, also
//    for layers its jobs bypass.
//
// Spans stay in memory and are written once, at the end, as JSON lines.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "core/hierarchy.h"
#include "core/multicore.h"
#include "trace/binary_trace.h"
#include "trace/synthetic.h"

namespace perfbench {
namespace {

using pcal::MemAccess;

constexpr std::size_t kChunk = 256;

struct Span {
  std::string name;
  double start = 0.0, end = 0.0;
  long parent = -1;
  long job = -1;
  double busy = -1.0;  // aggregated spans: time actually inside the call
  std::uint64_t calls = 0;  // next_batch calls inside an aggregated span
};

class Spans {
 public:
  long add(const std::string& name, double start, double end,
           long parent = -1, long job = -1) {
    spans_.push_back({name, start, end, parent, job});
    return static_cast<long>(spans_.size()) - 1;
  }
  Span& at(long i) { return spans_[static_cast<std::size_t>(i)]; }

  void flush(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\": \"" << s.name << "\", \"start\": "
          << json_number(s.start) << ", \"end\": " << json_number(s.end)
          << ", \"parent\": " << s.parent << ", \"job\": " << s.job;
      if (s.busy >= 0.0) out << ", \"busy\": " << json_number(s.busy);
      if (s.calls > 0) out << ", \"calls\": " << s.calls;
      out << "}\n";
    }
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
};

/// Reads a source to its end; `seconds` (optional) receives the time
/// spent inside next_batch.
std::vector<MemAccess> drain(pcal::TraceSource& source,
                             double* seconds = nullptr) {
  std::vector<MemAccess> out(source.size_hint().value_or(0));
  std::size_t pos = 0;
  const double t0 = now_s();
  for (;;) {
    if (out.size() < pos + kChunk) out.resize(pos + kChunk);
    const std::size_t n = source.next_batch(out.data() + pos, kChunk);
    if (n == 0) break;
    pos += n;
  }
  if (seconds != nullptr) *seconds = now_s() - t0;
  out.resize(pos);
  return out;
}

pcal::CacheTopology topology_of(const pcal::SimConfig& config) {
  return config.topology(pcal::Simulator(config).breakeven_cycles());
}

/// The cache object Simulator::run builds for `config`.
std::unique_ptr<pcal::ManagedCache> cache_for(const pcal::SimConfig& config) {
  const pcal::CacheTopology topo = topology_of(config);
  if (!config.hierarchy_enabled()) return pcal::make_managed_cache(topo);
  pcal::HierarchyConfig h;
  h.levels.push_back({topo, pcal::InclusionPolicy::kNonInclusive});
  for (const pcal::LevelConfig& level : config.enabled_lower_levels())
    h.levels.push_back(level);
  return std::make_unique<pcal::HierarchicalCache>(h);
}

/// Times batched access_batch calls over a whole trace.
double replay(pcal::ManagedCache& cache, const std::vector<MemAccess>& trace) {
  std::vector<pcal::AccessOutcome> outs(kChunk);
  const double t0 = now_s();
  for (std::size_t pos = 0; pos < trace.size(); pos += kChunk)
    cache.access_batch(trace.data() + pos,
                       std::min(kChunk, trace.size() - pos), outs.data());
  return now_s() - t0;
}

/// Times per-access access() calls (the hierarchy / contention path).
double replay_scalar(pcal::ManagedCache& cache,
                     const std::vector<MemAccess>& trace) {
  const double t0 = now_s();
  for (const MemAccess& a : trace) {
    const pcal::AccessOutcome out =
        cache.access(a.address, a.kind == pcal::AccessKind::kWrite);
    if (out.stall_cycles != 0) cache.advance_idle(out.stall_cycles);
  }
  return now_s() - t0;
}

double rate(double accesses, double seconds) {
  return seconds > 0.0 ? accesses / seconds / 1e6 : 0.0;
}

/// Sum of job spans of a pass, and structural checks: every job inside
/// its pass, every phase inside its job.  Returns "" or the violation.
std::string job_spans(const Pass& pass, bool traced, double* total) {
  *total = 0.0;
  for (const JobMark& m : pass.marks) {
    if (m.start < pass.begin || m.end > pass.end || m.start > m.end)
      return "job span outside its pass";
    if (traced && !(m.start <= m.opened && m.opened <= m.stream_end &&
                    m.stream_end <= m.end))
      return "job phases out of order";
    *total += m.end - m.start;
  }
  if (*total > pass.wall()) return "job spans exceed their pass";
  return "";
}

}  // namespace

void run_traced(const Options& opt, const Inputs& inputs,
                const Reference* ref, Tally* tally,
                std::vector<Metric>* metrics, std::string* record) {
  Spans spans;
  const double w0 = now_s();
  const Setup setup = build_setup(opt, inputs);
  const double ready = now_s();
  const long setup_span = spans.add("setup", setup.lut_begin, ready);
  spans.add("aging.lut_build", setup.lut_begin, setup.lut_end, setup_span);
  spans.add("sweep.spec_expand", setup.lut_end, setup.expand_end,
            setup_span);
  spans.add("inputs.seed", setup.expand_end, ready, setup_span);
  const std::vector<BenchJob>& jobs = setup.jobs;
  const Pass plain = run_pass(jobs, false);
  const Pass traced = run_pass(jobs, true);
  const double w1 = now_s();

  check_pass(jobs, plain.outcomes, ref, tally);
  check_pass(jobs, traced.outcomes, ref, tally);

  // Spans of both passes; setup + job spans + sweep overhead must add up
  // to the wall time they cover.
  double plain_jobs = 0.0, traced_jobs = 0.0;
  std::string why = job_spans(plain, false, &plain_jobs);
  if (why.empty()) why = job_spans(traced, true, &traced_jobs);
  const double covered = (ready - setup.lut_begin) + plain_jobs +
                         (plain.wall() - plain_jobs) + traced_jobs +
                         (traced.wall() - traced_jobs);
  const double wall = w1 - w0;
  if (why.empty() && std::fabs(wall - covered) > 0.01 * wall + 1e-3)
    why = "setup + job spans + sweep overhead != wall time";
  ++tally->attempted;
  if (!why.empty()) tally->fail("span check: " + why);

  for (const Pass* p : {&plain, &traced}) {
    const bool is_traced = p == &traced;
    const long ps = spans.add(is_traced ? "sweep.pass.traced" : "sweep.pass",
                              p->begin, p->end);
    for (std::size_t i = 0; i < p->marks.size(); ++i) {
      const JobMark& m = p->marks[i];
      const long job = static_cast<long>(i);
      const long js = spans.add("job", m.start, m.end, ps, job);
      if (!is_traced) continue;
      spans.add("source.open", m.start, m.opened, js, job);
      const long src = spans.add(
          m.synthetic ? "trace.gen.next_batch" : "trace.next_batch",
          m.source_first, m.source_last, js, job);
      spans.at(src).busy = m.source_busy;
      spans.at(src).calls = m.batches;
      spans.add("job.post", m.stream_end, m.end, js, job);
    }
  }

  // ---- shares and counts from the traced pass ----
  double gen_busy = 0.0, post = 0.0, twin_delta = 0.0;
  std::uint64_t reindex = 0, stalls = 0, resource_stalls = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobMark& m = traced.marks[i];
    if (m.synthetic) gen_busy += m.source_busy;
    post += m.end - m.stream_end;
    if (jobs[i].contention_twin >= 0) {
      const JobMark& t =
          traced.marks[static_cast<std::size_t>(jobs[i].contention_twin)];
      twin_delta += (m.end - m.start) - (t.end - t.start);
    }
    const pcal::SimResult& r = traced.outcomes[i].result;
    reindex += r.reindex_updates_applied;
    stalls += r.stall_cycles;
    resource_stalls +=
        r.mshr_stall_cycles + r.port_stall_cycles + r.bw_stall_cycles;
  }

  // Driver self time: Simulator::run's span minus the source's time and
  // the kernel's, the kernel timed by replaying each single-stream job's
  // own trace through the same cache object (without the driver's
  // re-index flushes).
  const long replay_root = spans.add("driver.kernel_replay", now_s(), 0.0);
  double driver_self = 0.0, single_spans = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].job.multicore) continue;
    const JobMark& m = traced.marks[i];
    const auto source = jobs[i].job.make_source();
    const std::vector<MemAccess> trace = drain(*source);
    const auto cache = cache_for(jobs[i].job.config);
    const double t0 = now_s();
    const double kernel = replay(*cache, trace);
    spans.add("kernel.job", t0, t0 + kernel, replay_root,
              static_cast<long>(i));
    driver_self += (m.stream_end - m.opened) - m.source_busy - kernel;
    single_spans += m.end - m.start;
  }
  spans.at(replay_root).end = now_s();

  // ---- direct replays of the workload's own inputs ----
  // One span per layer from its first to its last call, with the time
  // actually inside the calls as `busy`.
  const long layers = spans.add("layers", now_s(), 0.0);
  double layer_begin = now_s();
  const auto timed = [&](const std::string& name, double busy) {
    const long s = spans.add(name, layer_begin, now_s(), layers);
    spans.at(s).busy = busy;
    layer_begin = now_s();
  };
  const std::uint64_t n = inputs.accesses;
  std::vector<std::vector<MemAccess>> traces;
  double gen_t = 0.0, zipf_t = 0.0, gen_n = 0.0, zipf_n = 0.0;
  for (const pcal::WorkloadSpec& spec : setup.input_specs) {
    pcal::SyntheticTraceSource source(spec, n);
    double t = 0.0;
    traces.push_back(drain(source, &t));
    gen_t += t;
    gen_n += static_cast<double>(traces.back().size());
    if (is_zipf_family(spec)) {
      zipf_t += t;
      zipf_n += static_cast<double>(traces.back().size());
    }
  }
  timed("trace.gen", gen_t);

  std::vector<std::string> pct = inputs.pct_files;
  if (pct.empty()) {
    const std::string dir = trace_dir(opt, opt.workload + "-layers");
    for (std::size_t i = 0; i < traces.size(); ++i) {
      pct.push_back(dir + "/" + std::to_string(i) + ".pct");
      pcal::write_pct_file(pcal::Trace(setup.input_specs[i].name, traces[i]),
                           pct.back());
    }
  }
  double pct_t = 0.0, pct_n = 0.0;
  for (const std::string& path : pct) {
    pcal::BinaryTraceSource source(path);
    double t = 0.0;
    pct_n += static_cast<double>(drain(source, &t).size());
    pct_t += t;
  }
  timed("trace.pct", pct_t);

  // Kernels: the paper's reference geometry (8 kB, 16 B lines, M = 4)
  // on every backend; way-grain gets 4 ways to have columns to manage.
  const pcal::SimConfig base = pcal::paper_config(8192, 16, 4);
  pcal::SimConfig way = pcal::way_grain_variant(base);
  way.cache.ways = 4;
  const std::vector<std::pair<std::string, pcal::SimConfig>> backends = {
      {"monolithic", pcal::monolithic_variant(base)},
      {"bank", base},
      {"way", way},
      {"line", pcal::line_grain_variant(base)},
      {"drowsy", pcal::drowsy_hybrid_variant(base, 48)},
  };
  double total_n = 0.0;
  for (const auto& t : traces) total_n += static_cast<double>(t.size());
  std::vector<Metric> kernel_rates;
  double misses = 0.0, lookups = 0.0;
  for (const auto& [name, config] : backends) {
    const pcal::CacheTopology topo = topology_of(config);
    double t = 0.0;
    for (const auto& trace : traces) {
      const auto cache = pcal::make_managed_cache(topo);
      t += replay(*cache, trace);
      if (name == "bank") {
        misses += static_cast<double>(cache->stats().misses);
        lookups += static_cast<double>(cache->stats().accesses);
      }
    }
    timed("kernel." + name, t);
    kernel_rates.push_back(
        {"kernel." + name + "_maccs_per_s", rate(total_n, t), "Macc/s"});
  }
  double scalar_t = 0.0;
  const pcal::CacheTopology bank = topology_of(base);
  for (const auto& trace : traces) {
    const auto cache = pcal::make_managed_cache(bank);
    scalar_t += replay_scalar(*cache, trace);
  }
  timed("kernel.scalar_bank", scalar_t);

  // Hierarchy routing at examples/hierarchy.sweep's latency point
  // (non-inclusive L1 + 32 kB L2), per-access like every hierarchy job.
  const std::string examples = opt.root + "/examples/";
  const pcal::SimConfig hconfig =
      pcal::GridSpec::load(examples + "hierarchy.sweep",
                           {"sweep.workload=cjpeg",
                            "sweep.inclusion=noninclusive",
                            "sweep.l3_size=0"})
          .expand(1000)
          .front()
          .config;
  double hier_t = 0.0, upper = 0.0, lower = 0.0;
  for (const auto& trace : traces) {
    const auto cache = cache_for(hconfig);
    hier_t += replay(*cache, trace);
    const auto& h = dynamic_cast<const pcal::HierarchicalCache&>(*cache);
    upper += static_cast<double>(h.level_stats(0).accesses);
    for (std::size_t l = 1; l < h.num_levels(); ++l)
      lower += static_cast<double>(h.level_stats(l).accesses);
  }
  timed("hierarchy", hier_t);

  // Two cores over one shared LLC (examples/multicore.sweep's system),
  // on up to three pairs of the workload's inputs.
  const pcal::GridJob mc =
      pcal::GridSpec::load(examples + "multicore.sweep",
                           {"sweep.workload=cjpeg",
                            "sweep.llc_ways_per_core=0"})
          .expand(1000)
          .front();
  double mc_t = 0.0, mc_n = 0.0;
  for (std::size_t p = 0; p < std::min<std::size_t>(3, traces.size());
       ++p) {
    pcal::Trace a("a", traces[p]);
    pcal::Trace b("b", traces[(p + 1) % traces.size()]);
    const pcal::MultiCoreSystem system(*mc.multicore);
    const double t0 = now_s();
    const pcal::MultiCoreResult r = system.run({&a, &b});
    mc_t += now_s() - t0;
    mc_n += static_cast<double>(r.system.accesses);
  }
  timed("multicore", mc_t);
  spans.at(layers).end = now_s();

  *metrics = {
      {"trace.gen_maccs_per_s", rate(gen_n, gen_t), "Macc/s"},
      {"trace.gen_zipf_maccs_per_s", rate(zipf_n, zipf_t), "Macc/s"},
      {"trace.gen_share", gen_busy / traced_jobs, "share"},
      {"trace.pct_maccs_per_s", rate(pct_n, pct_t), "Macc/s"},
  };
  metrics->insert(metrics->end(), kernel_rates.begin(), kernel_rates.end());
  metrics->insert(
      metrics->end(),
      {
          {"kernel.scalar_bank_maccs_per_s", rate(total_n, scalar_t),
           "Macc/s"},
          {"kernel.miss_ratio", misses / lookups, "ratio"},
          {"driver.self_share",
           single_spans > 0.0 ? driver_self / single_spans : 0.0, "share"},
          {"driver.reindex_updates", static_cast<double>(reindex), "count"},
          {"hierarchy.maccs_per_s", rate(total_n, hier_t), "Macc/s"},
          {"hierarchy.lower_accesses_per_access", lower / upper, "ratio"},
          {"contention.self_share", twin_delta / traced_jobs, "share"},
          {"contention.stall_share",
           stalls > 0 ? static_cast<double>(resource_stalls) /
                            static_cast<double>(stalls)
                      : 0.0,
           "share"},
          {"multicore.maccs_per_s", rate(mc_n, mc_t), "Macc/s"},
          {"post.ms_per_job", post / static_cast<double>(jobs.size()) * 1e3,
           "ms"},
          {"post.share", post / traced_jobs, "share"},
          {"aging.lut_build_s", setup.lut_s(), "s"},
          {"sweep.spec_expand_ms", setup.expand_s() * 1e3, "ms"},
          {"sweep.overhead_share",
           (traced.wall() - traced_jobs) / traced.wall(), "share"},
          {"tracing.overhead_share", traced.wall() / plain.wall() - 1.0,
           "share"},
      });

  const std::string span_file = opt.out + "/spans-" + opt.workload + "-s" +
                                std::to_string(opt.seed) + ".jsonl";
  spans.flush(span_file);
  std::ostringstream os;
  os << "\"jobs\": " << jobs.size() << ", \"passes\": 2"
     << ", \"traced_wall_s\": " << json_number(wall)
     << ", \"covered_by_spans_s\": " << json_number(covered)
     << ", \"span_file\": \"" << json_escape(span_file) << "\"";
  *record = os.str();
}

}  // namespace perfbench
