// pcal_perfbench: the measured (untraced) run, shared sweep-pass
// machinery, and the command line.  perfbench/run.py builds and invokes
// it (`python3 perfbench/run.py --help`).
//
//   pcal_perfbench --workload paper_grid --seed 0 --seconds 10 --trace 0
//                  --root . --out .bench_build/perfbench/out
//
// The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the full record (host facts, job counts, failures).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "trace/synthetic.h"

namespace perfbench {
namespace {

class PassRecorder final : public pcal::JobCompletionSink {
 public:
  explicit PassRecorder(std::size_t n) : marks(n) {}
  void on_job_complete(std::size_t index,
                       const pcal::SweepOutcome& /*outcome*/) override {
    marks[index].end = now_s();
  }
  std::vector<JobMark> marks;
};

/// The traced pass's decorator: times every next_batch call of the
/// wrapped source and marks the end of the stream.
class TimedSource final : public pcal::TraceSource {
 public:
  TimedSource(std::unique_ptr<pcal::TraceSource> inner, JobMark* mark)
      : inner_(std::move(inner)), mark_(mark) {
    mark_->synthetic =
        dynamic_cast<const pcal::SyntheticTraceSource*>(inner_.get()) !=
        nullptr;
  }
  std::optional<pcal::MemAccess> next() override { return inner_->next(); }
  std::size_t next_batch(pcal::MemAccess* out, std::size_t max) override {
    const double t0 = now_s();
    const std::size_t n = inner_->next_batch(out, max);
    const double t1 = now_s();
    mark_->source_busy += t1 - t0;
    ++mark_->batches;
    if (mark_->source_first < 0.0) mark_->source_first = t0;
    mark_->source_last = t1;
    // A multi-core job's stream ends when its last core's stream does.
    if (n == 0 && !ended_) {
      ended_ = true;
      mark_->stream_end = std::max(mark_->stream_end, t1);
    }
    return n;
  }
  void reset() override { inner_->reset(); }
  std::optional<std::uint64_t> size_hint() const override {
    return inner_->size_hint();
  }
  std::optional<std::uint64_t> boundary_hint() const override {
    return inner_->boundary_hint();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<pcal::TraceSource> inner_;
  JobMark* mark_;
  bool ended_ = false;
};

pcal::TraceSourceFactory marked(pcal::TraceSourceFactory factory,
                                JobMark* mark, bool traced) {
  return [factory = std::move(factory), mark,
          traced]() -> std::unique_ptr<pcal::TraceSource> {
    if (mark->start < 0.0) mark->start = now_s();
    std::unique_ptr<pcal::TraceSource> source = factory();
    mark->opened = now_s();
    if (!traced) return source;
    return std::make_unique<TimedSource>(std::move(source), mark);
  };
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Mean absolute error of the grid's idleness (percentage points) and
/// lifetime (years) against the spec's [paper] matrices, cell by cell
/// over the [table] rows x columns the matrices cover.
struct PaperError {
  double idl_pct = std::nan("");
  double lt_years = std::nan("");
};

PaperError paper_error(const pcal::GridSpec& spec,
                       const std::vector<pcal::GridJob>& grid_jobs,
                       const std::vector<pcal::SweepOutcome>& outcomes) {
  const pcal::TableSpec& table = spec.table();
  std::size_t row_axis = 0, col_axis = 0;
  for (std::size_t i = 0; i < spec.axes().size(); ++i) {
    if (spec.axes()[i].key == table.rows) row_axis = i;
    if (spec.axes()[i].key == table.cols) col_axis = i;
  }
  const auto& rows = spec.axes()[row_axis].values;
  const auto& cols = spec.axes()[col_axis].values;
  PaperError err;
  for (const pcal::TableMetric& m : table.metrics) {
    if (m.paper.empty()) continue;
    double sum = 0.0;
    std::size_t cells = 0;
    for (std::size_t r = 0; r < m.paper.size() && r < rows.size(); ++r) {
      for (std::size_t c = 0; c < m.paper[r].size() && c < cols.size();
           ++c) {
        double total = 0.0;
        std::size_t n = 0;
        for (std::size_t j = 0; j < grid_jobs.size(); ++j) {
          if (grid_jobs[j].coords[row_axis] != rows[r] ||
              grid_jobs[j].coords[col_axis] != cols[c] ||
              !outcomes[j].ok())
            continue;
          total += pcal::grid_metric_value(outcomes[j].result, m.metric);
          ++n;
        }
        if (n == 0) return PaperError{};  // a hole: no error figure
        const double ours =
            total / static_cast<double>(n) * (m.percent ? 100.0 : 1.0);
        sum += std::fabs(ours - m.paper[r][c]);
        ++cells;
      }
    }
    if (cells == 0) continue;
    if (m.metric == "idleness")
      err.idl_pct = sum / static_cast<double>(cells);
    else if (m.metric == "lifetime")
      err.lt_years = sum / static_cast<double>(cells);
  }
  return err;
}

/// FNV-1a over the first accesses of the first job's source: shows
/// which inputs a seed produced.
std::string input_digest(const std::vector<BenchJob>& jobs) {
  const pcal::SweepJob& job = jobs.front().job;
  const auto source = job.multicore ? job.core_sources.front()()
                                    : job.make_source();
  std::vector<pcal::MemAccess> buf(4096);
  const std::size_t n = source->next_batch(buf.data(), buf.size());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ buf[i].address) * 0x100000001b3ull;
    h = (h ^ static_cast<std::uint64_t>(buf[i].kind)) * 0x100000001b3ull;
  }
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

void print_usage() {
  std::cerr << "usage: pcal_perfbench --workload W [--seed N] [--seconds S]"
               " [--trace 0|1] [--root DIR] --out DIR [--accesses N]"
               " [--setups K] [--perturb] [--record-reference]"
               " [--commit ID]\n";
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") opt->workload = value();
    else if (a == "--seed") opt->seed = std::stoull(value());
    else if (a == "--seconds") opt->seconds = std::stod(value());
    else if (a == "--trace") opt->trace = value() != "0";
    else if (a == "--root") opt->root = value();
    else if (a == "--out") opt->out = value();
    else if (a == "--accesses") opt->accesses = std::stoull(value());
    else if (a == "--setups") opt->setups = std::max(1, std::stoi(value()));
    else if (a == "--perturb") opt->perturb = true;
    else if (a == "--record-reference") opt->record_reference = true;
    else if (a == "--commit") opt->commit = value();
    else return false;
  }
  const auto& names = workload_names();
  return !opt->out.empty() && opt->seconds > 0.0 &&
         std::find(names.begin(), names.end(), opt->workload) != names.end();
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i ? ", " : "") + json_number(values[i]);
  return out + "]";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  os << "}";
  return os.str();
}

/// Records the default-seed digests of one pass over the workload's jobs.
int record_reference(const Options& opt, const Inputs& inputs) {
  const Setup setup = build_setup(opt, inputs);
  const Pass pass = run_pass(setup.jobs, false);
  Reference ref;
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    const std::string why = check_invariants(pass.outcomes[i]);
    if (!why.empty()) {
      std::cerr << "perfbench: " << setup.jobs[i].label << ": " << why
                << "\n";
      return 1;
    }
    ref[setup.jobs[i].label] = digest(pass.outcomes[i]);
  }
  const std::string path =
      reference_path(opt, opt.workload, inputs.accesses);
  save_reference(path, ref);
  std::cout << "perfbench: recorded " << ref.size() << " digests in " << path
            << "\n";
  return 0;
}

/// The measured run: set-up repeated `setups` times (median reported),
/// then whole closed-loop passes over the jobs for about `seconds`.
void run_measured(const Options& opt, const Inputs& inputs,
                  const Reference* ref, Tally* tally,
                  std::vector<Metric>* metrics, std::string* record) {
  std::vector<double> setup_times;
  Setup setup;
  for (unsigned k = 0; k < opt.setups; ++k) {
    setup = build_setup(opt, inputs);
    setup_times.push_back(setup.total_s());
  }
  const std::vector<BenchJob>& jobs = setup.jobs;

  // Whole passes only, so every run weighs each job equally; stop
  // before a pass would overrun the measuring time.
  std::vector<double> job_ms, pass_walls;
  double measured = 0.0, accesses = 0.0;
  Pass first;
  while (pass_walls.empty() || measured + pass_walls.back() <= opt.seconds) {
    Pass pass = run_pass(jobs, false);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      job_ms.push_back((pass.marks[i].end - pass.marks[i].start) * 1e3);
      if (pass.outcomes[i].ok())
        accesses += static_cast<double>(pass.outcomes[i].result.accesses);
    }
    pass_walls.push_back(pass.wall());
    measured += pass.wall();
    if (opt.perturb && pass_walls.size() == 1)
      perturb_one_ulp(&pass.outcomes.front());
    check_pass(jobs, pass.outcomes, ref, tally);
    if (pass_walls.size() == 1) first = std::move(pass);
  }

  // Untimed: a sample of jobs re-run one access per batch must match
  // the batched pass bit for bit.
  std::vector<std::size_t> single;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (!jobs[i].job.multicore) single.push_back(i);
  const std::size_t samples = std::min<std::size_t>(6, single.size());
  const std::size_t stride = single.size() / std::max<std::size_t>(1, samples);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t i = single[opt.seed % stride + s * stride];
    BenchJob one = jobs[i];
    one.job.config.batch_size = 1;
    const Pass p = run_pass({one}, false);
    ++tally->attempted;
    if (!p.outcomes[0].ok() ||
        digest(p.outcomes[0]) != digest(first.outcomes[i]))
      tally->fail(jobs[i].label + ": batch_size=1 differs from batched");
  }

  // The paper error: paper_grid's own first pass, else the untimed
  // probe over the Table IV points the [paper] matrices cover.
  PaperError err;
  if (setup.paper_spec) {
    err = paper_error(*setup.paper_spec, setup.paper_grid_jobs,
                      first.outcomes);
  } else {
    const PaperProbe probe =
        build_paper_probe(opt, setup, inputs.accesses);
    const Pass p = run_pass(probe.jobs, false);
    Reference paper_ref;
    if (ref != nullptr)
      paper_ref = load_reference(
          reference_path(opt, "paper_grid", inputs.accesses));
    check_pass(probe.jobs, p.outcomes, ref ? &paper_ref : nullptr, tally);
    err = paper_error(*probe.spec, probe.grid_jobs, p.outcomes);
  }
  ++tally->attempted;
  if (!std::isfinite(err.idl_pct) || !std::isfinite(err.lt_years))
    tally->fail("no paper error figure (a Table IV cell has no result)");

  std::uint64_t cycles = 0, sim_accesses = 0;
  for (const pcal::SweepOutcome& o : first.outcomes) {
    cycles += o.result.total_cycles;
    sim_accesses += o.result.accesses;
  }
  const double attempted = static_cast<double>(tally->attempted);
  *metrics = {
      {"sim_maccs_per_s", accesses / measured / 1e6, "Macc/s"},
      {"job_ms_p50", percentile(job_ms, 0.5), "ms"},
      {"job_ms_p90", percentile(job_ms, 0.9), "ms"},
      {"setup_s", percentile(setup_times, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_share", (attempted - static_cast<double>(tally->failed)) /
                       attempted,
       "share"},
      {"sim_cycles_per_access",
       static_cast<double>(cycles) / static_cast<double>(sim_accesses),
       "cycles"},
      {"paper_err_idl_pct", err.idl_pct, "%"},
      {"paper_err_lt_years", err.lt_years, "years"},
  };

  std::ostringstream os;
  os << "\"jobs\": " << job_ms.size() << ", \"passes\": " << pass_walls.size()
     << ", \"jobs_per_pass\": " << jobs.size()
     << ", \"measured_s\": " << json_number(measured)
     << ", \"pass_walls_s\": " << json_array(pass_walls)
     << ", \"setup_repeats_s\": " << json_array(setup_times)
     << ", \"batch1_samples\": " << samples
     << ", \"input_digest\": \"" << input_digest(jobs) << "\"";
  *record = os.str();
}

}  // namespace

void Tally::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 10) failures.push_back(why);
}

Pass run_pass(const std::vector<BenchJob>& jobs, bool traced) {
  PassRecorder recorder(jobs.size());
  std::vector<pcal::SweepJob> sweep;
  sweep.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pcal::SweepJob j = jobs[i].job;
    JobMark* mark = &recorder.marks[i];
    if (j.multicore)
      for (pcal::TraceSourceFactory& f : j.core_sources)
        f = marked(f, mark, traced);
    else
      j.make_source = marked(j.make_source, mark, traced);
    sweep.push_back(std::move(j));
  }
  pcal::SweepRunOptions options;
  options.checkpoint = &recorder;
  pcal::SweepRunner runner(1);
  Pass pass;
  pass.begin = now_s();
  pass.outcomes = runner.run(sweep, options);
  pass.end = now_s();
  pass.marks = std::move(recorder.marks);
  return pass;
}

void check_pass(const std::vector<BenchJob>& jobs,
                const std::vector<pcal::SweepOutcome>& outcomes,
                const Reference* ref, Tally* tally) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ++tally->attempted;
    std::string why = check_invariants(outcomes[i]);
    if (why.empty() && ref != nullptr) {
      const auto it = ref->find(jobs[i].label);
      if (it == ref->end())
        why = "no reference digest";
      else if (it->second != digest(outcomes[i]))
        why = "outputs differ from the reference digest";
    }
    if (!why.empty()) tally->fail(jobs[i].label + ": " + why);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    if (!parse_args(argc, argv, &opt)) {
      print_usage();
      return 2;
    }
    now_s();  // start the clock
    std::filesystem::create_directories(opt.out);
    const Inputs inputs = prepare_inputs(opt);
    if (opt.record_reference) return record_reference(opt, inputs);

    // Exact digests exist only for the default seed's inputs.
    const Reference loaded =
        load_reference(reference_path(opt, opt.workload, inputs.accesses));
    const Reference* ref = opt.seed == 0 ? &loaded : nullptr;

    Tally tally;
    std::vector<Metric> metrics;
    std::string record;
    if (opt.trace)
      run_traced(opt, inputs, ref, &tally, &metrics, &record);
    else
      run_measured(opt, inputs, ref, &tally, &metrics, &record);

    bool finite = true;
    for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
    const bool correct = tally.failed == 0 && finite;

    std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
              << " trace=" << opt.trace << " accesses/job="
              << inputs.accesses << "\n";
    for (const Metric& m : metrics)
      std::cout << "  " << m.name << " = " << json_number(m.value) << " "
                << m.unit << "\n";
    for (const std::string& f : tally.failures)
      std::cout << "  FAILED " << f << "\n";

    std::ostringstream rec;
    rec << "{\"record\": {\"workload\": \"" << opt.workload
        << "\", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
        << ", \"accesses_per_job\": " << inputs.accesses << ", " << record
        << ", \"failures\": [";
    for (std::size_t i = 0; i < tally.failures.size(); ++i)
      rec << (i ? ", " : "") << "\"" << json_escape(tally.failures[i])
          << "\"";
    rec << "], \"host\": " << host_facts_json(opt.commit)
        << ", \"metrics\": " << metrics_json(metrics) << "}}";
    std::filesystem::create_directories(opt.out + "/records");
    std::ofstream(opt.out + "/records/" + opt.workload + "-s" +
                  std::to_string(opt.seed) + "-t" +
                  std::to_string(opt.trace) + ".json")
        << rec.str() << "\n";
    std::cout << rec.str() << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << metrics_json(metrics) << "}"
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pcal_perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
