// Shared declarations of the pcal benchmark program (perfbench/).
//
// The benchmark drives the public engine surface the way pcalsweep does
// — GridSpec::parse/expand, then a one-worker SweepRunner — and times
// calls into each layer from here, never from inside src/.  See
// perfbench/README.md for the workloads and what each metric predicts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/grid_spec.h"
#include "core/sweep.h"

namespace perfbench {

/// Seconds on the steady clock since process start.
double now_s();

/// Command-line settings of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;  // 0 = the specs' built-in seeds
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";  // repository checkout (examples/, perfbench/)
  std::string out;         // scratch directory for traces, spans, records
  std::uint64_t accesses = 0;  // 0 = the workload's default length
  unsigned setups = 3;
  bool perturb = false;        // self-test: one-ulp drift in one output
  bool record_reference = false;
  std::string commit = "unknown";  // host-facts label
};

/// The benchmark's seeded replacement of a workload's synthetic spec;
/// seed 0 returns the spec unchanged.
pcal::WorkloadSpec seeded(pcal::WorkloadSpec spec, std::uint64_t seed);

/// True for the generator's Zipf family (a spec with any Zipf stream).
bool is_zipf_family(const pcal::WorkloadSpec& spec);

/// One job of a workload: the sweep job plus its stable identity.
struct BenchJob {
  pcal::SweepJob job;
  std::string label;  // grid coordinates, trace paths reduced to names
  /// Index of the same job without contention (timing_stack pairs), or
  /// -1.
  long contention_twin = -1;
};

/// Everything set-up produces.  Built once per set-up repetition.
struct Setup {
  std::unique_ptr<pcal::AgingContext> aging;
  std::vector<BenchJob> jobs;
  /// The distinct (seeded) synthetic specs the workload's jobs replay,
  /// for the direct layer replays of the traced run.
  std::vector<pcal::WorkloadSpec> input_specs;
  /// paper_grid only: the Table IV spec and its expanded grid points,
  /// parallel to `jobs` (the [paper] matrices give paper_err_*).
  std::shared_ptr<pcal::GridSpec> paper_spec;
  std::vector<pcal::GridJob> paper_grid_jobs;
  /// Set-up phases on now_s(): aging LUT, then spec parse + expand
  /// (+ .pct open); seeding the sources afterwards is untimed.
  double lut_begin = 0.0, lut_end = 0.0, expand_end = 0.0;
  double lut_s() const { return lut_end - lut_begin; }
  double expand_s() const { return expand_end - lut_end; }
  double total_s() const { return expand_end - lut_begin; }
};

/// The Table IV grid points the [paper] matrices cover (M <= 8), run
/// untimed beside workloads other than paper_grid so every record
/// carries the paper error; checked against the paper_grid reference.
struct PaperProbe {
  std::shared_ptr<pcal::GridSpec> spec;
  std::vector<pcal::GridJob> grid_jobs;
  std::vector<BenchJob> jobs;
};

/// Per-job trace length and timing_stack's packed traces.
struct Inputs {
  std::uint64_t accesses = 0;
  /// timing_stack only: the seeded specs it packs and their .pct files.
  std::vector<pcal::WorkloadSpec> specs;
  std::vector<std::string> pct_files;
};

/// Known workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
std::uint64_t default_accesses(const std::string& workload);

/// A scratch directory for packed traces under the run's output
/// directory (created; its files are overwritten by the next run).
std::string trace_dir(const Options& opt, const std::string& name);

/// Writes the workload's packed traces (timing_stack only) — benchmark
/// input preparation, untimed.
Inputs prepare_inputs(const Options& opt);

/// One set-up: aging LUT, spec parse + expand (+ trace-file open), then
/// the untimed replacement of every synthetic source with a seeded one.
Setup build_setup(const Options& opt, const Inputs& inputs);
PaperProbe build_paper_probe(const Options& opt, const Setup& setup,
                             std::uint64_t accesses);

/// label -> digest, recorded at the default seed for one access count.
using Reference = std::map<std::string, std::string>;

// ---- sweep passes (main.cc) ----

/// Host-time marks of one job in one pass, on now_s().  A job starts
/// when the runner calls its (first) source factory and completes when
/// the runner reports it to the completion sink.
struct JobMark {
  double start = -1.0, opened = -1.0, stream_end = -1.0, end = -1.0;
  /// Traced passes only: time inside the source's next_batch calls, and
  /// whether the job's sources are synthetic generators.
  double source_busy = 0.0, source_first = -1.0, source_last = -1.0;
  std::uint64_t batches = 0;
  bool synthetic = false;
};

/// One closed-loop pass over a job list on a one-worker SweepRunner.
struct Pass {
  std::vector<pcal::SweepOutcome> outcomes;
  std::vector<JobMark> marks;
  double begin = 0.0, end = 0.0;
  double wall() const { return end - begin; }
};
/// `traced` wraps every source in a next_batch timing decorator.
Pass run_pass(const std::vector<BenchJob>& jobs, bool traced);

/// Jobs checked and jobs failed (threw, broke an invariant, or drifted
/// from the reference digest).
struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;  // first few reasons
  void fail(const std::string& why);
};
/// Checks every outcome of a pass; `ref` is null off the default seed.
void check_pass(const std::vector<BenchJob>& jobs,
                const std::vector<pcal::SweepOutcome>& outcomes,
                const Reference* ref, Tally* tally);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The traced run: per-layer metrics from spans recorded around calls
/// into each layer, plus direct replays (traced.cc).
void run_traced(const Options& opt, const Inputs& inputs,
                const Reference* ref, Tally* tally,
                std::vector<Metric>* metrics, std::string* record);

// ---- output checks (checks.cc) ----

/// Canonical text of a job's exact outputs: integer counts in decimal,
/// idleness, energy and lifetime as hex floats.
std::string canonical_outputs(const pcal::SweepOutcome& outcome);
/// 64-bit FNV-1a digest of canonical_outputs, as 16 hex digits.
std::string digest(const pcal::SweepOutcome& outcome);

/// Seed-independent invariants; returns "" or the first violation.
std::string check_invariants(const pcal::SweepOutcome& outcome);

std::string reference_path(const Options& opt, const std::string& workload,
                           std::uint64_t accesses);
/// Loads a reference; a missing file yields an empty map.
Reference load_reference(const std::string& path);
void save_reference(const std::string& path, const Reference& ref);

/// Nudges one output value by one ulp (the self-test's drift).
void perturb_one_ulp(pcal::SweepOutcome* outcome);

// ---- host facts and JSON (host.cc) ----

/// The host-facts block of every record (labels, never gates).
std::string host_facts_json(const std::string& commit);
std::string json_escape(const std::string& s);
std::string json_number(double v);
double peak_rss_mb();

}  // namespace perfbench
