// Parallel sweep engine for the paper's evaluation cross-products.
//
// Every paper table is a grid of independent Simulator runs — workloads ×
// cache sizes × line sizes × bank counts × granularities — and a serial
// driver makes bench wall-clock, not simulation fidelity, the bottleneck.
// SweepRunner executes an arbitrary set of (SimConfig, workload) jobs on a
// work-stealing thread pool and merges the SimResults deterministically:
// outcomes are stored by job index and every job is a self-contained
// Simulator::run over its own TraceSource instance, so the merged result
// vector is identical to a serial run regardless of thread count or
// scheduling order.
//
// Per-interval observer callbacks stream into per-worker accumulators
// (each worker writes only its own cache-line-padded slot — no shared
// locks on the hot path); the accumulators are merged into SweepStats
// after the workers join.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "core/multicore.h"
#include "core/simulator.h"

namespace pcal {

/// Builds a fresh TraceSource for one job.  Called on the worker thread
/// that runs the job, exactly once per SweepRunner::run — jobs must not
/// share mutable sources, so the factory is the unit of workload identity.
/// The factory itself must be safe to *invoke* from any worker thread
/// (it is copied with the job; captured state it reads must be immutable
/// or owned per-job), and the returned source is owned and destroyed by
/// the worker that ran the job.
using TraceSourceFactory = std::function<std::unique_ptr<TraceSource>()>;

/// One independent simulation of the sweep grid.
///
/// Ownership: the job owns its config and factory by value; the runner
/// copies nothing out of them after run() returns.  `lut` is a non-owning
/// pointer the caller must keep alive for the duration of run(); it is
/// read-only and therefore safe to share across all workers.
struct SweepJob {
  SimConfig config;
  TraceSourceFactory make_source;
  /// Optional human-readable identity ("cache_size=8192 banks=4
  /// workload=cjpeg") copied into the outcome so failure reports name
  /// the offending config.
  std::string label;
  /// Optional aging LUT (shared, read-only across threads).
  const AgingLut* lut = nullptr;
  /// Optional per-job observer, invoked on the worker thread that runs
  /// the job.  Observers of different jobs may run concurrently — an
  /// observer must only touch per-job state (or synchronize itself).
  IntervalObserver observer;
  /// Multi-core jobs: when set, the job runs a MultiCoreSystem over
  /// `core_sources` (one factory per configured core, in core order)
  /// instead of a single-stream Simulator, and `config`/`make_source`
  /// are ignored.  The shared_ptr keeps one immutable config alive
  /// across copies of the job on different workers.
  std::shared_ptr<const MultiCoreConfig> multicore;
  std::vector<TraceSourceFactory> core_sources;
};

/// Result slot of one job.  `result` is valid iff `ok()`.
struct SweepOutcome {
  SimResult result;
  /// Per-core attribution of a multi-core job (empty for single-stream
  /// jobs).
  std::vector<CoreResult> cores;
  std::exception_ptr error;
  /// The failing exception's what() string, captured at throw time on
  /// the worker — exception_ptr alone cannot be reported without
  /// rethrowing, and the BENCH failed-job entries want the reason even
  /// after the pointer is gone (e.g. restored from a journal).
  std::string error_what;
  /// The job's SweepJob::label, copied so failure reports name the
  /// offending config without the caller re-deriving it from the index.
  std::string label;
  /// Attempts consumed (1 = first try; > 1 means the JobPolicy retried).
  /// 0 iff the job never ran (skipped via SweepRunOptions, or cancelled
  /// by an abort).
  unsigned attempts = 0;
  /// Interval-observer callbacks this job fired (counted per job so a
  /// resumed run can reconstruct SweepStats::intervals_observed).
  std::uint64_t intervals = 0;
  /// The job failed by exceeding JobPolicy::deadline_ms.
  bool timed_out = false;
  /// The job never ran because an OnFailure::kAbort policy cancelled the
  /// sweep first (`error` is set to a synthesized cancellation error).
  bool cancelled = false;
  /// The job was skipped via SweepRunOptions::skip (the slot is default
  /// data — the caller restores the journaled outcome).
  bool skipped = false;

  bool ok() const { return error == nullptr; }
  /// Rethrows the job's exception, if any.
  void rethrow_if_error() const {
    if (error) std::rethrow_exception(error);
  }
};

/// What happens once a job has failed permanently (its retry budget is
/// spent, its deadline passed, or the error is not transient).
enum class OnFailure {
  /// The failure is tolerated data: the outcome records the reason and
  /// the rest of the grid runs to completion (callers emit structured
  /// failed-job entries and render the cell as a hole).
  kRecord,
  /// Tolerated like kRecord; the spelling callers use when failures are
  /// still abnormal (report-and-continue, nonzero exit).
  kSkip,
  /// The first permanent failure cancels every job that has not started
  /// yet (their outcomes come back `cancelled`).  One poisoned job used
  /// to be able to waste the whole grid's compute; this caps the waste
  /// at the jobs already in flight.
  kAbort,
};

/// Per-job fault-isolation policy of one SweepRunner::run.
struct JobPolicy {
  /// Total attempts per job (>= 1).  Only TransientError is retried —
  /// config and parse errors are deterministic and would fail again.
  unsigned max_attempts = 1;
  /// Deterministic backoff: attempt k sleeps k * retry_backoff_ms before
  /// re-running (0 = immediate retry).
  std::uint64_t retry_backoff_ms = 0;
  /// Cooperative per-job deadline (0 = none).  Workers arm a
  /// thread-local deadline (util/job_context.h) and the engine polls it
  /// at trace-batch and interval boundaries; a job that exceeds it fails
  /// with JobTimeoutError and is never retried.
  std::uint64_t deadline_ms = 0;
  OnFailure on_failure = OnFailure::kSkip;
};

/// Receives completed jobs as they finish — the checkpoint hook the
/// journal writer implements.  Called on the worker thread that ran the
/// job, after its outcome slot is fully written; calls for different
/// jobs may race, so implementations synchronize internally.  Skipped
/// and cancelled jobs are not reported (they did not run).
class JobCompletionSink {
 public:
  virtual ~JobCompletionSink() = default;
  virtual void on_job_complete(std::size_t index,
                               const SweepOutcome& outcome) = 0;
};

/// Optional knobs of one run; the default is exactly the legacy
/// engine — no retries, no deadline, no checkpointing, tolerate-and-mark
/// failures — pinned bit for bit by the determinism tests.
struct SweepRunOptions {
  JobPolicy policy;
  /// Completed-job sink (journaled checkpointing); may be null.
  JobCompletionSink* checkpoint = nullptr;
  /// Jobs to skip, by index (already completed in a previous run).  Must
  /// be empty or jobs.size() long; skipped slots return with
  /// `skipped == true` and default data.
  const std::vector<bool>* skip = nullptr;
};

/// Aggregate statistics of one SweepRunner::run, merged from the
/// per-worker accumulators.
struct SweepStats {
  std::size_t jobs = 0;
  std::size_t failed_jobs = 0;
  unsigned threads = 0;
  std::uint64_t total_accesses = 0;      // sum of SimResult::accesses
  std::uint64_t restored_accesses = 0;   // of those, journal-restored
  std::uint64_t intervals_observed = 0;  // observer callbacks fired
  std::uint64_t steals = 0;              // jobs taken from another worker
  double wall_seconds = 0.0;

  /// Accesses simulated (not restored) by this run per wall second.
  double accesses_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(total_accesses - restored_accesses) /
                     wall_seconds
               : 0.0;
  }
};

/// Work-stealing thread pool over independent Simulator runs.
///
/// Jobs are dealt round-robin into per-worker deques; a worker drains its
/// own deque from the front and, when empty, steals from the back of a
/// victim's.  With `num_threads() == 1` (or a single job) everything runs
/// inline on the calling thread — the exact serial path the determinism
/// tests compare against.
///
/// Thread-safety: a SweepRunner instance is driven from one caller
/// thread; run() blocks that thread until every job has completed and
/// all workers have joined, so `last_stats()` and the returned outcomes
/// are plain single-threaded data afterwards.  Workers share nothing
/// mutable: each job's Simulator, backend and TraceSource live and die
/// on the worker that ran it, and outcomes are written to distinct
/// pre-sized slots.
///
/// Determinism guarantee: outcomes are stored by job index and every job
/// is a self-contained Simulator::run over its own source, so the
/// returned vector is bit-identical to a serial run regardless of thread
/// count, stealing order, or scheduling — pinned by sweep_test (1/2/8
/// threads), the backend_parity_test degeneracy suite (1 and 8 threads),
/// and CI's 1-vs-8-worker diffs of the table4 and drowsy_comparison
/// grids.  Only SweepStats (wall clock, steal counts) may differ between
/// runs.
class SweepRunner {
 public:
  /// `num_threads == 0` picks default_threads().
  explicit SweepRunner(unsigned num_threads = 0);

  /// Runs every job; returns outcomes in job order.  An exception thrown
  /// by one job (source factory or simulation) is captured into that
  /// job's outcome and does not affect the others or the pool.
  std::vector<SweepOutcome> run(const std::vector<SweepJob>& jobs);

  /// As above with per-run fault-isolation and checkpointing options.
  /// Default options reproduce the plain overload bit for bit.
  std::vector<SweepOutcome> run(const std::vector<SweepJob>& jobs,
                                const SweepRunOptions& options);

  unsigned num_threads() const { return threads_; }

  /// Statistics of the most recent run().
  const SweepStats& last_stats() const { return stats_; }

  /// PCAL_SWEEP_THREADS if set (>= 1), else std::thread::hardware_concurrency.
  static unsigned default_threads();

 private:
  unsigned threads_;
  SweepStats stats_;
};

}  // namespace pcal
