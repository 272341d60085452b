// Machine-readable perf records (BENCH_<name>.json) of sweep runs.
//
// Every paper-table bench and the pcalsweep CLI drop one JSON record per
// run so the repo tracks a perf trajectory and CI can gate on it
// (tools/check_bench_json.py validates schema, job counts and nonzero
// energy).  The record carries the SweepStats of the run plus optional
// caller-provided members (per-backend energy sections, the sweep grid's
// cross-product, per-job result rows).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "core/sweep.h"

namespace pcal {

/// Writes BENCH_<bench_name>.json.  PCAL_BENCH_JSON_DIR overrides the
/// output directory (default: cwd); PCAL_BENCH_JSON=0 disables the file.
/// `extra` (optional) is invoked with the output stream to emit
/// additional top-level JSON members — each a complete
/// `  "key": value,\n` chunk — after the bench name.
void write_bench_json(const std::string& bench_name, const SweepStats& stats,
                      const std::function<void(std::ostream&)>& extra = {});

/// Writes one element of a record's "results" array (no trailing comma
/// or newline): workload, config label and ok flag, then every
/// core/result_fields.h kResultMetrics entry in table order.  The one
/// emitter for every producer (pcalsweep, bench binaries), so the row
/// schema cannot drift between them.  `cores` (a multi-core job's
/// per-core attribution) appends a "cores" array member — per core its
/// workload and the kCoreMetrics entries.  `job >= 0` prepends a "job"
/// member — the job's global cross-product index — so sharded records
/// can be merged and resumed records diffed by identity (bench binaries
/// leave it off; their rows are always the full grid in order).
void write_result_row(std::ostream& os, const SimResult& result,
                      const std::string& workload, bool ok,
                      const std::vector<CoreResult>* cores = nullptr,
                      long job = -1);

/// Escapes `s` for use inside a JSON string literal (quotes, backslashes,
/// control characters).
std::string json_escape(const std::string& s);

}  // namespace pcal
