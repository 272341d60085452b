#include "core/bench_record.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "core/result_fields.h"

namespace pcal {

void write_bench_json(const std::string& bench_name, const SweepStats& stats,
                      const std::function<void(std::ostream&)>& extra) {
  if (const char* env = std::getenv("PCAL_BENCH_JSON")) {
    if (std::string(env) == "0") return;
  }
  std::string dir = ".";
  if (const char* env = std::getenv("PCAL_BENCH_JSON_DIR")) dir = env;
  const std::string path = dir + "/BENCH_" + bench_name + ".json";
  std::ofstream f(path);
  if (!f) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  f << "{\n"
    << "  \"bench\": \"" << json_escape(bench_name) << "\",\n";
  if (extra) extra(f);
  f << "  \"jobs\": " << stats.jobs << ",\n"
    << "  \"failed_jobs\": " << stats.failed_jobs << ",\n"
    << "  \"threads\": " << stats.threads << ",\n"
    << "  \"wall_seconds\": " << stats.wall_seconds << ",\n"
    << "  \"total_accesses\": " << stats.total_accesses << ",\n"
    << "  \"accesses_per_second\": " << stats.accesses_per_second() << ",\n"
    << "  \"intervals_observed\": " << stats.intervals_observed << ",\n"
    << "  \"steals\": " << stats.steals << "\n"
    << "}\n";
}

namespace {

template <class R, std::size_t N>
void write_metrics(std::ostream& os, const Metric<R> (&table)[N], const R& r) {
  for (const Metric<R>& m : table) {
    os << ", \"" << m.name << "\": ";
    if (m.u64 != nullptr)
      os << m.u64(r);
    else
      os << m.f64(r);
  }
}

}  // namespace

void write_result_row(std::ostream& os, const SimResult& result,
                      const std::string& workload, bool ok,
                      const std::vector<CoreResult>* cores, long job) {
  os << "{";
  if (job >= 0) os << "\"job\": " << job << ", ";
  os << "\"workload\": \"" << json_escape(workload) << "\", \"config\": \""
     << json_escape(result.config_label)
     << "\", \"ok\": " << (ok ? "true" : "false");
  write_metrics(os, kResultMetrics, result);
  if (cores != nullptr && !cores->empty()) {
    os << ", \"cores\": [";
    for (std::size_t k = 0; k < cores->size(); ++k) {
      const CoreResult& c = (*cores)[k];
      if (k) os << ", ";
      os << "{\"workload\": \"" << json_escape(c.workload) << "\"";
      write_metrics(os, kCoreMetrics, c);
      os << "}";
    }
    os << "]";
  }
  os << "}";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace pcal
