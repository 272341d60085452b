// Host facts and JSON helpers.  The host block labels every record so
// numbers from different machines or builds never mix silently; it never
// gates a run.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {
namespace {

/// Single-thread integer spin rate (M iterations/s) over ~50 ms: how
/// much CPU this process actually gets right now.
double calibration_spin_mips() {
  std::uint64_t x = 0x243f6a8885a308d3ull, iters = 0;
  const double t0 = now_s();
  double t1 = t0;
  while (t1 - t0 < 0.05) {
    for (int i = 0; i < 100000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    iters += 100000;
    t1 = now_s();
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(iters) / (t1 - t0) / 1e6;
}

std::string cgroup_cpu_max() {
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string line;
  if (!std::getline(in, line)) return "unavailable";
  return line;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string host_facts_json(const std::string& commit) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"affinity_cpus\": " << affinity << ", \"cgroup_cpu_max\": \""
     << json_escape(cgroup_cpu_max()) << "\", \"spin_mips\": "
     << json_number(calibration_spin_mips()) << ", \"compiler\": \""
     << json_escape(__VERSION__) << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"pcal_native\": \"" << PERFBENCH_NATIVE
     << "\", \"commit\": \"" << json_escape(commit) << "\"}";
  return os.str();
}

}  // namespace perfbench
