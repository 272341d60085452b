#include "trace/trace_stats.h"

#include <unordered_map>

#include "util/error.h"

namespace pcal {

TraceStats compute_trace_stats(TraceSource& source,
                               std::uint64_t line_bytes) {
  PCAL_ASSERT(line_bytes > 0);
  source.reset();
  TraceStats st;
  std::unordered_map<std::uint64_t, std::uint64_t> last_seen;  // line -> pos
  double reuse_distance_sum = 0.0;
  std::uint64_t reuses = 0;
  bool first = true;
  MemAccess buf[kReadChunk];
  while (const std::size_t n = source.next_batch(buf, kReadChunk)) {
    for (const MemAccess* a = buf; a != buf + n; ++a) {
      const std::uint64_t pos = st.accesses++;
      if (a->kind == AccessKind::kWrite)
        ++st.writes;
      else
        ++st.reads;
      if (first) {
        st.min_address = st.max_address = a->address;
        first = false;
      } else {
        st.min_address = std::min(st.min_address, a->address);
        st.max_address = std::max(st.max_address, a->address);
      }
      const std::uint64_t line = a->address / line_bytes;
      auto [it, inserted] = last_seen.try_emplace(line, pos);
      if (!inserted) {
        ++reuses;
        reuse_distance_sum += static_cast<double>(pos - it->second);
        it->second = pos;
      }
    }
  }
  st.distinct_lines = last_seen.size();
  st.footprint_bytes = st.distinct_lines * line_bytes;
  if (st.accesses > 0) {
    st.write_fraction =
        static_cast<double>(st.writes) / static_cast<double>(st.accesses);
    st.reuse_fraction =
        static_cast<double>(reuses) / static_cast<double>(st.accesses);
  }
  if (reuses > 0)
    st.mean_reuse_distance = reuse_distance_sum / static_cast<double>(reuses);
  return st;
}

}  // namespace pcal
