#include "trace/trace.h"

#include <algorithm>

namespace pcal {

std::size_t TraceSource::next_batch(MemAccess* out, std::size_t max) {
  std::size_t n = 0;
  while (n < max) {
    auto a = next();
    if (!a) break;
    out[n++] = *a;
  }
  return n;
}

std::optional<MemAccess> Trace::next() {
  if (pos_ >= accesses_.size()) return std::nullopt;
  return accesses_[pos_++];
}

std::size_t Trace::next_batch(MemAccess* out, std::size_t max) {
  const std::size_t n = std::min(max, accesses_.size() - pos_);
  std::copy_n(accesses_.begin() + static_cast<std::ptrdiff_t>(pos_), n, out);
  pos_ += n;
  return n;
}

SharedTraceSource::SharedTraceSource(std::shared_ptr<const Trace> trace,
                                     std::uint64_t limit)
    : trace_(std::move(trace)),
      limit_(std::min<std::uint64_t>(limit, trace_->size())) {}

std::optional<MemAccess> SharedTraceSource::next() {
  if (pos_ >= limit_) return std::nullopt;
  return (*trace_)[static_cast<std::size_t>(pos_++)];
}

std::size_t SharedTraceSource::next_batch(MemAccess* out, std::size_t max) {
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(max, limit_ - pos_));
  const auto& accesses = trace_->accesses();
  std::copy_n(accesses.begin() + static_cast<std::ptrdiff_t>(pos_), n, out);
  pos_ += n;
  return n;
}

Trace Trace::materialize(TraceSource& source, std::uint64_t max_accesses) {
  source.reset();
  std::vector<MemAccess> out;
  if (auto h = source.size_hint())
    out.reserve(static_cast<std::size_t>(std::min(*h, max_accesses)));
  MemAccess buf[kReadChunk];
  while (out.size() < max_accesses) {
    const std::size_t n = source.next_batch(
        buf, static_cast<std::size_t>(std::min<std::uint64_t>(
                 kReadChunk, max_accesses - out.size())));
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  return Trace(source.name(), std::move(out));
}

}  // namespace pcal
