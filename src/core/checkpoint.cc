#include "core/checkpoint.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/enum_strings.h"
#include "core/result_fields.h"
#include "util/error.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define PCAL_JOURNAL_HAS_FSYNC 1
#endif

namespace pcal {
namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

constexpr std::string_view kJournalVersion = "v2";

template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};
template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

void parse_enum(const std::string& s, Granularity* out) {
  *out = granularity_from_string(s);
}
void parse_enum(const std::string& s, PowerPolicy* out) {
  *out = power_policy_from_string(s);
}

// ---- the codec: one token per scalar, two visitors of one walk ---------
//
// Integers are decimal, bools 0/1, enums their enum_strings spelling,
// doubles C99 hexfloat (%a: strtod restores the bits, inf and nan too),
// strings '~'-prefixed and percent-encoded (space, control bytes, '%'
// and non-ASCII become %XX).  A vector is its count then its elements,
// an optional a 0/1 flag then its value, a struct its result_fields.h
// list.

class TokenWriter {
 public:
  template <class T>
  void operator()(const char* name, const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      raw(v ? "1" : "0");
    } else if constexpr (std::is_enum_v<T>) {
      (*this)(name, std::string(to_string(v)));
    } else if constexpr (std::is_integral_v<T>) {
      os_ << ' ' << static_cast<std::uint64_t>(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%a", v);
      raw(buf);
    } else if constexpr (std::is_same_v<T, std::string>) {
      os_ << ' ' << '~';
      for (const char c : v) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (u <= 0x20 || u >= 0x7f || c == '%') {
          char buf[4];
          std::snprintf(buf, sizeof(buf), "%%%02X", u);
          os_ << buf;
        } else {
          os_ << c;
        }
      }
    } else if constexpr (IsVector<T>::value) {
      (*this)(name, v.size());
      for (const auto& e : v) (*this)(name, e);
    } else if constexpr (IsOptional<T>::value) {
      (*this)(name, v.has_value());
      if (v) (*this)(name, *v);
    } else {
      for_each_field(v, *this);
    }
  }

  void raw(std::string_view token) { os_ << ' ' << token; }

  /// The tokens written so far, without the leading separator.
  std::string str() const {
    const std::string s = os_.str();
    return s.empty() ? s : s.substr(1);
  }

 private:
  std::ostringstream os_;
};

/// Cursor over one record's tokens; every read throws ParseError on
/// malformed or missing input so a damaged record can never half-load.
class TokenReader {
 public:
  explicit TokenReader(std::string_view data) : data_(data) {}

  template <class T>
  void operator()(const char* name, T& f) {
    if constexpr (std::is_same_v<T, bool>) {
      const std::uint64_t v = take_u64();
      if (v > 1) throw ParseError("journal record: bad bool token");
      f = v != 0;
    } else if constexpr (std::is_enum_v<T>) {
      try {
        parse_enum(take_string(), &f);
      } catch (const ConfigError& e) {
        throw ParseError(std::string("journal record: ") + e.what());
      }
    } else if constexpr (std::is_integral_v<T>) {
      const std::uint64_t v = take_u64();
      if (v > std::numeric_limits<T>::max())
        throw ParseError("journal record: integer out of range");
      f = static_cast<T>(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      const std::string tok(take());
      char* end = nullptr;
      f = std::strtod(tok.c_str(), &end);
      if (end == tok.c_str() || *end != '\0')
        throw ParseError("journal record: bad float token '" + tok + "'");
    } else if constexpr (std::is_same_v<T, std::string>) {
      f = take_string();
    } else if constexpr (IsVector<T>::value) {
      f.resize(take_count());
      for (auto& e : f) (*this)(name, e);
    } else if constexpr (IsOptional<T>::value) {
      bool present = false;
      (*this)(name, present);
      if (present)
        (*this)(name, f.emplace());
      else
        f.reset();
    } else {
      for_each_field(f, *this);
    }
  }

  std::string_view take() {
    while (pos_ < data_.size() && data_[pos_] == ' ') ++pos_;
    if (pos_ >= data_.size())
      throw ParseError("journal record truncated: expected another token");
    const std::size_t start = pos_;
    while (pos_ < data_.size() && data_[pos_] != ' ') ++pos_;
    return data_.substr(start, pos_ - start);
  }

  std::uint64_t take_hex64() { return take_integer(16, "hex"); }

  bool exhausted() {
    while (pos_ < data_.size() && data_[pos_] == ' ') ++pos_;
    return pos_ >= data_.size();
  }

 private:
  std::uint64_t take_u64() { return take_integer(10, "integer"); }

  std::uint64_t take_integer(int base, const char* what) {
    const std::string tok(take());
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, base);
    // strtoull would take a sign or leading space ("-1" as 2^64-1).
    if (!std::isxdigit(static_cast<unsigned char>(tok[0])) || errno != 0 ||
        end == tok.c_str() || *end != '\0')
      throw ParseError(std::string("journal record: bad ") + what +
                       " token '" + tok + "'");
    return v;
  }

  /// A container size.  Every element is at least one token (two bytes
  /// with its separator), so a count the rest of the record cannot hold
  /// is damage — refused before it sizes an allocation.
  std::size_t take_count() {
    const std::uint64_t n = take_u64();
    if (n > (data_.size() - pos_) / 2)
      throw ParseError("journal record: element count exceeds the record");
    return static_cast<std::size_t>(n);
  }

  std::string take_string() {
    const std::string_view tok = take();
    if (tok.empty() || tok[0] != '~')
      throw ParseError("journal record: bad string token");
    std::string out;
    out.reserve(tok.size());
    for (std::size_t i = 1; i < tok.size(); ++i) {
      if (tok[i] != '%') {
        out.push_back(tok[i]);
        continue;
      }
      const std::string hex(tok.substr(i + 1, 2));
      if (hex.size() != 2 ||
          !std::isxdigit(static_cast<unsigned char>(hex[0])) ||
          !std::isxdigit(static_cast<unsigned char>(hex[1])))
        throw ParseError("journal record: bad %XX escape");
      out.push_back(static_cast<char>(std::stoi(hex, nullptr, 16)));
      i += 2;
    }
    return out;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// The journaled form of one outcome: the job envelope, then — for a
/// success — the full SimResult and per-core results.  `ok` comes first
/// so a reader knows whether the result follows.
template <class Outcome, class Visitor>
void visit_outcome(Outcome& o, bool& ok, Visitor& v) {
  v("ok", ok);
  v("attempts", o.attempts);
  v("intervals", o.intervals);
  v("timed_out", o.timed_out);
  v("label", o.label);
  v("error_what", o.error_what);
  if (ok) {
    v("result", o.result);
    v("cores", o.cores);
  }
}

/// Reads one outcome from `r`, which must then be exhausted.
SweepOutcome take_outcome(TokenReader& r) {
  SweepOutcome out;
  bool ok = false;
  visit_outcome(out, ok, r);
  // Restore failure semantics: ok() is false and rethrow_if_error()
  // raises an Error carrying the journaled reason.
  if (!ok) out.error = std::make_exception_ptr(Error(out.error_what));
  if (!r.exhausted())
    throw ParseError("journal record has trailing tokens");
  return out;
}

/// Appends the line checksum to `payload` — FNV-1a over the payload
/// bytes, so load can detect any torn or damaged record.
std::string with_checksum(const std::string& payload) {
  Fingerprint fp;
  fp.add(payload);
  return payload + ' ' + hex16(fp.value());
}

/// Splits `line` into payload + checksum and verifies; returns the
/// payload view or throws ParseError.
std::string_view verify_checksum(std::string_view line) {
  const std::size_t cut = line.find_last_of(' ');
  if (cut == std::string_view::npos)
    throw ParseError("journal line has no checksum");
  const std::string_view payload = line.substr(0, cut);
  const std::string_view sum = line.substr(cut + 1);
  Fingerprint fp;
  fp.add(payload);
  if (std::string_view(hex16(fp.value())) != sum)
    throw ParseError("journal line checksum mismatch");
  return payload;
}

JournalHeader parse_header_payload(std::string_view payload) {
  TokenReader r(payload);
  if (r.take() != "pcal-journal")
    throw ParseError("not a pcal journal (bad magic)");
  const std::string_view version = r.take();
  if (version != kJournalVersion)
    throw ParseError("unsupported journal version pcal-journal " +
                     std::string(version) + " (this build reads " +
                     std::string(kJournalVersion) +
                     "; rerun the sweep without --resume)");
  JournalHeader h;
  r("name", h.name);
  h.fingerprint = r.take_hex64();
  r("jobs", h.jobs);
  r("accesses", h.accesses);
  r("shard_index", h.shard_index);
  r("shard_count", h.shard_count);
  if (!r.exhausted())
    throw ParseError("journal header has trailing tokens");
  if (h.shard_count == 0 || h.shard_index == 0 ||
      h.shard_index > h.shard_count)
    throw ParseError("journal header has an invalid shard slice");
  return h;
}

void fsync_file(std::FILE* f) {
#if defined(PCAL_JOURNAL_HAS_FSYNC)
  ::fsync(fileno(f));
#else
  (void)f;
#endif
}

}  // namespace

void Fingerprint::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= kFnvPrime;
  }
}

void Fingerprint::add_u64(std::uint64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  add(std::string_view("#", 1));  // length/field separator
  add(std::string_view(buf, static_cast<std::size_t>(n)));
}

std::string serialize_outcome(const SweepOutcome& outcome) {
  bool ok = outcome.ok();
  TokenWriter w;
  visit_outcome(outcome, ok, w);
  return w.str();
}

SweepOutcome deserialize_outcome(std::string_view tokens) {
  TokenReader r(tokens);
  return take_outcome(r);
}

std::string render_journal_header(const JournalHeader& header) {
  TokenWriter w;
  w.raw("pcal-journal");
  w.raw(kJournalVersion);
  w("name", header.name);
  w.raw(hex16(header.fingerprint));
  w("jobs", header.jobs);
  w("accesses", header.accesses);
  w("shard_index", header.shard_index);
  w("shard_count", header.shard_count);
  return with_checksum(w.str());
}

std::string render_journal_record(std::size_t index,
                                  std::uint64_t job_fingerprint,
                                  const SweepOutcome& outcome) {
  std::ostringstream os;
  os << "J " << index << ' ' << hex16(job_fingerprint) << ' '
     << serialize_outcome(outcome);
  return with_checksum(os.str());
}

JournalWriter::JournalWriter(const std::string& path,
                             const JournalHeader& header,
                             std::vector<std::uint64_t> job_fingerprints,
                             bool append)
    : job_fingerprints_(std::move(job_fingerprints)) {
  if (append) {
    // Verify the on-disk header before adding to the file: appending to
    // a journal of a different grid would corrupt both runs.
    std::ifstream in(path);
    std::string first;
    if (!in || !std::getline(in, first))
      throw ParseError(path + ": cannot read journal header for append");
    const JournalHeader existing = parse_header_payload(
        verify_checksum(first));
    if (!existing.same_run(header))
      throw ParseError(path +
                       ": journal header does not match this run "
                       "(different grid, accesses, or shard)");
    file_ = std::fopen(path.c_str(), "ab");
    if (!file_) throw Error(path + ": cannot open journal for append");
  } else {
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) throw Error(path + ": cannot create journal");
    const std::string line = render_journal_header(header);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
    fsync_file(file_);
  }
}

JournalWriter::~JournalWriter() {
  flush();
  if (file_) std::fclose(file_);
}

void JournalWriter::on_job_complete(std::size_t index,
                                    const SweepOutcome& outcome) {
  if (outcome.skipped || outcome.cancelled) return;
  PCAL_ASSERT_MSG(index < job_fingerprints_.size(),
                  "journal writer saw an out-of-range job index");
  const std::string line =
      render_journal_record(index, job_fingerprints_[index], outcome);
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  // Every record leaves the stdio buffer immediately (so a plain crash
  // or _Exit loses nothing); the expensive fsync is what's batched —
  // only an OS/power failure can cost the last kFsyncBatch records.
  std::fflush(file_);
  if (++unsynced_ >= kFsyncBatch) {
    fsync_file(file_);
    unsynced_ = 0;
  }
}

void JournalWriter::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr && unsynced_ > 0) {
    std::fflush(file_);
    fsync_file(file_);
    unsynced_ = 0;
  }
}

LoadedJournal load_journal(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError(path + ": cannot open journal");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  // Drop trailing blank lines (a crash can leave a bare newline).
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) throw ParseError(path + ": empty journal");

  LoadedJournal out;
  try {
    out.header = parse_header_payload(verify_checksum(lines[0]));
  } catch (const ParseError& e) {
    throw ParseError(path + ":line 1: " + e.what());
  }

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const bool last = (i + 1 == lines.size());
    try {
      TokenReader r(verify_checksum(lines[i]));
      if (r.take() != "J")
        throw ParseError("journal record does not start with 'J'");
      JournalEntry entry;
      r("index", entry.index);
      entry.job_fingerprint = r.take_hex64();
      entry.outcome = take_outcome(r);
      if (entry.index >= out.header.jobs)
        throw ParseError("journal record index out of range");
      out.entries.push_back(std::move(entry));
    } catch (const ParseError& e) {
      if (last) {
        // A torn tail is the expected crash signature: the final append
        // was interrupted mid-line.  Discard it — the job reruns.
        out.torn_tail = true;
        break;
      }
      throw ParseError(path + ":line " + std::to_string(i + 1) + ": " +
                       e.what());
    }
  }

  // Keep the last record per job (an append retried after a partial
  // flush can duplicate), then order by index for deterministic merges.
  std::map<std::size_t, JournalEntry> by_index;
  for (JournalEntry& entry : out.entries)
    by_index[entry.index] = std::move(entry);
  out.entries.clear();
  for (auto& kept : by_index) out.entries.push_back(std::move(kept.second));
  return out;
}

}  // namespace pcal
