// In-memory spans for the benchmark's traced runs.
//
// A span is one call the benchmark makes into a layer of gridvc: its
// name, start and end on the monotonic clock, the span that was open
// when it began (its parent), and the id of the request or transfer it
// served. Spans stay in memory while the work runs and are written out
// once, after it ends, so recording costs a vector push per call.
//
// A SpanLog belongs to one thread. Spans on one thread nest, so a span's
// direct children never overlap and its self time is its duration minus
// the sum of theirs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock (CLOCK_MONOTONIC, the clock Python's
/// time.monotonic() reads, so both halves of the benchmark agree).
double mono_s();

/// CPU seconds (user + system) this process has used, all threads.
double cpu_s();

struct Span {
  const char* name = "";  ///< a string literal; never owned
  double start_s = 0.0;
  double end_s = 0.0;
  std::int32_t parent = -1;  ///< index into the same log; -1 = top level
  std::uint64_t id = 0;      ///< request or transfer this call served
};

/// Per-name totals over a log.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Start a span; returns its index (-1 when the log is disabled).
  std::int32_t open(const char* name, std::uint64_t id);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, SpanTotals> totals() const;
  /// One JSON object per line: name, start, end, parent, id, thread.
  void write_jsonl(std::ostream& out, std::uint32_t thread) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t id)
      : log_(log), index_(log.open(name, id)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

/// Adds `from` into `into`, name by name.
void merge_totals(std::map<std::string, SpanTotals>& into,
                  const std::map<std::string, SpanTotals>& from);

}  // namespace perfbench
