#include "spans.hpp"

#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <ostream>

namespace perfbench {

double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::int32_t SpanLog::open(const char* name, std::uint64_t id) {
  if (!enabled_) return -1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, mono_s(), 0.0, stack_.empty() ? -1 : stack_.back(), id});
  stack_.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = mono_s();
  stack_.pop_back();
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end_s - spans_[i].start_s;
    SpanTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
  }
  return out;
}

void SpanLog::write_jsonl(std::ostream& out, std::uint32_t thread) const {
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                  "\"id\":%llu,\"thread\":%u}\n",
                  s.name, s.start_s, s.end_s, s.parent,
                  static_cast<unsigned long long>(s.id), thread);
    out << line;
  }
}

void merge_totals(std::map<std::string, SpanTotals>& into,
                  const std::map<std::string, SpanTotals>& from) {
  for (const auto& [name, t] : from) {
    SpanTotals& dst = into[name];
    dst.count += t.count;
    dst.total_s += t.total_s;
    dst.self_s += t.self_s;
  }
}

}  // namespace perfbench
