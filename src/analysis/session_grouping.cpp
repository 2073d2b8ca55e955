#include "analysis/session_grouping.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "exec/thread_pool.hpp"

namespace gridvc::analysis {

namespace {

// Below this size the serial path wins; above it the per-partition sort
// and sweep dominate and parallelize cleanly. The cut only moves work
// between identical code paths — the output is the same either way.
constexpr std::size_t kParallelGroupingThreshold = 4096;

}  // namespace

std::vector<Session> group_sessions(const gridftp::TransferLog& log,
                                    const GroupingOptions& options) {
  GRIDVC_REQUIRE(options.gap >= 0.0, "session gap must be non-negative");

  // Partition by endpoint pair (plus direction when split) without a
  // string per record: each pair is interned to a dense id, taken from the
  // previous record when it matches, else from a map of string_views into
  // the log. A partition's first record names it.
  using Endpoint = std::tuple<std::string_view, std::string_view, bool>;
  const auto endpoint = [&](const gridftp::TransferRecord& r) {
    return Endpoint(r.server_host, r.remote_host,
                    options.split_by_direction && r.type == gridftp::TransferType::kStore);
  };
  std::vector<std::size_t> first_record;
  std::vector<std::size_t> offsets(1, 0);  // CSR row starts, one row per partition
  std::vector<gridftp::StartKey> keys(log.size());
  {
    std::map<Endpoint, std::uint32_t> ids;
    std::vector<std::uint32_t> part_of(log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
      const auto e = endpoint(log[i]);
      if (i > 0 && e == endpoint(log[i - 1])) {
        part_of[i] = part_of[i - 1];
      } else {
        const auto [it, added] = ids.try_emplace(e, static_cast<std::uint32_t>(first_record.size()));
        if (added) {
          first_record.push_back(i);
          offsets.push_back(0);
        }
        part_of[i] = it->second;
      }
      ++offsets[part_of[i] + 1];
    }
    // Counting sort into one (start, end, index) key array: a contiguous
    // segment per partition, log order within each segment.
    for (std::size_t p = 1; p < offsets.size(); ++p) offsets[p] += offsets[p - 1];
    std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < log.size(); ++i) {
      keys[fill[part_of[i]]++] = {log[i].start_time, log[i].end_time(), i};
    }
  }

  // Sort and sweep each partition independently — in parallel for large
  // logs — then merge in key order. Each partition's sessions depend only
  // on that partition, so the merge order (and therefore the output) is
  // independent of the thread count. std::sort's permutation depends only
  // on the input order and the comparison outcomes, and both are those of
  // sorting each partition's log-order index list by (start, end), so
  // tied transfers keep a reproducible order inside a session.
  std::vector<std::vector<Session>> per_part(first_record.size());
  const auto sweep_partition = [&](std::size_t p) {
    const auto& named = log[first_record[p]];
    std::string key = named.server_host + "|" + named.remote_host;
    if (options.split_by_direction) {
      key += named.type == gridftp::TransferType::kStore ? "|STOR" : "|RETR";
    }
    const auto first = keys.begin() + static_cast<std::ptrdiff_t>(offsets[p]);
    const auto last = keys.begin() + static_cast<std::ptrdiff_t>(offsets[p + 1]);
    std::sort(first, last);

    for (auto k = first; k != last;) {
      Session s;
      s.key = key;
      s.start_time = k->start;
      s.end_time = k->end;
      // A transfer starting within `gap` of the running end (which may be
      // before its start for concurrent batches -> negative gap) joins.
      auto next = k + 1;
      for (; next != last && next->start - s.end_time <= options.gap; ++next) {
        s.end_time = std::max(s.end_time, next->end);
      }
      s.transfer_indices.reserve(static_cast<std::size_t>(next - k));
      for (; k != next; ++k) {
        s.transfer_indices.push_back(k->index);
        s.total_bytes += log[k->index].size;
      }
      per_part[p].push_back(std::move(s));
    }
  };

  if (log.size() >= kParallelGroupingThreshold && per_part.size() > 1) {
    exec::default_pool().parallel_for(per_part.size(), sweep_partition);
  } else {
    for (std::size_t p = 0; p < per_part.size(); ++p) sweep_partition(p);
  }

  keys = std::vector<gridftp::StartKey>();  // free before the merge allocates
  std::size_t total = 0;
  for (const auto& v : per_part) total += v.size();
  std::vector<Session> sessions;
  sessions.reserve(total);
  for (auto& v : per_part) {
    for (auto& s : v) sessions.push_back(std::move(s));
  }

  std::sort(sessions.begin(), sessions.end(), [](const Session& a, const Session& b) {
    if (a.start_time != b.start_time) return a.start_time < b.start_time;
    return a.key < b.key;
  });
  return sessions;
}

SessionCensus census(const std::vector<Session>& sessions) {
  SessionCensus c;
  std::size_t le2 = 0;
  for (const auto& s : sessions) {
    const std::size_t n = s.transfer_count();
    if (n == 1) {
      ++c.single_transfer_sessions;
    } else {
      ++c.multi_transfer_sessions;
    }
    if (n <= 2) ++le2;
    c.max_transfers_in_session = std::max(c.max_transfers_in_session, n);
    if (n >= 100) ++c.sessions_with_100_or_more;
  }
  c.fraction_with_le2 =
      sessions.empty() ? 0.0
                       : static_cast<double>(le2) / static_cast<double>(sessions.size());
  return c;
}

std::vector<double> session_sizes_megabytes(const std::vector<Session>& sessions) {
  std::vector<double> out;
  out.reserve(sessions.size());
  for (const auto& s : sessions) out.push_back(to_megabytes(s.total_bytes));
  return out;
}

std::vector<double> session_durations_seconds(const std::vector<Session>& sessions) {
  std::vector<double> out;
  out.reserve(sessions.size());
  for (const auto& s : sessions) out.push_back(s.duration());
  return out;
}

}  // namespace gridvc::analysis
