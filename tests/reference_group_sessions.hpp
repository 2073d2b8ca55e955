// Reference session grouping for the session-grouping tests.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/session_grouping.hpp"

namespace gridvc::analysis {

// Straight transcription of the string-keyed grouping (one
// "server|remote[|DIR]" string and std::map lookup per record, an index
// list per partition sorted by (start, end), serial sweep). The interned
// CSR implementation changes only how partitions are found and stored, so
// it must reproduce these sessions field for field, including the order
// of tied transfers inside each session.
inline std::vector<Session> reference_group_sessions(const gridftp::TransferLog& log,
                                                     const GroupingOptions& options) {
  std::map<std::string, std::vector<std::size_t>> partitions;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& r = log[i];
    std::string key = r.server_host + "|" + r.remote_host;
    if (options.split_by_direction) {
      key += r.type == gridftp::TransferType::kStore ? "|STOR" : "|RETR";
    }
    partitions[key].push_back(i);
  }

  std::vector<Session> sessions;
  for (auto& [key, indices] : partitions) {
    std::sort(indices.begin(), indices.end(), [&](std::size_t a, std::size_t b) {
      if (log[a].start_time != log[b].start_time) {
        return log[a].start_time < log[b].start_time;
      }
      return log[a].end_time() < log[b].end_time();
    });
    Session* current = nullptr;
    for (std::size_t idx : indices) {
      const auto& r = log[idx];
      if (current != nullptr && r.start_time - current->end_time <= options.gap) {
        current->transfer_indices.push_back(idx);
        current->total_bytes += r.size;
        current->end_time = std::max(current->end_time, r.end_time());
      } else {
        Session s;
        s.key = key;
        s.transfer_indices.push_back(idx);
        s.total_bytes = r.size;
        s.start_time = r.start_time;
        s.end_time = r.end_time();
        sessions.push_back(std::move(s));
        current = &sessions.back();
      }
    }
  }

  std::sort(sessions.begin(), sessions.end(), [](const Session& a, const Session& b) {
    if (a.start_time != b.start_time) return a.start_time < b.start_time;
    return a.key < b.key;
  });
  return sessions;
}

}  // namespace gridvc::analysis
