// GridFTP usage-statistics records.
//
// §II: "For each transfer, the following information is logged: transfer
// type (store or retrieve), size in bytes, start time of the transfer,
// transfer duration, IP address and domain name of the GridFTP server,
// number of parallel TCP streams, number of stripes, TCP buffer size, and
// block size. Importantly, the IP address/domain name of the other end of
// the transfer is not listed for privacy reasons."
//
// Our records carry the same fields; `remote_host` is present because the
// NCAR and SLAC site-local logs included it (it enables the session
// analysis) and can be anonymized (anonymize_remote_hosts) to reproduce
// the NERSC situation where session grouping was impossible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace gridvc::gridftp {

/// FTP operation direction as seen by the logging server.
enum class TransferType : std::uint8_t {
  kStore,     ///< STOR: file moved *to* the logging server
  kRetrieve,  ///< RETR: file moved *from* the logging server
};

/// One file movement, i.e. one log entry.
struct TransferRecord {
  TransferType type = TransferType::kRetrieve;
  Bytes size = 0;
  Seconds start_time = 0.0;
  Seconds duration = 0.0;
  std::string server_host;  ///< the logging GridFTP server
  std::string remote_host;  ///< other end; may be "" (anonymized)
  int streams = 1;          ///< parallel TCP streams
  int stripes = 1;          ///< striped servers
  Bytes tcp_buffer = 0;
  Bytes block_size = 0;
  /// The transfer was abandoned after repeated link-failure aborts.
  /// Engine-side state, not part of the paper's CSV schema: write_log
  /// never serializes it, and failed records are kept out of the
  /// usage-stats log (UsageStatsCollector counts them separately).
  bool failed = false;

  Seconds end_time() const { return start_time + duration; }
  BitsPerSecond throughput() const { return achieved_rate(size, duration); }
};

using TransferLog = std::vector<TransferRecord>;

/// A record's sort key for the (start_time, end_time) order that session
/// grouping requires. `index` (its log position) is payload: operator<
/// does not compare it, so a stable sort keeps ties in log order.
struct StartKey {
  Seconds start = 0.0;
  Seconds end = 0.0;
  std::size_t index = 0;

  friend bool operator<(const StartKey& a, const StartKey& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.end < b.end;
  }
};

/// Serialize to CSV with a header row.
void write_log(std::ostream& out, const TransferLog& log);

/// Parse a CSV log produced by write_log. Throws ParseError on malformed
/// input.
TransferLog read_log(std::istream& in);

/// Sort in place by (start_time, end_time) — the order the session
/// grouping algorithm requires.
void sort_by_start(TransferLog& log);

/// Blank every remote_host (the NERSC privacy treatment).
void anonymize_remote_hosts(TransferLog& log);

/// Per-transfer throughput in Mbps, log order.
std::vector<double> throughputs_mbps(const TransferLog& log);

/// Per-transfer size in (binary) MB, log order.
std::vector<double> sizes_megabytes(const TransferLog& log);

/// Per-transfer duration in seconds, log order.
std::vector<double> durations_seconds(const TransferLog& log);

}  // namespace gridvc::gridftp
