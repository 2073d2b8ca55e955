#include "gridftp/transfer_log.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/csv.hpp"
#include "exec/parallel_sort.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace gridvc::gridftp {

namespace {
const char* const kHeader = "type,size,start_time,duration,server,remote,streams,stripes,tcp_buffer,block_size";

std::string type_code(TransferType t) { return t == TransferType::kStore ? "STOR" : "RETR"; }

TransferType parse_type(const std::string& s) {
  if (s == "STOR") return TransferType::kStore;
  if (s == "RETR") return TransferType::kRetrieve;
  throw ParseError("unknown transfer type: " + s);
}
}  // namespace

void write_log(std::ostream& out, const TransferLog& log) {
  out << kHeader << '\n';
  for (const auto& r : log) {
    CsvRow row{
        type_code(r.type),
        std::to_string(r.size),
        format_fixed(r.start_time, 6),
        format_fixed(r.duration, 6),
        r.server_host,
        r.remote_host,
        std::to_string(r.streams),
        std::to_string(r.stripes),
        std::to_string(r.tcp_buffer),
        std::to_string(r.block_size),
    };
    out << format_csv_line(row) << '\n';
  }
}

TransferLog read_log(std::istream& in) {
  const auto rows = read_csv(in);
  GRIDVC_REQUIRE(!rows.empty(), "empty transfer log");
  TransferLog log;
  log.reserve(rows.size() - 1);
  for (std::size_t i = 1; i < rows.size(); ++i) {  // skip header
    const CsvRow& row = rows[i];
    if (row.size() != 10) {
      throw ParseError("transfer log row " + std::to_string(i) + " has " +
                       std::to_string(row.size()) + " fields, expected 10");
    }
    try {
      TransferRecord r;
      r.type = parse_type(row[0]);
      r.size = static_cast<Bytes>(std::stoull(row[1]));
      r.start_time = std::stod(row[2]);
      r.duration = std::stod(row[3]);
      r.server_host = row[4];
      r.remote_host = row[5];
      r.streams = std::stoi(row[6]);
      r.stripes = std::stoi(row[7]);
      r.tcp_buffer = static_cast<Bytes>(std::stoull(row[8]));
      r.block_size = static_cast<Bytes>(std::stoull(row[9]));
      log.push_back(std::move(r));
    } catch (const std::invalid_argument&) {
      throw ParseError("unparsable numeric field in transfer log row " + std::to_string(i));
    } catch (const std::out_of_range&) {
      throw ParseError("numeric field out of range in transfer log row " + std::to_string(i));
    }
  }
  return log;
}

void sort_by_start(TransferLog& log) {
  // Sort compact keys, not records. parallel_sort is a stable sort with
  // thread-count-independent run bounds, so the permutation is exactly
  // std::stable_sort's at any --threads value.
  std::vector<StartKey> keys(log.size());
  for (std::size_t i = 0; i < log.size(); ++i) keys[i] = {log[i].start_time, log[i].end_time(), i};
  exec::parallel_sort(keys);
  // Apply the permutation in place, one cycle at a time (slot i takes
  // record keys[i].index); gathering into a second log would hold two
  // copies of a million-record log at once.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].index == i) continue;
    TransferRecord held = std::move(log[i]);
    std::size_t j = i;
    for (std::size_t k = keys[j].index; k != i; j = k, k = keys[j].index) {
      log[j] = std::move(log[k]);
      keys[j].index = j;
    }
    log[j] = std::move(held);
    keys[j].index = j;
  }
}

void anonymize_remote_hosts(TransferLog& log) {
  for (auto& r : log) r.remote_host.clear();
}

std::vector<double> throughputs_mbps(const TransferLog& log) {
  std::vector<double> out;
  out.reserve(log.size());
  for (const auto& r : log) out.push_back(to_mbps(r.throughput()));
  return out;
}

std::vector<double> sizes_megabytes(const TransferLog& log) {
  std::vector<double> out;
  out.reserve(log.size());
  for (const auto& r : log) out.push_back(to_megabytes(r.size));
  return out;
}

std::vector<double> durations_seconds(const TransferLog& log) {
  std::vector<double> out;
  out.reserve(log.size());
  for (const auto& r : log) out.push_back(r.duration);
  return out;
}

}  // namespace gridvc::gridftp
