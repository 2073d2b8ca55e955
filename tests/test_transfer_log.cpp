#include "gridftp/transfer_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"

namespace gridvc::gridftp {
namespace {

TransferRecord make(double start, double duration, Bytes size = MiB) {
  TransferRecord r;
  r.type = TransferType::kRetrieve;
  r.size = size;
  r.start_time = start;
  r.duration = duration;
  r.server_host = "srv";
  r.remote_host = "remote";
  r.streams = 8;
  r.stripes = 2;
  r.tcp_buffer = 16 * MiB;
  r.block_size = 256 * KiB;
  return r;
}

TEST(TransferRecord, DerivedQuantities) {
  const TransferRecord r = make(10.0, 4.0, 100 * MiB);
  EXPECT_DOUBLE_EQ(r.end_time(), 14.0);
  EXPECT_NEAR(r.throughput(), 100.0 * 1024 * 1024 * 8 / 4.0, 1.0);
}

TEST(TransferLog, CsvRoundTrip) {
  TransferLog log{make(1.0, 2.0), make(5.5, 0.25, 42)};
  log[1].type = TransferType::kStore;
  log[1].remote_host = "with,comma";
  std::stringstream ss;
  write_log(ss, log);
  const TransferLog parsed = read_log(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].size, log[0].size);
  EXPECT_EQ(parsed[1].type, TransferType::kStore);
  EXPECT_EQ(parsed[1].remote_host, "with,comma");
  EXPECT_DOUBLE_EQ(parsed[0].start_time, 1.0);
  EXPECT_EQ(parsed[0].streams, 8);
  EXPECT_EQ(parsed[0].stripes, 2);
  EXPECT_EQ(parsed[0].tcp_buffer, 16 * MiB);
}

TEST(TransferLog, ReadRejectsMalformedRows) {
  std::stringstream ss("header\nRETR,notanumber,0,1,s,r,1,1,0,0\n");
  EXPECT_THROW(read_log(ss), ParseError);
  std::stringstream short_row("header\nRETR,1,0\n");
  EXPECT_THROW(read_log(short_row), ParseError);
  std::stringstream bad_type("header\nPUSH,1,0,1,s,r,1,1,0,0\n");
  EXPECT_THROW(read_log(bad_type), ParseError);
}

TEST(TransferLog, SortByStartIsStableOnTies) {
  TransferLog log{make(5.0, 1.0), make(1.0, 9.0), make(1.0, 2.0)};
  sort_by_start(log);
  EXPECT_DOUBLE_EQ(log[0].start_time, 1.0);
  EXPECT_DOUBLE_EQ(log[0].duration, 2.0);  // earlier end first
  EXPECT_DOUBLE_EQ(log[2].start_time, 5.0);
}

TEST(TransferLog, SortByStartMatchesStableSortInPlace) {
  // Large enough for parallel_sort's multi-run path at width 4, with
  // exact (start, end) ties that only stability orders.
  struct RestoreThreads {
    ~RestoreThreads() { exec::set_default_threads(0); }
  } restore;
  Rng rng(5);
  TransferLog original;
  for (int i = 0; i < 40000; ++i) {
    original.push_back(make(static_cast<double>(rng.uniform_int(0, 5000)),
                            static_cast<double>(rng.uniform_int(0, 2)),
                            static_cast<Bytes>(i)));  // size tags the source record
    original.back().remote_host = "remote-" + std::to_string(i % 7) + ".example.org";
  }
  TransferLog expected = original;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const TransferRecord& a, const TransferRecord& b) {
                     if (a.start_time != b.start_time) return a.start_time < b.start_time;
                     return a.end_time() < b.end_time();
                   });
  for (const unsigned threads : {1u, 4u}) {
    exec::set_default_threads(threads);
    TransferLog log = original;
    const TransferRecord* const storage = log.data();
    sort_by_start(log);
    EXPECT_EQ(log.data(), storage) << "threads=" << threads;
    ASSERT_EQ(log.size(), expected.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
      ASSERT_EQ(log[i].size, expected[i].size) << "threads=" << threads << " i=" << i;
      ASSERT_EQ(log[i].remote_host, expected[i].remote_host) << i;
      ASSERT_EQ(log[i].start_time, expected[i].start_time) << i;
      ASSERT_EQ(log[i].duration, expected[i].duration) << i;
    }
  }
}

TEST(TransferLog, AnonymizeClearsRemotes) {
  TransferLog log{make(0, 1), make(1, 1)};
  anonymize_remote_hosts(log);
  for (const auto& r : log) EXPECT_TRUE(r.remote_host.empty());
}

TEST(TransferLog, VectorHelpers) {
  TransferLog log{make(0.0, 1.0, 100 * MiB), make(2.0, 2.0, 512 * MiB)};
  const auto tput = throughputs_mbps(log);
  ASSERT_EQ(tput.size(), 2u);
  EXPECT_NEAR(tput[0], 100 * 1.048576 * 8, 0.01);
  const auto sizes = sizes_megabytes(log);
  EXPECT_DOUBLE_EQ(sizes[1], 512.0);
  const auto durs = durations_seconds(log);
  EXPECT_DOUBLE_EQ(durs[0], 1.0);
}

TEST(TransferLog, ZeroDurationThroughputIsZero) {
  TransferRecord r = make(0.0, 0.0);
  EXPECT_DOUBLE_EQ(r.throughput(), 0.0);
}

}  // namespace
}  // namespace gridvc::gridftp
