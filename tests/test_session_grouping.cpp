#include "analysis/session_grouping.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "reference_group_sessions.hpp"

namespace gridvc::analysis {
namespace {

using gridftp::TransferLog;
using gridftp::TransferRecord;
using gridftp::TransferType;

TransferRecord make(double start, double duration, const std::string& remote = "r1",
                    Bytes size = MiB, const std::string& server = "srv",
                    TransferType type = TransferType::kRetrieve) {
  TransferRecord r;
  r.type = type;
  r.size = size;
  r.start_time = start;
  r.duration = duration;
  r.server_host = server;
  r.remote_host = remote;
  return r;
}

TEST(SessionGrouping, BackToBackTransfersFormOneSession) {
  TransferLog log{make(0, 10), make(10.5, 10), make(21, 5)};
  const auto sessions = group_sessions(log, {.gap = 60.0});
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].transfer_count(), 3u);
  EXPECT_EQ(sessions[0].total_bytes, 3 * MiB);
  EXPECT_DOUBLE_EQ(sessions[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(sessions[0].end_time, 26.0);
}

TEST(SessionGrouping, LargeGapSplitsSessions) {
  TransferLog log{make(0, 10), make(200, 10)};  // 190 s gap > 60 s
  const auto sessions = group_sessions(log, {.gap = 60.0});
  EXPECT_EQ(sessions.size(), 2u);
}

TEST(SessionGrouping, GapMeasuredFromSessionEnd) {
  // Transfer 2 starts 61 s after transfer 1 *starts* but only 1 s after
  // it ends -> same session.
  TransferLog log{make(0, 60), make(61, 10)};
  EXPECT_EQ(group_sessions(log, {.gap = 30.0}).size(), 1u);
}

TEST(SessionGrouping, NegativeGapConcurrentTransfers) {
  // Concurrent starts: the second begins before the first ends.
  TransferLog log{make(0, 100), make(10, 100), make(20, 100)};
  const auto sessions = group_sessions(log, {.gap = 0.0});
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].transfer_count(), 3u);
}

TEST(SessionGrouping, ZeroGapSplitsOnAnyIdle) {
  TransferLog log{make(0, 10), make(10.001, 10)};
  EXPECT_EQ(group_sessions(log, {.gap = 0.0}).size(), 2u);
  EXPECT_EQ(group_sessions(log, {.gap = 1.0}).size(), 1u);
}

TEST(SessionGrouping, DifferentRemotesNeverMerge) {
  TransferLog log{make(0, 10, "r1"), make(1, 10, "r2")};
  const auto sessions = group_sessions(log, {.gap = 3600.0});
  EXPECT_EQ(sessions.size(), 2u);
}

TEST(SessionGrouping, DifferentServersNeverMerge) {
  TransferLog log{make(0, 10, "r1", MiB, "srvA"), make(1, 10, "r1", MiB, "srvB")};
  EXPECT_EQ(group_sessions(log, {.gap = 3600.0}).size(), 2u);
}

TEST(SessionGrouping, DirectionSplitOptional) {
  TransferLog log{make(0, 10, "r1", MiB, "srv", TransferType::kRetrieve),
                  make(1, 10, "r1", MiB, "srv", TransferType::kStore)};
  EXPECT_EQ(group_sessions(log, {.gap = 60.0}).size(), 1u);
  GroupingOptions split;
  split.gap = 60.0;
  split.split_by_direction = true;
  EXPECT_EQ(group_sessions(log, split).size(), 2u);
}

TEST(SessionGrouping, UnsortedInputHandled) {
  TransferLog log{make(200, 10), make(0, 10), make(11, 10)};
  const auto sessions = group_sessions(log, {.gap = 60.0});
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].transfer_count(), 2u);
}

TEST(SessionGrouping, SessionEndIsMaxEndNotLastEnd) {
  // A long transfer that outlives later short ones extends the session
  // window for gap purposes.
  TransferLog log{make(0, 1000), make(10, 5), make(900, 5)};
  const auto sessions = group_sessions(log, {.gap = 0.0});
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_DOUBLE_EQ(sessions[0].end_time, 1000.0);
}

TEST(SessionGrouping, EffectiveRate) {
  TransferLog log{make(0, 10, "r1", 125'000'000 / 8)};  // session: 15.6 MB in 10 s
  const auto sessions = group_sessions(log, {.gap = 60.0});
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_NEAR(sessions[0].effective_rate(), 12'500'000.0, 1.0);
}

TEST(SessionGrouping, NegativeGapOptionThrows) {
  TransferLog log{make(0, 1)};
  EXPECT_THROW(group_sessions(log, {.gap = -1.0}), gridvc::PreconditionError);
}

TEST(SessionGrouping, EmptyLogYieldsNoSessions) {
  EXPECT_TRUE(group_sessions({}, {.gap = 60.0}).empty());
}

TEST(Census, CountsShapes) {
  TransferLog log;
  // Session 1: 1 transfer. Session 2: 2 transfers. Session 3: 150.
  log.push_back(make(0, 1));
  log.push_back(make(1000, 1));
  log.push_back(make(1003, 1));
  double t = 5000;
  for (int i = 0; i < 150; ++i) {
    log.push_back(make(t, 1));
    t += 1.5;
  }
  const auto sessions = group_sessions(log, {.gap = 60.0});
  const auto c = census(sessions);
  EXPECT_EQ(c.total_sessions(), 3u);
  EXPECT_EQ(c.single_transfer_sessions, 1u);
  EXPECT_EQ(c.multi_transfer_sessions, 2u);
  EXPECT_NEAR(c.fraction_with_le2, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(c.max_transfers_in_session, 150u);
  EXPECT_EQ(c.sessions_with_100_or_more, 1u);
}

TEST(SessionVectors, SizesAndDurations) {
  TransferLog log{make(0, 10, "r1", 100 * MiB), make(5, 10, "r1", 28 * MiB)};
  const auto sessions = group_sessions(log, {.gap = 60.0});
  const auto sizes = session_sizes_megabytes(sessions);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_DOUBLE_EQ(sizes[0], 128.0);
  const auto durations = session_durations_seconds(sessions);
  EXPECT_DOUBLE_EQ(durations[0], 15.0);
}

// Property: raising g can only merge sessions — the session count is
// non-increasing in g, transfers are conserved, and every g=0 session is
// contained in exactly one larger-g session.
class GapMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(GapMonotonicity, SessionCountNonIncreasingInGap) {
  gridvc::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  TransferLog log;
  double t = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(40.0);
    log.push_back(make(t, rng.uniform(0.5, 30.0),
                       rng.bernoulli(0.3) ? "r2" : "r1",
                       static_cast<Bytes>(rng.uniform(1e5, 1e9))));
  }
  std::size_t prev_count = log.size() + 1;
  for (double g : {0.0, 30.0, 60.0, 120.0, 600.0}) {
    const auto sessions = group_sessions(log, {.gap = g});
    std::size_t transfers = 0;
    for (const auto& s : sessions) transfers += s.transfer_count();
    EXPECT_EQ(transfers, log.size());  // conservation
    EXPECT_LE(sessions.size(), prev_count);
    prev_count = sessions.size();
    // Within a session, consecutive gaps respect g.
    for (const auto& s : sessions) {
      double running_end = -1.0;
      for (std::size_t idx : s.transfer_indices) {
        if (running_end >= 0.0) {
          EXPECT_LE(log[idx].start_time - running_end, g + 1e-9);
        }
        running_end = std::max(running_end, log[idx].end_time());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLogs, GapMonotonicity, ::testing::Range(1, 17));

// Differential check against the string-keyed reference: random unsorted
// logs over several endpoint pairs (one with an anonymized remote), runs
// of repeated pairs, exact (start, end) ties, both directions, every
// session compared field by field including index order. Logs above the
// parallel-sweep threshold run at pool widths 1 and 4.
class GroupingMatchesReference : public ::testing::TestWithParam<int> {};

TEST_P(GroupingMatchesReference, SessionsIdenticalFieldByField) {
  struct RestoreThreads {
    ~RestoreThreads() { exec::set_default_threads(0); }
  } restore;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const std::string servers[] = {"dtn01.ncar.example", "dtn02.ncar.example"};
  const std::string remotes[] = {"", "r1", "xfer-node-17.nics.example", "hpss.slac.example"};
  const std::size_t n = GetParam() % 2 == 0 ? 6000 : 400;
  TransferLog log;
  for (std::size_t i = 0; i < n; ++i) {
    if (!log.empty() && rng.bernoulli(0.5)) {
      log.push_back(log.back());  // same endpoint pair as the previous record
    } else {
      log.push_back(make(0, 1, "", MiB, servers[rng.uniform_int(0, 1)]));
      log.back().remote_host = remotes[rng.uniform_int(0, 3)];
    }
    TransferRecord& r = log.back();
    r.type = rng.bernoulli(0.5) ? TransferType::kStore : TransferType::kRetrieve;
    r.start_time = static_cast<double>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
    r.duration = static_cast<double>(rng.uniform_int(0, 3)) * 0.5;  // exact ties
    r.size = static_cast<Bytes>(rng.uniform_int(1, 1 << 20));
  }

  for (const unsigned threads : {1u, 4u}) {
    exec::set_default_threads(threads);
    for (const bool split : {false, true}) {
      for (const double gap : {0.0, 0.5, 3.0}) {
        const GroupingOptions options{.gap = gap, .split_by_direction = split};
        const auto expected = reference_group_sessions(log, options);
        const auto actual = group_sessions(log, options);
        ASSERT_EQ(actual.size(), expected.size()) << "gap=" << gap << " split=" << split;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(actual[i].key, expected[i].key) << i;
          EXPECT_EQ(actual[i].transfer_indices, expected[i].transfer_indices) << i;
          EXPECT_EQ(actual[i].total_bytes, expected[i].total_bytes) << i;
          EXPECT_EQ(actual[i].start_time, expected[i].start_time) << i;
          EXPECT_EQ(actual[i].end_time, expected[i].end_time) << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLogs, GroupingMatchesReference, ::testing::Range(1, 9));

}  // namespace
}  // namespace gridvc::analysis
