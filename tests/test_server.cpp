#include "gridftp/server.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace gridvc::gridftp {
namespace {

ServerConfig basic() {
  ServerConfig c;
  c.name = "dtn";
  c.nic_rate = gbps(4);
  c.disk_read_rate = gbps(2);
  c.disk_write_rate = gbps(1);
  c.pool_size = 1;
  return c;
}

TEST(Server, SingleTransferGetsFullNic) {
  Server s(basic());
  s.add_transfer(1, 1, IoMode::kMemory);
  EXPECT_DOUBLE_EQ(s.share(1), gbps(4));
}

TEST(Server, ConcurrentTransfersSplitEvenly) {
  Server s(basic());
  s.add_transfer(1, 1, IoMode::kMemory);
  s.add_transfer(2, 1, IoMode::kMemory);
  s.add_transfer(3, 1, IoMode::kMemory);
  for (std::uint64_t id : {1, 2, 3}) {
    EXPECT_NEAR(s.share(id), gbps(4) / 3.0, 1.0);
  }
  EXPECT_EQ(s.concurrency(), 3u);
}

TEST(Server, RemoveRestoresShare) {
  Server s(basic());
  s.add_transfer(1, 1, IoMode::kMemory);
  s.add_transfer(2, 1, IoMode::kMemory);
  s.remove_transfer(2);
  EXPECT_DOUBLE_EQ(s.share(1), gbps(4));
}

TEST(Server, DiskModesCapShare) {
  Server s(basic());
  s.add_transfer(1, 1, IoMode::kDiskRead);
  EXPECT_DOUBLE_EQ(s.share(1), gbps(2));
  s.add_transfer(2, 1, IoMode::kDiskWrite);
  EXPECT_DOUBLE_EQ(s.share(2), gbps(1));
}

TEST(Server, DiskCapNotAppliedToMemory) {
  ServerConfig c = basic();
  c.disk_read_rate = mbps(100);
  Server s(c);
  s.add_transfer(1, 1, IoMode::kMemory);
  EXPECT_DOUBLE_EQ(s.share(1), gbps(4));
}

TEST(Server, StripesEngageMultipleHosts) {
  ServerConfig c = basic();
  c.pool_size = 3;
  Server s(c);
  s.add_transfer(1, 3, IoMode::kMemory);
  EXPECT_DOUBLE_EQ(s.share(1), 3 * gbps(4));  // 3 hosts' NICs
  // Stripes beyond the pool don't help.
  s.remove_transfer(1);
  s.add_transfer(2, 8, IoMode::kMemory);
  EXPECT_DOUBLE_EQ(s.share(2), 3 * gbps(4));
}

TEST(Server, StripedAndUnstripedShareProportionally) {
  ServerConfig c = basic();
  c.pool_size = 4;
  Server s(c);
  s.add_transfer(1, 3, IoMode::kMemory);  // weight 3
  s.add_transfer(2, 1, IoMode::kMemory);  // weight 1
  // Cluster = 16G; proportional: 12G and 4G, both within host NIC bounds.
  EXPECT_NEAR(s.share(1), gbps(12), 1.0);
  EXPECT_NEAR(s.share(2), gbps(4), 1.0);
}

TEST(Server, StripedDiskScalesWithHosts) {
  ServerConfig c = basic();
  c.pool_size = 2;
  Server s(c);
  s.add_transfer(1, 2, IoMode::kDiskRead);
  EXPECT_DOUBLE_EQ(s.share(1), 2 * gbps(2));
}

TEST(Server, PoolShrinkReducesShares) {
  ServerConfig c = basic();
  c.pool_size = 3;
  Server s(c);
  s.add_transfer(1, 3, IoMode::kMemory);
  EXPECT_DOUBLE_EQ(s.share(1), gbps(12));
  s.set_pool_size(1);  // the NCAR 2011 situation
  EXPECT_DOUBLE_EQ(s.share(1), gbps(4));
}

TEST(Server, ChangeListenerFires) {
  Server s(basic());
  int notified = 0;
  s.set_change_listener([&] { ++notified; });
  s.add_transfer(1, 1, IoMode::kMemory);
  s.add_transfer(2, 1, IoMode::kMemory);
  s.remove_transfer(1);
  s.set_pool_size(2);
  EXPECT_EQ(notified, 4);
}

TEST(Server, PreconditionViolations) {
  Server s(basic());
  s.add_transfer(1, 1, IoMode::kMemory);
  EXPECT_THROW(s.add_transfer(1, 1, IoMode::kMemory), gridvc::PreconditionError);
  EXPECT_THROW(s.remove_transfer(9), gridvc::PreconditionError);
  EXPECT_THROW(s.share(9), gridvc::PreconditionError);
  EXPECT_THROW(s.add_transfer(2, 0, IoMode::kMemory), gridvc::PreconditionError);
  EXPECT_THROW(s.set_pool_size(0), gridvc::PreconditionError);
  ServerConfig bad = basic();
  bad.nic_rate = 0.0;
  EXPECT_THROW(Server{bad}, gridvc::PreconditionError);
}

// share() reads a running total of engaged hosts; every registration
// change must keep it in step with the registrations themselves.
TEST(Server, SharesTrackEveryRegistrationChange) {
  ServerConfig c = basic();
  c.pool_size = 4;  // cluster NIC 16 Gbps
  Server s(c);
  s.add_transfer(1, 3, IoMode::kMemory);  // w = 3
  s.add_transfer(2, 1, IoMode::kMemory);  // w = 1
  EXPECT_DOUBLE_EQ(s.share(1), gbps(12));
  EXPECT_DOUBLE_EQ(s.share(2), gbps(4));
  s.add_transfer(3, 4, IoMode::kMemory);  // w = 4, total 8
  EXPECT_DOUBLE_EQ(s.share(1), gbps(6));
  EXPECT_DOUBLE_EQ(s.share(3), gbps(8));
  s.remove_transfer(1);  // total 5
  EXPECT_DOUBLE_EQ(s.share(2), gbps(16) / 5.0);
  s.set_pool_size(2);  // w3 clamps to 2, total 3, cluster 8 Gbps
  EXPECT_DOUBLE_EQ(s.share(2), gbps(8) / 3.0);
  EXPECT_DOUBLE_EQ(s.share(3), gbps(8) * 2.0 / 3.0);
  s.set_online(false);  // crash wipes every registration
  s.set_online(true);
  s.add_transfer(4, 1, IoMode::kMemory);  // alone again
  EXPECT_DOUBLE_EQ(s.share(4), gbps(4));
  EXPECT_EQ(s.concurrency(), 1u);
}

}  // namespace
}  // namespace gridvc::gridftp
