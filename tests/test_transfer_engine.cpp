#include "gridftp/transfer_engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "gridftp/session.hpp"
#include "net/network.hpp"

namespace gridvc::gridftp {
namespace {

// Deterministic fixture: zero noise, zero loss, so durations are exact.
struct Fixture {
  sim::Simulator sim;
  net::Topology topo;
  net::LinkId ab, ba;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Server> src_server, dst_server;
  UsageStatsCollector collector;
  std::unique_ptr<TransferEngine> engine;

  explicit Fixture(BitsPerSecond nic = gbps(4), double noise = 0.0) {
    const auto a = topo.add_node("a", net::NodeKind::kHost);
    const auto b = topo.add_node("b", net::NodeKind::kHost);
    auto [fwd, rev] = topo.add_duplex_link(a, b, gbps(10), 0.005);
    ab = fwd;
    ba = rev;
    network = std::make_unique<net::Network>(sim, topo);

    ServerConfig sc;
    sc.name = "src";
    sc.nic_rate = nic;
    src_server = std::make_unique<Server>(sc);
    sc.name = "dst";
    dst_server = std::make_unique<Server>(sc);

    TransferEngineConfig cfg;
    cfg.server_noise_sigma = noise;
    cfg.tcp.loss_probability = 0.0;
    cfg.tcp.stream_buffer = 64 * MiB;  // window never binds at 10 ms RTT
    engine = std::make_unique<TransferEngine>(*network, collector, cfg, Rng(5));
  }

  TransferSpec spec(Bytes size, int streams = 8, int stripes = 1) {
    TransferSpec s;
    s.src = {src_server.get(), IoMode::kMemory};
    s.dst = {dst_server.get(), IoMode::kMemory};
    s.path = {ab};
    s.rtt = 0.01;
    s.size = size;
    s.streams = streams;
    s.stripes = stripes;
    s.remote_host = "b";
    return s;
  }
};

TEST(TransferEngine, SingleTransferAtServerRate) {
  Fixture f;
  std::vector<TransferRecord> done;
  // 1 GiB at 4 Gbps server ceiling -> ~2.15 s (plus small slow-start).
  f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  const double expected = static_cast<double>(GiB) * 8.0 / gbps(4);
  EXPECT_NEAR(done[0].duration, expected, 0.25);
  EXPECT_EQ(done[0].size, GiB);
  EXPECT_EQ(f.collector.received(), 1u);
}

TEST(TransferEngine, RecordCarriesConfiguration) {
  Fixture f;
  std::vector<TransferRecord> done;
  auto s = f.spec(MiB, 4, 1);
  s.type = TransferType::kStore;
  f.engine->submit(s, [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].streams, 4);
  EXPECT_EQ(done[0].stripes, 1);
  EXPECT_EQ(done[0].type, TransferType::kStore);
  EXPECT_EQ(done[0].server_host, "dst");  // STOR logs at the receiving end
  EXPECT_EQ(done[0].remote_host, "b");
}

TEST(TransferEngine, ConcurrentTransfersContendAtServer) {
  Fixture f;
  std::vector<TransferRecord> done;
  // Two simultaneous 1 GiB transfers on a 4 Gbps server: each ~2 Gbps.
  for (int i = 0; i < 2; ++i) {
    f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) { done.push_back(r); });
  }
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  const double solo = static_cast<double>(GiB) * 8.0 / gbps(4);
  for (const auto& r : done) {
    EXPECT_GT(r.duration, 1.8 * solo);
    EXPECT_LT(r.duration, 2.4 * solo);
  }
}

TEST(TransferEngine, LateArrivalSlowsFirstTransfer) {
  Fixture f;
  std::vector<TransferRecord> done;
  f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.schedule_at(1.0, [&] {
    f.engine->submit(f.spec(4 * GiB), [&](const TransferRecord& r) { done.push_back(r); });
  });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  const double solo = static_cast<double>(GiB) * 8.0 / gbps(4);
  EXPECT_GT(done[0].duration, solo * 1.2);  // slowed by the late arrival
}

TEST(TransferEngine, StripesRaiseThroughputWithPool) {
  Fixture f;
  // Give both ends a 3-host pool; a 3-stripe transfer should run ~3x a
  // 1-stripe transfer.
  f.src_server->set_pool_size(3);
  f.dst_server->set_pool_size(3);
  std::vector<TransferRecord> done;
  f.engine->submit(f.spec(GiB, 8, 1), [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run();
  f.engine->submit(f.spec(GiB, 8, 3), [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_GT(done[0].duration / done[1].duration, 2.0);
}

TEST(TransferEngine, DiskEndpointLimitsThroughput) {
  Fixture f;
  ServerConfig slow_disk;
  slow_disk.name = "diskful";
  slow_disk.nic_rate = gbps(4);
  slow_disk.disk_write_rate = gbps(1);
  Server diskful(slow_disk);
  std::vector<TransferRecord> done;
  auto s = f.spec(GiB);
  s.dst = {&diskful, IoMode::kDiskWrite};
  f.engine->submit(s, [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  const double expected = static_cast<double>(GiB) * 8.0 / gbps(1);
  EXPECT_NEAR(done[0].duration, expected, 0.5);
}

TEST(TransferEngine, GuaranteeHoldsUnderCrossTraffic) {
  Fixture f(gbps(10));
  // Saturate the link with a best-effort background flow; a 6 Gbps
  // guaranteed transfer must still get its rate.
  f.network->start_flow({f.ab}, static_cast<Bytes>(1) << 50, {}, nullptr);
  std::vector<TransferRecord> done;
  auto s = f.spec(GiB);
  s.guarantee = gbps(6);
  f.engine->submit(s, [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run_until(1000.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GE(to_gbps(done[0].throughput()), 5.5);
}

TEST(TransferEngine, SetGuaranteeMidFlight) {
  Fixture f(gbps(10));
  f.network->start_flow({f.ab}, static_cast<Bytes>(1) << 50, {}, nullptr);
  std::vector<TransferRecord> done;
  const auto id =
      f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) { done.push_back(r); });
  // Without a guarantee it shares 10G with the hog (5G each). Granting
  // 8G mid-flight should finish it markedly faster than the 5G baseline.
  f.sim.schedule_at(0.2, [&] { f.engine->set_guarantee(id, gbps(8)); });
  f.sim.run_until(1000.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GT(to_gbps(done[0].throughput()), 6.0);
}

TEST(TransferEngine, NoiseProducesVariance) {
  Fixture f(gbps(4), /*noise=*/0.3);
  std::vector<double> durations;
  for (int i = 0; i < 40; ++i) {
    f.engine->submit(f.spec(256 * MiB),
                     [&](const TransferRecord& r) { durations.push_back(r.duration); });
    f.sim.run();
  }
  ASSERT_EQ(durations.size(), 40u);
  double lo = durations[0], hi = durations[0];
  for (double d : durations) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GT(hi / lo, 1.3);  // visible spread from lognormal noise
}

// Regression: submit() used size/stripes + 1 for the slow-start stripe
// size while begin_attempt used ceil-division; both now share
// stripe_chunk, whose contract is plain ceil-div.
TEST(TransferEngine, StripeChunkIsCeilDivision) {
  EXPECT_EQ(stripe_chunk(1000, 4), 250u);  // evenly divisible: no +1 slack
  EXPECT_EQ(stripe_chunk(1001, 4), 251u);
  EXPECT_EQ(stripe_chunk(1, 4), 1u);
  EXPECT_EQ(stripe_chunk(7, 1), 7u);
}

// Scheduler-churn regression: N overlapping window-capped transfers must
// stay O(N) in scheduled/cancelled events. The TCP window cap is a
// per-transfer constant, so neither arrivals nor completions change
// anyone else's rate and no completion is ever rescheduled.
TEST(TransferEngine, OverlappingTransfersChurnStaysLinear) {
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a", net::NodeKind::kHost);
  const auto b = topo.add_node("b", net::NodeKind::kHost);
  auto [fwd, rev] = topo.add_duplex_link(a, b, gbps(10), 0.005);
  (void)rev;
  net::Network network(sim, topo);

  ServerConfig sc;
  sc.name = "src";
  sc.nic_rate = gbps(100);  // shares never bind
  Server src(sc);
  sc.name = "dst";
  Server dst(sc);

  TransferEngineConfig cfg;
  cfg.server_noise_sigma = 0.0;
  cfg.tcp.loss_probability = 0.0;
  cfg.tcp.stream_buffer = 512 * KiB;  // window cap ~419 Mbps at 10 ms RTT
  UsageStatsCollector collector;
  TransferEngine engine(network, collector, cfg, Rng(5));

  const std::uint64_t n = 10;  // 10 * 419 Mbps < 10 Gbps: link never binds
  for (std::uint64_t i = 0; i < n; ++i) {
    TransferSpec s;
    s.src = {&src, IoMode::kMemory};
    s.dst = {&dst, IoMode::kMemory};
    s.path = {fwd};
    s.rtt = 0.01;
    s.size = 100'000'000 + 10'000'000 * i;  // staggered completions
    s.streams = 1;
    s.remote_host = "b";
    engine.submit(s);
  }
  sim.run();
  EXPECT_EQ(engine.stats().completed, n);
  const auto c = engine.sim_counters();
  // Per transfer: one injection event + one flow completion; allow a
  // small constant of slack but nothing resembling O(N^2).
  EXPECT_LE(c.scheduled, 4 * n);
  EXPECT_LE(c.cancelled, n);
  EXPECT_EQ(c.live, 0u);
}

std::uint64_t recomputes(const sim::Simulator& sim) {
  const obs::MetricsRegistry& reg = sim.obs().registry();
  return reg.counter_value(reg.find("gridvc_net_recomputes", obs::MetricKind::kCounter));
}

/// The active flow of `size` bytes (every test transfer below has its own).
net::FlowId flow_of_size(net::Network& network, Bytes size) {
  for (const net::FlowId id : network.active_flows()) {
    if (network.flow_size(id) == size) return id;
  }
  ADD_FAILURE() << "no active flow of " << size << " bytes";
  return 0;
}

// Four DTNs on disjoint 10 Gbps links, so a flow's rate is exactly its cap:
// x runs B -> C, y runs A -> D, v runs D -> A. A registration change at A
// must refresh y and v, and leave x alone.
struct ScopedRefreshFixture {
  sim::Simulator sim;
  net::Topology topo;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Server> a, b, c, d;
  UsageStatsCollector collector;
  std::unique_ptr<TransferEngine> engine;
  static constexpr Bytes kX = 4 * GiB, kY = 5 * GiB, kV = 6 * GiB;

  ScopedRefreshFixture() {
    const auto na = topo.add_node("a", net::NodeKind::kHost);
    const auto nb = topo.add_node("b", net::NodeKind::kHost);
    const auto nc = topo.add_node("c", net::NodeKind::kHost);
    const auto nd = topo.add_node("d", net::NodeKind::kHost);
    const net::LinkId bc = topo.add_link(nb, nc, gbps(10), 0.005);
    const net::LinkId ad = topo.add_link(na, nd, gbps(10), 0.005);
    const net::LinkId da = topo.add_link(nd, na, gbps(10), 0.005);
    network = std::make_unique<net::Network>(sim, topo);
    ServerConfig sc;
    sc.nic_rate = gbps(4);
    sc.name = "A";
    a = std::make_unique<Server>(sc);
    sc.name = "B";
    b = std::make_unique<Server>(sc);
    sc.name = "C";
    c = std::make_unique<Server>(sc);
    sc.name = "D";
    d = std::make_unique<Server>(sc);
    TransferEngineConfig cfg;
    cfg.server_noise_sigma = 0.0;
    cfg.tcp.loss_probability = 0.0;
    cfg.tcp.stream_buffer = 64 * MiB;
    engine = std::make_unique<TransferEngine>(*network, collector, cfg, Rng(5));
    const auto submit = [&](Server* src, Server* dst, net::LinkId link, Bytes size) {
      TransferSpec s;
      s.src = {src, IoMode::kMemory};
      s.dst = {dst, IoMode::kMemory};
      s.path = {link};
      s.rtt = 0.01;
      s.size = size;
      s.streams = 8;
      engine->submit(s);
    };
    submit(b.get(), c.get(), bc, kX);
    submit(a.get(), d.get(), ad, kY);
    submit(d.get(), a.get(), da, kV);
    sim.run_until(0.5);  // past the slow-start injection: all three flowing
  }
};

TEST(TransferEngine, ServerChangeRefreshesOnlyTransfersRegisteredThere) {
  ScopedRefreshFixture f;
  net::Network& net = *f.network;
  const net::FlowId x = flow_of_size(net, f.kX);
  const net::FlowId y = flow_of_size(net, f.kY);
  const net::FlowId v = flow_of_size(net, f.kV);
  // A and D each carry y and v, so each gets half of a 4 Gbps NIC.
  EXPECT_DOUBLE_EQ(net.current_rate(x), gbps(4));
  EXPECT_DOUBLE_EQ(net.current_rate(y), gbps(2));
  EXPECT_DOUBLE_EQ(net.current_rate(v), gbps(2));

  const std::uint64_t before = recomputes(f.sim);
  f.a->set_nic_rate(gbps(1));  // A's shares drop to 0.5 Gbps each
  EXPECT_DOUBLE_EQ(net.current_rate(y), gbps(0.5));
  EXPECT_DOUBLE_EQ(net.current_rate(v), gbps(0.5));
  EXPECT_DOUBLE_EQ(net.current_rate(x), gbps(4));
  EXPECT_EQ(recomputes(f.sim), before + 1);  // one pass for the whole change

  // A second host at B notifies, but x already runs at its own NIC's
  // 4 Gbps: no cap moves, so no recompute runs.
  f.b->set_pool_size(2);
  EXPECT_DOUBLE_EQ(net.current_rate(x), gbps(4));
  EXPECT_EQ(recomputes(f.sim), before + 1);
}

TEST(TransferEngine, ServerChangePushesNoCapToTransfersElsewhere) {
  ScopedRefreshFixture f;
  net::Network& net = *f.network;
  // Retire x's flow behind the engine's back: any update_cap on it would
  // now throw, so a refresh that touched x (which uses only B and C)
  // could not go unnoticed.
  net.abort_flow(flow_of_size(net, f.kX));
  EXPECT_NO_THROW(f.a->set_nic_rate(gbps(1)));
  EXPECT_NO_THROW(f.d->set_nic_rate(gbps(2)));
  EXPECT_DOUBLE_EQ(net.current_rate(flow_of_size(net, f.kY)), gbps(0.5));
  EXPECT_DOUBLE_EQ(net.current_rate(flow_of_size(net, f.kV)), gbps(0.5));
  EXPECT_THROW(f.b->set_nic_rate(gbps(2)), PreconditionError);  // x is B's
}

// A stripe that finishes while its siblings run leaves them on the old
// split; the next change at either endpoint server re-splits the cap
// across the survivors, even when that change moves no share.
TEST(TransferEngine, EarlyStripeReSplitsAtTheNextChangeOfEitherServer) {
  for (const bool at_src : {true, false}) {
    Fixture f;  // 4 Gbps NICs, pool of 1: the transfer's cap is 4 Gbps
    net::Network& net = *f.network;
    f.engine->submit(f.spec(4 * GiB, 8, /*stripes=*/4));
    f.sim.run_until(0.5);
    const std::vector<net::FlowId> stripes = net.active_flows();
    ASSERT_EQ(stripes.size(), 4u);
    for (const net::FlowId fid : stripes) EXPECT_DOUBLE_EQ(net.current_rate(fid), gbps(1));
    // Hurry the first stripe behind the engine's back so that it finishes
    // ~6 s ahead of its siblings.
    net.update_cap(stripes[0], gbps(4));
    f.sim.run_until(4.0);
    ASSERT_EQ(net.active_flows().size(), 3u);
    for (const net::FlowId fid : net.active_flows()) {
      EXPECT_DOUBLE_EQ(net.current_rate(fid), gbps(1)) << "re-split before any server change";
    }
    // A second host leaves the share alone: the transfer engaged one host
    // at registration and stays at its 4 Gbps NIC.
    (at_src ? f.src_server : f.dst_server)->set_pool_size(2);
    for (const net::FlowId fid : net.active_flows()) {
      EXPECT_DOUBLE_EQ(net.current_rate(fid), gbps(4) / 3.0) << (at_src ? "src" : "dst");
    }
  }
}

// Three DTNs on one ample link: a flow's rate is exactly its cap, and
// ids of crashed-and-resumed transfers re-register behind younger ones.
struct MixedChangeFixture {
  sim::Simulator sim;
  net::Topology topo;
  net::LinkId link;
  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<Server>> servers;
  UsageStatsCollector collector;
  std::unique_ptr<TransferEngine> engine;
  struct Submitted {
    std::uint64_t id;
    Server* src;
    Server* dst;
  };
  std::vector<Submitted> submitted;

  MixedChangeFixture() {
    const auto a = topo.add_node("a", net::NodeKind::kHost);
    const auto b = topo.add_node("b", net::NodeKind::kHost);
    link = topo.add_link(a, b, gbps(100000), 0.005);
    network = std::make_unique<net::Network>(sim, topo);
    for (int i = 0; i < 3; ++i) {
      ServerConfig sc;
      sc.name = "dtn" + std::to_string(i);
      sc.id = static_cast<std::uint64_t>(i + 1);
      sc.nic_rate = gbps(2 + 2 * i);
      sc.pool_size = 1 + i;
      servers.push_back(std::make_unique<Server>(sc));
    }
    TransferEngineConfig cfg;
    cfg.server_noise_sigma = 0.0;
    cfg.tcp.loss_probability = 0.0;
    cfg.tcp.stream_buffer = 1024 * MiB;  // the window never binds
    engine = std::make_unique<TransferEngine>(*network, collector, cfg, Rng(9));
  }

  std::uint64_t submit(int src, int dst, Bytes size, int stripes) {
    TransferSpec s;
    s.src = {servers[src].get(), IoMode::kMemory};
    s.dst = {servers[dst].get(), IoMode::kMemory};
    s.path = {link};
    s.rtt = 0.01;
    s.size = size;
    s.streams = 4;
    s.stripes = stripes;
    const std::uint64_t id = engine->submit(s);
    submitted.push_back({id, s.src.server, s.dst.server});
    return id;
  }

  /// Every live flow carries the cap rebuilt from its servers' shares.
  /// Returns the number of flows checked.
  std::size_t expect_caps_from_shares(const std::string& when) {
    std::size_t checked = 0;
    for (const Submitted& t : submitted) {
      const std::vector<net::FlowId> flows = engine->flows_of(t.id);
      if (flows.empty()) continue;
      const BitsPerSecond cap = std::min(t.src->share(t.id), t.dst->share(t.id));
      // The allocator may land a ulp off a cap; a stale cap is far off.
      for (const net::FlowId fid : flows) {
        EXPECT_DOUBLE_EQ(network->current_rate(fid), cap / static_cast<double>(flows.size()))
            << when << ": transfer " << t.id;
        ++checked;
      }
    }
    return checked;
  }
};

TEST(TransferEngine, EveryCapMatchesTheSharesAfterAnyMixOfChanges) {
  MixedChangeFixture f;
  Rng rng(2024);
  int down = -1;  // the crashed server, if any
  std::size_t checked = 0;
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.uniform(0.0, 6.0));
    const int s = static_cast<int>(rng.uniform(0.0, 3.0));
    if (op <= 1) {  // register (and, as transfers finish, deregister)
      const int d = (s + 1 + static_cast<int>(rng.uniform(0.0, 2.0))) % 3;
      f.submit(s, d, static_cast<Bytes>(rng.uniform(0.2, 3.0) * GiB),
               1 + static_cast<int>(rng.uniform(0.0, 4.0)));
    } else if (op == 2) {
      f.servers[s]->set_pool_size(1 + static_cast<int>(rng.uniform(0.0, 4.0)));
    } else if (op == 3) {
      f.servers[s]->set_nic_rate(gbps(1 + static_cast<int>(rng.uniform(0.0, 8.0))));
    } else if (op == 4 && step % 7 == 0) {  // crash, or restart the crashed one
      if (down < 0) {
        f.engine->handle_server_down(f.servers[s].get());
        down = s;
      } else {
        f.engine->handle_server_up(f.servers[down].get());
        down = -1;
      }
    } else {
      f.sim.run_until(f.sim.now() + rng.uniform(0.0, 2.0));
    }
    checked += f.expect_caps_from_shares("step " + std::to_string(step));
    if (HasFailure()) return;
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(f.engine->stats().server_crashes, 2u);
  EXPECT_GT(f.engine->stats().aborted_attempts, 0u);
  if (down >= 0) f.engine->handle_server_up(f.servers[down].get());
  f.sim.run();
  EXPECT_EQ(f.engine->active_transfers(), 0u);
  EXPECT_EQ(f.engine->stats().completed + f.engine->stats().failed_transfers,
            f.submitted.size());
}

TEST(TransferEngine, ResumedOlderTransferReRegistersInIdOrder) {
  MixedChangeFixture f;
  Server& a = *f.servers[0];
  Server& b = *f.servers[1];
  const std::uint64_t old_id = f.submit(0, 1, 8 * GiB, 1);  // A -> B
  f.sim.run_until(1.0);
  ASSERT_EQ(f.engine->flows_of(old_id).size(), 1u);
  f.engine->handle_server_down(&a);  // parks old_id, deregistered at B too
  EXPECT_THROW(b.share(old_id), PreconditionError);
  const std::uint64_t young = f.submit(2, 1, 64 * GiB, 2);  // C -> B, registers now
  f.sim.run_until(2.0);
  f.engine->handle_server_up(&a);
  f.sim.run_until(20.0);  // past the retry backoff: old_id registers again
  ASSERT_EQ(f.engine->flows_of(old_id).size(), 1u);
  ASSERT_FALSE(f.engine->flows_of(young).empty());
  EXPECT_NO_THROW(b.share(old_id));
  EXPECT_NO_THROW(b.share(young));
  f.expect_caps_from_shares("after the resume");
  b.set_nic_rate(gbps(1));  // the walk must reach both, in either id order
  f.expect_caps_from_shares("after a change at B");
}

TEST(SessionRunner, SequentialSessionBackToBack) {
  Fixture f;
  SessionRunner runner(f.sim, *f.engine);
  SessionScript script;
  script.file_sizes = {100 * MiB, 100 * MiB, 100 * MiB};
  script.concurrency = 1;
  script.transfer_template = f.spec(0);
  SessionSummary summary;
  runner.run(script, [&](const SessionSummary& s) { summary = s; });
  f.sim.run();
  EXPECT_EQ(summary.transfers, 3u);
  EXPECT_EQ(summary.total_bytes, 300 * MiB);
  EXPECT_GT(summary.duration(), 0.0);
  EXPECT_EQ(runner.active_sessions(), 0u);
  // Log order: strictly sequential starts.
  const auto& log = f.collector.log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_GE(log[1].start_time, log[0].end_time() - 1e-9);
}

TEST(SessionRunner, ConcurrentLanesOverlap) {
  Fixture f;
  SessionRunner runner(f.sim, *f.engine);
  SessionScript script;
  script.file_sizes = std::vector<Bytes>(4, 200 * MiB);
  script.concurrency = 2;
  script.transfer_template = f.spec(0);
  runner.run(script);
  f.sim.run();
  auto log = f.collector.log();
  sort_by_start(log);
  ASSERT_EQ(log.size(), 4u);
  // First two start together (negative inter-transfer gap in the
  // grouping sense).
  EXPECT_LT(log[1].start_time, log[0].end_time());
}

TEST(SessionRunner, InterFileGapDelaysSubmissions) {
  Fixture f;
  SessionRunner runner(f.sim, *f.engine);
  SessionScript script;
  script.file_sizes = {MiB, MiB};
  script.concurrency = 1;
  script.inter_file_gap = 30.0;
  script.transfer_template = f.spec(0);
  runner.run(script);
  f.sim.run();
  const auto& log = f.collector.log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_GE(log[1].start_time - log[0].end_time(), 30.0 - 1e-6);
}

TEST(SessionRunner, ManyConcurrentSessions) {
  Fixture f;
  SessionRunner runner(f.sim, *f.engine);
  int finished = 0;
  for (int i = 0; i < 5; ++i) {
    SessionScript script;
    script.file_sizes = {10 * MiB, 10 * MiB};
    script.transfer_template = f.spec(0);
    runner.run(script, [&](const SessionSummary&) { ++finished; });
  }
  f.sim.run();
  EXPECT_EQ(finished, 5);
  EXPECT_EQ(f.collector.received(), 10u);
}

}  // namespace
}  // namespace gridvc::gridftp
