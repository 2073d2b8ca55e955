#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "scalar_reference_allocate.hpp"

namespace gridvc::net {
namespace {

struct Fixture {
  sim::Simulator sim;
  Topology topo;
  LinkId ab, bc;
  std::unique_ptr<Network> net;

  Fixture() {
    const NodeId a = topo.add_node("a", NodeKind::kHost);
    const NodeId b = topo.add_node("b", NodeKind::kRouter);
    const NodeId c = topo.add_node("c", NodeKind::kHost);
    ab = topo.add_link(a, b, mbps(800), 0.001);
    bc = topo.add_link(b, c, mbps(800), 0.001);
    net = std::make_unique<Network>(sim, topo);
  }
};

std::uint64_t recomputes(const sim::Simulator& sim) {
  const obs::MetricsRegistry& reg = sim.obs().registry();
  return reg.counter_value(reg.find("gridvc_net_recomputes", obs::MetricKind::kCounter));
}

TEST(Network, SingleFlowCompletesAtFluidTime) {
  Fixture f;
  std::vector<FlowRecord> done;
  // 100 MB at 800 Mbps -> 1.0 s.
  f.net->start_flow({f.ab, f.bc}, 100'000'000, {},
                    [&](const FlowRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].end_time - done[0].start_time, 1.0, 1e-6);
  EXPECT_NEAR(done[0].average_rate(), mbps(800), 1.0);
}

TEST(Network, CapLimitsRate) {
  Fixture f;
  std::vector<FlowRecord> done;
  FlowOptions opts;
  opts.cap = mbps(100);
  f.net->start_flow({f.ab}, 100'000'000, opts,
                    [&](const FlowRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].end_time, 8.0, 1e-6);
}

TEST(Network, TwoFlowsShareThenSpeedUp) {
  Fixture f;
  // Two equal flows: each at 400 Mbps until the first finishes, then the
  // survivor accelerates. Flow sizes 50 MB and 100 MB:
  //   t=1.0 s: flow1 done (50 MB at 400 Mbps).
  //   flow2 has 50 MB left, now at 800 Mbps -> finishes at t=1.5 s.
  std::vector<double> done_times(2, 0.0);
  f.net->start_flow({f.ab}, 50'000'000, {},
                    [&](const FlowRecord& r) { done_times[0] = r.end_time; });
  f.net->start_flow({f.ab}, 100'000'000, {},
                    [&](const FlowRecord& r) { done_times[1] = r.end_time; });
  f.sim.run();
  EXPECT_NEAR(done_times[0], 1.0, 1e-6);
  EXPECT_NEAR(done_times[1], 1.5, 1e-6);
}

TEST(Network, LateArrivalSlowsExistingFlow) {
  Fixture f;
  // Flow1 (100 MB) starts at t=0 alone at 800 Mbps (100 MB/s). At t=0.5
  // (50 MB in) flow2 starts; both run at 400 Mbps. Flow1's remaining
  // 50 MB takes 1.0 s -> done at 1.5 s.
  double done1 = 0.0;
  f.net->start_flow({f.ab}, 100'000'000, {},
                    [&](const FlowRecord& r) { done1 = r.end_time; });
  f.sim.schedule_at(0.5, [&] {
    f.net->start_flow({f.ab}, 1'000'000'000, {}, nullptr);
  });
  f.sim.run_until(3.0);
  EXPECT_NEAR(done1, 1.5, 1e-6);
}

TEST(Network, GuaranteeShieldsFlowFromContention) {
  Fixture f;
  // Guaranteed 600 Mbps flow + one best-effort flow: guaranteed finishes
  // as if alone at 600+residual-share... At minimum it holds 600 Mbps.
  double done_g = 0.0;
  FlowOptions g;
  g.guarantee = mbps(600);
  g.cap = mbps(600);
  f.net->start_flow({f.ab}, 75'000'000, g,
                    [&](const FlowRecord& r) { done_g = r.end_time; });
  f.net->start_flow({f.ab}, 1'000'000'000, {}, nullptr);
  f.sim.run_until(10.0);
  EXPECT_NEAR(done_g, 1.0, 1e-6);  // 75 MB at 600 Mbps
}

TEST(Network, UpdateCapReschedulesCompletion) {
  Fixture f;
  double done = 0.0;
  FlowOptions opts;
  opts.cap = mbps(100);
  const FlowId id = f.net->start_flow({f.ab}, 100'000'000, opts,
                                      [&](const FlowRecord& r) { done = r.end_time; });
  // After 4 s (50 MB in), lift the cap: remaining 50 MB at 800 Mbps.
  f.sim.schedule_at(4.0, [&] { f.net->update_cap(id, 0.0); });
  f.sim.run();
  EXPECT_NEAR(done, 4.5, 1e-6);
}

TEST(Network, AbortRemovesFlowWithoutCallback) {
  Fixture f;
  bool fired = false;
  const FlowId id =
      f.net->start_flow({f.ab}, 100'000'000, {}, [&](const FlowRecord&) { fired = true; });
  f.sim.schedule_at(0.1, [&] { f.net->abort_flow(id); });
  f.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(f.net->active_flow_count(), 0u);
}

TEST(Network, LinkByteAccounting) {
  Fixture f;
  f.net->start_flow({f.ab, f.bc}, 10'000'000, {}, nullptr);
  f.sim.run();
  EXPECT_NEAR(f.net->link_bytes(f.ab), 10'000'000.0, 1.0);
  EXPECT_NEAR(f.net->link_bytes(f.bc), 10'000'000.0, 1.0);
}

TEST(Network, LinkBytesSettledMidFlight) {
  Fixture f;
  FlowOptions opts;
  opts.cap = mbps(80);
  f.net->start_flow({f.ab}, 100'000'000, opts, nullptr);
  f.sim.schedule_at(1.0, [&] {
    // 1 s at 80 Mbps = 10 MB.
    EXPECT_NEAR(f.net->link_bytes(f.ab), 10'000'000.0, 10.0);
  });
  f.sim.run_until(1.0);
}

TEST(Network, RemainingBytesDecreases) {
  Fixture f;
  FlowOptions opts;
  opts.cap = mbps(800);
  const FlowId id = f.net->start_flow({f.ab}, 100'000'000, opts, nullptr);
  f.sim.schedule_at(0.5, [&] {
    EXPECT_NEAR(static_cast<double>(f.net->remaining_bytes(id)), 50'000'000.0, 100.0);
  });
  f.sim.run_until(0.5);
}

TEST(Network, InvalidFlowsRejected) {
  Fixture f;
  EXPECT_THROW(f.net->start_flow({}, 1, {}, nullptr), gridvc::PreconditionError);
  EXPECT_THROW(f.net->start_flow({f.ab}, 0, {}, nullptr), gridvc::PreconditionError);
  EXPECT_THROW(f.net->start_flow({f.bc, f.ab}, 1, {}, nullptr),
               gridvc::PreconditionError);  // disconnected chain
  EXPECT_THROW(f.net->update_cap(999, 0.0), gridvc::PreconditionError);
  EXPECT_THROW(f.net->abort_flow(999), gridvc::PreconditionError);
}

// The incremental recompute: cap-limited flows are untouched by their
// neighbours' arrivals and completions, so total event churn stays O(N) —
// one completion event per flow plus one per arrival — instead of the
// O(N^2) a reschedule-everything recompute pays.
TEST(Network, CapLimitedChurnStaysLinear) {
  Fixture f;
  const int n = 50;
  int done = 0;
  for (int i = 0; i < n; ++i) {
    FlowOptions opts;
    opts.cap = mbps(10);  // 50 * 10 Mbps = 500 < 800 Mbps: never link-limited
    const Bytes size = 1'000'000 * static_cast<Bytes>(i + 1);  // staggered finishes
    f.net->start_flow({f.ab}, size, opts, [&](const FlowRecord&) { ++done; });
  }
  f.sim.run();
  EXPECT_EQ(done, n);
  // Exactly one completion event per flow; nothing is ever rescheduled.
  EXPECT_EQ(f.sim.scheduled(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(f.sim.cancelled(), 0u);
}

// When the bottleneck *does* bind, rates genuinely change and flows must
// still be rescheduled — churn is bounded by O(N) per arrival/completion,
// and the fluid completion times stay exact.
TEST(Network, SharedBottleneckStillExact) {
  Fixture f;
  const int n = 8;
  std::vector<double> done_times;
  for (int i = 0; i < n; ++i) {
    f.net->start_flow({f.ab}, 100'000'000, {},
                      [&](const FlowRecord& r) { done_times.push_back(r.end_time); });
  }
  f.sim.run();
  ASSERT_EQ(done_times.size(), static_cast<std::size_t>(n));
  // 8 equal flows on 800 Mbps: all finish together at 8 s.
  for (double t : done_times) EXPECT_NEAR(t, 8.0, 1e-6);
  EXPECT_LE(f.sim.scheduled(), static_cast<std::uint64_t>(n * n + n));
}

TEST(Network, BatchedCapUpdateRecomputesOnce) {
  Fixture f;
  std::vector<double> done(2, 0.0);
  FlowOptions opts;
  opts.cap = mbps(100);
  const FlowId a = f.net->start_flow({f.ab}, 100'000'000, opts,
                                     [&](const FlowRecord& r) { done[0] = r.end_time; });
  const FlowId b = f.net->start_flow({f.ab}, 100'000'000, opts,
                                     [&](const FlowRecord& r) { done[1] = r.end_time; });
  // After 4 s (50 MB in each), lift both caps to 400 Mbps in one event:
  // the remaining 50 MB then moves at 400 Mbps -> both done at 5 s.
  std::uint64_t recomputes_before = 0;
  f.sim.schedule_at(4.0, [&] {
    recomputes_before = recomputes(f.sim);
    f.net->update_cap(a, mbps(400));
    f.net->update_cap(b, mbps(400));
  });
  f.sim.run_until(4.0);
  // Two cap changes, one deferred recompute at the end of the batch.
  EXPECT_EQ(recomputes(f.sim), recomputes_before + 1);
  f.sim.run();
  EXPECT_NEAR(done[0], 5.0, 1e-6);
  EXPECT_NEAR(done[1], 5.0, 1e-6);
  // Schedule budget: 2 initial completions + 1 timer + 2 reschedules.
  EXPECT_EQ(f.sim.scheduled(), 5u);
  EXPECT_EQ(f.sim.cancelled(), 2u);
}

TEST(Network, ManySequentialFlowsConserveBytes) {
  Fixture f;
  double total = 0.0;
  for (int i = 0; i < 20; ++i) {
    const Bytes size = 1'000'000 * static_cast<Bytes>(i + 1);
    total += static_cast<double>(size);
    f.net->start_flow({f.ab}, size, {}, nullptr);
  }
  f.sim.run();
  EXPECT_NEAR(f.net->link_bytes(f.ab), total, 10.0);
}

// Mutations outside the event loop are deferred too: current_rate()
// flushes the pending recompute itself, and one pass serves both starts.
TEST(Network, CurrentRateFlushesPendingRecompute) {
  Fixture f;
  const FlowId a = f.net->start_flow({f.ab}, 100'000'000, {}, nullptr);
  const FlowId b = f.net->start_flow({f.ab, f.bc}, 100'000'000, {}, nullptr);
  EXPECT_EQ(recomputes(f.sim), 0u);
  EXPECT_DOUBLE_EQ(f.net->current_rate(a), mbps(400));
  EXPECT_DOUBLE_EQ(f.net->current_rate(b), mbps(400));
  EXPECT_EQ(recomputes(f.sim), 1u);
}

// A pending flush is work: the simulator is not idle even before the
// recompute has scheduled any event, and next_event_time() runs the flush
// so it can report the completion it schedules.
TEST(Network, PendingFlushKeepsSimulatorBusy) {
  Fixture f;
  EXPECT_TRUE(f.sim.idle());
  f.net->start_flow({f.ab}, 100'000'000, {}, nullptr);
  EXPECT_EQ(f.sim.live_events(), 0u);
  EXPECT_FALSE(f.sim.idle());
  const std::optional<Seconds> next = f.sim.next_event_time();
  ASSERT_TRUE(next.has_value());
  EXPECT_NEAR(*next, 1.0, 1e-9);  // 100 MB at 800 Mbps
  EXPECT_EQ(f.sim.live_events(), 1u);
  EXPECT_EQ(recomputes(f.sim), 1u);
}

// A network destroyed with a recompute pending withdraws it: the
// simulator never calls into the dead object.
TEST(Network, DestroyedWhileDirtyIsNeverFlushed) {
  Fixture f;
  f.net->start_flow({f.ab}, 100'000'000, {}, nullptr);
  EXPECT_FALSE(f.sim.idle());
  f.net.reset();
  EXPECT_TRUE(f.sim.idle());
  f.sim.run();
  EXPECT_EQ(recomputes(f.sim), 0u);
}

// Past 2^23 s one clock tick is ~1.9 ns, longer than a 40 Gbit/s flow
// needs for a few bytes. A completion ETA that rounds down leaves such a
// residue, and its drain time rounds back to now(): the flow must then
// complete on the spot (residue credited to its links) rather than
// re-arm at the same instant forever.
TEST(Network, SubTickResidueCompletesPastTwoToThe23Seconds) {
  sim::Simulator sim;
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::kHost);
  const NodeId b = topo.add_node("b", NodeKind::kHost);
  const LinkId ab = topo.add_link(a, b, gbps(40), 0.001);
  Network net(sim, topo);
  sim.run_until(8'388'608.0 + 0.25);  // 2^23 s and a bit

  int done = 0;
  double total = 0.0;
  for (int i = 0; i < 32; ++i) {
    const Bytes size = 1'000'003 * static_cast<Bytes>(i + 7) + static_cast<Bytes>(i * i);
    total += static_cast<double>(size);
    net.start_flow({ab}, size, {}, [&](const FlowRecord&) { ++done; });
  }
  // A re-arming residue never drains: bound the steps instead of hanging.
  constexpr int kStepBudget = 10'000;
  int steps = 0;
  while (steps < kStepBudget && sim.step()) ++steps;
  EXPECT_LT(steps, kStepBudget);
  EXPECT_EQ(done, 32);
  EXPECT_EQ(net.active_flow_count(), 0u);
  // Each completion may round off at most kByteEps (half a byte).
  EXPECT_NEAR(net.link_bytes(ab), total, 0.5 * 32);
}

// Differential test of the deferred recompute: a randomized stream of
// starts, aborts, cap and guarantee updates and link failures/repairs,
// several ops per timestamp spread over two events. A probe queued at
// the same timestamp runs after the simulator's flush and checks that
// exactly one recompute served the batch and that every flow's rate is
// the max-min allocation of a mirror of the demands.
TEST(Network, DeferredRecomputeMatchesReferenceAllocation) {
  sim::Simulator sim;
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::kHost);
  const NodeId b = topo.add_node("b", NodeKind::kRouter);
  const NodeId c = topo.add_node("c", NodeKind::kRouter);
  const NodeId d = topo.add_node("d", NodeKind::kHost);
  const LinkId ab = topo.add_link(a, b, mbps(800), 0.001);
  const LinkId bc = topo.add_link(b, c, mbps(400), 0.001);
  const LinkId cd = topo.add_link(c, d, mbps(1000), 0.001);
  const LinkId bd = topo.add_link(b, d, mbps(300), 0.001);
  const std::vector<Path> paths = {{ab},     {bc},     {cd},         {bd},
                                   {ab, bc}, {bc, cd}, {ab, bc, cd}, {ab, bd}};
  const std::vector<LinkId> links = {ab, bc, cd, bd};
  Network net(sim, topo);

  Rng rng(1212);
  std::map<FlowId, FlowDemand> mirror;
  std::vector<char> up(topo.link_count(), 1);
  bool mutated = false;
  std::uint64_t batch_start = 0;
  int probes = 0;
  std::size_t peak_flows = 0;

  const auto pick = [&]() -> FlowId {
    auto it = mirror.begin();
    std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(mirror.size()) - 1));
    return it->first;
  };
  const auto op = [&] {
    const double u = rng.uniform();
    if (mirror.empty() || u < 0.35) {
      FlowDemand dm;
      dm.path = paths[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
      FlowOptions opts;
      if (rng.bernoulli(0.5)) opts.cap = dm.cap = mbps(rng.uniform(20.0, 600.0));
      if (rng.bernoulli(0.25)) opts.guarantee = dm.guarantee = mbps(rng.uniform(5.0, 150.0));
      opts.fail_on_link_down = rng.bernoulli(0.3);
      const auto size = static_cast<Bytes>(rng.uniform(5e6, 2e8));
      const FlowId id = net.start_flow(dm.path, size, opts, [&mirror](const FlowRecord& r) {
        mirror.erase(r.id);
      });
      mirror.emplace(id, std::move(dm));
    } else if (u < 0.45) {
      const FlowId id = pick();
      net.abort_flow(id);
      mirror.erase(id);
    } else if (u < 0.70) {
      const FlowId id = pick();
      const BitsPerSecond cap = rng.bernoulli(0.2) ? 0.0 : mbps(rng.uniform(20.0, 600.0));
      net.update_cap(id, cap);
      if (mirror[id].cap == cap) return;  // no-op: nothing to recompute
      mirror[id].cap = cap;
    } else if (u < 0.85) {
      const FlowId id = pick();
      const BitsPerSecond g = rng.bernoulli(0.4) ? 0.0 : mbps(rng.uniform(5.0, 150.0));
      net.update_guarantee(id, g);
      if (mirror[id].guarantee == g) return;
      mirror[id].guarantee = g;
    } else {
      const LinkId l = links[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      up[l] = up[l] != 0 ? 0 : 1;
      net.set_link_state(l, up[l] != 0);  // fail_on_link_down flows leave the mirror
    }
    mutated = true;
  };
  const auto probe = [&] {
    ++probes;
    peak_flows = std::max(peak_flows, mirror.size());
    EXPECT_EQ(recomputes(sim), batch_start + (mutated ? 1 : 0)) << "t=" << sim.now();
    std::vector<FlowDemand> demands;
    std::vector<FlowId> ids;
    for (const auto& [id, dm] : mirror) {
      demands.push_back(dm);
      ids.push_back(id);
    }
    ASSERT_EQ(net.active_flows(), ids);
    const std::vector<BitsPerSecond> ref = scalar_reference_allocate(topo, demands, up);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      // The network keeps a rate whose change is below 1e-9 relative.
      EXPECT_NEAR(net.current_rate(ids[i]), ref[i], 1e-8 * std::max(1.0, ref[i]))
          << "flow " << ids[i] << " t=" << sim.now();
    }
    // The flush already ran: reading rates recomputes nothing.
    EXPECT_EQ(recomputes(sim), batch_start + (mutated ? 1 : 0));
  };

  for (int k = 1; k <= 300; ++k) {
    const Seconds t = 0.4 * k;
    sim.schedule_at(t, [&] {
      mutated = false;
      batch_start = recomputes(sim);
      const int n = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < n; ++i) op();
    });
    sim.schedule_at(t, [&] {
      const int n = static_cast<int>(rng.uniform_int(0, 2));
      for (int i = 0; i < n; ++i) op();
      sim.schedule_in(0.0, probe);  // next batch at t: after the flush
    });
  }
  sim.schedule_at(0.4 * 301, [&] {
    for (const LinkId l : links) {
      up[l] = 1;
      net.set_link_state(l, true);
    }
  });
  sim.run();
  EXPECT_EQ(probes, 300);
  EXPECT_GE(peak_flows, 8u);
  // Every surviving flow drains once all links are back.
  EXPECT_TRUE(mirror.empty());
  EXPECT_EQ(net.active_flow_count(), 0u);
}

}  // namespace
}  // namespace gridvc::net
