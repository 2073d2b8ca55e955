#include "shard/sharded_simulation.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "exec/rng_stream.hpp"
#include "gridftp/server.hpp"
#include "gridftp/transfer_engine.hpp"
#include "gridftp/usage_stats.hpp"
#include "net/network.hpp"
#include "obs/profiler.hpp"
#include "sim/simulator.hpp"
#include "vc/idc.hpp"

namespace gridvc::shard {

namespace {

using SegKey = std::pair<std::uint64_t, std::uint32_t>;  // (transfer, leg)

struct SegKeyHash {  // transfer ids stay below 2^56 (world << 44 | counter)
  std::size_t operator()(const SegKey& k) const {
    return std::hash<std::uint64_t>{}(k.first ^ (std::uint64_t{k.second} << 56));
  }
};

vc::IdcConfig world_idc_config() {
  vc::IdcConfig config;
  // Chain segments use the paper's 50 ms immediate-signaling scenario:
  // hop-by-hop booking latency comes from the gateway channels, not from
  // batch boundaries.
  config.mode = vc::SignalingMode::kImmediate;
  config.immediate_setup_delay = 0.05;
  config.reservable_fraction = 0.5;
  return config;
}

}  // namespace

struct ShardedSimulation::DomainWorld {
  struct HostState {
    net::NodeId global = 0;
    std::unique_ptr<gridftp::Server> server;
    /// This host's users, (arrival time, user id), arrival order.
    std::vector<std::pair<Seconds, std::uint64_t>> arrivals;
    std::size_t next_arrival = 0;
    /// Users with a file ready to start, FIFO behind the concurrency cap.
    std::deque<std::pair<std::uint64_t, std::uint32_t>> ready;  // (user, file)
    int active = 0;
  };
  struct SegmentWork {
    RouteRef route;
    Bytes bytes = 0;
  };
  struct ChainSegment {
    std::uint64_t circuit = 0;
    BitsPerSecond rate = 0.0;
    bool active = false;    ///< activation fired (release vs cancel choice)
    bool released = false;  ///< any terminal transition already happened
  };
  struct OriginFlight {
    std::uint64_t user = 0;
    std::uint32_t file = 0;
    std::uint32_t host = 0;  ///< index into hosts
    Bytes bytes = 0;
    RouteRef route;
  };

  ShardedSimulation& owner;
  const std::uint32_t index;
  const DomainPartition::Domain& dom;
  sim::Simulator sim;
  net::Network net;
  vc::Idc idc;
  gridftp::UsageStatsCollector collector;
  gridftp::TransferEngine engine;
  std::unique_ptr<gridftp::Server> relay_in;   ///< ingress border DTNs
  std::unique_ptr<gridftp::Server> relay_out;  ///< egress border DTNs
  std::vector<HostState> hosts;
  std::unordered_map<net::NodeId, std::uint32_t> host_by_global;

  std::vector<ShardMessage> outbox;
  std::uint64_t send_seq = 0;
  std::uint64_t next_transfer = 1;

  // Lookup-only tables: nothing may iterate them, since hash order is
  // not a deterministic order (the drain audit only asks empty()).
  std::unordered_map<SegKey, SegmentWork, SegKeyHash> segments;
  std::unordered_map<SegKey, ChainSegment, SegKeyHash> chains;
  std::unordered_map<std::uint64_t, OriginFlight> inflight;

  // Per-world accounting, merged serially after the run.
  std::uint64_t open_sessions = 0;
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t segments_completed = 0;
  std::uint64_t chains_requested = 0;
  std::uint64_t chains_granted = 0;
  std::uint64_t chains_rejected = 0;
  Bytes bytes_planned = 0;
  Bytes bytes_delivered = 0;

  DomainWorld(ShardedSimulation& owner_, std::uint32_t index_)
      : owner(owner_),
        index(index_),
        dom(owner_.partition_.domain(index_)),
        sim(),
        net(sim, dom.topo),
        idc(sim, dom.topo, world_idc_config()),
        collector(),
        engine(net, collector, gridftp::TransferEngineConfig{},
               exec::stream_rng(owner_.scenario_.seed ^ 0x5A4D0ULL, index_)) {
    collector.set_keep_log(false);
    const auto& config = owner.scenario_.config;
    relay_in = std::make_unique<gridftp::Server>(gridftp::ServerConfig{
        dom.name + ".relay.in", 100000 + index, config.relay_nic, 0.0, 0.0,
        config.relay_pool});
    relay_out = std::make_unique<gridftp::Server>(gridftp::ServerConfig{
        dom.name + ".relay.out", 200000 + index, config.relay_nic, 0.0, 0.0,
        config.relay_pool});

    // Hosts + their user arrival schedules. A host's users are the
    // arithmetic sequence {host ordinal + j * total hosts}; their arrival
    // times are pure functions of (seed, user), sorted here once.
    const std::uint64_t total_hosts =
        static_cast<std::uint64_t>(config.sites) * config.hosts_per_site;
    for (net::NodeId global_host : dom.global_hosts) {
      HostState h;
      h.global = global_host;
      h.server = std::make_unique<gridftp::Server>(gridftp::ServerConfig{
          owner.partition_.global().node(global_host).name, global_host,
          config.host_nic, 0.0, 0.0, 1});
      host_by_global.emplace(global_host, static_cast<std::uint32_t>(hosts.size()));
      hosts.push_back(std::move(h));
    }
    const auto& scenario = owner.scenario_;
    for (std::uint32_t hi = 0; hi < hosts.size(); ++hi) {
      HostState& h = hosts[hi];
      const std::uint32_t site = scenario.origin_site(global_user_ordinal(h.global));
      const std::uint32_t ord = scenario.origin_host(global_user_ordinal(h.global));
      const std::uint64_t first = static_cast<std::uint64_t>(site) *
                                      config.hosts_per_site +
                                  ord;
      for (std::uint64_t u = first; u < config.users; u += total_hosts) {
        h.arrivals.emplace_back(scenario.arrival_time(u), u);
      }
      std::sort(h.arrivals.begin(), h.arrivals.end());
      pump_arrivals(hi);
    }
  }

  /// The user ordinal whose origin is exactly this host (host ordinals
  /// and user ordinals share the mod-total-hosts layout).
  std::uint64_t global_user_ordinal(net::NodeId global_host) const {
    const auto& scenario = owner.scenario_;
    for (std::uint32_t site = 0; site < scenario.sites.size(); ++site) {
      const auto& fs = scenario.sites[site];
      for (std::uint32_t ord = 0; ord < fs.hosts.size(); ++ord) {
        if (fs.hosts[ord] == global_host) {
          return static_cast<std::uint64_t>(site) *
                     scenario.config.hosts_per_site +
                 ord;
        }
      }
    }
    GRIDVC_REQUIRE(false, "host not found in any federation site");
    return 0;
  }

  void pump_arrivals(std::uint32_t hi) {
    HostState& h = hosts[hi];
    if (h.next_arrival >= h.arrivals.size()) return;
    sim.schedule_at(h.arrivals[h.next_arrival].first, [this, hi] {
      HostState& host = hosts[hi];
      const auto [when, user] = host.arrivals[host.next_arrival++];
      (void)when;
      host.ready.emplace_back(user, 0);
      ++open_sessions;
      dispatch(hi);
      pump_arrivals(hi);
    });
  }

  void dispatch(std::uint32_t hi) {
    HostState& h = hosts[hi];
    while (h.active < owner.scenario_.config.host_concurrency && !h.ready.empty()) {
      const auto [user, file] = h.ready.front();
      h.ready.pop_front();
      ++h.active;
      start_file(hi, user, file);
    }
  }

  std::uint64_t make_transfer_id() {
    return (static_cast<std::uint64_t>(index + 1) << 44) | next_transfer++;
  }

  void start_file(std::uint32_t hi, std::uint64_t user, std::uint32_t file) {
    GRIDVC_PROF_ZONE("shard.start_file");
    const auto& scenario = owner.scenario_;
    const auto params = scenario.transfer_params(user, file);
    RouteRef route = owner.partition_.route(scenario.route(user, params));
    const std::uint64_t tid = make_transfer_id();
    ++transfers_started;
    bytes_planned += params.size;
    inflight.emplace(tid, OriginFlight{user, file, hi, params.size, route});

    const auto& legs = route->legs;
    if (params.wants_vc) {
      ++chains_requested;
      if (book_segment(tid, 0, legs[0], scenario.config.chain_rate,
                       scenario.config.chain_window)) {
        if (legs.size() == 1) {
          ++chains_granted;
          start_leg(tid, 0, route, params.size);
        } else {
          // Forward the booking down the chain; data waits for the Ok.
          ShardMessage m;
          m.kind = MessageKind::kVcBook;
          m.transfer = tid;
          m.leg = 1;
          m.bytes = params.size;
          m.rate = scenario.config.chain_rate;
          m.window = scenario.config.chain_window;
          m.route = route;
          send_forward(std::move(m), legs[0]);
        }
        return;
      }
      ++chains_rejected;  // local admission failed: degrade to best effort
    }
    start_leg(tid, 0, route, params.size);
  }

  bool book_segment(std::uint64_t tid, std::uint32_t leg,
                    const DomainPartition::Leg& cut, BitsPerSecond rate,
                    Seconds window) {
    GRIDVC_PROF_ZONE("shard.vc.book_segment");
    if (cut.local_path.empty()) return true;  // zero-hop leg: nothing to book
    const auto mark_released = [this, tid, leg](const vc::Circuit&) {
      const auto it = chains.find({tid, leg});
      if (it != chains.end()) it->second.released = true;
    };
    const auto result = idc.request_immediate(
        cut.local_src, cut.local_dst, rate, window,
        [this, tid, leg](const vc::Circuit&) {
          const auto it = chains.find({tid, leg});
          if (it != chains.end()) it->second.active = true;
        },
        mark_released, mark_released);
    if (!result.accepted()) return false;
    chains.emplace(SegKey{tid, leg}, ChainSegment{*result.circuit_id, rate, false, false});
    return true;
  }

  void release_chain(std::uint64_t tid, std::uint32_t leg) {
    const auto it = chains.find({tid, leg});
    if (it == chains.end()) return;
    if (!it->second.released) {
      if (it->second.active) {
        idc.release_now(it->second.circuit);
      } else {
        idc.cancel(it->second.circuit);
      }
    }
    chains.erase(it);
  }

  BitsPerSecond chain_guarantee(std::uint64_t tid, std::uint32_t leg) const {
    const auto it = chains.find({tid, leg});
    return it != chains.end() && !it->second.released ? it->second.rate : 0.0;
  }

  void start_leg(std::uint64_t tid, std::uint32_t leg_index, const RouteRef& route,
                 Bytes bytes) {
    GRIDVC_PROF_ZONE("shard.start_leg");
    const auto& leg = route->legs[leg_index];
    segments.emplace(SegKey{tid, leg_index}, SegmentWork{route, bytes});
    if (leg.local_path.empty()) {
      // The path ends exactly on this domain's entry node: nothing to move.
      segment_done(tid, leg_index);
      return;
    }
    gridftp::TransferSpec spec;
    if (leg_index == 0) {
      const auto fl = inflight.find(tid);
      GRIDVC_REQUIRE(fl != inflight.end(), "origin leg without an origin record");
      spec.src.server = hosts[fl->second.host].server.get();
    } else {
      spec.src.server = relay_in.get();
    }
    if (leg.exit_gateway == DomainPartition::kNoGateway) {
      const net::Link& last = dom.topo.link(leg.local_path.back());
      const auto dst = host_by_global.find(global_of_local(last.to));
      GRIDVC_REQUIRE(dst != host_by_global.end(), "final leg must end at a host");
      spec.dst.server = hosts[dst->second].server.get();
    } else {
      spec.dst.server = relay_out.get();
    }
    spec.path = leg.local_path;
    spec.rtt = std::max(2.0 * dom.topo.path_delay(leg.local_path), 1e-3);
    spec.size = bytes;
    spec.streams = owner.scenario_.config.streams;
    spec.stripes = 1;
    spec.guarantee = chain_guarantee(tid, leg_index);
    engine.submit(std::move(spec), [this, tid, leg_index](const gridftp::TransferRecord&) {
      segment_done(tid, leg_index);
    });
  }

  /// Local node id -> global node id (owned nodes only, not proxies).
  net::NodeId global_of_local(net::NodeId local) const {
    GRIDVC_REQUIRE(local < dom.global_node.size(), "local node is a gateway proxy");
    return dom.global_node[local];
  }

  void segment_done(std::uint64_t tid, std::uint32_t leg_index) {
    GRIDVC_PROF_ZONE("shard.segment_done");
    const auto it = segments.find({tid, leg_index});
    GRIDVC_REQUIRE(it != segments.end(), "segment completion without a record");
    SegmentWork work = std::move(it->second);
    segments.erase(it);
    ++segments_completed;

    const auto& legs = work.route->legs;
    const auto& leg = legs[leg_index];
    if (leg.exit_gateway != DomainPartition::kNoGateway) {
      ShardMessage m;
      m.kind = MessageKind::kSegmentHandoff;
      m.transfer = tid;
      m.leg = leg_index + 1;
      m.bytes = work.bytes;
      m.route = std::move(work.route);
      send_forward(std::move(m), leg);
      return;
    }
    // Final leg: the file has fully arrived.
    bytes_delivered += work.bytes;
    ++transfers_completed;
    if (leg_index == 0) {
      complete_origin(tid);
      return;
    }
    release_chain(tid, leg_index);  // the relay below walks legs n-2..0
    ShardMessage m;
    m.kind = MessageKind::kCompletionRelay;
    m.transfer = tid;
    m.leg = leg_index - 1;
    m.bytes = work.bytes;
    m.route = work.route;
    send_backward(std::move(m), legs, leg_index);
  }

  void complete_origin(std::uint64_t tid) {
    release_chain(tid, 0);
    const auto it = inflight.find(tid);
    GRIDVC_REQUIRE(it != inflight.end(), "completion for unknown transfer");
    const OriginFlight fl = std::move(it->second);
    inflight.erase(it);
    HostState& h = hosts[fl.host];
    --h.active;
    if (fl.file + 1 < owner.scenario_.config.transfers_per_user) {
      sim.schedule_in(owner.scenario_.config.think_time,
                      [this, hi = fl.host, user = fl.user, next = fl.file + 1] {
                        hosts[hi].ready.emplace_back(user, next);
                        dispatch(hi);
                      });
    } else {
      --open_sessions;
    }
    dispatch(fl.host);
  }

  /// Queue `m` over the gateway this leg exits through.
  void send_forward(ShardMessage m, const DomainPartition::Leg& leg) {
    const auto& gw = owner.partition_.gateways()[leg.exit_gateway];
    m.dst_domain = gw.dst_domain;
    post(std::move(m), gw.delay);
  }

  /// Queue `m` towards leg_index-1, over the reverse of the gateway that
  /// brought the transfer here.
  void send_backward(ShardMessage m, const std::vector<DomainPartition::Leg>& legs,
                     std::uint32_t leg_index) {
    GRIDVC_REQUIRE(leg_index > 0, "no upstream leg to send back to");
    const auto& forward = owner.partition_.gateways()[legs[leg_index - 1].exit_gateway];
    GRIDVC_REQUIRE(forward.reverse != DomainPartition::kNoGateway,
                   "backward channel requires a duplex inter-domain link");
    const auto& gw = owner.partition_.gateways()[forward.reverse];
    m.dst_domain = gw.dst_domain;
    post(std::move(m), gw.delay);
  }

  void post(ShardMessage m, Seconds delay) {
    m.src_domain = index;
    m.send_time = sim.now();
    m.deliver_time = sim.now() + delay;
    m.seq = send_seq++;
    outbox.push_back(std::move(m));
  }

  void handle(const ShardMessage& m) {
    GRIDVC_PROF_ZONE("shard.handle_message");
    switch (m.kind) {
      case MessageKind::kSegmentHandoff:
        start_leg(m.transfer, m.leg, m.route, m.bytes);
        return;
      case MessageKind::kVcBook: {
        const auto& legs = m.route->legs;
        if (book_segment(m.transfer, m.leg, legs[m.leg], m.rate, m.window)) {
          if (legs[m.leg].exit_gateway == DomainPartition::kNoGateway) {
            ShardMessage ok;
            ok.kind = MessageKind::kVcBookOk;
            ok.transfer = m.transfer;
            ok.leg = m.leg - 1;
            ok.bytes = m.bytes;
            ok.route = m.route;
            send_backward(std::move(ok), legs, m.leg);
          } else {
            ShardMessage fwd = m;
            fwd.leg = m.leg + 1;
            send_forward(std::move(fwd), legs[m.leg]);
          }
        } else {
          ShardMessage reject;
          reject.kind = MessageKind::kVcBookReject;
          reject.transfer = m.transfer;
          reject.leg = m.leg - 1;
          reject.bytes = m.bytes;
          reject.route = m.route;
          send_backward(std::move(reject), legs, m.leg);
        }
        return;
      }
      case MessageKind::kVcBookOk: {
        if (m.leg > 0) {
          const auto& legs = m.route->legs;
          ShardMessage fwd = m;
          fwd.leg = m.leg - 1;
          send_backward(std::move(fwd), legs, m.leg);
          return;
        }
        ++chains_granted;
        const auto fl = inflight.find(m.transfer);
        GRIDVC_REQUIRE(fl != inflight.end(), "chain grant for unknown transfer");
        start_leg(m.transfer, 0, fl->second.route, fl->second.bytes);
        return;
      }
      case MessageKind::kVcBookReject: {
        release_chain(m.transfer, m.leg);
        if (m.leg > 0) {
          const auto& legs = m.route->legs;
          ShardMessage fwd = m;
          fwd.leg = m.leg - 1;
          send_backward(std::move(fwd), legs, m.leg);
          return;
        }
        ++chains_rejected;
        const auto fl = inflight.find(m.transfer);
        GRIDVC_REQUIRE(fl != inflight.end(), "chain reject for unknown transfer");
        start_leg(m.transfer, 0, fl->second.route, fl->second.bytes);
        return;
      }
      case MessageKind::kCompletionRelay: {
        release_chain(m.transfer, m.leg);
        if (m.leg == 0) {
          complete_origin(m.transfer);
          return;
        }
        const auto& legs = m.route->legs;
        ShardMessage fwd = m;
        fwd.leg = m.leg - 1;
        send_backward(std::move(fwd), legs, m.leg);
        return;
      }
    }
    GRIDVC_REQUIRE(false, "unknown shard message kind");
  }
};

ShardedSimulation::ShardedSimulation(const workload::FederationScenario& scenario,
                                     unsigned shards)
    : scenario_(scenario),
      partition_(scenario.topo),
      shards_(shards == 0 ? 1 : shards),
      pool_(shards == 0 ? 1 : shards) {
  GRIDVC_REQUIRE(partition_.domain_count() >= 1, "partition produced no domains");
  GRIDVC_REQUIRE(partition_.lookahead() > 0.0,
                 "federation needs inter-domain links (positive lookahead)");
  worlds_.reserve(partition_.domain_count());
  for (std::uint32_t d = 0; d < partition_.domain_count(); ++d) {
    worlds_.push_back(std::make_unique<DomainWorld>(*this, d));
  }
}

ShardedSimulation::~ShardedSimulation() = default;

void ShardedSimulation::exchange() {
  GRIDVC_PROF_ZONE("shard.exchange");
  pending_.clear();
  for (auto& w : worlds_) {
    for (auto& m : w->outbox) pending_.push_back(std::move(m));
    w->outbox.clear();
  }
  std::sort(pending_.begin(), pending_.end(),
            [](const ShardMessage& a, const ShardMessage& b) {
              return message_before(a, b);
            });
  for (auto& m : pending_) {
    ++stats_.messages;
    stats_.message_hash = fold_message(stats_.message_hash, m);
    GRIDVC_REQUIRE(m.deliver_time >= m.send_time + partition_.lookahead() - 1e-12,
                   "shard message beat the lookahead");
    DomainWorld* dst = worlds_[m.dst_domain].get();
    // schedule_at counts into the destination's metrics registry, and the
    // barrier hands world ownership back to this thread; re-pin the
    // single-writer assert before touching it (the pool join ordered the
    // lane's writes before ours).
    dst->sim.obs().registry().rebind_owner();
    const Seconds at = m.deliver_time;
    dst->sim.schedule_at(at, [dst, msg = std::move(m)] { dst->handle(msg); });
  }
  pending_.clear();
}

void ShardedSimulation::run() {
  const Seconds lookahead = partition_.lookahead();
  for (;;) {
    exchange();
    constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
    Seconds t_star = kNever;
    next_times_.clear();
    for (auto& w : worlds_) {
      const Seconds nt = w->sim.next_event_time().value_or(kNever);
      next_times_.push_back(nt);
      t_star = std::min(t_star, nt);
    }
    if (t_star == kNever) break;
    const Seconds horizon = t_star + lookahead;
    ++stats_.barriers;
    stats_.world_epoch_slots += worlds_.size();

    std::uint64_t sessions = 0;
    active_.clear();
    for (std::size_t i = 0; i < worlds_.size(); ++i) {
      sessions += worlds_[i]->open_sessions;
      if (next_times_[i] == kNever) continue;
      if (next_times_[i] <= horizon) {
        active_.push_back(worlds_[i].get());
      } else {
        ++stats_.stalled_world_epochs;
      }
    }
    stats_.peak_open_sessions = std::max(stats_.peak_open_sessions, sessions);

    GRIDVC_PROF_ZONE("shard.epoch");
    if (active_.size() == 1) {
      active_.front()->sim.obs().registry().rebind_owner();
      active_.front()->sim.run_until(horizon);
    } else {
      // A world may land on a different lane than last epoch; re-pin its
      // registry's single-writer assert to this lane. The barrier join
      // below orders the previous lane's writes before ours.
      pool_.parallel_for(active_.size(), [&](std::size_t i) {
        active_[i]->sim.obs().registry().rebind_owner();
        active_[i]->sim.run_until(horizon);
      });
    }
  }

  for (auto& w : worlds_) {
    stats_.transfers_started += w->transfers_started;
    stats_.transfers_completed += w->transfers_completed;
    stats_.segments_completed += w->segments_completed;
    stats_.chains_requested += w->chains_requested;
    stats_.chains_granted += w->chains_granted;
    stats_.chains_rejected += w->chains_rejected;
    stats_.bytes_planned += w->bytes_planned;
    stats_.bytes_delivered += w->bytes_delivered;
    stats_.events_dispatched += w->sim.dispatched();
    stats_.end_time = std::max(stats_.end_time, w->sim.now());
  }
  audit();
}

void ShardedSimulation::audit() {
  const auto violation = [this](const std::string& invariant, const std::string& detail) {
    violations_.push_back(invariant + ": " + detail);
  };
  const std::uint64_t expected = scenario_.total_transfers();
  if (stats_.transfers_started != expected) {
    violation("all-transfers-started", std::to_string(stats_.transfers_started) +
                                           " of " + std::to_string(expected));
  }
  if (stats_.transfers_completed != expected) {
    violation("all-transfers-completed", std::to_string(stats_.transfers_completed) +
                                             " of " + std::to_string(expected));
  }
  if (stats_.bytes_delivered != stats_.bytes_planned) {
    violation("byte-conservation", std::to_string(stats_.bytes_delivered) +
                                       " delivered of " +
                                       std::to_string(stats_.bytes_planned) + " planned");
  }
  for (const auto& w : worlds_) {
    const std::string who = "domain " + w->dom.name;
    if (!w->sim.idle()) violation("simulator-drained", who);
    if (!w->outbox.empty()) violation("channels-drained", who);
    if (w->engine.active_transfers() != 0 || w->engine.waiting_transfers() != 0) {
      violation("engine-drained", who);
    }
    if (!w->segments.empty()) violation("segments-drained", who);
    if (!w->chains.empty()) violation("chains-drained", who);
    if (!w->inflight.empty()) violation("origin-flights-drained", who);
    if (w->open_sessions != 0) violation("sessions-closed", who);
    if (w->idc.live_circuit_count() != 0) violation("circuits-released", who);
    for (const auto& h : w->hosts) {
      if (h.active != 0 || !h.ready.empty() || h.next_arrival != h.arrivals.size()) {
        violation("hosts-drained", who + " host " + h.server->name());
        break;
      }
    }
  }
}

std::string ShardedSimulation::digest() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "seed=%" PRIu64 " domains=%zu transfers=%" PRIu64 "/%" PRIu64 " segments=%" PRIu64
      " msgs=%" PRIu64 " hash=%016" PRIx64 " chains=%" PRIu64 "/%" PRIu64 "/%" PRIu64
      " events=%" PRIu64 " barriers=%" PRIu64 " bytes=%" PRIu64 " end=%.6f violations=%zu",
      scenario_.seed, partition_.domain_count(), stats_.transfers_completed,
      scenario_.total_transfers(), stats_.segments_completed, stats_.messages,
      stats_.message_hash, stats_.chains_granted, stats_.chains_rejected,
      stats_.chains_requested, stats_.events_dispatched, stats_.barriers,
      stats_.bytes_delivered, stats_.end_time, violations_.size());
  return buf;
}

}  // namespace gridvc::shard
