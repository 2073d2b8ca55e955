#include "shard/partition.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "common/error.hpp"

namespace gridvc::shard {

DomainPartition::DomainPartition(const net::Topology& global) : global_(&global) {
  const std::size_t n = global.node_count();
  GRIDVC_REQUIRE(n > 0, "cannot partition an empty topology");

  // Pass 1: the domain name set, from router tags (lexicographic order so
  // the numbering is a pure function of the topology).
  std::set<std::string> names;
  for (net::NodeId id = 0; id < n; ++id) {
    const net::Node& node = global.node(id);
    if (node.kind == net::NodeKind::kRouter) names.insert(node.domain);
  }
  GRIDVC_REQUIRE(!names.empty(), "topology has no routers to partition around");
  for (const auto& name : names) {
    domain_by_name_.emplace(name, static_cast<std::uint32_t>(domains_.size()));
    Domain d;
    d.name = name;
    domains_.push_back(std::move(d));
  }

  // Pass 2: node -> domain. Routers by tag; hosts by the domain of the
  // first router they link to (the attachment, not the host's own tag —
  // a host lives wherever its access link terminates, which matches the
  // InterdomainCoordinator's access-link rule).
  node_domain_.assign(n, 0);
  for (net::NodeId id = 0; id < n; ++id) {
    const net::Node& node = global.node(id);
    if (node.kind == net::NodeKind::kRouter) {
      node_domain_[id] = domain_by_name_.at(node.domain);
      continue;
    }
    bool attached = false;
    for (net::LinkId lid : global.outgoing(id)) {
      const net::Node& peer = global.node(global.link(lid).to);
      if (peer.kind == net::NodeKind::kRouter) {
        node_domain_[id] = domain_by_name_.at(peer.domain);
        attached = true;
        break;
      }
    }
    GRIDVC_REQUIRE(attached, "host does not attach to any router: " + node.name);
  }

  // Pass 3: per-domain nodes (global id order keeps local numbering a
  // pure function of the global topology).
  for (net::NodeId id = 0; id < n; ++id) {
    Domain& d = domains_[node_domain_[id]];
    const net::Node& node = global.node(id);
    const net::NodeId local = d.topo.add_node(node.name, node.kind, node.domain);
    d.local_node.emplace(id, local);
    d.global_node.push_back(id);
    if (node.kind == net::NodeKind::kHost) d.global_hosts.push_back(id);
  }

  // Pass 4: links. Intra-domain links copy straight over; inter-domain
  // links become gateways with an egress proxy in the source domain.
  for (net::LinkId lid = 0; lid < global.link_count(); ++lid) {
    const net::Link& link = global.link(lid);
    const std::uint32_t from_d = node_domain_[link.from];
    const std::uint32_t to_d = node_domain_[link.to];
    if (from_d == to_d) {
      Domain& d = domains_[from_d];
      const net::LinkId local = d.topo.add_link(
          d.local_node.at(link.from), d.local_node.at(link.to), link.capacity, link.delay);
      d.local_link.emplace(lid, local);
      continue;
    }
    Domain& d = domains_[from_d];
    // The proxy stands in for the far border node; tagging it with the
    // peer domain keeps local path segmentation honest if anyone asks.
    const net::NodeId proxy =
        d.topo.add_node("gw" + std::to_string(lid) + ":" + global.node(link.to).name,
                        net::NodeKind::kRouter, domains_[to_d].name);
    const net::LinkId egress =
        d.topo.add_link(d.local_node.at(link.from), proxy, link.capacity, link.delay);
    Gateway gw;
    gw.global_link = lid;
    gw.src_domain = from_d;
    gw.dst_domain = to_d;
    gw.global_from = link.from;
    gw.global_to = link.to;
    gw.local_egress = egress;
    gw.delay = link.delay;
    gateway_by_link_.emplace(lid, static_cast<std::uint32_t>(gateways_.size()));
    gateways_.push_back(gw);
  }

  // Pass 5: pair up reverse directions (duplex inter-domain links).
  for (std::uint32_t i = 0; i < gateways_.size(); ++i) {
    if (gateways_[i].reverse != kNoGateway) continue;
    for (std::uint32_t j = i + 1; j < gateways_.size(); ++j) {
      if (gateways_[j].global_from == gateways_[i].global_to &&
          gateways_[j].global_to == gateways_[i].global_from) {
        gateways_[i].reverse = j;
        gateways_[j].reverse = i;
        break;
      }
    }
  }

  if (!gateways_.empty()) {
    Seconds lo = std::numeric_limits<Seconds>::infinity();
    for (const auto& gw : gateways_) lo = std::min(lo, gw.delay);
    GRIDVC_REQUIRE(lo > 0.0, "inter-domain links need positive delay for lookahead");
    lookahead_ = lo;
  }
}

std::uint32_t DomainPartition::domain_index(const std::string& name) const {
  const auto it = domain_by_name_.find(name);
  GRIDVC_REQUIRE(it != domain_by_name_.end(), "unknown domain: " + name);
  return it->second;
}

std::vector<DomainPartition::Leg> DomainPartition::cut_path(const net::Path& path) const {
  GRIDVC_REQUIRE(!path.empty(), "cannot cut an empty path");
  const net::Topology& g = *global_;
  std::vector<Leg> legs;

  Leg current;
  current.domain = node_domain_[g.link(path.front()).from];
  current.local_src = domains_[current.domain].local_node.at(g.link(path.front()).from);

  for (net::LinkId lid : path) {
    const net::Link& link = g.link(lid);
    const std::uint32_t from_d = node_domain_[link.from];
    const std::uint32_t to_d = node_domain_[link.to];
    GRIDVC_REQUIRE(from_d == current.domain, "path leg left its domain unexpectedly");
    if (from_d == to_d) {
      current.local_path.push_back(domains_[from_d].local_link.at(lid));
      continue;
    }
    // Crossing: close this leg at the gateway's proxy, open the next one
    // at the entry node.
    const std::uint32_t gw_index = gateway_by_link_.at(lid);
    const Gateway& gw = gateways_[gw_index];
    current.local_path.push_back(gw.local_egress);
    current.local_dst = domains_[from_d].topo.link(gw.local_egress).to;
    current.exit_gateway = gw_index;
    legs.push_back(std::move(current));
    current = Leg{};
    current.domain = to_d;
    current.local_src = domains_[to_d].local_node.at(link.to);
  }
  // Final leg: ends at the path's destination inside the last domain.
  current.local_dst = current.local_path.empty()
                          ? current.local_src
                          : domains_[current.domain].topo.link(current.local_path.back()).to;
  legs.push_back(std::move(current));
  return legs;
}

std::shared_ptr<const DomainPartition::Route> DomainPartition::route(net::Path path) const {
  auto legs = cut_path(path);
  return std::make_shared<const Route>(Route{std::move(path), std::move(legs)});
}

}  // namespace gridvc::shard
