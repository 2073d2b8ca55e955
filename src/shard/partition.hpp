// Domain partition of a multi-domain topology.
//
// The sharded simulation (sharded_simulation.hpp) decomposes a federation
// by *administrative domain*: every domain becomes one logical world with
// its own Simulator/Network/Idc/servers, whatever `--shards` says — the
// shard count only widens the executor that runs the worlds, never the
// decomposition itself, which is what makes digests byte-identical at any
// shard count. This header owns the static half of that story:
//
//   * assign every node to a domain (routers by their `domain` tag, hosts
//     by the domain of the router they attach to),
//   * build a per-domain local Topology holding the domain's nodes and
//     intra-domain links, plus one *proxy node* per outgoing inter-domain
//     link so the egress link's capacity and delay are contended inside
//     the owning domain's fluid model,
//   * enumerate the inter-domain links as Gateways (the shard channels:
//     a gateway's propagation delay lower-bounds cross-shard causality,
//     and the minimum over all gateways is the conservative lookahead),
//   * cut a global path into per-domain Legs that each world can hand to
//     its own transfer engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "net/topology.hpp"

namespace gridvc::shard {

class DomainPartition {
 public:
  /// One directed inter-domain link, lifted to a shard channel.
  struct Gateway {
    net::LinkId global_link = 0;
    std::uint32_t src_domain = 0;
    std::uint32_t dst_domain = 0;
    net::NodeId global_from = 0;  ///< border node in src_domain
    net::NodeId global_to = 0;    ///< entry node in dst_domain
    /// Egress link in src_domain's local topology: local(from) -> proxy,
    /// carrying the global link's capacity and delay.
    net::LinkId local_egress = 0;
    Seconds delay = 0.0;  ///< == messages' minimum channel latency
    /// Index of the gateway for the opposite direction (to -> from), or
    /// kNoGateway for a simplex inter-domain link. Completion relays and
    /// chain-booking replies travel backwards over this.
    std::uint32_t reverse = kNoGateway;
  };
  static constexpr std::uint32_t kNoGateway = 0xffffffffu;

  struct Domain {
    std::string name;
    net::Topology topo;  ///< nodes + intra-domain links + gateway proxies
    /// global node id -> local node id, for every node owned by this
    /// domain (proxies are local-only and not listed here).
    std::unordered_map<net::NodeId, net::NodeId> local_node;
    /// global link id -> local link id, for intra-domain links.
    std::unordered_map<net::LinkId, net::LinkId> local_link;
    /// local node id -> global node id, for owned nodes (they take local
    /// ids 0..n-1; gateway proxies come after and are not listed).
    std::vector<net::NodeId> global_node;
    std::vector<net::NodeId> global_hosts;  ///< hosts owned, ascending
  };

  /// One per-domain run of a global path. `local_path` ends with the
  /// crossed gateway's egress proxy link when `exit_gateway` is set, so a
  /// world simulates its share of the inter-domain hop's contention.
  struct Leg {
    std::uint32_t domain = 0;
    net::Path local_path;  ///< may be empty when the path ends on entry
    net::NodeId local_src = 0;
    net::NodeId local_dst = 0;
    std::uint32_t exit_gateway = kNoGateway;  ///< crossed after this leg
    bool operator==(const Leg&) const = default;
  };

  /// A global path with its legs, cut once. Immutable, so every world and
  /// message that carries a transfer can share one copy across lanes.
  struct Route {
    net::Path path;
    std::vector<Leg> legs;
  };

  /// Partition `global`. Domains are the distinct router tags in
  /// lexicographic order (an untagged single-domain topology degenerates
  /// to one world). Every host must attach to at least one router.
  explicit DomainPartition(const net::Topology& global);

  const net::Topology& global() const { return *global_; }
  std::size_t domain_count() const { return domains_.size(); }
  const Domain& domain(std::uint32_t d) const { return domains_[d]; }
  std::uint32_t domain_of(net::NodeId global_node) const {
    return node_domain_[global_node];
  }
  std::uint32_t domain_index(const std::string& name) const;

  const std::vector<Gateway>& gateways() const { return gateways_; }

  /// Smallest gateway delay: the conservative lookahead. Requires at
  /// least one gateway unless the topology is single-domain (then 0).
  Seconds lookahead() const { return lookahead_; }

  /// Cut a global path into per-domain legs. The path must be valid in
  /// the global topology; every inter-domain link crossed must be a
  /// gateway (by construction of the partition, all of them are).
  std::vector<Leg> cut_path(const net::Path& path) const;

  /// Cut `path` into a shared Route.
  std::shared_ptr<const Route> route(net::Path path) const;

 private:
  const net::Topology* global_;
  std::vector<Domain> domains_;
  std::vector<std::uint32_t> node_domain_;  ///< by global node id
  std::unordered_map<std::string, std::uint32_t> domain_by_name_;
  std::vector<Gateway> gateways_;
  std::unordered_map<net::LinkId, std::uint32_t> gateway_by_link_;
  Seconds lookahead_ = 0.0;
};

using RouteRef = std::shared_ptr<const DomainPartition::Route>;

}  // namespace gridvc::shard
