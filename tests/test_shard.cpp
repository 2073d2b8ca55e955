// Sharded multi-domain simulation: partition correctness, path cutting,
// the federation scenario generator, and — the load-bearing property —
// byte-identical digests at every shard count.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "shard/partition.hpp"
#include "shard/sharded_simulation.hpp"
#include "workload/federation.hpp"

namespace gridvc {
namespace {

workload::FederationConfig small_config() {
  workload::FederationConfig config;
  config.sites = 5;
  config.hosts_per_site = 2;
  config.users = 60;
  config.transfers_per_user = 2;
  config.file_size = 8ULL << 20;
  config.arrival_horizon = 30.0;
  config.think_time = 1.0;
  config.remote_fraction = 0.5;
  config.vc_fraction = 0.5;
  return config;
}

TEST(Federation, TopologyShapeAndDomains) {
  const auto s = workload::build_federation(small_config(), 42);
  // 5 sites x (border + edge + 2 hosts) nodes.
  EXPECT_EQ(s.topo.node_count(), 5u * 4u);
  EXPECT_EQ(s.sites.size(), 5u);
  for (std::size_t i = 0; i < s.sites.size(); ++i) {
    const auto& site = s.topo.node(s.sites[i].border);
    EXPECT_EQ(site.domain, s.topo.node(s.sites[i].edge).domain);
    for (net::NodeId h : s.sites[i].hosts) {
      EXPECT_EQ(s.topo.node(h).domain, site.domain);
    }
  }
}

TEST(Federation, SiteNamesSortInSiteOrder) {
  // The partition orders domains lexicographically; zero-padded names make
  // that order equal the numeric site order even past 10 sites.
  auto config = small_config();
  config.sites = 12;
  const auto s = workload::build_federation(config, 1);
  const shard::DomainPartition part(s.topo);
  ASSERT_EQ(part.domain_count(), 12u);
  for (std::uint32_t d = 0; d < part.domain_count(); ++d) {
    EXPECT_EQ(part.domain_index(s.topo.node(s.sites[d].border).domain), d);
    EXPECT_EQ(part.domain_of(s.sites[d].border), d);
  }
}

TEST(Federation, TransferParamsArePureAndInRange) {
  const auto s = workload::build_federation(small_config(), 7);
  for (std::uint64_t u = 0; u < s.config.users; ++u) {
    for (std::uint32_t k = 0; k < s.config.transfers_per_user; ++k) {
      const auto a = s.transfer_params(u, k);
      const auto b = s.transfer_params(u, k);
      EXPECT_EQ(a.dst_site, b.dst_site);
      EXPECT_EQ(a.size, b.size);
      EXPECT_EQ(a.wants_vc, b.wants_vc);
      ASSERT_LT(a.dst_site, s.config.sites);
      ASSERT_LT(a.dst_host, s.config.hosts_per_site);
      // Never a self-transfer.
      const bool same_host = a.dst_site == s.origin_site(u) &&
                             a.dst_host == s.origin_host(u);
      EXPECT_FALSE(same_host);
      EXPECT_GE(a.size, 1ULL << 20);
      // The route is valid in the global topology.
      const auto path = s.route(u, a);
      const auto src = s.sites[s.origin_site(u)].hosts[s.origin_host(u)];
      const auto dst = s.sites[a.dst_site].hosts[a.dst_host];
      EXPECT_TRUE(s.topo.is_valid_path(path, src, dst));
    }
  }
}

TEST(Partition, GatewaysAreDuplexAndLookaheadIsMinDelay) {
  const auto s = workload::build_federation(small_config(), 42);
  const shard::DomainPartition part(s.topo);
  ASSERT_FALSE(part.gateways().empty());
  Seconds lo = 1e9;
  for (const auto& gw : part.gateways()) {
    lo = std::min(lo, gw.delay);
    ASSERT_NE(gw.reverse, shard::DomainPartition::kNoGateway);
    const auto& rev = part.gateways()[gw.reverse];
    EXPECT_EQ(rev.global_from, gw.global_to);
    EXPECT_EQ(rev.global_to, gw.global_from);
    EXPECT_NE(gw.src_domain, gw.dst_domain);
  }
  EXPECT_DOUBLE_EQ(part.lookahead(), lo);
  EXPECT_GE(part.lookahead(), small_config().interdomain_delay_min);
}

TEST(Partition, LocalTopologiesCoverAllNodesOnce) {
  const auto s = workload::build_federation(small_config(), 42);
  const shard::DomainPartition part(s.topo);
  std::size_t owned = 0;
  for (std::uint32_t d = 0; d < part.domain_count(); ++d) {
    owned += part.domain(d).local_node.size();
    // 2 hosts per site in small_config.
    EXPECT_EQ(part.domain(d).global_hosts.size(), 2u);
  }
  EXPECT_EQ(owned, s.topo.node_count());
}

TEST(Partition, CutPathProducesChainedLegs) {
  const auto s = workload::build_federation(small_config(), 42);
  const shard::DomainPartition part(s.topo);
  // Find a remote transfer to cut.
  for (std::uint64_t u = 0; u < s.config.users; ++u) {
    const auto t = s.transfer_params(u, 0);
    if (t.dst_site == s.origin_site(u)) continue;
    const auto path = s.route(u, t);
    const auto legs = part.cut_path(path);
    ASSERT_GE(legs.size(), 2u);
    EXPECT_EQ(legs.front().domain, part.domain_of(s.sites[s.origin_site(u)].border));
    EXPECT_EQ(legs.back().domain, part.domain_of(s.sites[t.dst_site].border));
    for (std::size_t i = 0; i < legs.size(); ++i) {
      const auto& leg = legs[i];
      const bool last = i + 1 == legs.size();
      EXPECT_EQ(leg.exit_gateway == shard::DomainPartition::kNoGateway, last);
      if (!last) {
        const auto& gw = part.gateways()[leg.exit_gateway];
        EXPECT_EQ(gw.src_domain, leg.domain);
        EXPECT_EQ(gw.dst_domain, legs[i + 1].domain);
      }
      if (!leg.local_path.empty()) {
        EXPECT_TRUE(part.domain(leg.domain)
                        .topo.is_valid_path(leg.local_path, leg.local_src, leg.local_dst));
      }
    }
    return;
  }
  FAIL() << "no remote transfer in the scenario";
}

TEST(Partition, IntraSitePathIsOneLeg) {
  const auto s = workload::build_federation(small_config(), 42);
  const shard::DomainPartition part(s.topo);
  for (std::uint64_t u = 0; u < s.config.users; ++u) {
    const auto t = s.transfer_params(u, 0);
    if (t.dst_site != s.origin_site(u)) continue;
    const auto legs = part.cut_path(s.route(u, t));
    ASSERT_EQ(legs.size(), 1u);
    EXPECT_EQ(legs[0].exit_gateway, shard::DomainPartition::kNoGateway);
    return;
  }
  FAIL() << "no intra-site transfer in the scenario";
}

TEST(Partition, GlobalNodeInvertsLocalNode) {
  const auto s = workload::build_federation(small_config(), 42);
  const shard::DomainPartition part(s.topo);
  for (std::uint32_t d = 0; d < part.domain_count(); ++d) {
    const auto& dom = part.domain(d);
    ASSERT_EQ(dom.global_node.size(), dom.local_node.size());
    for (const auto& [global, local] : dom.local_node) {
      EXPECT_EQ(dom.global_node.at(local), global);
    }
  }
}

// Worlds read a transfer's legs from the Route cut once at its origin and
// carried in every message; each leg must be the one cut_path gives.
TEST(Partition, RouteCarriesTheCutOfItsPath) {
  const auto s = workload::build_federation(small_config(), 42);
  const shard::DomainPartition part(s.topo);
  std::size_t multi_leg = 0;
  for (std::uint64_t u = 0; u < s.config.users; ++u) {
    for (std::uint32_t k = 0; k < s.config.transfers_per_user; ++k) {
      const auto path = s.route(u, s.transfer_params(u, k));
      const shard::RouteRef route = part.route(path);
      EXPECT_EQ(route->path, path);
      const auto legs = part.cut_path(path);
      ASSERT_EQ(route->legs.size(), legs.size());
      for (std::size_t leg = 0; leg < legs.size(); ++leg) {
        EXPECT_EQ(route->legs[leg], legs[leg]) << "user " << u << " leg " << leg;
      }
      if (legs.size() > 1) ++multi_leg;
    }
  }
  EXPECT_GT(multi_leg, 0u);
}

TEST(ShardedSimulation, CompletesAllTransfersAndConservesBytes) {
  const auto s = workload::build_federation(small_config(), 11);
  shard::ShardedSimulation sharded(s, 2);
  sharded.run();
  EXPECT_TRUE(sharded.violations().empty())
      << (sharded.violations().empty() ? "" : sharded.violations().front());
  const auto& st = sharded.stats();
  EXPECT_EQ(st.transfers_completed, s.total_transfers());
  EXPECT_EQ(st.bytes_delivered, st.bytes_planned);
  EXPECT_GT(st.messages, 0u);          // remote traffic crossed shards
  EXPECT_GT(st.chains_requested, 0u);  // vc_fraction drew some chains
  EXPECT_EQ(st.chains_granted + st.chains_rejected, st.chains_requested);
  EXPECT_GT(st.barriers, 0u);
  EXPECT_GT(st.end_time, 0.0);
}

TEST(ShardedSimulation, DigestIsByteIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {3ULL, 17ULL}) {
    const auto s = workload::build_federation(small_config(), seed);
    std::vector<std::string> digests;
    for (const unsigned shards : {1u, 2u, 4u}) {
      shard::ShardedSimulation sharded(s, shards);
      sharded.run();
      EXPECT_TRUE(sharded.violations().empty());
      digests.push_back(sharded.digest());
    }
    EXPECT_EQ(digests[0], digests[1]) << "seed " << seed;
    EXPECT_EQ(digests[0], digests[2]) << "seed " << seed;
    // The digest is substantive, not vacuous.
    EXPECT_NE(digests[0].find("hash="), std::string::npos);
    EXPECT_EQ(digests[0].find("violations=0"), digests[0].size() - 12);
  }
}

TEST(ShardedSimulation, DistinctSeedsProduceDistinctDigests) {
  const auto a = workload::build_federation(small_config(), 5);
  const auto b = workload::build_federation(small_config(), 6);
  shard::ShardedSimulation sa(a, 2);
  shard::ShardedSimulation sb(b, 2);
  sa.run();
  sb.run();
  EXPECT_NE(sa.digest(), sb.digest());
}

}  // namespace
}  // namespace gridvc
