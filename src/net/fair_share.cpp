#include "net/fair_share.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace gridvc::net {

namespace {
constexpr double kEps = 1e-3;  // bits/s; far below any meaningful WAN rate
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Allocation max_min_allocate(const Topology& topo, const std::vector<FlowDemand>& flows) {
  return max_min_allocate(topo, flows, {});
}

Allocation max_min_allocate(const Topology& topo, const std::vector<FlowDemand>& flows,
                            const std::vector<char>& link_up) {
  std::vector<FlowDemandRef> refs;
  refs.reserve(flows.size());
  for (const auto& f : flows) refs.push_back(FlowDemandRef{&f.path, f.cap, f.guarantee});
  AllocWorkspace ws;
  Allocation out;
  out.rates = max_min_allocate(topo, refs, link_up, ws);
  return out;
}

const std::vector<BitsPerSecond>& max_min_allocate(const Topology& topo,
                                                   std::span<const FlowDemandRef> flows,
                                                   const std::vector<char>& link_up,
                                                   AllocWorkspace& ws) {
  GRIDVC_PROF_ZONE("net.max_min_allocate");
  const std::size_t nflows = flows.size();
  const std::size_t nlinks = topo.link_count();
  GRIDVC_REQUIRE(link_up.empty() || link_up.size() == nlinks,
                 "link_up must be empty or one entry per link");
  ws.rates.assign(nflows, 0.0);
  ws.used_links.clear();
  if (nflows == 0) return ws.rates;

  // Flatten every path into one CSR index of local link indices (and
  // validate while copying): a link is stamped with this call's epoch the
  // first time a path crosses it and gets the next local index. After this
  // pass no loop touches the per-flow std::vector<LinkId> storage or the
  // topology-sized arrays again.
  if (ws.link_epoch.size() != nlinks) {
    ws.link_epoch.assign(nlinks, 0);
    ws.link_local.resize(nlinks);
    ws.epoch = 0;
  }
  if (++ws.epoch == 0) {  // wrapped: stale stamps could alias the new epoch
    std::fill(ws.link_epoch.begin(), ws.link_epoch.end(), 0u);
    ws.epoch = 1;
  }
  ws.path_off.resize(nflows + 1);
  ws.cap_limit.resize(nflows);
  std::size_t total_links = 0;
  bool any_guarantee = false;
  for (std::size_t i = 0; i < nflows; ++i) {
    const FlowDemandRef& f = flows[i];
    GRIDVC_REQUIRE(f.path != nullptr && !f.path->empty(), "flow with empty path");
    GRIDVC_REQUIRE(f.guarantee >= 0.0, "negative guarantee");
    ws.path_off[i] = static_cast<std::uint32_t>(total_links);
    total_links += f.path->size();
    ws.cap_limit[i] = f.cap > 0.0 ? f.cap : kInf;
    any_guarantee = any_guarantee || f.guarantee > 0.0;
  }
  ws.path_off[nflows] = static_cast<std::uint32_t>(total_links);
  ws.path_lnk.resize(total_links);
  for (std::size_t i = 0; i < nflows; ++i) {
    std::uint32_t off = ws.path_off[i];
    for (LinkId l : *flows[i].path) {
      GRIDVC_REQUIRE(l < nlinks, "flow path references unknown link");
      if (ws.link_epoch[l] != ws.epoch) {
        ws.link_epoch[l] = ws.epoch;
        ws.link_local[l] = static_cast<std::uint32_t>(ws.used_links.size());
        ws.used_links.push_back(l);
      }
      ws.path_lnk[off++] = ws.link_local[l];
    }
  }
  const std::size_t nused = ws.used_links.size();

  ws.residual.resize(nused);
  for (std::size_t j = 0; j < nused; ++j) {
    const LinkId l = ws.used_links[j];
    const bool up = link_up.empty() || link_up[l] != 0;
    ws.residual[j] = up ? topo.link(l).capacity : 0.0;
  }

  // Phase 1: rate guarantees. If a link is oversubscribed by guarantees
  // (should not happen under VC admission control) scale each crossing
  // flow's guarantee by the worst per-link factor on its path. Without
  // any guarantee every rate stays 0 and every residual untouched, so the
  // phase is skipped.
  if (any_guarantee) {
    ws.guarantee_load.assign(nused, 0.0);
    for (std::size_t i = 0; i < nflows; ++i) {
      const double g = std::min(flows[i].guarantee, ws.cap_limit[i]);
      if (g <= 0.0) continue;
      for (std::uint32_t k = ws.path_off[i]; k < ws.path_off[i + 1]; ++k) {
        ws.guarantee_load[ws.path_lnk[k]] += g;
      }
    }
    ws.link_scale.assign(nused, 1.0);
    for (std::size_t j = 0; j < nused; ++j) {
      if (ws.guarantee_load[j] > ws.residual[j]) {
        ws.link_scale[j] = ws.residual[j] / ws.guarantee_load[j];
      }
    }
    for (std::size_t i = 0; i < nflows; ++i) {
      const double g = std::min(flows[i].guarantee, ws.cap_limit[i]);
      if (g <= 0.0) continue;
      double scale = 1.0;
      for (std::uint32_t k = ws.path_off[i]; k < ws.path_off[i + 1]; ++k) {
        scale = std::min(scale, ws.link_scale[ws.path_lnk[k]]);
      }
      ws.rates[i] = g * scale;
    }
    for (std::size_t i = 0; i < nflows; ++i) {
      if (ws.rates[i] <= 0.0) continue;
      for (std::uint32_t k = ws.path_off[i]; k < ws.path_off[i + 1]; ++k) {
        const std::uint32_t l = ws.path_lnk[k];
        ws.residual[l] = std::max(0.0, ws.residual[l] - ws.rates[i]);
      }
    }
  }

  // Phase 2: progressive filling of the residual capacity. Unfrozen
  // flows live in a dense, index-ordered list (ws.active_idx), so every
  // fill iteration scans only the survivors; the per-link count of
  // unfrozen crossing flows is built once and maintained incrementally
  // as flows freeze. The freeze pass compacts the dense list in place,
  // preserving index order so the arithmetic sequence is identical to
  // the scalar formulation.
  ws.active_on_link.assign(nused, 0);
  ws.active_idx.clear();
  for (std::size_t i = 0; i < nflows; ++i) {
    if (ws.rates[i] >= ws.cap_limit[i] - kEps) continue;  // inf cap never trips
    ws.active_idx.push_back(static_cast<std::uint32_t>(i));
    for (std::uint32_t k = ws.path_off[i]; k < ws.path_off[i + 1]; ++k) {
      ++ws.active_on_link[ws.path_lnk[k]];
    }
  }

  // Each iteration freezes at least one flow (cap hit) or saturates at
  // least one link, so the loop runs at most nflows + nused times. The
  // minimum over links is order-free, so scanning only the used links in
  // local order is bit-identical to a scan over the whole topology.
  for (std::size_t iter = 0; iter < nflows + nused + 1 && !ws.active_idx.empty();
       ++iter) {
    double delta = kInf;
    for (std::size_t j = 0; j < nused; ++j) {
      if (ws.active_on_link[j] == 0) continue;
      delta = std::min(delta, ws.residual[j] / static_cast<double>(ws.active_on_link[j]));
    }
    for (const std::uint32_t i : ws.active_idx) {
      delta = std::min(delta, ws.cap_limit[i] - ws.rates[i]);  // inf - r = inf
    }
    if (delta == kInf) break;
    delta = std::max(delta, 0.0);

    for (const std::uint32_t i : ws.active_idx) {
      ws.rates[i] += delta;
      for (std::uint32_t k = ws.path_off[i]; k < ws.path_off[i + 1]; ++k) {
        ws.residual[ws.path_lnk[k]] -= delta;
      }
    }

    // Freeze flows that hit their cap or a saturated link; survivors are
    // compacted to the front of the dense list in stable order.
    std::size_t w = 0;
    bool froze = false;
    for (const std::uint32_t i : ws.active_idx) {
      bool saturated = ws.rates[i] >= ws.cap_limit[i] - kEps;
      if (!saturated) {
        for (std::uint32_t k = ws.path_off[i]; k < ws.path_off[i + 1]; ++k) {
          if (ws.residual[ws.path_lnk[k]] <= kEps) {
            saturated = true;
            break;
          }
        }
      }
      if (saturated) {
        for (std::uint32_t k = ws.path_off[i]; k < ws.path_off[i + 1]; ++k) {
          --ws.active_on_link[ws.path_lnk[k]];
        }
        froze = true;
      } else {
        ws.active_idx[w++] = i;
      }
    }
    ws.active_idx.resize(w);
    if (!froze) break;  // numerical stall guard
  }

  return ws.rates;
}

}  // namespace gridvc::net
