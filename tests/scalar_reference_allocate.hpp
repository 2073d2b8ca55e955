// Scalar reference max-min allocator shared by the allocator and network
// tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/fair_share.hpp"

namespace gridvc::net {

// Straight transcription of the pre-SoA scalar allocator (per-flow path
// chasing, flag-scan fill loop, every per-link array sized by the whole
// topology). The link-sparse CSR/dense-list implementation is a layout
// change only, so it must reproduce this arithmetic sequence bit-for-bit.
inline std::vector<BitsPerSecond> scalar_reference_allocate(
    const Topology& topo, const std::vector<FlowDemand>& flows,
    const std::vector<char>& link_up) {
  constexpr double kRefEps = 1e-3;
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t nflows = flows.size();
  const std::size_t nlinks = topo.link_count();
  std::vector<BitsPerSecond> rates(nflows, 0.0);
  if (nflows == 0) return rates;
  std::vector<double> residual(nlinks, 0.0);
  for (std::size_t l = 0; l < nlinks; ++l) {
    const bool up = link_up.empty() || link_up[l] != 0;
    residual[l] = up ? topo.link(static_cast<LinkId>(l)).capacity : 0.0;
  }
  std::vector<double> guarantee_load(nlinks, 0.0);
  for (const auto& f : flows) {
    const double g = f.cap > 0.0 ? std::min(f.guarantee, f.cap) : f.guarantee;
    if (g <= 0.0) continue;
    for (LinkId l : f.path) guarantee_load[l] += g;
  }
  std::vector<double> link_scale(nlinks, 1.0);
  for (std::size_t l = 0; l < nlinks; ++l) {
    if (guarantee_load[l] > residual[l]) link_scale[l] = residual[l] / guarantee_load[l];
  }
  for (std::size_t i = 0; i < nflows; ++i) {
    double g = flows[i].cap > 0.0 ? std::min(flows[i].guarantee, flows[i].cap)
                                  : flows[i].guarantee;
    if (g <= 0.0) continue;
    double scale = 1.0;
    for (LinkId l : flows[i].path) scale = std::min(scale, link_scale[l]);
    rates[i] = g * scale;
  }
  for (std::size_t i = 0; i < nflows; ++i) {
    if (rates[i] <= 0.0) continue;
    for (LinkId l : flows[i].path) residual[l] = std::max(0.0, residual[l] - rates[i]);
  }
  std::vector<char> active(nflows, 0);
  std::vector<std::uint32_t> active_on_link(nlinks, 0);
  std::size_t active_count = 0;
  for (std::size_t i = 0; i < nflows; ++i) {
    if (flows[i].cap > 0.0 && rates[i] >= flows[i].cap - kRefEps) continue;
    active[i] = 1;
    ++active_count;
    for (LinkId l : flows[i].path) ++active_on_link[l];
  }
  for (std::size_t iter = 0; iter < nflows + nlinks + 1 && active_count > 0; ++iter) {
    double delta = inf;
    for (std::size_t l = 0; l < nlinks; ++l) {
      if (active_on_link[l] == 0) continue;
      delta = std::min(delta, residual[l] / static_cast<double>(active_on_link[l]));
    }
    for (std::size_t i = 0; i < nflows; ++i) {
      if (!active[i]) continue;
      if (flows[i].cap > 0.0) delta = std::min(delta, flows[i].cap - rates[i]);
    }
    if (delta == inf) break;
    delta = std::max(delta, 0.0);
    for (std::size_t i = 0; i < nflows; ++i) {
      if (!active[i]) continue;
      rates[i] += delta;
      for (LinkId l : flows[i].path) residual[l] -= delta;
    }
    bool froze = false;
    for (std::size_t i = 0; i < nflows; ++i) {
      if (!active[i]) continue;
      bool saturated = flows[i].cap > 0.0 && rates[i] >= flows[i].cap - kRefEps;
      if (!saturated) {
        for (LinkId l : flows[i].path) {
          if (residual[l] <= kRefEps) {
            saturated = true;
            break;
          }
        }
      }
      if (saturated) {
        active[i] = 0;
        --active_count;
        for (LinkId l : flows[i].path) --active_on_link[l];
        froze = true;
      }
    }
    if (!froze) break;
  }
  return rates;
}

}  // namespace gridvc::net
