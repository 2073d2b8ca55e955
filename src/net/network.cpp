#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace gridvc::net {

namespace {
// Completions within this many bytes are treated as done; absorbs fluid
// floating-point residue.
constexpr double kByteEps = 0.5;

// Allocator outputs within this relative tolerance count as "rate
// unchanged": the flow's already-scheduled completion event stands. While
// a rate holds, progress is linear and the absolute ETA is invariant, so
// skipping the reschedule is exact, not an approximation.
constexpr double kRateEps = 1e-9;

bool rate_changed(BitsPerSecond old_rate, BitsPerSecond new_rate) {
  const double scale = std::max({1.0, std::abs(old_rate), std::abs(new_rate)});
  return std::abs(old_rate - new_rate) > kRateEps * scale;
}

// The live flow `id` in an id-ordered flow table, or null (unknown or
// retired). Binary search; const-ness follows the table's.
template <typename Flows>
auto find_live(Flows& flows, FlowId id) -> decltype(&flows.front()) {
  const auto it = std::lower_bound(flows.begin(), flows.end(), id,
                                   [](const auto& f, FlowId key) { return f.id < key; });
  return it != flows.end() && it->id == id && !it->retired ? &*it : nullptr;
}
}  // namespace

Network::Network(sim::Simulator& sim, Topology topology)
    : sim_(sim),
      topo_(std::move(topology)),
      link_bytes_(topo_.link_count(), 0.0),
      link_rate_scratch_(topo_.link_count(), 0.0),
      link_up_(topo_.link_count(), 1),
      link_down_since_(topo_.link_count(), 0.0) {
  obs::MetricsRegistry& reg = sim_.obs().registry();
  id_recomputes_ = reg.counter("gridvc_net_recomputes",
                               "Fair-share allocator passes");
  id_rate_changes_ = reg.counter("gridvc_net_rate_changes",
                                 "Flows whose allocated rate changed in a recompute");
  id_flows_started_ = reg.counter("gridvc_net_flows_started", "Flows injected");
  id_flows_completed_ = reg.counter("gridvc_net_flows_completed",
                                    "Flows that delivered their last byte");
  id_flows_aborted_ = reg.counter("gridvc_net_flows_aborted",
                                  "Flows removed before completion");
  id_flows_failed_ = reg.counter("gridvc_net_flows_failed",
                                 "Flows killed mid-flight by a link failure");
  id_active_flows_ = reg.gauge("gridvc_net_active_flows", "Flows currently in flight");
  id_link_failures_ = reg.counter("gridvc_net_link_failures", "Links taken down");
  id_link_repairs_ = reg.counter("gridvc_net_link_repairs", "Links brought back up");
  id_link_downtime_ = reg.histogram(
      "gridvc_net_link_downtime_seconds",
      {1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 3600.0},
      "Outage duration per link failure/repair cycle");
  id_link_utilization_ = reg.histogram(
      "gridvc_net_link_utilization",
      {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0},
      "Per-link allocated-rate / capacity, sampled at each recompute over "
      "links carrying traffic");
}

Network::~Network() {
  if (dirty_) sim_.cancel_deferred(*this);
}

void Network::mark_dirty() {
  if (dirty_) return;
  dirty_ = true;
  sim_.defer(*this);
}

void Network::flush() {
  // The registration is already gone: the simulator drops it as it
  // flushes, and current_rate() withdraws it before flushing early.
  dirty_ = false;
  recompute();
}

FlowId Network::start_flow(Path path, Bytes size, FlowOptions options,
                           CompletionFn on_complete) {
  GRIDVC_REQUIRE(!path.empty(), "flow path must not be empty");
  GRIDVC_REQUIRE(size > 0, "flow size must be positive");
  for (std::size_t i = 1; i < path.size(); ++i) {
    GRIDVC_REQUIRE(topo_.link(path[i]).from == topo_.link(path[i - 1]).to,
                   "flow path is not a connected chain");
  }

  const FlowId id = next_id_++;
  ActiveFlow f;
  f.id = id;
  f.path = std::move(path);
  f.size = size;
  f.bytes_remaining = static_cast<double>(size);
  f.cap = options.cap;
  f.guarantee = options.guarantee;
  f.fail_on_link_down = options.fail_on_link_down;
  f.start_time = sim_.now();
  f.last_update = sim_.now();
  f.on_complete = std::move(on_complete);
  flows_.push_back(std::move(f));
  ++live_flows_;
  sim_.obs().registry().add(id_flows_started_);
  sim_.obs().registry().set(id_active_flows_, static_cast<double>(live_flows_));
  mark_dirty();
  return id;
}

Network::ActiveFlow& Network::live_flow(FlowId id, const char* what) {
  ActiveFlow* f = find_live(flows_, id);
  GRIDVC_REQUIRE(f != nullptr, std::string(what) + " on unknown flow");
  return *f;
}

void Network::retire(ActiveFlow& f) {
  f.completion.cancel();
  f.retired = true;
  --live_flows_;
  sim_.obs().registry().set(id_active_flows_, static_cast<double>(live_flows_));
  mark_dirty();
}

void Network::update_cap(FlowId id, BitsPerSecond cap) {
  ActiveFlow& f = live_flow(id, "update_cap");
  if (f.cap == cap) return;
  f.cap = cap;
  mark_dirty();
}

void Network::update_guarantee(FlowId id, BitsPerSecond guarantee) {
  ActiveFlow& f = live_flow(id, "update_guarantee");
  GRIDVC_REQUIRE(guarantee >= 0.0, "negative guarantee");
  if (f.guarantee == guarantee) return;
  f.guarantee = guarantee;
  mark_dirty();
}

void Network::abort_flow(FlowId id) {
  ActiveFlow& f = live_flow(id, "abort_flow");
  settle_flow(f, sim_.now());
  sim_.obs().registry().add(id_flows_aborted_);
  retire(f);
}

bool Network::link_up(LinkId id) const {
  GRIDVC_REQUIRE(id < link_up_.size(), "link id out of range");
  return link_up_[id] != 0;
}

void Network::set_link_state(LinkId id, bool up) {
  GRIDVC_REQUIRE(id < link_up_.size(), "link id out of range");
  if ((link_up_[id] != 0) == up) return;
  obs::MetricsRegistry& reg = sim_.obs().registry();
  const Seconds now = sim_.now();
  if (!up) {
    link_up_[id] = 0;
    link_down_since_[id] = now;
    reg.add(id_link_failures_);

    // Pull out every opted-in flow crossing the dead link. Settle first so
    // the record carries the bytes delivered before the cut; the callbacks
    // run once the flow set is consistent again (survivors re-allocate
    // around the dead link at the batch's recompute).
    std::vector<std::pair<FlowRecord, CompletionFn>> failed;
    for (ActiveFlow& f : flows_) {
      if (f.retired || !f.fail_on_link_down ||
          std::find(f.path.begin(), f.path.end(), id) == f.path.end()) {
        continue;
      }
      settle_flow(f, now);
      FlowRecord record;
      record.id = f.id;
      record.size = f.size;
      record.delivered = static_cast<Bytes>(
          std::max(0.0, static_cast<double>(f.size) - f.bytes_remaining));
      record.start_time = f.start_time;
      record.end_time = now;
      record.outcome = FlowOutcome::kFailed;
      failed.emplace_back(std::move(record), std::move(f.on_complete));
      retire(f);
    }
    if (!failed.empty()) reg.add(id_flows_failed_, static_cast<double>(failed.size()));
    sim_.obs().emit({now, obs::TraceEventType::kLinkDown, id,
                     static_cast<std::uint64_t>(failed.size()), 0.0, 0.0});
    mark_dirty();
    for (auto& [record, callback] : failed) {
      if (callback) callback(record);
    }
  } else {
    link_up_[id] = 1;
    const Seconds downtime = now - link_down_since_[id];
    reg.add(id_link_repairs_);
    reg.observe(id_link_downtime_, downtime);
    sim_.obs().emit({now, obs::TraceEventType::kLinkUp, id, 0, downtime, 0.0});
    mark_dirty();  // stalled flows pick their rates back up
  }
}

BitsPerSecond Network::current_rate(FlowId id) {
  live_flow(id, "current_rate");
  if (dirty_) {
    sim_.cancel_deferred(*this);
    flush();  // compacts flows_: look the flow up again below
  }
  return live_flow(id, "current_rate").rate;
}

Bytes Network::remaining_bytes(FlowId id) {
  ActiveFlow& f = live_flow(id, "remaining_bytes");
  settle_flow(f, sim_.now());
  return static_cast<Bytes>(std::max(0.0, f.bytes_remaining));
}

Bytes Network::sent_bytes(FlowId id) {
  ActiveFlow& f = live_flow(id, "sent_bytes");
  settle_flow(f, sim_.now());
  const double sent = static_cast<double>(f.size) - f.bytes_remaining;
  return static_cast<Bytes>(std::max(0.0, sent));
}

std::vector<FlowId> Network::active_flows() const {
  std::vector<FlowId> ids;
  ids.reserve(live_flows_);
  for (const ActiveFlow& f : flows_) {
    if (!f.retired) ids.push_back(f.id);
  }
  return ids;
}

Bytes Network::flow_size(FlowId id) const {
  const ActiveFlow* f = find_live(flows_, id);
  GRIDVC_REQUIRE(f != nullptr, "flow_size on unknown flow");
  return f->size;
}

double Network::link_bytes(LinkId id) {
  GRIDVC_REQUIRE(id < link_bytes_.size(), "link id out of range");
  settle();
  return link_bytes_[id];
}

void Network::settle_flow(ActiveFlow& f, Seconds now) {
  const Seconds elapsed = now - f.last_update;
  if (elapsed <= 0.0) return;
  f.last_update = now;
  const double sent = std::min(f.bytes_remaining, f.rate * elapsed / 8.0);
  if (sent <= 0.0) return;
  f.bytes_remaining -= sent;
  for (LinkId l : f.path) link_bytes_[l] += sent;
}

void Network::settle() {
  const Seconds now = sim_.now();
  for (ActiveFlow& f : flows_) {
    if (!f.retired) settle_flow(f, now);
  }
}

void Network::recompute() {
  GRIDVC_PROF_ZONE("net.recompute");
  const Seconds now = sim_.now();

  // Drop the tombstones, then borrow each flow's path rather than copying
  // it: flows_ does not move during the allocator call, and the reused
  // scratch vectors make the whole pass allocation-free at steady state.
  std::erase_if(flows_, [](const ActiveFlow& f) { return f.retired; });
  std::vector<FlowDemandRef>& demands = demand_scratch_;
  demands.clear();
  demands.reserve(flows_.size());
  for (const ActiveFlow& f : flows_) {
    demands.push_back(FlowDemandRef{&f.path, f.cap, f.guarantee});
  }
  const std::vector<BitsPerSecond>& rates =
      max_min_allocate(topo_, demands, link_up_, alloc_ws_);

  obs::MetricsRegistry& reg = sim_.obs().registry();
  reg.add(id_recomputes_);
  std::uint64_t changed = 0;

  for (std::size_t i = 0; i < flows_.size(); ++i) {
    ActiveFlow& f = flows_[i];
    const BitsPerSecond new_rate = rates[i];
    const bool this_changed = rate_changed(f.rate, new_rate);
    if (this_changed) ++changed;
    if (!this_changed) {
      // Unchanged rate: the scheduled completion (if any) is still exact.
      // A stalled flow (rate 0) stays stalled with no event either way.
      if (f.completion.pending() || f.rate <= 0.0) continue;
    }
    settle_flow(f, now);  // progress so far happened at the old rate
    f.rate = new_rate;
    f.completion.cancel();
    const FlowId id = f.id;
    if (f.bytes_remaining <= kByteEps) {
      // Finished (or within fluid rounding of finished): complete now.
      f.completion = sim_.schedule_in(0.0, [this, id] { complete_flow(id); });
    } else if (f.rate > 0.0) {
      const Seconds eta = f.bytes_remaining * 8.0 / f.rate;
      f.completion = sim_.schedule_in(eta, [this, id] { complete_flow(id); });
    }
    // rate == 0: the flow is stalled; it will be rescheduled by the next
    // recompute that gives it bandwidth.
  }

  if (changed > 0) reg.add(id_rate_changes_, changed);

  // Utilization sample: the allocation just computed is exact until the
  // next recompute, so one sample per pass per loaded link captures the
  // full utilization trajectory. Only links on some flow's path can carry
  // traffic; they are visited in ascending id, the order every sample has
  // always been taken in.
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    for (LinkId l : flows_[i].path) link_rate_scratch_[l] += rates[i];
  }
  std::vector<LinkId>& used = used_link_scratch_;
  used.assign(alloc_ws_.used_links.begin(), alloc_ws_.used_links.end());
  std::sort(used.begin(), used.end());
  double peak_utilization = 0.0;
  for (const LinkId l : used) {
    if (link_rate_scratch_[l] <= 0.0) continue;
    const BitsPerSecond capacity = topo_.link(l).capacity;
    if (capacity > 0.0) {
      const double u = link_rate_scratch_[l] / capacity;
      reg.observe(id_link_utilization_, u);
      peak_utilization = std::max(peak_utilization, u);
    }
    link_rate_scratch_[l] = 0.0;
  }

  sim_.obs().emit({now, obs::TraceEventType::kNetRecompute, 0, changed,
                   static_cast<double>(flows_.size()), peak_utilization});
}

void Network::complete_flow(FlowId id) {
  ActiveFlow* found = find_live(flows_, id);
  if (found == nullptr) return;  // aborted concurrently
  ActiveFlow& f = *found;
  const Seconds now = sim_.now();
  settle_flow(f, now);
  if (f.bytes_remaining > kByteEps && f.rate > 0.0) {
    // Fluid rounding left a residue at the scheduled ETA; drain it at the
    // current rate rather than dropping the flow on the floor — unless the
    // drain is shorter than one clock tick at this epoch (past ~2^23 s a
    // sub-ulp ETA would re-arm at now forever). Then the residue is
    // delivered on the spot.
    const Seconds eta = f.bytes_remaining * 8.0 / f.rate;
    if (now + eta > now) {
      f.completion = sim_.schedule_in(eta, [this, id] { complete_flow(id); });
      return;
    }
    for (LinkId l : f.path) link_bytes_[l] += f.bytes_remaining;
    f.bytes_remaining = 0.0;
  } else if (f.bytes_remaining > kByteEps) {
    return;  // stalled: the next recompute that gives it bandwidth re-arms
  }
  FlowRecord record;
  record.id = id;
  record.size = f.size;
  record.delivered = f.size;
  record.start_time = f.start_time;
  record.end_time = now;
  CompletionFn callback = std::move(f.on_complete);
  sim_.obs().registry().add(id_flows_completed_);
  retire(f);
  if (callback) callback(record);
}

}  // namespace gridvc::net
