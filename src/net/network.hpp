// Flow-level network engine.
//
// The engine simulates elastic data flows over the Topology in a
// discrete-event fashion. Every flow-set or demand change (arrival,
// completion, abort, cap/guarantee update, link up/down) only marks the
// network dirty and registers it with the simulator's deferred-work hook;
// the simulator flushes it before it next examines its queue, so one
// max-min recompute (fair_share.hpp) serves the whole same-timestamp
// batch of changes, and it always runs before time can advance.
// current_rate() flushes first; byte progress reads need no flush, since
// the old rates are exact up to now().
//
// A recompute diffs the new allocation against the old one: only flows
// whose rate actually changed are settled (byte progress and per-link
// byte counters) and have their completion event cancelled and
// rescheduled. A flow whose rate is untouched keeps its already
// scheduled completion — its absolute ETA is invariant while the rate
// holds — so an arrival or completion costs O(affected flows) event
// churn, not O(all flows). Per-link cumulative byte counters feed the
// SNMP collector, which is how Tables X–XIII are regenerated.
//
// This is the standard fluid approximation for WAN-scale transfer studies:
// packet-level effects enter only through the TCP model's demand caps and
// slow-start penalty (see tcp_model.hpp and the transfer engine).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "net/fair_share.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace gridvc::net {

using FlowId = std::uint64_t;

/// How a flow left the network.
enum class FlowOutcome : std::uint8_t {
  kCompleted,  ///< delivered every byte
  kFailed,     ///< killed mid-flight by a link failure (fail_on_link_down)
};

/// Summary of a finished flow, passed to its completion callback.
struct FlowRecord {
  FlowId id = 0;
  Bytes size = 0;
  Bytes delivered = 0;  ///< bytes on the wire before completion or failure
  Seconds start_time = 0.0;
  Seconds end_time = 0.0;
  FlowOutcome outcome = FlowOutcome::kCompleted;
  /// Average achieved rate, size / (end - start).
  BitsPerSecond average_rate() const { return achieved_rate(size, end_time - start_time); }
};

/// Per-flow tuning knobs at start time.
struct FlowOptions {
  BitsPerSecond cap = 0.0;        ///< demand ceiling; <= 0 means unbounded
  BitsPerSecond guarantee = 0.0;  ///< reserved VC rate (0 = best effort)
  /// When true, a link failure on the flow's path aborts the flow and
  /// fires the completion callback with FlowOutcome::kFailed (GridFTP
  /// data channels want the error so they can cut a restart marker).
  /// When false (default) the flow merely stalls at rate 0 until the
  /// link is repaired — the behavior of long-lived cross traffic.
  bool fail_on_link_down = false;
};

class Network final : private sim::Deferred {
 public:
  using CompletionFn = std::function<void(const FlowRecord&)>;

  Network(sim::Simulator& sim, Topology topology);
  /// Withdraws a pending recompute, so a network destroyed mid-batch is
  /// never flushed.
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return topo_; }
  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }

  /// Inject a flow of `size` bytes along `path`. `on_complete` (may be
  /// null) fires when the last byte is delivered. Requires a non-empty
  /// valid path and size > 0.
  FlowId start_flow(Path path, Bytes size, FlowOptions options, CompletionFn on_complete);

  /// Change a flow's demand cap (e.g. the sending server's per-transfer
  /// share changed). <= 0 removes the cap. A loop of these (a server
  /// registration change moves every in-flight transfer's share) still
  /// costs one recompute.
  void update_cap(FlowId id, BitsPerSecond cap);

  /// Change a flow's reserved rate (e.g. its VC was set up or torn down
  /// mid-flow).
  void update_guarantee(FlowId id, BitsPerSecond guarantee);

  /// Remove a flow before completion; no callback fires.
  void abort_flow(FlowId id);

  /// Take a link down or bring it back up. Going down: the link's
  /// capacity drops to zero, flows that opted into fail_on_link_down and
  /// cross it are removed with FlowOutcome::kFailed (callback fires with
  /// the bytes delivered so far), and everything else crossing it stalls.
  /// Coming up: stalled flows are re-allocated. Idempotent per state.
  void set_link_state(LinkId id, bool up);

  /// Current up/down state of a link (links start up).
  bool link_up(LinkId id) const;

  /// Instantaneous allocated rate of an active flow. Runs a pending
  /// recompute first, so the answer reflects every change made so far.
  BitsPerSecond current_rate(FlowId id);

  /// Bytes still to deliver for an active flow (settled to now()).
  Bytes remaining_bytes(FlowId id);

  /// Bytes already delivered for an active flow (settled to now()).
  Bytes sent_bytes(FlowId id);

  /// Ids of all currently active flows, ascending. Traffic-engineering
  /// components poll this to discover flows worth watching.
  std::vector<FlowId> active_flows() const;

  /// Total size of an active flow.
  Bytes flow_size(FlowId id) const;

  std::size_t active_flow_count() const { return live_flows_; }

  /// Cumulative bytes carried by a directed link, settled to now().
  /// The SNMP collector samples this.
  double link_bytes(LinkId id);

  /// Bring byte accounting up to the current simulation time.
  void settle();

 private:
  struct ActiveFlow {
    FlowId id = 0;
    Path path;
    Bytes size = 0;
    double bytes_remaining = 0.0;
    BitsPerSecond cap = 0.0;
    BitsPerSecond guarantee = 0.0;
    BitsPerSecond rate = 0.0;
    Seconds start_time = 0.0;
    Seconds last_update = 0.0;  ///< bytes_remaining is settled to this time
    bool fail_on_link_down = false;
    bool retired = false;  ///< tombstone: gone, compacted by the next recompute
    CompletionFn on_complete;
    sim::EventHandle completion;
  };

  // The live flow `id`; throws PreconditionError naming `what` if it is
  // unknown or retired.
  ActiveFlow& live_flow(FlowId id, const char* what);
  // Turn `f` into a tombstone and mark the network dirty.
  void retire(ActiveFlow& f);
  // Advance one flow's byte progress (and its links' counters) to `now`.
  // Flows settle lazily at their own pace: progress is linear while the
  // rate holds, so only rate changes and reads force a settle.
  void settle_flow(ActiveFlow& f, Seconds now);
  // Every mutation ends here: register for the simulator's flush once per
  // dirty period.
  void mark_dirty();
  // sim::Deferred: the flush runs the batch's single recompute.
  void flush() override;
  void recompute();
  void complete_flow(FlowId id);

  sim::Simulator& sim_;
  Topology topo_;
  // Flat flow table in ascending FlowId order (ids are issued ascending,
  // so start_flow appends), which keeps allocation deterministic. Removed
  // flows stay as tombstones until the top of the next recompute, so an
  // ActiveFlow* or reference never survives a flush or a start_flow.
  std::vector<ActiveFlow> flows_;
  std::size_t live_flows_ = 0;
  std::vector<double> link_bytes_;
  std::vector<double> link_rate_scratch_;  ///< reused per recompute
  // Reused allocator inputs/scratch: recompute() performs zero heap
  // allocations once these reach the steady-state flow and used-link
  // counts.
  AllocWorkspace alloc_ws_;
  std::vector<FlowDemandRef> demand_scratch_;
  std::vector<LinkId> used_link_scratch_;   ///< used links, ascending id
  bool dirty_ = false;
  std::vector<char> link_up_;              ///< per-link up/down state
  std::vector<Seconds> link_down_since_;   ///< valid while the link is down
  FlowId next_id_ = 1;
  obs::MetricId id_recomputes_;
  obs::MetricId id_rate_changes_;
  obs::MetricId id_flows_started_;
  obs::MetricId id_flows_completed_;
  obs::MetricId id_flows_aborted_;
  obs::MetricId id_flows_failed_;
  obs::MetricId id_active_flows_;
  obs::MetricId id_link_utilization_;
  obs::MetricId id_link_failures_;
  obs::MetricId id_link_repairs_;
  obs::MetricId id_link_downtime_;
};

}  // namespace gridvc::net
