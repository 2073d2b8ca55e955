// Sharded multi-domain parallel simulation with conservative lookahead.
//
// One logical world per administrative domain, always: each world owns a
// full vertical stack — Simulator, Network over the domain's local
// topology, Idc, GridFTP servers, transfer engine, workload state — and
// worlds interact only through latency-stamped ShardMessages exchanged at
// barriers. `--shards N` sets how many executor lanes run the worlds in
// parallel; it never changes the decomposition, the message streams, or
// any event order, so digests are byte-identical at any shard count and
// shards=1 *is* the serial reference path (same code, inline execution).
//
// Synchronization is a synchronous conservative protocol (the barrier
// variant of null-message lookahead):
//
//   barrier k:  deliver all queued messages (sorted by (deliver_time,
//               src_domain, seq)) into their destination simulators;
//               t* = min over worlds of next_event_time();
//               E = t* + lookahead   (lookahead = min gateway delay);
//   epoch k:    every world with an event <= E runs run_until(E) on the
//               pool — a world with nothing due before E is *stalled*
//               this epoch (the lookahead-stall fraction reported by
//               bench_shard_scale counts exactly these).
//
// Safety: a message sent at local time t carries deliver_time
// t + gateway.delay >= t* + lookahead = E, so nothing sent during an
// epoch can land inside it — no world ever executes past what a
// neighbor could still affect. Progress: E > t* strictly (lookahead is
// required positive), so every barrier round dispatches at least one
// event somewhere.
//
// Cross-domain transfers are executed store-and-forward: the origin
// world runs the first per-domain leg through its own transfer engine,
// hands the file to the next domain's border relay cluster over the
// gateway channel, and so on; the final world counts the delivery and a
// completion relay walks the reverse gateways back, releasing each
// domain's chain circuit and finally the origin host's concurrency slot.
// VC chains book hop-by-hop (kVcBook forward, kVcBookOk/kVcBookReject
// backward) against each world's local Idc — the message-passing twin of
// InterdomainCoordinator's two-phase chain booking.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "shard/channel.hpp"
#include "shard/partition.hpp"
#include "workload/federation.hpp"

namespace gridvc::shard {

struct ShardStats {
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t segments_completed = 0;
  std::uint64_t chains_requested = 0;
  std::uint64_t chains_granted = 0;
  std::uint64_t chains_rejected = 0;
  std::uint64_t messages = 0;
  std::uint64_t message_hash = 0xcbf29ce484222325ULL;  ///< FNV-1a over the stream
  std::uint64_t barriers = 0;
  std::uint64_t events_dispatched = 0;   ///< summed over worlds at the end
  std::uint64_t stalled_world_epochs = 0;
  std::uint64_t world_epoch_slots = 0;   ///< barriers x worlds
  std::uint64_t peak_open_sessions = 0;  ///< sampled at barriers
  Bytes bytes_planned = 0;
  Bytes bytes_delivered = 0;
  Seconds end_time = 0.0;

  /// Fraction of (world, epoch) slots that sat out their epoch waiting on
  /// the lookahead horizon.
  double stall_fraction() const {
    return world_epoch_slots == 0
               ? 0.0
               : static_cast<double>(stalled_world_epochs) /
                     static_cast<double>(world_epoch_slots);
  }
};

class ShardedSimulation {
 public:
  /// `shards` = executor lanes (>= 1). The scenario must outlive the
  /// simulation.
  ShardedSimulation(const workload::FederationScenario& scenario, unsigned shards);
  ~ShardedSimulation();
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  /// Run to completion (all users served, all channels drained), then
  /// audit the cross-world invariants.
  void run();

  const ShardStats& stats() const { return stats_; }
  const DomainPartition& partition() const { return partition_; }
  unsigned shards() const { return shards_; }

  /// Deterministic run fingerprint; byte-identical at any shard count.
  std::string digest() const;

  /// Invariant violations found by run()'s final audit (empty = clean):
  /// every planned transfer completed, bytes conserved across worlds,
  /// every chain circuit released, every queue/gauge drained.
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  struct DomainWorld;

  void exchange();
  void audit();

  const workload::FederationScenario& scenario_;
  DomainPartition partition_;
  unsigned shards_;
  exec::ThreadPool pool_;
  std::vector<std::unique_ptr<DomainWorld>> worlds_;
  std::vector<DomainWorld*> active_;      ///< scratch: worlds due this epoch
  std::vector<Seconds> next_times_;       ///< scratch: per-world next event
  std::vector<ShardMessage> pending_;     ///< scratch: barrier exchange buffer
  ShardStats stats_;
  std::vector<std::string> violations_;
};

}  // namespace gridvc::shard
