// Discrete-event simulation engine.
//
// All dynamic subsystems (the flow-level network, the GridFTP transfer
// engine, the virtual-circuit controller, cross-traffic sources, SNMP
// samplers) are driven by one Simulator. Events are (time, callback)
// pairs; ties are broken by insertion order so runs are deterministic.
//
// Scheduled events can be cancelled through the returned EventHandle —
// flow completions are rescheduled every time the fair-share allocator
// changes a flow's rate, so schedule/cancel is the hot path. Event
// records live in a slab: the binary heap holds only small POD entries
// {when, seq, slot, generation}, a cancel is a generation bump (no heap
// surgery), and stale heap entries are skipped at pop time and compacted
// away in bulk once dead entries outnumber live ones.
//
// Deferred work: a subsystem whose reaction to a burst of mutations can
// wait until the burst is over (the network's fair-share recompute)
// registers a Deferred once per dirty period. The simulator flushes every
// registration before it next looks at its queue — at the top of each
// dispatch batch, step() and next_event_time() — so the reaction still
// runs at the timestamp of the mutations, before time can advance, and
// one pass serves the whole same-timestamp batch.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "obs/observability.hpp"

namespace gridvc::sim {

class Simulator;

/// Cancellation token for a scheduled event. Copyable; all copies refer to
/// the same scheduled occurrence. Handles must not outlive the Simulator
/// that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Idempotent; safe after the event fired.
  void cancel();

  /// True if the event has neither fired nor been cancelled. For periodic
  /// events, true until the series is cancelled or its callback stops it.
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint64_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

/// A batched reaction to same-timestamp mutations (see the file comment).
/// Registered through Simulator::defer; flush() runs once per
/// registration, at the current time, before the queue is next examined.
class Deferred {
 public:
  virtual void flush() = 0;

 protected:
  ~Deferred() = default;
};

/// The event loop.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Lifetime scheduling/dispatch totals (diagnostics; benches and tests
  /// assert on churn through these). Since the observability layer landed
  /// this is a read shim over the metrics registry (gridvc_sim_*): the
  /// counters live in registry slots and this struct is assembled on
  /// demand, so existing call sites keep compiling unchanged.
  struct Counters {
    std::uint64_t scheduled = 0;   ///< queue pushes, including periodic re-arms
    std::uint64_t cancelled = 0;   ///< events killed before firing
    std::uint64_t dispatched = 0;  ///< callbacks actually run
    std::size_t live = 0;          ///< events currently awaiting dispatch
  };

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The simulation's observability context (metrics registry + trace
  /// sink). Every subsystem that holds the simulator instruments itself
  /// through this.
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }

  /// Current simulation time (seconds since epoch 0).
  Seconds now() const { return now_; }

  /// Schedule `fn` at absolute time `when`. Scheduling in the past (before
  /// now()) is a precondition violation.
  EventHandle schedule_at(Seconds when, Callback fn);

  /// Schedule `fn` after `delay` seconds. Requires delay >= 0.
  EventHandle schedule_in(Seconds delay, Callback fn);

  /// Schedule `fn` every `period` seconds, first firing at `start`.
  /// The callback returns true to continue, false to stop.
  EventHandle schedule_periodic(Seconds start, Seconds period, std::function<bool()> fn);

  /// Run until the queue is empty. Events sharing a timestamp are popped
  /// from the heap as one batch and dispatched back to back (in seq
  /// order, so FIFO tie-breaking is unchanged) — the heap is touched
  /// once per batch instead of being re-examined between every pair of
  /// simultaneous events. Not reentrant: callbacks must not call run().
  void run();

  /// Run events with time <= `deadline`; afterwards now() == max(now, deadline).
  /// Uses the same batched dispatch as run().
  void run_until(Seconds deadline);

  /// Process exactly one event if any is queued; returns false when empty.
  bool step();

  /// Register `work` to flush before the queue is next examined. The
  /// caller registers at most once per dirty period (flush() or
  /// cancel_deferred ends it); flushes run in registration order and may
  /// schedule events or register again.
  void defer(Deferred& work);

  /// Withdraw a pending registration (a subsystem flushing itself early,
  /// or being destroyed while dirty). No-op when not registered.
  void cancel_deferred(Deferred& work);

  /// Flushes pending deferred work, then returns the timestamp of the
  /// earliest live event, or nothing when idle. Drops
  /// cancelled tombstones off the heap top as a side effect; O(1) amortized.
  /// Conservative lookahead scheduling (src/shard/) polls this every
  /// barrier round to pick the next epoch horizon.
  std::optional<Seconds> next_event_time();

  /// Number of events dispatched so far (diagnostics).
  std::uint64_t dispatched() const { return obs_.registry().counter_value(id_dispatched_); }

  /// Number of queue pushes so far, periodic re-arms included.
  std::uint64_t scheduled() const { return obs_.registry().counter_value(id_scheduled_); }

  /// Number of events cancelled before they could fire.
  std::uint64_t cancelled() const { return obs_.registry().counter_value(id_cancelled_); }

  /// Events currently scheduled and neither fired nor cancelled.
  std::size_t live_events() const { return live_; }

  /// Snapshot of all lifetime counters (registry reads; see Counters).
  Counters counters() const {
    return Counters{scheduled(), cancelled(), dispatched(), live_};
  }

  /// True when no live (non-cancelled) events remain and no deferred work
  /// awaits its flush. Exact: cancelled tombstones still sitting in the
  /// heap do not count as busy.
  bool idle() const { return live_ == 0 && deferred_.empty(); }

 private:
  friend class EventHandle;

  /// One slab record. A slot is live while its event awaits dispatch (or,
  /// for periodic series, for the whole series); the generation is bumped
  /// on every release so stale heap entries and stale handles miss.
  struct Slot {
    std::uint64_t generation = 1;
    Callback fn;                   // one-shot payload
    std::function<bool()> repeat;  // periodic payload
    Seconds period = 0.0;
    bool live = false;
    bool periodic = false;
  };

  /// Heap entry: POD only; the callback stays in the slab.
  struct QueuedEvent {
    Seconds when;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    std::uint32_t slot;
    std::uint64_t generation;
  };
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void push_entry(Seconds when, std::uint32_t slot, std::uint64_t generation);
  bool entry_live(const QueuedEvent& e) const;
  // Runs every pending deferred flush (including ones registered by a
  // flush) and clears the registration list.
  void flush_deferred();
  // Pops stale entries (released or re-armed-elsewhere slots) off the top.
  void drop_dead_events();
  // Rebuilds the heap without tombstones once they outnumber live events.
  void maybe_compact();
  // Flushes deferred work, then pops every live entry sharing the
  // earliest timestamp <= deadline into batch_ (seq order preserved).
  // Returns false when nothing qualifies.
  bool collect_batch(Seconds deadline);
  // Runs one popped entry: advances now_, counts the dispatch, fires the
  // callback (re-arming periodic series). The entry must be live.
  void dispatch_entry(const QueuedEvent& e);

  void cancel_event(std::uint32_t slot, std::uint64_t generation);
  bool event_pending(std::uint32_t slot, std::uint64_t generation) const;

  void set_live(std::size_t live) {
    live_ = live;
    obs_.registry().set(id_live_, static_cast<double>(live));
  }

  obs::Observability obs_;  // first: metric ids below are registered from it
  obs::MetricId id_scheduled_;
  obs::MetricId id_cancelled_;
  obs::MetricId id_dispatched_;
  obs::MetricId id_compactions_;
  obs::MetricId id_batches_;
  obs::MetricId id_live_;
  std::vector<QueuedEvent> heap_;
  std::vector<QueuedEvent> batch_;  // same-timestamp dispatch buffer
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Deferred*> deferred_;  // registration order
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace gridvc::sim
