#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace gridvc::sim {

void EventHandle::cancel() {
  if (sim_) sim_->cancel_event(slot_, generation_);
}

bool EventHandle::pending() const { return sim_ && sim_->event_pending(slot_, generation_); }

Simulator::Simulator() {
  obs::MetricsRegistry& reg = obs_.registry();
  id_scheduled_ = reg.counter("gridvc_sim_events_scheduled",
                              "Queue pushes, periodic re-arms included");
  id_cancelled_ = reg.counter("gridvc_sim_events_cancelled",
                              "Events killed before firing");
  id_dispatched_ = reg.counter("gridvc_sim_events_dispatched",
                               "Callbacks actually run");
  id_compactions_ = reg.counter("gridvc_sim_heap_compactions",
                                "Tombstone-purging heap rebuilds");
  id_batches_ = reg.counter("gridvc_sim_dispatch_batches",
                            "Same-timestamp dispatch batches drained by run()");
  id_live_ = reg.gauge("gridvc_sim_events_live",
                       "Events currently awaiting dispatch");
}

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.generation;  // invalidates stale heap entries and handles
  s.fn = nullptr;
  s.repeat = nullptr;
  s.live = false;
  s.periodic = false;
  free_slots_.push_back(slot);
}

void Simulator::push_entry(Seconds when, std::uint32_t slot, std::uint64_t generation) {
  heap_.push_back(QueuedEvent{when, next_seq_++, slot, generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  obs_.registry().add(id_scheduled_);
}

bool Simulator::entry_live(const QueuedEvent& e) const {
  const Slot& s = slots_[e.slot];
  return s.live && s.generation == e.generation;
}

EventHandle Simulator::schedule_at(Seconds when, Callback fn) {
  GRIDVC_REQUIRE(when >= now_, "cannot schedule an event in the past");
  GRIDVC_REQUIRE(fn != nullptr, "cannot schedule a null callback");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  set_live(live_ + 1);
  push_entry(when, slot, s.generation);
  return EventHandle(this, slot, s.generation);
}

EventHandle Simulator::schedule_in(Seconds delay, Callback fn) {
  GRIDVC_REQUIRE(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_periodic(Seconds start, Seconds period,
                                         std::function<bool()> fn) {
  GRIDVC_REQUIRE(period > 0.0, "periodic event needs a positive period");
  GRIDVC_REQUIRE(fn != nullptr, "cannot schedule a null callback");
  // One slot carries the whole series: each firing re-arms the same slot
  // under the same generation, so the handle stays valid throughout.
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.repeat = std::move(fn);
  s.period = period;
  s.live = true;
  s.periodic = true;
  set_live(live_ + 1);
  push_entry(start, slot, s.generation);
  return EventHandle(this, slot, s.generation);
}

void Simulator::cancel_event(std::uint32_t slot, std::uint64_t generation) {
  if (slot >= slots_.size()) return;
  const Slot& s = slots_[slot];
  if (!s.live || s.generation != generation) return;  // already fired/cancelled
  release_slot(slot);
  obs_.registry().add(id_cancelled_);
  set_live(live_ - 1);
  maybe_compact();
}

bool Simulator::event_pending(std::uint32_t slot, std::uint64_t generation) const {
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  return s.live && s.generation == generation;
}

void Simulator::defer(Deferred& work) { deferred_.push_back(&work); }

void Simulator::cancel_deferred(Deferred& work) { std::erase(deferred_, &work); }

void Simulator::flush_deferred() {
  // Index loop: a flush may append new registrations, which run in turn.
  for (std::size_t i = 0; i < deferred_.size(); ++i) deferred_[i]->flush();
  deferred_.clear();
}

void Simulator::drop_dead_events() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void Simulator::maybe_compact() {
  // Rebuild only when tombstones exceed half the heap; the rebuild is
  // O(heap) and amortizes against the cancels that created the garbage.
  if (heap_.size() < 64 || heap_.size() <= live_ * 2) return;
  std::erase_if(heap_, [this](const QueuedEvent& e) { return !entry_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  obs_.registry().add(id_compactions_);
}

void Simulator::dispatch_entry(const QueuedEvent& e) {
  now_ = e.when;
  obs_.registry().add(id_dispatched_);
  if (!slots_[e.slot].periodic) {
    // Move the callback out and free the slot *before* running it: the
    // handle reads as consumed inside the callback, and the callback may
    // schedule/cancel freely (including reusing this slot).
    Callback fn = std::move(slots_[e.slot].fn);
    release_slot(e.slot);
    set_live(live_ - 1);
    fn();
  } else {
    std::function<bool()> fn = std::move(slots_[e.slot].repeat);
    const Seconds period = slots_[e.slot].period;
    const bool keep_going = fn();
    // Re-fetch: the callback may have grown the slab or cancelled the
    // series (which bumps the generation).
    Slot& s = slots_[e.slot];
    if (s.live && s.generation == e.generation) {
      if (keep_going) {
        s.repeat = std::move(fn);
        push_entry(e.when + period, e.slot, e.generation);
      } else {
        release_slot(e.slot);
        set_live(live_ - 1);
      }
    }
  }
}

bool Simulator::step() {
  flush_deferred();
  while (!heap_.empty()) {
    const QueuedEvent top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (!entry_live(top)) continue;  // tombstone
    dispatch_entry(top);
    return true;
  }
  return false;
}

std::optional<Seconds> Simulator::next_event_time() {
  flush_deferred();
  drop_dead_events();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().when;
}

bool Simulator::collect_batch(Seconds deadline) {
  flush_deferred();
  drop_dead_events();
  if (heap_.empty() || heap_.front().when > deadline) return false;
  const Seconds when = heap_.front().when;
  batch_.clear();
  while (!heap_.empty() && heap_.front().when == when) {
    const QueuedEvent top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (entry_live(top)) batch_.push_back(top);
  }
  obs_.registry().add(id_batches_);
  return true;
}

void Simulator::run() {
  // Same-timestamp events drain as one batch: the heap is popped once per
  // timestamp group, and callbacks that schedule *new* work at the same
  // time still interleave correctly — their seq numbers are larger than
  // every batched entry's, so the next collect_batch picks them up at the
  // same timestamp, after this batch, exactly as FIFO tie-breaking demands.
  while (collect_batch(std::numeric_limits<Seconds>::infinity())) {
    GRIDVC_PROF_ZONE("sim.dispatch_batch");
    for (const QueuedEvent& e : batch_) {
      // A callback earlier in the batch may have cancelled this entry (or
      // released and re-armed its slot): re-check liveness at dispatch.
      if (!entry_live(e)) continue;
      dispatch_entry(e);
    }
  }
}

void Simulator::run_until(Seconds deadline) {
  GRIDVC_REQUIRE(deadline >= now_, "run_until deadline is in the past");
  while (collect_batch(deadline)) {
    GRIDVC_PROF_ZONE("sim.dispatch_batch");
    for (const QueuedEvent& e : batch_) {
      if (!entry_live(e)) continue;
      dispatch_entry(e);
    }
  }
  now_ = deadline;
}

}  // namespace gridvc::sim
