// Pluggable wall-clock abstraction for the daemon.
//
// The whole simulator stack runs in virtual seconds; a daemon serving
// real clients has to pin those seconds to something. WallClock is that
// pin: the daemon reads clock.now(), multiplies by the configured
// time-scale, and runs the simulator up to the resulting sim time
// before answering requests. Two implementations:
//
//   SteadyWallClock  real time (std::chrono::steady_clock since
//                    construction) — production daemon mode.
//   TestWallClock    virtual time the daemon *jumps* to the next sim
//                    deadline whenever it would otherwise sleep, so CI
//                    smoke tests replay hours of sim activity in
//                    milliseconds while exercising the same code path.
#pragma once

#include "common/units.hpp"

namespace gridvc::frontend {

class WallClock {
 public:
  virtual ~WallClock() = default;

  /// Seconds since the clock's epoch (construction). Monotonic.
  virtual Seconds now() const = 0;

  /// True for virtual clocks: instead of sleeping until a deadline the
  /// daemon calls advance_to() and proceeds immediately.
  virtual bool is_virtual() const { return false; }

  /// Jump a virtual clock forward (never backward). No-op on real
  /// clocks — they advance on their own.
  virtual void advance_to(Seconds /*t*/) {}
};

/// Real time: std::chrono::steady_clock, epoch at construction.
class SteadyWallClock final : public WallClock {
 public:
  SteadyWallClock();
  Seconds now() const override;

 private:
  double epoch_ns_;
};

/// Manually-driven time for tests and the CI daemon smoke. Owned and
/// advanced by the daemon's loop; not thread-safe.
class TestWallClock final : public WallClock {
 public:
  Seconds now() const override { return now_; }
  bool is_virtual() const override { return true; }
  void advance_to(Seconds t) override {
    if (t > now_) now_ = t;
  }

 private:
  Seconds now_ = 0.0;
};

}  // namespace gridvc::frontend
