// Wall-clock daemon: the admission front-end as a long-running process.
//
// Everything below the front-end is a discrete-event simulation; the
// daemon glues it to real clients. Threading follows the classic
// receiver/handler split (one message loop owns all state, I/O threads
// only produce):
//
//   accept thread     blocking accept() on a unix-domain socket; spawns
//                     one reader thread per connection.
//   reader threads    split the connection's byte stream into lines and
//                     push {connection, line} into a *bounded* ring.
//                     When the ring is full the push blocks — the TCP
//                     buffer and then the client stall, which is the
//                     transport-level backpressure story: an overloaded
//                     daemon slows readers before it drops work. A
//                     reader's last item is its connection's EOF; the
//                     handler joins the reader and closes the fd when it
//                     handles that item, so a closed connection leaves
//                     no thread stack or fd behind.
//   handler loop      (Daemon::run, caller's thread) alternates between
//                     advancing the simulator to the wall-clock-mapped
//                     sim time and executing ring items against the
//                     wire protocol. The only thread that touches the
//                     simulator, the front-end, or writes to sockets.
//
// Time mapping: sim_time = clock.now() * time_scale. With a
// SteadyWallClock the handler sleeps until the next sim event is due or
// a request arrives; with a TestWallClock it jumps the clock to the
// next deadline instead, replaying hours of sim time in milliseconds
// through the very same loop (the CI smoke runs this way).
//
// Shutdown: SIGTERM (or request_shutdown()) stops the accept loop,
// drains the ring, runs the simulator until the front-end is quiescent
// (no queued tickets, no in-flight work), disarms the idle reaper, and
// returns. Clean drain is asserted by tests/cli_daemon_smoke.cmake.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "frontend/wall_clock.hpp"
#include "frontend/wire.hpp"

namespace gridvc::frontend {

/// Bounded MPSC queue between reader threads and the handler loop.
/// push() blocks while full (producer backpressure); pop() waits up to
/// a timeout so the handler can interleave sim work and notice
/// shutdown without a wakeup channel.
class RequestRing {
 public:
  struct Item {
    int connection = -1;
    std::string line;
    bool eof = false;  ///< connection closed; line is empty
  };

  explicit RequestRing(std::size_t capacity);
  void push(Item item);
  bool pop(Item& out, int timeout_ms);
  std::size_t depth() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Item> items_;
  std::size_t capacity_;
};

struct DaemonConfig {
  /// Unix-domain socket path. A leading '@' selects the Linux abstract
  /// namespace (no filesystem entry, no unlink bookkeeping).
  std::string socket_path;
  /// Sim seconds per wall second (real clocks only; a virtual clock
  /// already moves in sim-deadline jumps).
  double time_scale = 1.0;
  std::size_t ring_capacity = 256;
  /// Server-side transfer template (endpoints are configuration, not
  /// client input).
  gridftp::TransferSpec transfer_template;
};

class Daemon {
 public:
  /// The simulator, front-end, and clock must outlive the daemon.
  Daemon(sim::Simulator& sim, FrontEnd& front, WallClock& clock,
         DaemonConfig config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind, listen, serve. Blocks until shutdown is requested and the
  /// front-end has drained. Returns the number of requests handled.
  std::uint64_t run();

  /// Ask run() to wind down (thread-safe; also set by the SIGTERM
  /// handler installed via install_sigterm_handler).
  void request_shutdown() { shutdown_.store(true); }
  bool shutdown_requested() const;

  /// Route SIGTERM/SIGINT into the shutdown flag via sigaction (the
  /// handler only sets a process-wide sig_atomic_t that every Daemon's
  /// shutdown_requested() observes).
  static void install_sigterm_handler();

 private:
  void accept_loop();
  void reader_loop(int connection);
  void handle_item(const RequestRing::Item& item);
  void drop_connection(int connection);
  bool drained() const;

  sim::Simulator& sim_;
  FrontEnd& front_;
  WallClock& clock_;
  DaemonConfig config_;
  WireContext wire_;
  RequestRing ring_;
  std::atomic<bool> shutdown_{false};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::mutex readers_mu_;
  /// Open connections (fd -> its reader thread), guarded by readers_mu_.
  std::map<int, std::thread> readers_;
  /// Sessions opened per connection, so EOF disconnects them (handler
  /// thread only).
  std::map<int, std::vector<std::uint64_t>> connection_sessions_;
  std::uint64_t requests_handled_ = 0;
};

}  // namespace gridvc::frontend
