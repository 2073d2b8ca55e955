// Wall-clock daemon: the admission front-end as a long-running process.
//
// Everything below the front-end is a discrete-event simulation; the
// daemon glues it to real clients. It is one thread: Daemon::run, on the
// caller's thread, is a non-blocking epoll loop that owns the listen
// socket, every connection, the simulator and the front-end. Nothing is
// handed between threads, so a request costs one wake-up, not three.
//
//   accept       the listen fd is non-blocking; each readiness accepts
//                every pending connection (accept4, SOCK_NONBLOCK).
//   read         at most one chunk per ready connection per loop turn;
//                the bytes are split on '\n' and each complete line goes
//                straight to handle_wire_line.
//   write        replies are appended to the connection's outbox and
//                sent right away; what the socket does not take waits
//                for EPOLLOUT.
//   backpressure per connection: while a connection's outbox holds more
//                than kMaxOutbox bytes the daemon stops reading it, so
//                its socket buffer and then its client stall. A client that
//                does not read its replies stalls only itself, never the
//                other tenants or the SIGTERM drain. A pending line longer
//                than kMaxLine gets an error reply and the connection is
//                closed, so input is bounded too.
//
// Time mapping: sim_time = clock.now() * time_scale. Each loop turn first
// runs the simulator to the mapped time. With a SteadyWallClock the loop
// sleeps in epoll_wait until the next sim event is due (at most 100 ms);
// with a TestWallClock it handles ready I/O, then jumps the clock one sim
// deadline per request answered (at least one per turn), replaying hours
// of sim time in milliseconds through the very same loop (the CI smoke
// runs this way). Pacing the jumps by requests keeps sim time moving
// however fast clients answer.
//
// Shutdown: SIGTERM (or request_shutdown()) stops accepting, answers what
// has already arrived, runs the simulator until the front-end is quiescent
// (no queued tickets, no in-flight work), disarms the idle reaper, closes
// the connections, and returns. Clean drain is asserted by
// tests/cli_daemon_smoke.cmake.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "frontend/wall_clock.hpp"
#include "frontend/wire.hpp"

namespace gridvc::frontend {

struct DaemonConfig {
  /// Unix-domain socket path. A leading '@' selects the Linux abstract
  /// namespace (no filesystem entry, no unlink bookkeeping).
  std::string socket_path;
  /// Sim seconds per wall second (real clocks only; a virtual clock
  /// already moves in sim-deadline jumps).
  double time_scale = 1.0;
  /// Server-side transfer template (endpoints are configuration, not
  /// client input).
  gridftp::TransferSpec transfer_template;
};

class Daemon {
 public:
  /// Unsent reply bytes above which a connection is no longer read.
  static constexpr std::size_t kMaxOutbox = std::size_t{1} << 20;
  /// Longest unterminated request line a connection may send; past it the
  /// daemon answers with an error and closes the connection.
  static constexpr std::size_t kMaxLine = kMaxOutbox;

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
  struct Connection {
    std::string in;   ///< bytes read but not yet a complete line
    std::string out;  ///< replies the socket has not taken yet
    std::vector<std::uint64_t> sessions;  ///< opened here; EOF disconnects them
    std::uint32_t events = 0;  ///< current epoll interest
    bool eof = false;          ///< peer sent EOF; close once out is flushed
  };

  int serve_io(int timeout_ms);
  void watch(int op, int fd, std::uint32_t events);  ///< epoll_ctl or throw
  void accept_all();
  void on_ready(int fd, std::uint32_t events);
  void handle_line(Connection& c, const std::string& line);
  static void flush(int fd, Connection& c);
  void update_interest(int fd, Connection& c);
  void close_connection(int fd);

  sim::Simulator& sim_;
  FrontEnd& front_;
  WallClock& clock_;
  DaemonConfig config_;
  WireContext wire_;
  std::atomic<bool> shutdown_{false};
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::unordered_map<int, Connection> conns_;
  std::uint64_t requests_handled_ = 0;
};

}  // namespace gridvc::frontend
