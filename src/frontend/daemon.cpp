#include "frontend/daemon.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstring>

#include "common/error.hpp"

namespace gridvc::frontend {

namespace {

volatile std::sig_atomic_t g_sigterm = 0;

void on_sigterm(int /*signo*/) { g_sigterm = 1; }

/// Fill a sockaddr_un for `path`; '@' prefix = Linux abstract namespace.
socklen_t make_address(const std::string& path, sockaddr_un& addr) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  GRIDVC_REQUIRE(!path.empty(), "socket path must not be empty");
  GRIDVC_REQUIRE(path.size() < sizeof(addr.sun_path),
                 "socket path too long for sun_path");
  if (path[0] == '@') {
    // Abstract socket: leading NUL byte, name after it, no filesystem
    // entry. The address length must cover exactly the used bytes.
    std::memcpy(addr.sun_path + 1, path.data() + 1, path.size() - 1);
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size());
  }
  std::memcpy(addr.sun_path, path.data(), path.size());
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size() + 1);
}

}  // namespace

RequestRing::RequestRing(std::size_t capacity) : capacity_(capacity) {
  GRIDVC_REQUIRE(capacity > 0, "ring capacity must be positive");
}

void RequestRing::push(Item item) {
  std::unique_lock<std::mutex> lk(mu_);
  not_full_.wait(lk, [&] { return items_.size() < capacity_; });
  items_.push_back(std::move(item));
  not_empty_.notify_one();
}

bool RequestRing::pop(Item& out, int timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  if (timeout_ms > 0) {
    not_empty_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                        [&] { return !items_.empty(); });
  }
  if (items_.empty()) return false;
  out = std::move(items_.front());
  items_.pop_front();
  not_full_.notify_one();
  return true;
}

std::size_t RequestRing::depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return items_.size();
}

Daemon::Daemon(sim::Simulator& sim, FrontEnd& front, WallClock& clock,
               DaemonConfig config)
    : sim_(sim),
      front_(front),
      clock_(clock),
      config_(std::move(config)),
      wire_{front_, sim_, config_.transfer_template},
      ring_(config_.ring_capacity) {
  GRIDVC_REQUIRE(config_.time_scale > 0.0, "time_scale must be positive");
}

Daemon::~Daemon() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::lock_guard<std::mutex> lk(readers_mu_);
  for (auto& [fd, t] : readers_) {
    if (t.joinable()) t.join();
  }
}

void Daemon::install_sigterm_handler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_sigterm;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

bool Daemon::shutdown_requested() const {
  return shutdown_.load() || g_sigterm != 0;
}

void Daemon::accept_loop() {
  while (!shutdown_requested()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down by the teardown path
    }
    std::lock_guard<std::mutex> lk(readers_mu_);
    readers_.emplace(fd, std::thread(&Daemon::reader_loop, this, fd));
  }
}

void Daemon::reader_loop(int connection) {
  std::string pending;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(connection, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    pending.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while ((pos = pending.find('\n')) != std::string::npos) {
      ring_.push({connection, pending.substr(0, pos), false});
      pending.erase(0, pos + 1);
    }
  }
  ring_.push({connection, std::string(), true});
}

void Daemon::handle_item(const RequestRing::Item& item) {
  if (item.eof) {
    drop_connection(item.connection);
    return;
  }
  ++requests_handled_;
  const WireResult r = handle_wire_line(wire_, item.line);
  if (r.opened_session) {
    connection_sessions_[item.connection].push_back(*r.opened_session);
  }
  if (r.closed_session) {
    const auto it = connection_sessions_.find(item.connection);
    if (it != connection_sessions_.end()) {
      auto& v = it->second;
      v.erase(std::remove(v.begin(), v.end(), *r.closed_session), v.end());
    }
  }
  const std::string out = r.response + "\n";
  // Best-effort: a client that vanished mid-reply is cleaned up when
  // its reader reports EOF. MSG_NOSIGNAL keeps SIGPIPE out of it.
  (void)::send(item.connection, out.data(), out.size(), MSG_NOSIGNAL);
}

void Daemon::drop_connection(int connection) {
  const auto it = connection_sessions_.find(connection);
  if (it != connection_sessions_.end()) {
    for (const std::uint64_t session : it->second) {
      front_.disconnect(session);  // idempotent on already-closed sessions
    }
    connection_sessions_.erase(it);
  }
  // The EOF item is the reader's last push, so the join is short. The fd
  // leaves readers_ before it is closed: accept() may hand the number out
  // again right after.
  std::thread reader;
  {
    std::lock_guard<std::mutex> lk(readers_mu_);
    const auto r = readers_.find(connection);
    if (r != readers_.end()) {
      reader = std::move(r->second);
      readers_.erase(r);
    }
  }
  if (reader.joinable()) reader.join();
  ::close(connection);
}

std::uint64_t Daemon::run() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  GRIDVC_REQUIRE(listen_fd_ >= 0, "socket() failed");
  sockaddr_un addr;
  const socklen_t len = make_address(config_.socket_path, addr);
  if (config_.socket_path[0] != '@') ::unlink(config_.socket_path.c_str());
  GRIDVC_REQUIRE(
      ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), len) == 0,
      "bind('" + config_.socket_path + "') failed: " + std::strerror(errno));
  GRIDVC_REQUIRE(::listen(listen_fd_, 16) == 0, "listen() failed");
  accept_thread_ = std::thread(&Daemon::accept_loop, this);

  const double scale = config_.time_scale;
  RequestRing::Item item;
  while (!shutdown_requested()) {
    // Pin sim time to the wall: nothing in the simulator may run ahead
    // of what the clock says has elapsed.
    sim_.run_until(clock_.now() * scale);
    if (clock_.is_virtual()) {
      // Virtual time: requests first, then jump to the next deadline;
      // idle only when both the ring and the event queue are empty.
      if (ring_.pop(item, 0)) {
        handle_item(item);
      } else if (const auto next = sim_.next_event_time()) {
        clock_.advance_to(*next / scale);
      } else if (ring_.pop(item, 20)) {
        handle_item(item);
      }
      continue;
    }
    // Real time: sleep on the ring until the next sim event is due (or
    // a short heartbeat so shutdown is noticed promptly).
    int timeout_ms = 100;
    if (const auto next = sim_.next_event_time()) {
      const double wait_s = *next / scale - clock_.now();
      timeout_ms = std::clamp(static_cast<int>(wait_s * 1000.0) + 1, 0, 100);
    }
    if (ring_.pop(item, timeout_ms)) handle_item(item);
  }

  // Teardown, in drain order: stop new connections, answer what is
  // already in the ring, fast-forward the simulator until the front-end
  // holds no unfinished work, then tear the transport down.
  ::shutdown(listen_fd_, SHUT_RDWR);
  while (ring_.pop(item, 10)) handle_item(item);
  front_.stop_reaper();
  while (!front_.quiescent()) {
    const auto next = sim_.next_event_time();
    if (!next) break;  // defensive: unfinished work must have events
    sim_.run_until(*next);
  }
  {
    std::lock_guard<std::mutex> lk(readers_mu_);
    for (const auto& [fd, t] : readers_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lk(readers_mu_);
    for (auto& [fd, t] : readers_) {
      if (t.joinable()) t.join();
    }
  }
  while (ring_.pop(item, 0)) handle_item(item);  // pending EOFs close fds
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (config_.socket_path[0] != '@') ::unlink(config_.socket_path.c_str());
  return requests_handled_;
}

}  // namespace gridvc::frontend
