#include "frontend/daemon.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
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

Daemon::Daemon(sim::Simulator& sim, FrontEnd& front, WallClock& clock,
               DaemonConfig config)
    : sim_(sim),
      front_(front),
      clock_(clock),
      config_(std::move(config)),
      wire_{front_, sim_, config_.transfer_template} {
  GRIDVC_REQUIRE(config_.time_scale > 0.0, "time_scale must be positive");
}

Daemon::~Daemon() {
  // Only non-empty when run() threw part-way.
  for (const auto& [fd, c] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
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

int Daemon::serve_io(int timeout_ms) {
  epoll_event ready[64];
  const int n = ::epoll_wait(epoll_fd_, ready, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    if (ready[i].data.fd == listen_fd_) {
      accept_all();
    } else {
      on_ready(ready[i].data.fd, ready[i].events);
    }
  }
  return std::max(n, 0);  // EINTR counts as "nothing ready"
}

void Daemon::watch(int op, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  GRIDVC_REQUIRE(::epoll_ctl(epoll_fd_, op, fd, &ev) == 0,
                 std::string("epoll_ctl() failed: ") + std::strerror(errno));
}

void Daemon::accept_all() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: backlog empty
    }
    conns_[fd].events = EPOLLIN;
    watch(EPOLL_CTL_ADD, fd, EPOLLIN);
  }
}

void Daemon::on_ready(int fd, std::uint32_t events) {
  Connection& c = conns_.at(fd);
  // One chunk per turn, so a flooding client cannot starve the others.
  if ((c.events & EPOLLIN) != 0 && (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    char chunk[16384];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      c.in.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0, pos = 0;
      while ((pos = c.in.find('\n', start)) != std::string::npos) {
        handle_line(c, c.in.substr(start, pos - start));
        start = pos + 1;
      }
      c.in.erase(0, start);
      if (c.in.size() > kMaxLine) {
        // No request is this long: refuse it and hang up rather than
        // buffer an unterminated line without bound.
        std::string().swap(c.in);
        c.out += "{\"ok\":false,\"error\":\"request line too long\"}\n";
        c.eof = true;
      }
    } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
      c.eof = true;  // an unterminated last line is dropped
    }
  }
  flush(fd, c);
  update_interest(fd, c);
}

void Daemon::handle_line(Connection& c, const std::string& line) {
  ++requests_handled_;
  const WireResult r = handle_wire_line(wire_, line);
  if (r.opened_session) c.sessions.push_back(*r.opened_session);
  if (r.closed_session) {
    auto& v = c.sessions;
    v.erase(std::remove(v.begin(), v.end(), *r.closed_session), v.end());
  }
  c.out += r.response;
  c.out += '\n';
}

void Daemon::flush(int fd, Connection& c) {
  std::size_t sent = 0;
  while (sent < c.out.size()) {
    const ssize_t n = ::send(fd, c.out.data() + sent, c.out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;  // the rest waits for EPOLLOUT
    } else if (errno != EINTR) {
      // The client vanished mid-reply: its replies have nowhere to go,
      // and its EOF closes the connection.
      sent = c.out.size();
    }
  }
  c.out.erase(0, sent);
}

void Daemon::update_interest(int fd, Connection& c) {
  if (c.eof && c.out.empty()) {
    close_connection(fd);
    return;
  }
  std::uint32_t want = 0;
  if (!c.out.empty()) want |= EPOLLOUT;
  if (!c.eof && c.out.size() <= kMaxOutbox) want |= EPOLLIN;
  if (want == c.events) return;
  watch(EPOLL_CTL_MOD, fd, want);
  c.events = want;
}

void Daemon::close_connection(int fd) {
  const auto it = conns_.find(fd);
  for (const std::uint64_t session : it->second.sessions) {
    front_.disconnect(session);  // idempotent on already-closed sessions
  }
  conns_.erase(it);
  ::close(fd);  // also leaves the epoll set
}

std::uint64_t Daemon::run() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  GRIDVC_REQUIRE(listen_fd_ >= 0, "socket() failed");
  sockaddr_un addr;
  const socklen_t len = make_address(config_.socket_path, addr);
  if (config_.socket_path[0] != '@') ::unlink(config_.socket_path.c_str());
  GRIDVC_REQUIRE(
      ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), len) == 0,
      "bind('" + config_.socket_path + "') failed: " + std::strerror(errno));
  GRIDVC_REQUIRE(::listen(listen_fd_, 16) == 0, "listen() failed");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  GRIDVC_REQUIRE(epoll_fd_ >= 0, "epoll_create1() failed");
  watch(EPOLL_CTL_ADD, listen_fd_, EPOLLIN);

  const double scale = config_.time_scale;
  while (!shutdown_requested()) {
    // Pin sim time to the wall: nothing in the simulator may run ahead
    // of what the clock says has elapsed.
    sim_.run_until(clock_.now() * scale);
    if (clock_.is_virtual()) {
      // Virtual time: serve ready I/O, then jump the clock one sim
      // deadline per request answered (at least one per turn); block
      // briefly only when there is neither I/O nor a deadline. Jumping
      // only when no I/O is ready starves sim time once clients answer
      // faster than the loop turns: with clients on other cores a file
      // took ~220 requests to finish instead of ~2.
      const std::uint64_t before = requests_handled_;
      const bool io = serve_io(0) > 0;
      for (std::uint64_t n = std::max<std::uint64_t>(1, requests_handled_ - before); n > 0;
           --n) {
        const auto next = sim_.next_event_time();
        if (!next) {
          if (!io) serve_io(20);
          break;
        }
        clock_.advance_to(*next / scale);
        sim_.run_until(clock_.now() * scale);
      }
      continue;
    }
    // Real time: sleep on the sockets until the next sim event is due
    // (or a short heartbeat so shutdown is noticed promptly).
    int timeout_ms = 100;
    if (const auto next = sim_.next_event_time()) {
      const double wait_s = *next / scale - clock_.now();
      timeout_ms = std::clamp(static_cast<int>(wait_s * 1000.0) + 1, 0, 100);
    }
    serve_io(timeout_ms);
  }

  // Teardown, in drain order: stop new connections, answer what has
  // already arrived, fast-forward the simulator until the front-end
  // holds no unfinished work, then close the connections.
  ::close(listen_fd_);  // also leaves the epoll set
  listen_fd_ = -1;
  while (serve_io(10) > 0) {
  }
  front_.stop_reaper();
  while (!front_.quiescent()) {
    const auto next = sim_.next_event_time();
    if (!next) break;  // defensive: unfinished work must have events
    sim_.run_until(*next);
  }
  while (!conns_.empty()) {
    const auto it = conns_.begin();
    flush(it->first, it->second);  // best effort: the socket may be full
    close_connection(it->first);
  }
  ::close(epoll_fd_);
  epoll_fd_ = -1;
  if (config_.socket_path[0] != '@') ::unlink(config_.socket_path.c_str());
  return requests_handled_;
}

}  // namespace gridvc::frontend
