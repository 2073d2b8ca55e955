#include "frontend/wire.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "frontend/daemon.hpp"
#include "frontend/wall_clock.hpp"
#include "net/network.hpp"
#include "obs/profile_io.hpp"

namespace gridvc::frontend {
namespace {

using gridftp::IoMode;
using gridftp::Server;
using gridftp::ServerConfig;
using gridftp::TransferEngine;
using gridftp::TransferEngineConfig;
using gridftp::TransferService;
using gridftp::TransferServiceConfig;
using gridftp::TransferSpec;
using gridftp::UsageStatsCollector;

struct WireFixture {
  sim::Simulator sim;
  net::Topology topo;
  net::LinkId ab;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Server> src, dst;
  UsageStatsCollector collector;
  std::unique_ptr<TransferEngine> engine;
  std::unique_ptr<TransferService> service;
  std::unique_ptr<FrontEnd> front;
  std::unique_ptr<WireContext> ctx;

  explicit WireFixture(double submit_rate = 0.0) {
    const auto a = topo.add_node("a", net::NodeKind::kHost);
    const auto b = topo.add_node("b", net::NodeKind::kHost);
    ab = topo.add_link(a, b, gbps(10), 0.005);
    network = std::make_unique<net::Network>(sim, topo);
    ServerConfig sc;
    sc.name = "src";
    sc.nic_rate = gbps(8);
    src = std::make_unique<Server>(sc);
    sc.name = "dst";
    dst = std::make_unique<Server>(sc);
    TransferEngineConfig ecfg;
    ecfg.server_noise_sigma = 0.0;
    engine = std::make_unique<TransferEngine>(*network, collector, ecfg, Rng(3));
    TransferServiceConfig scfg;
    scfg.queue_limit = 0;
    service = std::make_unique<TransferService>(sim, *engine, scfg);
    FrontEndConfig fcfg;
    TenantConfig tc;
    tc.name = "acme";
    tc.submit_rate = submit_rate;
    if (submit_rate > 0) tc.submit_burst = 1.0;
    fcfg.tenants = {tc};
    front = std::make_unique<FrontEnd>(sim, *service, fcfg);
    TransferSpec tmpl;
    tmpl.src = {src.get(), IoMode::kMemory};
    tmpl.dst = {dst.get(), IoMode::kMemory};
    tmpl.path = {ab};
    tmpl.rtt = 0.01;
    tmpl.remote_host = "b";
    ctx = std::make_unique<WireContext>(WireContext{*front, sim, tmpl});
  }

  /// Run one request and parse the response back.
  obs::Json roundtrip(const std::string& line, WireResult* raw = nullptr) {
    const WireResult r = handle_wire_line(*ctx, line);
    if (raw != nullptr) *raw = r;
    return obs::parse_json(r.response);
  }
};

bool ok(const obs::Json& res) {
  const obs::Json* v = res.get("ok");
  return v != nullptr && v->type == obs::Json::Type::kBool && v->boolean;
}

double num(const obs::Json& res, const std::string& key) {
  const obs::Json* v = res.get(key);
  EXPECT_NE(v, nullptr) << "missing key " << key;
  return v == nullptr ? -1.0 : v->number;
}

TEST(Wire, FullSessionRoundTrip) {
  WireFixture f;
  WireResult raw;
  obs::Json res = f.roundtrip("{\"op\":\"connect\",\"tenant\":\"acme\"}", &raw);
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "session"), 1.0);
  ASSERT_TRUE(raw.opened_session.has_value());
  EXPECT_EQ(*raw.opened_session, 1u);

  res = f.roundtrip(
      "{\"op\":\"submit\",\"session\":1,\"label\":\"j\",\"files\":[1048576]}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "ticket"), 1.0);

  f.sim.run();
  res = f.roundtrip("{\"op\":\"poll\",\"session\":1,\"ticket\":1}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(res.get("state")->str, "done");
  EXPECT_EQ(res.get("task_state")->str, "succeeded");
  EXPECT_EQ(num(res, "bytes_done"), 1048576.0);

  res = f.roundtrip("{\"op\":\"stats\",\"tenant\":\"acme\"}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "completed"), 1.0);

  res = f.roundtrip("{\"op\":\"disconnect\",\"session\":1}", &raw);
  ASSERT_TRUE(ok(res));
  ASSERT_TRUE(raw.closed_session.has_value());
  EXPECT_EQ(*raw.closed_session, 1u);
}

TEST(Wire, RejectionIsNotAnError) {
  WireFixture f(/*submit_rate=*/1.0);  // 1 submission/sec, burst 1
  ASSERT_TRUE(ok(f.roundtrip("{\"op\":\"connect\",\"tenant\":\"acme\"}")));
  obs::Json res =
      f.roundtrip("{\"op\":\"submit\",\"session\":1,\"files\":[1024]}");
  ASSERT_TRUE(ok(res));
  res = f.roundtrip("{\"op\":\"submit\",\"session\":1,\"files\":[1024]}");
  EXPECT_FALSE(ok(res));
  EXPECT_EQ(res.get("error"), nullptr);  // refusal, not an error
  EXPECT_TRUE(res.get("rejected")->boolean);
  EXPECT_EQ(res.get("reason")->str, "rate_limited");
  EXPECT_GT(num(res, "retry_after"), 0.0);
}

TEST(Wire, StructuralAndDomainErrors) {
  WireFixture f;
  EXPECT_FALSE(ok(f.roundtrip("not json at all")));
  EXPECT_FALSE(ok(f.roundtrip("{\"op\":\"warp\"}")));
  EXPECT_FALSE(ok(f.roundtrip("{\"tenant\":\"acme\"}")));  // missing op
  EXPECT_FALSE(ok(f.roundtrip("{\"op\":\"connect\",\"tenant\":\"ghost\"}")));
  EXPECT_FALSE(ok(f.roundtrip("{\"op\":\"poll\",\"session\":7,\"ticket\":1}")));
  EXPECT_FALSE(ok(
      f.roundtrip("{\"op\":\"submit\",\"session\":1,\"files\":[-5]}")));
  // A failed request never reports session bookkeeping.
  WireResult raw;
  (void)f.roundtrip("{\"op\":\"connect\",\"tenant\":\"ghost\"}", &raw);
  EXPECT_FALSE(raw.opened_session.has_value());
}

TEST(Wire, PingReportsSimTime) {
  WireFixture f;
  f.sim.run_until(12.5);
  const obs::Json res = f.roundtrip("{\"op\":\"ping\"}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "time"), 12.5);
}

/// Connect to an abstract-namespace unix socket ('@name'); -1 on failure.
int connect_abstract(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path + 1, path.data() + 1, path.size() - 1);
  const auto len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// This process's virtual size in kB, from /proc/self/status.
long vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  long value = 0;
  while (status >> key) {
    if (key == "VmSize:") {
      status >> value;
      return value;
    }
    status.ignore(1 << 16, '\n');
  }
  return -1;
}

TEST(Daemon, ClosedConnectionsLeaveNoReaderThreadsBehind) {
  // Each connection has a reader thread. One that is never joined keeps
  // its stack mapped (8 MiB of address space by default), so without the
  // join at EOF, 200 connect/ping/close cycles grow VmSize by ~1.6 GB.
  WireFixture f;
  TestWallClock clock;
  DaemonConfig config;
  config.socket_path = "@gridvc-test-daemon-" + std::to_string(::getpid());
  config.transfer_template = f.ctx->transfer_template;
  Daemon daemon(f.sim, *f.front, clock, config);
  std::thread server([&] { daemon.run(); });

  const auto cycle = [&] {
    int fd = -1;
    for (int i = 0; i < 200 && fd < 0; ++i) {
      fd = connect_abstract(config.socket_path);
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(fd, 0);
    const std::string ping = "{\"op\":\"ping\"}\n";
    ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    char reply[256];
    ASSERT_GT(::read(fd, reply, sizeof(reply)), 0);  // served: its reader ran
    ::close(fd);
  };
  for (int i = 0; i < 20; ++i) cycle();  // warm up allocator and stack caches
  const long before = vm_size_kb();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 200; ++i) cycle();
  const long after = vm_size_kb();
  daemon.request_shutdown();
  server.join();
  EXPECT_LT(after - before, 256L * 1024) << "VmSize grew from " << before << " kB to "
                                         << after << " kB";
}

/// Connect to the daemon under test, retrying while it is still binding.
int dial_daemon(const std::string& path) {
  int fd = -1;
  for (int i = 0; i < 200 && fd < 0; ++i) {
    fd = connect_abstract(path);
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return fd;
}

/// Read from fd until `lines` newlines have arrived or nothing arrives
/// for timeout_ms; returns what was read.
std::string read_lines(int fd, std::size_t lines, int timeout_ms) {
  std::string got;
  std::size_t seen = 0;
  char chunk[65536];
  while (seen < lines) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) break;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    seen += static_cast<std::size_t>(std::count(chunk, chunk + n, '\n'));
    got.append(chunk, static_cast<std::size_t>(n));
  }
  return got;
}

TEST(Daemon, UnreadRepliesStallOnlyTheirOwnConnection) {
  // Client A pipelines 4 MB of replies' worth of requests and reads none
  // of them. Replies wait in A's outbox, and past Daemon::kMaxOutbox the
  // daemon stops reading A, so A's own writes stall. Client B and the
  // shutdown must not wait for A.
  WireFixture f;
  TestWallClock clock;
  DaemonConfig config;
  config.socket_path = "@gridvc-test-unread-" + std::to_string(::getpid());
  config.transfer_template = f.ctx->transfer_template;
  Daemon daemon(f.sim, *f.front, clock, config);
  std::thread server([&] { daemon.run(); });

  constexpr std::size_t kRequests = 200000;
  const std::string ping = "{\"op\":\"ping\"}\n";
  const std::string stats = "{\"op\":\"stats\",\"tenant\":\"acme\"}\n";
  std::string requests;
  for (std::size_t i = 0; i < kRequests; ++i) requests += i % 1000 == 999 ? stats : ping;

  const int a = dial_daemon(config.socket_path);
  EXPECT_GE(a, 0);
  std::atomic<std::size_t> sent{0};
  // A's writes block once the daemon stops reading it, so they get a thread.
  std::thread writer([&] {
    while (a >= 0 && sent < requests.size()) {
      const std::size_t chunk = std::min<std::size_t>(4096, requests.size() - sent);
      const ssize_t n = ::send(a, requests.data() + sent, chunk, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
  });
  // Wait until A's writes stop making progress.
  std::size_t last = 0;
  for (int i = 0; i < 200 && (i < 2 || sent != last); ++i) {
    last = sent;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_LT(sent.load(), requests.size()) << "the daemon kept reading a client that reads no replies";

  const int b = dial_daemon(config.socket_path);
  EXPECT_GE(b, 0);
  if (b >= 0) {
    EXPECT_EQ(::send(b, ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    EXPECT_EQ(read_lines(b, 1, 1000).rfind("{\"ok\":true,\"time\":", 0), 0u)
        << "B was not answered within 1 s while A left its replies unread";
    ::close(b);
  }

  const std::string replies = read_lines(a, kRequests, 10000);
  writer.join();
  EXPECT_EQ(sent.load(), requests.size());
  std::size_t count = 0, misplaced = 0, start = 0, pos = 0;
  while ((pos = replies.find('\n', start)) != std::string::npos) {
    const std::string_view line(replies.data() + start, pos - start);
    const bool is_stats = line.find("\"completed\"") != std::string_view::npos;
    if (is_stats != (count % 1000 == 999)) ++misplaced;
    ++count;
    start = pos + 1;
  }
  EXPECT_EQ(count, kRequests);
  EXPECT_EQ(misplaced, 0u) << "replies came back out of order";
  daemon.request_shutdown();
  server.join();
  ::close(a);
}

TEST(Daemon, OverlongLineGetsAnErrorAndTheConnectionCloses) {
  // A client that never sends '\n' must not make the daemon buffer
  // without bound: past Daemon::kMaxLine it answers with an error and
  // hangs up, and other clients are still served.
  WireFixture f;
  TestWallClock clock;
  DaemonConfig config;
  config.socket_path = "@gridvc-test-longline-" + std::to_string(::getpid());
  config.transfer_template = f.ctx->transfer_template;
  Daemon daemon(f.sim, *f.front, clock, config);
  std::thread server([&] { daemon.run(); });

  const int a = dial_daemon(config.socket_path);
  EXPECT_GE(a, 0);
  const std::string junk(8 * Daemon::kMaxLine, 'x');
  std::atomic<std::size_t> sent{0};
  std::thread writer([&] {
    while (a >= 0 && sent < junk.size()) {
      const std::size_t chunk = std::min<std::size_t>(65536, junk.size() - sent);
      const ssize_t n = ::send(a, junk.data() + sent, chunk, MSG_NOSIGNAL);
      if (n <= 0) break;  // the daemon hung up
      sent += static_cast<std::size_t>(n);
    }
  });
  const std::string reply = a >= 0 ? read_lines(a, 1, 5000) : std::string();
  EXPECT_EQ(reply, "{\"ok\":false,\"error\":\"request line too long\"}\n");
  pollfd hangup{a, POLLIN, 0};
  char byte = 0;
  EXPECT_TRUE(a >= 0 && ::poll(&hangup, 1, 5000) == 1 && ::read(a, &byte, 1) <= 0)
      << "the connection stayed open";
  writer.join();
  EXPECT_LT(sent.load(), junk.size()) << "the daemon kept reading an unterminated line";

  const int b = dial_daemon(config.socket_path);
  EXPECT_GE(b, 0);
  if (b >= 0) {
    const std::string ping = "{\"op\":\"ping\"}\n";
    EXPECT_EQ(::send(b, ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    EXPECT_EQ(read_lines(b, 1, 1000).rfind("{\"ok\":true,\"time\":", 0), 0u);
    ::close(b);
  }
  daemon.request_shutdown();
  server.join();
  if (a >= 0) ::close(a);
}

/// Open file descriptors of this process.
std::size_t open_fds() {
  const auto entries = std::filesystem::directory_iterator("/proc/self/fd");
  return static_cast<std::size_t>(std::distance(begin(entries), end(entries)));
}

TEST(Daemon, ClosedConnectionsLeaveNoFdBehind) {
  WireFixture f;
  TestWallClock clock;
  DaemonConfig config;
  config.socket_path = "@gridvc-test-fds-" + std::to_string(::getpid());
  config.transfer_template = f.ctx->transfer_template;
  Daemon daemon(f.sim, *f.front, clock, config);
  std::thread server([&] { daemon.run(); });

  const std::string ping = "{\"op\":\"ping\"}\n";
  const auto served = [&](int fd) {
    return ::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(ping.size()) &&
           !read_lines(fd, 1, 5000).empty();
  };
  // A connection that stays open pins the baseline: once it is served,
  // the daemon's listen, epoll and connection fds all exist.
  const int steady = dial_daemon(config.socket_path);
  if (steady < 0 || !served(steady)) {
    daemon.request_shutdown();
    server.join();
    FAIL() << "the daemon did not serve its first connection";
  }
  const std::size_t before = open_fds();
  int cycles = 0;
  for (int i = 0; i < 200; ++i) {
    const int fd = dial_daemon(config.socket_path);
    if (fd >= 0 && served(fd)) ++cycles;
    if (fd >= 0) ::close(fd);
  }
  // The daemon closes its end when it reads the EOF, one loop turn after
  // the client's close.
  std::size_t after = open_fds();
  for (int i = 0; i < 400 && after > before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    after = open_fds();
  }
  ::close(steady);
  daemon.request_shutdown();
  server.join();
  EXPECT_EQ(cycles, 200);
  EXPECT_EQ(after, before);
}

TEST(WallClock, TestClockJumpsForwardOnly) {
  TestWallClock clock;
  EXPECT_TRUE(clock.is_virtual());
  EXPECT_EQ(clock.now(), 0.0);
  clock.advance_to(5.0);
  EXPECT_EQ(clock.now(), 5.0);
  clock.advance_to(3.0);  // never backward
  EXPECT_EQ(clock.now(), 5.0);
}

TEST(WallClock, SteadyClockAdvances) {
  SteadyWallClock clock;
  EXPECT_FALSE(clock.is_virtual());
  const Seconds a = clock.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Seconds b = clock.now();
  EXPECT_GT(b, a);
}

}  // namespace
}  // namespace gridvc::frontend
