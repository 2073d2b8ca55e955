// perfbench-driver: one pass of one benchmark workload, run in-process
// against gridvc's public API, or the closed-loop client of the serve
// workload. perfbench/run.py starts one driver process per pass, so each
// pass has its own setup, its own peak RSS and its own wall-clock
// timeout.
//
//   perfbench-driver pipeline   --seed N [--lanes L] [--toy] [--trace] [--sabotage]
//   perfbench-driver anl-nersc  --seed N [--toy] [--trace] [--sabotage]
//   perfbench-driver federation --seed N [--lanes L] [--toy] [--trace] [--sabotage]
//   perfbench-driver serve      --seed N --socket PATH --iterations I
//                               [--seconds S] [--tenants K] [--trace] [--sabotage]
//   common: [--spans-out FILE]  write the traced pass's spans as JSONL
//
// The driver times its own calls into the program and reads only what
// the program already exports (MetricsSnapshot counters, ShardStats,
// profiler zones); it adds nothing inside src/. It prints one JSON
// object on stdout. Output checks that fail are listed under "checks";
// --sabotage makes one check expect a wrong value, so the benchmark's
// own failure path can be tested.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/session_grouping.hpp"
#include "analysis/vc_feasibility.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "shard/sharded_simulation.hpp"
#include "spans.hpp"
#include "workload/federation.hpp"
#include "workload/profiles.hpp"
#include "workload/scenarios.hpp"
#include "workload/synth.hpp"

using namespace gridvc;
using perfbench::cpu_s;
using perfbench::mono_s;
using perfbench::ScopedSpan;
using perfbench::SpanLog;
using perfbench::SpanTotals;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool toy = false;
  bool trace = false;
  bool sabotage = false;
  std::string socket;
  double seconds = 60.0;           ///< serve: cap on the client's run time
  std::uint64_t iterations = 0;    ///< serve: jobs per tenant (0 = until --seconds)
  std::size_t tenants = 3;
  unsigned lanes = 1;              ///< pipeline, federation: executor lanes
  std::string spans_out;
};

// ------------------------------------------------------------ JSON out

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Flat key/value JSON object writer; values are pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, ::num(v)); }
  JsonObject& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + quote(items[i]);
  return out + "]";
}

/// The common shape of one pass's result.
struct PassResult {
  double ready_s = 0.0;  ///< monotonic time just before the first timed call
  double wall_s = 0.0;   ///< timed work, wall clock
  double cpu_s = 0.0;    ///< timed work, CPU of this process (all threads)
  double transfers = 0;
  double requests = 0;
  double failed = 0;
  std::string digest;
  std::vector<std::string> checks;  ///< failed output checks
  JsonObject counters;
  std::map<std::string, SpanTotals> spans;
  std::string latency_json = "{}";
};

std::string totals_json(const std::map<std::string, SpanTotals>& totals) {
  JsonObject o;
  for (const auto& [name, t] : totals) {
    o.raw(name, JsonObject()
                    .num("count", static_cast<double>(t.count))
                    .num("total_s", t.total_s)
                    .num("self_s", t.self_s)
                    .render());
  }
  return o.render();
}

/// Profiler zones of the traced pass: count, self seconds, p50 µs.
std::string zones_json(const obs::ProfileReport& report) {
  JsonObject o;
  for (const obs::ZoneStat& z : report.zones) {
    o.raw(z.name, JsonObject()
                      .num("count", static_cast<double>(z.count))
                      .num("self_s", static_cast<double>(z.self_ns) * 1e-9)
                      .num("total_s", static_cast<double>(z.total_ns) * 1e-9)
                      .num("p50_us", z.p50_ns * 1e-3)
                      .render());
  }
  return o.render();
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// FNV-1a over a byte range, chained.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

template <typename T>
std::uint64_t fnv_value(std::uint64_t h, const T& v) {
  return fnv(h, &v, sizeof(v));
}

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void write_spans(const Options& o, const std::vector<const SpanLog*>& logs) {
  if (o.spans_out.empty()) return;
  std::ofstream out(o.spans_out);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    logs[i]->write_jsonl(out, static_cast<std::uint32_t>(i));
  }
}

// ------------------------------------------------------ paper pipeline

/// Table IV over the NCAR-NICS and SLAC-BNL logs: synthesize each log,
/// group it at g = 0/60/120 s, and judge every grouping at setup delays
/// of 60 s and 50 ms, with the exec pool at `o.lanes` lanes.
void run_pipeline(const Options& o, PassResult& r, SpanLog& spans) {
  exec::set_default_threads(o.lanes);
  exec::default_pool();
  workload::SessionTraceProfile ncar = workload::ncar_nics_profile();
  const workload::SessionTraceProfile slac = workload::slac_bnl_profile(o.toy ? 0.01 : 1.0);
  if (o.toy) ncar.target_transfers = 2000;
  const workload::SessionTraceProfile* profiles[2] = {&ncar, &slac};
  const double gaps[3] = {0.0, 60.0, 120.0};
  const double setups[2] = {60.0, 0.05};

  gridftp::TransferLog logs[2];
  std::vector<analysis::Session> sessions[2][3];
  analysis::FeasibilityResult feasibility[2][3][2];
  double synth_wall = 0.0, synth_cpu = 0.0;

  r.ready_s = mono_s();
  const double cpu0 = cpu_s();
  {
    ScopedSpan pass(spans, "pipeline.pass", o.seed);
    for (int d = 0; d < 2; ++d) {
      {
        ScopedSpan s(spans, "workload.synthesize_trace", static_cast<std::uint64_t>(d));
        const double w0 = mono_s(), c0 = cpu_s();
        logs[d] = workload::synthesize_trace(*profiles[d], o.seed + static_cast<std::uint64_t>(d));
        synth_wall += mono_s() - w0;
        synth_cpu += cpu_s() - c0;
      }
      for (int g = 0; g < 3; ++g) {
        {
          ScopedSpan s(spans, "analysis.group_sessions", static_cast<std::uint64_t>(d * 3 + g));
          sessions[d][g] = analysis::group_sessions(logs[d], {.gap = gaps[g]});
        }
        for (int k = 0; k < 2; ++k) {
          ScopedSpan s(spans, "analysis.analyze_vc_feasibility",
                       static_cast<std::uint64_t>(d * 6 + g * 2 + k));
          feasibility[d][g][k] = analysis::analyze_vc_feasibility(
              sessions[d][g], logs[d], {.setup_delay = setups[k], .overhead_fraction = 0.1});
        }
      }
    }
  }
  r.wall_s = mono_s() - r.ready_s;
  r.cpu_s = cpu_s() - cpu0;

  // Output checks, outside the timed region.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  double session_total = 0;
  for (int d = 0; d < 2; ++d) {
    const std::size_t n = logs[d].size();
    r.transfers += static_cast<double>(n);
    h = fnv_value(h, n);
    for (const auto& rec : logs[d]) {
      h = fnv_value(h, rec.size);
      h = fnv_value(h, rec.start_time);
      h = fnv_value(h, rec.duration);
    }
    for (int g = 0; g < 3; ++g) {
      std::vector<std::uint8_t> seen(n, 0);
      std::size_t covered = 0;
      bool twice = false;
      for (const auto& s : sessions[d][g]) {
        for (const std::size_t idx : s.transfer_indices) {
          if (idx >= n || seen[idx]++ != 0) twice = true;
          ++covered;
        }
      }
      const std::size_t expect = n + (o.sabotage ? 1 : 0);
      const std::string where =
          "dataset " + std::to_string(d) + " g=" + std::to_string(static_cast<int>(gaps[g]));
      if (twice || covered != expect) {
        r.checks.push_back(where + ": sessions cover " + std::to_string(covered) +
                           " records, expected each of " + std::to_string(expect) +
                           " exactly once");
      }
      session_total += static_cast<double>(sessions[d][g].size());
      h = fnv_value(h, sessions[d][g].size());
      for (int k = 0; k < 2; ++k) {
        const auto& f = feasibility[d][g][k];
        const double sf = f.session_fraction(), tf = f.transfer_fraction();
        if (!(sf >= 0.0 && sf <= 1.0 && tf >= 0.0 && tf <= 1.0) ||
            f.total_sessions != sessions[d][g].size() || f.total_transfers != n) {
          r.checks.push_back(where + ": Table IV fraction out of [0,1] or totals wrong");
        }
        h = fnv_value(h, f.suitable_sessions);
        h = fnv_value(h, f.suitable_transfers);
      }
    }
  }
  r.requests = 1;
  r.digest = hex(h);
  r.counters.num("sessions", session_total)
      .num("synth_wall_s", synth_wall)
      .num("synth_cpu_s", synth_cpu);
}

// ----------------------------------------------------------- anl-nersc

/// The ANL-NERSC 334-test matrix over a multi-week horizon.
void run_anl_nersc(const Options& o, PassResult& r, SpanLog& spans) {
  workload::AnlNerscConfig config;
  config.days = o.toy ? 10 : 84;  // twelve weeks: about 2 s a pass
  const std::size_t expect_tests = config.mem_mem + config.mem_disk + config.disk_mem +
                                   config.disk_disk + (o.sabotage ? 1 : 0);

  r.ready_s = mono_s();
  const double cpu0 = cpu_s();
  workload::AnlNerscResult result;
  {
    ScopedSpan s(spans, "workload.run_anl_nersc_tests", o.seed);
    result = workload::run_anl_nersc_tests(config, o.seed);
  }
  r.wall_s = mono_s() - r.ready_s;
  r.cpu_s = cpu_s() - cpu0;

  const obs::MetricsSnapshot& m = result.metrics;
  const std::size_t tests = result.mem_mem.size() + result.mem_disk.size() +
                            result.disk_mem.size() + result.disk_disk.size();
  if (tests != expect_tests) {
    r.checks.push_back(std::to_string(tests) + " tests finished, expected " +
                       std::to_string(expect_tests));
  }
  const double started = m.value("gridvc_net_flows_started");
  const double completed = m.value("gridvc_net_flows_completed");
  if (started <= 0 || started != completed) {
    r.checks.push_back("flows started " + num(started) + " != flows completed " +
                       num(completed));
  }
  r.transfers = static_cast<double>(result.all_log.size());
  r.requests = 1;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& rec : result.all_log) {
    h = fnv_value(h, rec.size);
    h = fnv_value(h, rec.start_time);
    h = fnv_value(h, rec.duration);
  }
  r.digest = hex(h);
  for (const char* name :
       {"gridvc_sim_events_dispatched", "gridvc_sim_events_scheduled",
        "gridvc_sim_events_cancelled", "gridvc_sim_dispatch_batches", "gridvc_net_recomputes",
        "gridvc_net_rate_changes", "gridvc_gridftp_attempts"}) {
    r.counters.num(name, m.value(name));
  }
}

// ---------------------------------------------------------- federation

/// The 24-site federation, 50k users, 100k transfers, on `o.lanes` lanes.
void run_federation(const Options& o, PassResult& r, SpanLog& spans) {
  workload::FederationConfig config;
  config.sites = o.toy ? 6 : 24;
  config.users = o.toy ? 2000 : 50000;
  config.transfers_per_user = 2;

  std::unique_ptr<workload::FederationScenario> scn;
  {
    ScopedSpan s(spans, "workload.build_federation", o.seed);
    scn = std::make_unique<workload::FederationScenario>(
        workload::build_federation(config, o.seed));
  }
  std::unique_ptr<shard::ShardedSimulation> sim;
  {
    ScopedSpan s(spans, "shard.ShardedSimulation", o.seed);
    sim = std::make_unique<shard::ShardedSimulation>(*scn, o.lanes);
  }

  r.ready_s = mono_s();
  const double cpu0 = cpu_s();
  {
    ScopedSpan s(spans, "shard.ShardedSimulation::run", o.seed);
    sim->run();
  }
  r.wall_s = mono_s() - r.ready_s;
  r.cpu_s = cpu_s() - cpu0;

  const shard::ShardStats& st = sim->stats();
  for (std::size_t i = 0; i < sim->violations().size() && i < 5; ++i) {
    r.checks.push_back("violation: " + sim->violations()[i]);
  }
  const std::uint64_t expect = scn->total_transfers() + (o.sabotage ? 1 : 0);
  if (st.transfers_completed != expect) {
    r.checks.push_back(std::to_string(st.transfers_completed) + " transfers completed, expected " +
                       std::to_string(expect));
  }
  r.transfers = static_cast<double>(st.transfers_completed);
  r.requests = 1;
  r.digest = sim->digest();
  r.counters.num("events_dispatched", static_cast<double>(st.events_dispatched))
      .num("barriers", static_cast<double>(st.barriers))
      .num("messages", static_cast<double>(st.messages))
      .num("stall_fraction", st.stall_fraction())
      .num("chains_requested", static_cast<double>(st.chains_requested))
      .num("chains_granted", static_cast<double>(st.chains_granted));
}

// --------------------------------------------------------------- serve

enum Op { kConnect, kSubmit, kPoll, kStats, kDisconnect, kOpCount };
const char* const kOpNames[kOpCount] = {"frontend.connect", "frontend.submit", "frontend.poll",
                                        "frontend.stats", "frontend.disconnect"};

int dial(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  socklen_t len;
  if (path[0] == '@') {
    std::memcpy(addr.sun_path + 1, path.data() + 1, path.size() - 1);
    len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size());
  } else {
    std::memcpy(addr.sun_path, path.data(), path.size());
    len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size() + 1);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Unsigned integer following `"key":` in a flat JSON response.
bool field_u64(const std::string& s, const char* key, std::uint64_t& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = s.find(needle);
  if (pos == std::string::npos) return false;
  out = std::strtoull(s.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

bool has(const std::string& s, const char* needle) { return s.find(needle) != std::string::npos; }

/// One tenant's closed-loop client over its own connection: each request
/// waits for its reply before the next is sent.
class TenantClient {
 public:
  TenantClient(const Options& o, std::size_t tenant, double deadline)
      : spans(o.trace), o_(o), tenant_(tenant), deadline_(deadline),
        rng_(o.seed * 1000003ULL + tenant) {}

  void run() {
    for (int i = 0; i < 400 && fd_ < 0; ++i) {
      fd_ = dial(o_.socket);
      if (fd_ < 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (fd_ < 0) {
      checks.push_back("tenant " + std::to_string(tenant_) + ": cannot connect");
      ++failed;
      return;
    }
    std::uint64_t session = open_session();
    for (std::uint64_t i = 0; session != 0 && (o_.iterations == 0 || i < o_.iterations) &&
                              mono_s() < deadline_;
         ++i) {
      iteration(session, i);
      if (i % 8 == 7) {
        call(kStats, "{\"op\":\"stats\",\"tenant\":\"t" + tname() + "\"}", session);
      }
      if (i % 32 == 31) {
        close_session(session);
        session = open_session();
      }
    }
    if (session != 0) close_session(session);
    ::close(fd_);
  }

  std::vector<double> latency_us[kOpCount];
  std::vector<std::string> checks;
  std::uint64_t requests = 0, failed = 0, files_done = 0;
  SpanLog spans;

 private:
  std::string tname() const { return std::to_string(tenant_ + 1); }

  /// Send one request and wait for its reply; false on a lost connection
  /// or a reply that is not "ok":true.
  bool call(Op op, const std::string& line, std::uint64_t id) {
    ++requests;
    ScopedSpan span(spans, kOpNames[op], id);
    const double t0 = mono_s();
    const std::string out = line + "\n";
    bool ok = ::send(fd_, out.data(), out.size(), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(out.size());
    std::size_t pos = std::string::npos;
    while (ok && (pos = pending_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        ok = false;
        break;
      }
      pending_.append(chunk, static_cast<std::size_t>(n));
    }
    latency_us[op].push_back((mono_s() - t0) * 1e6);
    if (!ok) {
      ++failed;
      if (checks.size() < 5) checks.push_back(std::string(kOpNames[op]) + ": connection lost");
      return false;
    }
    reply_ = pending_.substr(0, pos);
    pending_.erase(0, pos + 1);
    if (!has(reply_, "\"ok\":true")) {
      ++failed;
      if (checks.size() < 5) checks.push_back(std::string(kOpNames[op]) + ": " + reply_);
      return false;
    }
    return true;
  }

  std::uint64_t open_session() {
    std::uint64_t session = 0;
    if (!call(kConnect, "{\"op\":\"connect\",\"tenant\":\"t" + tname() + "\"}", 0) ||
        !field_u64(reply_, "session", session)) {
      return 0;
    }
    return session;
  }

  void close_session(std::uint64_t session) {
    call(kDisconnect, "{\"op\":\"disconnect\",\"session\":" + std::to_string(session) + "}",
         session);
  }

  /// Submit a fresh job, sometimes repeat it under the same idempotency
  /// key, then poll it until it is terminal. The job's spans share one id.
  void iteration(std::uint64_t session, std::uint64_t i) {
    const std::uint64_t job = (static_cast<std::uint64_t>(tenant_ + 1) << 32) | i;
    const int nfiles = 1 + static_cast<int>(rng_() % 3);
    std::string files = "[";
    for (int f = 0; f < nfiles; ++f) {
      files += (f ? "," : "") + std::to_string((1 + rng_() % 64) << 20);
    }
    files += "]";
    const bool repeat = rng_() % 4 == 0;
    const std::string submit = "{\"op\":\"submit\",\"session\":" + std::to_string(session) +
                               ",\"label\":\"pb\",\"files\":" + files + ",\"key\":\"k" +
                               tname() + "-" + std::to_string(i) + "\"}";
    std::uint64_t ticket = 0;
    if (!call(kSubmit, submit, job) || !field_u64(reply_, "ticket", ticket) ||
        has(reply_, "duplicate")) {
      if (checks.size() < 5) checks.push_back("submit not accepted as new: " + reply_);
      return;
    }
    if (repeat) {
      std::uint64_t again = 0;
      if (call(kSubmit, submit, job) &&
          !(field_u64(reply_, "ticket", again) && again == ticket &&
            has(reply_, "\"duplicate\":true"))) {
        if (checks.size() < 5) checks.push_back("repeated key did not return its ticket: " + reply_);
      }
    }
    const std::string poll = "{\"op\":\"poll\",\"session\":" + std::to_string(session) +
                             ",\"ticket\":" + std::to_string(ticket) + "}";
    while (call(kPoll, poll, job)) {
      if (has(reply_, "\"state\":\"queued\"") || has(reply_, "\"state\":\"dispatched\"")) continue;
      const bool good = has(reply_, "\"task_state\":\"succeeded\"") && !o_.sabotage;
      if (good) {
        files_done += static_cast<std::uint64_t>(nfiles);
      } else if (checks.size() < 5) {
        checks.push_back("ticket " + std::to_string(ticket) + " did not succeed: " + reply_);
      }
      return;
    }
  }

  const Options& o_;
  std::size_t tenant_;
  double deadline_;
  std::mt19937_64 rng_;
  int fd_ = -1;
  std::string pending_, reply_;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of them at or below.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string latency_summary(const std::vector<double>& v) {
  return JsonObject()
      .num("n", static_cast<double>(v.size()))
      .num("p50_us", quantile(v, 0.50))
      .num("p99_us", quantile(v, 0.99))
      .render();
}

/// Closed loop against a running gridvc-serve: one connection per tenant.
void run_serve(const Options& o, PassResult& r, std::vector<const SpanLog*>& logs,
               std::vector<std::unique_ptr<TenantClient>>& clients) {
  r.ready_s = mono_s();
  const double cpu0 = cpu_s();
  const double deadline = r.ready_s + o.seconds;
  for (std::size_t t = 0; t < o.tenants; ++t) {
    clients.push_back(std::make_unique<TenantClient>(o, t, deadline));
  }
  {
    std::vector<std::thread> threads;
    for (auto& c : clients) {
      threads.emplace_back([&c] {
        try {
          c->run();
        } catch (const std::exception& e) {
          c->checks.push_back(std::string("client thread: ") + e.what());
          ++c->failed;
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  r.wall_s = mono_s() - r.ready_s;
  r.cpu_s = cpu_s() - cpu0;

  std::vector<double> all, per_op[kOpCount];
  for (const auto& c : clients) {
    for (int op = 0; op < kOpCount; ++op) {
      per_op[op].insert(per_op[op].end(), c->latency_us[op].begin(), c->latency_us[op].end());
    }
    r.requests += static_cast<double>(c->requests);
    r.failed += static_cast<double>(c->failed);
    r.transfers += static_cast<double>(c->files_done);
    r.checks.insert(r.checks.end(), c->checks.begin(), c->checks.end());
    logs.push_back(&c->spans);
    merge_totals(r.spans, c->spans.totals());
  }
  JsonObject lat;
  for (int op = 0; op < kOpCount; ++op) {
    all.insert(all.end(), per_op[op].begin(), per_op[op].end());
    lat.raw(kOpNames[op], latency_summary(per_op[op]));
  }
  lat.raw("all", latency_summary(all));
  r.latency_json = lat.render();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench-driver pipeline|anl-nersc|federation|serve --seed N\n"
               "         [--toy] [--trace] [--sabotage] [--lanes L] [--spans-out FILE]\n"
               "         [--socket PATH --iterations I --seconds S --tenants K]   (serve)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool more = i + 1 < argc;
    if (a == "--seed" && more) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--socket" && more) {
      o.socket = argv[++i];
    } else if (a == "--seconds" && more) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--iterations" && more) {
      o.iterations = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--lanes" && more) {
      o.lanes = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (a == "--tenants" && more) {
      o.tenants = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--spans-out" && more) {
      o.spans_out = argv[++i];
    } else if (a == "--toy") {
      o.toy = true;
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--sabotage") {
      o.sabotage = true;
    } else {
      return usage();
    }
  }

  PassResult r;
  SpanLog spans(o.trace);
  std::vector<const SpanLog*> logs{&spans};
  std::vector<std::unique_ptr<TenantClient>> clients;
  if (o.trace && o.workload != "serve") obs::Profiler::enable();
  try {
    if (o.workload == "pipeline") {
      if (o.lanes == 0) return usage();
      run_pipeline(o, r, spans);
    } else if (o.workload == "anl-nersc") {
      run_anl_nersc(o, r, spans);
    } else if (o.workload == "federation") {
      if (o.lanes == 0) return usage();
      run_federation(o, r, spans);
    } else if (o.workload == "serve") {
      if (o.socket.empty() || o.tenants == 0) return usage();
      logs.clear();
      run_serve(o, r, logs, clients);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench-driver: %s\n", e.what());
    return 1;
  }

  std::string zones = "{}";
  if (obs::Profiler::enabled()) {
    obs::Profiler::disable();
    zones = zones_json(obs::Profiler::collect());
  }
  merge_totals(r.spans, spans.totals());
  write_spans(o, logs);

  JsonObject out;
  out.str("workload", o.workload)
      .num("seed", static_cast<double>(o.seed))
      .num("traced", o.trace ? 1 : 0)
      .num("ready_s", r.ready_s)
      .num("wall_s", r.wall_s)
      .num("cpu_s", r.cpu_s)
      .num("transfers", r.transfers)
      .num("requests", r.requests)
      .num("failed", r.failed)
      .num("peak_rss_kb", static_cast<double>(peak_rss_kb()))
      .str("digest", r.digest)
      .raw("checks", json_list(r.checks))
      .raw("counters", r.counters.render())
      .raw("latency", r.latency_json)
      .raw("spans", totals_json(r.spans))
      .raw("zones", zones);
  std::printf("%s\n", out.render().c_str());
  return 0;
}
