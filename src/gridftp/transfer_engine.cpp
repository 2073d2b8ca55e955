#include "gridftp/transfer_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace gridvc::gridftp {

TransferEngine::TransferEngine(net::Network& network, UsageStatsCollector& collector,
                               TransferEngineConfig config, Rng rng)
    : network_(network),
      collector_(collector),
      config_(config),
      tcp_(config.tcp),
      rng_(rng) {
  GRIDVC_REQUIRE(config_.server_noise_sigma >= 0.0, "noise sigma must be non-negative");

  obs::MetricsRegistry& reg = network_.simulator().obs().registry();
  id_submitted_ = reg.counter("gridvc_gridftp_transfers_submitted",
                              "Transfers accepted by the engine");
  id_completed_ = reg.counter("gridvc_gridftp_transfers_completed",
                              "Transfers that delivered every byte");
  id_attempts_ = reg.counter("gridvc_gridftp_attempts",
                             "Transfer attempts, restarts included");
  id_failures_ = reg.counter("gridvc_gridftp_failures",
                             "Attempts that died mid-transfer and were retried");
  id_aborted_ = reg.counter("gridvc_gridftp_aborted_attempts",
                            "Attempts killed by a link failure on the path");
  id_failed_ = reg.counter("gridvc_gridftp_transfers_failed",
                           "Transfers abandoned after max_aborts link-failure aborts");
  id_bytes_moved_ = reg.counter("gridvc_gridftp_bytes_moved",
                                "Payload bytes of completed transfers");
  id_active_ = reg.gauge("gridvc_gridftp_active_transfers",
                         "Transfers currently in flight");
  id_waiting_ = reg.gauge("gridvc_gridftp_waiting_transfers",
                          "Transfers parked on an offline endpoint server");
  id_crashes_ = reg.counter("gridvc_gridftp_server_crashes",
                            "Server crash events handled by the engine");
  id_stripes_hist_ = reg.histogram("gridvc_gridftp_stripes", {1, 2, 4, 8, 16},
                                   "Stripe count per submitted transfer");
  id_streams_hist_ = reg.histogram("gridvc_gridftp_streams", {1, 2, 4, 8, 16, 32},
                                   "Parallel TCP streams per submitted transfer");
  id_start_delay_hist_ = reg.log_histogram(
      "gridvc_gridftp_start_delay_seconds",
      "Submit -> first bytes on the wire (slow-start ramp, queueing)");
  id_duration_hist_ = reg.log_histogram(
      "gridvc_gridftp_transfer_seconds",
      "Submit -> last byte, retries included");
}

TransferEngine::Active* TransferEngine::find(std::uint64_t id) {
  const auto it = std::lower_bound(transfers_.begin(), transfers_.end(), id,
                                   [](const Active& t, std::uint64_t key) { return t.id < key; });
  return it != transfers_.end() && it->id == id && it->live ? &*it : nullptr;
}

std::vector<net::FlowId> TransferEngine::flows_of(std::uint64_t transfer_id) const {
  const Active* t = const_cast<TransferEngine*>(this)->find(transfer_id);  // reads only
  return t != nullptr ? t->flows : std::vector<net::FlowId>{};
}

TransferEngine::Active& TransferEngine::at(std::uint64_t id) {
  Active* t = find(id);
  GRIDVC_REQUIRE(t != nullptr, "unknown transfer");
  return *t;
}

void TransferEngine::attach_listener(Server* server) {
  if (server->listener_owner() == this) return;
  server->set_change_listener([this, server] { refresh_caps(*server); }, this);
}

void TransferEngine::register_endpoints(Active& t) {
  t.spec.src.server->add_transfer(t.id, t.spec.stripes,
                                  t.spec.src.io == IoMode::kMemory ? IoMode::kMemory
                                                                   : IoMode::kDiskRead);
  t.spec.dst.server->add_transfer(t.id, t.spec.stripes,
                                  t.spec.dst.io == IoMode::kMemory ? IoMode::kMemory
                                                                   : IoMode::kDiskWrite);
  t.registered = true;
}

bool TransferEngine::endpoints_online(const Active& t) const {
  return t.spec.src.server->online() && t.spec.dst.server->online();
}

void TransferEngine::set_waiting_gauge() {
  network_.simulator().obs().registry().set(id_waiting_,
                                            static_cast<double>(waiting_.size()));
}

std::uint64_t TransferEngine::submit(TransferSpec spec, DoneFn on_done) {
  GRIDVC_PROF_ZONE("gridftp.engine.submit");
  GRIDVC_REQUIRE(spec.src.server != nullptr && spec.dst.server != nullptr,
                 "transfer endpoints need servers");
  GRIDVC_REQUIRE(!spec.path.empty(), "transfer needs a network path");
  GRIDVC_REQUIRE(spec.size > 0, "transfer size must be positive");
  GRIDVC_REQUIRE(spec.streams >= 1 && spec.stripes >= 1, "streams/stripes must be >= 1");
  GRIDVC_REQUIRE(spec.rtt > 0.0, "RTT must be positive");

  attach_listener(spec.src.server);
  attach_listener(spec.dst.server);
  const bool online = spec.src.server->online() && spec.dst.server->online();
  // Ids only grow, so appending keeps the table ordered. Compaction moves
  // records, so it runs only here: finish and fail_permanently move theirs
  // out before on_done can call back into submit.
  if (transfers_.size() - live_ > live_) {
    std::erase_if(transfers_, [](const Active& t) { return !t.live; });
  }

  const std::uint64_t id = next_id_++;
  Active& t = transfers_.emplace_back();
  ++live_;
  t.id = id;
  t.spec = std::move(spec);
  t.submit_time = network_.simulator().now();
  t.lifetime = obs::SimSpan::begin(t.submit_time);
  // Lognormal efficiency factor clamped at 1: CPU/disk jitter can only
  // degrade a transfer below the configured hardware ceilings, never
  // exceed them.
  const double sigma = config_.server_noise_sigma;
  t.noise =
      sigma > 0.0 ? std::min(rng_.lognormal(-sigma * sigma / 2.0, sigma), 1.0) : 1.0;
  t.on_done = std::move(on_done);
  t.registered = online;
  if (online) register_endpoints(t);

  // The loss haircut and Slow Start penalty are computed against the
  // steady rate the transfer would get if alone on its current caps.
  const TransferSpec& sp = t.spec;
  const BitsPerSecond expected = std::max(1.0, transfer_cap(t));
  t.loss_factor = tcp_.loss_factor(sp.size, sp.streams, sp.rtt, expected, rng_);
  const Bytes per_stripe = stripe_chunk(sp.size, sp.stripes);
  const Seconds penalty = tcp_.slow_start_penalty(
      per_stripe, sp.streams, sp.rtt,
      std::max(1.0, expected / static_cast<double>(sp.stripes)));

  obs::Observability& obs = network_.simulator().obs();
  obs.registry().add(id_submitted_);
  obs.registry().set(id_active_, static_cast<double>(live_));
  obs.registry().observe(id_stripes_hist_, static_cast<double>(sp.stripes));
  obs.registry().observe(id_streams_hist_, static_cast<double>(sp.streams));
  obs.emit({t.submit_time, obs::TraceEventType::kTransferSubmitted, id,
            static_cast<std::uint64_t>(sp.stripes), static_cast<double>(sp.size),
            static_cast<double>(sp.streams)});

  if (online) {
    t.injection =
        network_.simulator().schedule_in(penalty, [this, id] { begin_attempt(id); });
  } else {
    // An endpoint is down right now: park until handle_server_up resumes
    // us (the penalty is re-derived then — slow start restarts anyway).
    waiting_.insert(id);
    set_waiting_gauge();
  }
  return id;
}

BitsPerSecond TransferEngine::transfer_cap(const Active& t) const {
  const BitsPerSecond window =
      tcp_.window_cap(t.spec.streams, t.spec.rtt) * static_cast<double>(t.spec.stripes);
  // Between a crash and the next attempt the transfer holds no server
  // registrations, so shares are unqueryable; the window cap alone is a
  // sane planning estimate for backoff/penalty math (no flows exist yet).
  if (!t.registered) return std::max(1.0, window * t.noise * t.loss_factor);
  // Which side does disk I/O was fixed at registration, so share()
  // already reflects it.
  const BitsPerSecond src_share = t.spec.src.server->share(t.id);
  const BitsPerSecond dst_share = t.spec.dst.server->share(t.id);
  return std::max(1.0, std::min({src_share, dst_share, window}) * t.noise * t.loss_factor);
}

void TransferEngine::begin_attempt(std::uint64_t id) {
  GRIDVC_PROF_ZONE("gridftp.engine.begin_attempt");
  Active& t = at(id);
  if (!endpoints_online(t)) {
    // A server crashed while our backoff/injection timer ran. Park; no
    // attempt is consumed — the client never got a control channel.
    waiting_.insert(id);
    set_waiting_gauge();
    return;
  }
  if (!t.registered) register_endpoints(t);
  const Bytes remaining = t.spec.size - t.bytes_done;
  ++t.attempts;
  ++stats_.attempts;

  obs::Observability& obs = network_.simulator().obs();
  obs.registry().add(id_attempts_);
  if (!t.started) {
    t.started = true;
    const Seconds wait = network_.simulator().now() - t.submit_time;
    obs.registry().observe(id_start_delay_hist_, wait);
    obs.emit({network_.simulator().now(), obs::TraceEventType::kTransferStarted, id, 0,
              wait, 0.0});
  }

  // Decide up front whether this attempt dies partway; the final allowed
  // attempt always goes through (GridFTP clients retry until done).
  t.attempt_fails = config_.failure_probability > 0.0 &&
                    t.attempts < config_.max_attempts &&
                    rng_.bernoulli(config_.failure_probability);
  if (t.attempt_fails) {
    const double fraction = rng_.uniform(0.05, 0.95);
    t.attempt_bytes = std::max<Bytes>(
        1, static_cast<Bytes>(static_cast<double>(remaining) * fraction));
  } else {
    t.attempt_bytes = remaining;
  }

  const BitsPerSecond cap = transfer_cap(t);
  const int stripes = t.spec.stripes;
  const Bytes per_stripe = stripe_chunk(t.attempt_bytes, stripes);
  t.flows.clear();
  t.flow_cap = cap / static_cast<double>(stripes);
  t.attempt_delivered = 0;
  t.attempt_aborted = false;
  for (int s = 0; s < stripes; ++s) {
    net::FlowOptions opts;
    opts.cap = t.flow_cap;
    opts.guarantee = t.spec.guarantee / static_cast<double>(stripes);
    opts.fail_on_link_down = true;  // data channels see the outage as an error
    const net::FlowId fid = network_.start_flow(
        t.spec.path, per_stripe, opts,
        [this, id](const net::FlowRecord& flow) { on_flow_complete(id, flow); });
    t.flows.push_back(fid);
  }
}

void TransferEngine::on_flow_complete(std::uint64_t id, const net::FlowRecord& flow) {
  Active& t = at(id);
  const auto it = std::find(t.flows.begin(), t.flows.end(), flow.id);
  GRIDVC_REQUIRE(it != t.flows.end(), "flow completion for unknown stripe");
  t.flows.erase(it);
  t.attempt_delivered += flow.delivered;
  if (flow.outcome == net::FlowOutcome::kFailed) {
    t.attempt_aborted = true;
  } else {
    network_.simulator().obs().emit(
        {network_.simulator().now(), obs::TraceEventType::kTransferStripeCompleted, id,
         static_cast<std::uint64_t>(t.flows.size()), 0.0, 0.0});
  }
  if (t.flows.empty()) {
    attempt_complete(id);
  } else {
    resplit_.push_back(id);
  }
}

void TransferEngine::attempt_complete(std::uint64_t id) {
  GRIDVC_PROF_ZONE("gridftp.engine.attempt_complete");
  Active& t = at(id);
  // Restart-marker semantics: bytes any stripe delivered survive the
  // attempt, whether it completed, was cut short by the stochastic
  // failure model, or died with the link. Credit at most the planned
  // attempt size so stripe ceil-padding never inflates logical progress.
  t.bytes_done += std::min(t.attempt_delivered, t.attempt_bytes);
  const bool aborted = t.attempt_aborted;
  if (t.bytes_done >= t.spec.size) {
    finish(id);
    return;
  }
  if (aborted) {
    if (!charge_abort(t)) schedule_retry(id);
    return;
  }
  // This attempt failed partway: restart from the marker after a backoff
  // (plus a fresh Slow Start ramp for the new connections).
  GRIDVC_REQUIRE(t.attempt_fails, "attempt fell short without a failure");
  ++stats_.failures;
  network_.simulator().obs().registry().add(id_failures_);
  schedule_retry(id);
}

bool TransferEngine::charge_abort(Active& t) {
  ++t.aborts;
  ++stats_.aborted_attempts;
  obs::Observability& obs = network_.simulator().obs();
  obs.registry().add(id_aborted_);
  const bool terminal = config_.max_aborts > 0 && t.aborts >= config_.max_aborts;
  obs.emit({network_.simulator().now(), obs::TraceEventType::kTransferAborted, t.id,
            static_cast<std::uint64_t>(t.attempts), static_cast<double>(t.bytes_done),
            terminal ? 1.0 : 0.0});
  if (terminal) fail_permanently(t.id);
  return terminal;
}

void TransferEngine::schedule_retry(std::uint64_t id) {
  Active& t = at(id);
  // Every scheduled restart announces itself, whatever ended the previous
  // attempt (stochastic failure, link abort, server crash): the trace
  // checker pairs each non-terminal transfer_aborted with the retry that
  // resolves it. v2 carries the abort count, omitted-when-zero keeps the
  // classic failure-only traces byte-identical.
  network_.simulator().obs().emit(
      {network_.simulator().now(), obs::TraceEventType::kTransferRetry, id,
       static_cast<std::uint64_t>(t.attempts), static_cast<double>(t.bytes_done),
       static_cast<double>(t.aborts)});
  const Bytes remaining = t.spec.size - t.bytes_done;
  const Seconds penalty = tcp_.slow_start_penalty(
      std::max<Bytes>(stripe_chunk(remaining, t.spec.stripes), 1),
      t.spec.streams, t.spec.rtt,
      std::max(1.0, transfer_cap(t) / static_cast<double>(t.spec.stripes)));
  const Seconds backoff = config_.backoff.delay(std::max(t.attempts, 1), rng_);
  t.injection = network_.simulator().schedule_in(backoff + penalty,
                                                 [this, id] { begin_attempt(id); });
}

TransferEngine::Active TransferEngine::take(std::uint64_t id, TransferRecord& record) {
  Active& slot = at(id);
  Active t = std::move(slot);
  slot.live = false;
  --live_;
  record.type = t.spec.type;
  record.size = t.spec.size;
  record.start_time = t.submit_time;
  record.duration = network_.simulator().now() - t.submit_time;
  record.server_host = t.spec.type == TransferType::kRetrieve ? t.spec.src.server->name()
                                                              : t.spec.dst.server->name();
  record.remote_host = t.spec.remote_host;
  record.streams = t.spec.streams;
  record.stripes = t.spec.stripes;
  record.tcp_buffer = tcp_.config().stream_buffer;
  record.block_size = t.spec.block_size;

  if (t.registered) {
    t.spec.src.server->remove_transfer(id);
    t.spec.dst.server->remove_transfer(id);
  }
  if (waiting_.erase(id) > 0) set_waiting_gauge();
  network_.simulator().obs().registry().set(id_active_, static_cast<double>(live_));
  return t;
}

void TransferEngine::finish(std::uint64_t id) {
  GRIDVC_PROF_ZONE("gridftp.engine.finish");
  const Seconds now = network_.simulator().now();
  TransferRecord record;
  Active t = take(id, record);
  ++stats_.completed;
  obs::Observability& obs = network_.simulator().obs();
  obs.registry().add(id_completed_);
  obs.registry().add(id_bytes_moved_, t.spec.size);
  t.lifetime.end_observe(obs.registry(), id_duration_hist_, now);
  obs.emit({now, obs::TraceEventType::kTransferFinished, id,
            static_cast<std::uint64_t>(t.attempts), record.duration,
            static_cast<double>(t.spec.size)});
  collector_.report(record);
  if (t.on_done) t.on_done(record);
}

void TransferEngine::fail_permanently(std::uint64_t id) {
  GRIDVC_REQUIRE(at(id).flows.empty(), "permanent failure with flows still in flight");
  TransferRecord record;
  record.failed = true;
  Active t = take(id, record);
  ++stats_.failed_transfers;
  network_.simulator().obs().registry().add(id_failed_);
  collector_.report(record);
  if (t.on_done) t.on_done(record);
}

void TransferEngine::handle_server_down(Server* server) {
  GRIDVC_REQUIRE(server != nullptr, "handle_server_down needs a server");
  if (server->online()) server->set_online(false);
  const Seconds now = network_.simulator().now();
  obs::Observability& obs = network_.simulator().obs();
  ++stats_.server_crashes;
  obs.registry().add(id_crashes_);

  // Phase 1 — collect the transfers that touch the dead server and are
  // not already parked. transfers_ is id-ordered, so the abort order (and
  // with it every downstream event) is deterministic.
  std::vector<std::uint64_t> affected;
  for (const Active& t : transfers_) {
    if (t.live && (t.spec.src.server == server || t.spec.dst.server == server) &&
        !waiting_.contains(t.id)) {
      affected.push_back(t.id);
    }
  }
  obs.emit({now, obs::TraceEventType::kServerDown, server->config().id,
            static_cast<std::uint64_t>(affected.size()), 0.0, 0.0});

  // Phase 2 — kill the data plane. Settle each live flow's delivered
  // bytes first (they survive as GridFTP restart markers), then abort it;
  // abort_flow fires no completion callback, so attempt_complete never
  // runs for these.
  for (std::uint64_t id : affected) {
    Active& t = at(id);
    t.injection.cancel();
    if (!t.flows.empty()) {
      for (net::FlowId fid : t.flows) {
        t.attempt_delivered += network_.sent_bytes(fid);
        network_.abort_flow(fid);
      }
      t.flows.clear();
      t.attempt_aborted = true;
    }
  }

  // Phase 3 — drop the survivors' registrations at their other endpoint
  // (the dead server already cleared its own). Safe now: every affected
  // transfer has empty flows, so the notify -> refresh_caps storm skips
  // them and never queries a share the dead server no longer has.
  for (std::uint64_t id : affected) {
    Active& t = at(id);
    if (!t.registered) continue;
    Server* other = t.spec.src.server == server ? t.spec.dst.server : t.spec.src.server;
    if (other != server && other->online()) other->remove_transfer(id);
    t.registered = false;
  }

  // Phase 4 — settle outcomes: credit restart markers, charge the killed
  // attempt as an abort (terminal after max_aborts), park the rest.
  for (std::uint64_t id : affected) {
    Active& t = at(id);
    const bool killed_attempt = t.attempt_aborted;
    t.attempt_aborted = false;
    if (killed_attempt) {
      t.bytes_done += std::min(t.attempt_delivered, t.attempt_bytes);
      t.attempt_delivered = 0;
    }
    if (t.bytes_done >= t.spec.size) {
      finish(id);
      continue;
    }
    if (killed_attempt && charge_abort(t)) continue;
    waiting_.insert(id);
  }
  set_waiting_gauge();
}

void TransferEngine::handle_server_up(Server* server) {
  GRIDVC_REQUIRE(server != nullptr, "handle_server_up needs a server");
  if (!server->online()) server->set_online(true);
  const Seconds now = network_.simulator().now();
  obs::Observability& obs = network_.simulator().obs();
  obs.emit({now, obs::TraceEventType::kServerUp, server->config().id, 0, 0.0, 0.0});

  std::vector<std::uint64_t> resumable;
  for (std::uint64_t id : waiting_) {
    if (endpoints_online(at(id))) resumable.push_back(id);
  }
  for (std::uint64_t id : resumable) {
    waiting_.erase(id);
    Active& t = at(id);
    if (t.attempts == 0) {
      // Submitted while an endpoint was down: this is its first injection,
      // so pay the normal Slow Start ramp rather than a retry backoff.
      const Seconds penalty = tcp_.slow_start_penalty(
          stripe_chunk(t.spec.size, t.spec.stripes), t.spec.streams, t.spec.rtt,
          std::max(1.0, transfer_cap(t) / static_cast<double>(t.spec.stripes)));
      const std::uint64_t id_copy = id;
      t.injection = network_.simulator().schedule_in(
          penalty, [this, id_copy] { begin_attempt(id_copy); });
    } else {
      schedule_retry(id);
    }
  }
  set_waiting_gauge();
}

void TransferEngine::set_guarantee(std::uint64_t transfer_id, BitsPerSecond guarantee) {
  Active* found = find(transfer_id);
  // Circuit callbacks legitimately outlive the transfers they fed (the
  // transfer finished or failed while its circuit was still active).
  if (found == nullptr) return;
  Active& t = *found;
  t.spec.guarantee = guarantee;
  // During a retry backoff there are no flows; the stored spec value
  // applies when the next attempt starts. Otherwise split across the
  // attempt's live flows — completed stripes have already left t.flows.
  if (t.flows.empty()) return;
  const BitsPerSecond share = guarantee / static_cast<double>(t.flows.size());
  for (net::FlowId fid : t.flows) {
    network_.update_guarantee(fid, share);
  }
}

void TransferEngine::push_cap(Active& t, BitsPerSecond cap) {
  const BitsPerSecond per_flow = cap / static_cast<double>(t.flows.size());
  if (per_flow == t.flow_cap) return;  // the network would ignore it too
  t.flow_cap = per_flow;
  for (net::FlowId fid : t.flows) network_.update_cap(fid, per_flow);
}

void TransferEngine::refresh_caps(Server& server) {
  // A registration change moves shares at this server only, so a transfer
  // elsewhere keeps its cap, and so does one here whose share did not
  // move: its other share and its flow count are as at its last push. The
  // network defers its recompute to the end of the dispatch batch, so
  // pushing the caps one by one still costs a single allocator pass.
  server.for_each_changed_share([this](std::uint64_t id, BitsPerSecond) {
    Active* t = find(id);
    if (t != nullptr && !t->flows.empty()) push_cap(*t, transfer_cap(*t));
  });
  // A finished stripe leaves its siblings on the old split until a change
  // at either endpoint server re-splits the cap across the survivors.
  std::erase_if(resplit_, [&](std::uint64_t id) {
    Active* t = find(id);
    if (t == nullptr || t->flows.empty()) return true;
    if (t->spec.src.server != &server && t->spec.dst.server != &server) return false;
    push_cap(*t, transfer_cap(*t));
    return true;
  });
}

}  // namespace gridvc::gridftp
