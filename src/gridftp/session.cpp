#include "gridftp/session.hpp"

#include "common/error.hpp"

namespace gridvc::gridftp {

SessionRunner::SessionRunner(sim::Simulator& sim, TransferEngine& engine)
    : sim_(sim), engine_(engine) {}

std::uint64_t SessionRunner::run(SessionScript script, SessionDoneFn on_done) {
  GRIDVC_REQUIRE(!script.file_sizes.empty(), "session needs at least one file");
  GRIDVC_REQUIRE(script.concurrency >= 1, "session concurrency must be >= 1");
  GRIDVC_REQUIRE(script.inter_file_gap >= 0.0, "negative inter-file gap");

  const std::uint64_t id = next_id_++;
  ActiveSession s;
  s.script = std::move(script);
  s.summary.session_id = id;
  s.summary.start_time = sim_.now();
  s.on_done = std::move(on_done);
  sim_.obs().emit({sim_.now(), obs::TraceEventType::kSessionOpened, id,
                   static_cast<std::uint64_t>(s.script.file_sizes.size()),
                   static_cast<double>(s.script.concurrency), 0.0});
  sessions_.emplace(id, std::move(s));
  pump(id);
  return id;
}

void SessionRunner::pump(std::uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  ActiveSession& s = it->second;
  while (s.next_file < s.script.file_sizes.size() &&
         s.in_flight < static_cast<std::size_t>(s.script.concurrency)) {
    TransferSpec spec = s.script.transfer_template;
    spec.size = s.script.file_sizes[s.next_file];
    ++s.next_file;
    ++s.in_flight;
    engine_.submit(std::move(spec), [this, session_id](const TransferRecord& record) {
      auto sit = sessions_.find(session_id);
      if (sit == sessions_.end()) return;
      ActiveSession& session = sit->second;
      ++session.summary.transfers;
      session.summary.total_bytes += record.size;
      on_transfer_done(session_id);
    });
  }
}

void SessionRunner::on_transfer_done(std::uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  ActiveSession& s = it->second;
  GRIDVC_REQUIRE(s.in_flight > 0, "session in-flight underflow");
  --s.in_flight;

  const bool more_files = s.next_file < s.script.file_sizes.size();
  if (more_files) {
    if (s.script.inter_file_gap > 0.0) {
      sim_.schedule_in(s.script.inter_file_gap, [this, session_id] { pump(session_id); });
    } else {
      pump(session_id);
    }
    return;
  }
  if (s.in_flight == 0) {
    s.summary.end_time = sim_.now();
    SessionSummary summary = s.summary;
    SessionDoneFn callback = std::move(s.on_done);
    sessions_.erase(it);
    sim_.obs().emit({sim_.now(), obs::TraceEventType::kSessionClosed,
                     summary.session_id, summary.transfers, summary.duration(),
                     static_cast<double>(summary.total_bytes)});
    if (callback) callback(summary);
  }
}

}  // namespace gridvc::gridftp
