// Latency-stamped inter-shard messages.
//
// Worlds never touch each other's state directly: every cross-domain
// interaction — a transfer handed to the next domain on its path, the
// hop-by-hop two-phase VC chain booking, the completion relay that walks
// back to the origin — is a ShardMessage queued on the sending world's
// outbox during an epoch and delivered by the coordinator at the next
// barrier. A message's deliver_time is its send time plus the crossed
// gateway's propagation delay, which is >= the partition lookahead; the
// epoch horizon is min(next event) + lookahead, so a message sent inside
// an epoch always lands at or beyond the barrier that closes it — no
// world ever executes past what a neighbor could still affect.
//
// Delivery order is the total order (deliver_time, src_domain, seq):
// deterministic whatever thread interleaving produced the outboxes,
// which is half of the byte-identical-digest story (the other half is
// that the decomposition is per-domain regardless of --shards).
#pragma once

#include <bit>
#include <cstdint>

#include "common/units.hpp"
#include "shard/partition.hpp"

namespace gridvc::shard {

enum class MessageKind : std::uint8_t {
  kSegmentHandoff,    ///< start the next per-domain leg of a transfer
  kVcBook,            ///< forward chain booking: book leg's segment circuit
  kVcBookOk,          ///< backward: every downstream segment admitted
  kVcBookReject,      ///< backward: a downstream domain rejected; roll back
  kCompletionRelay,   ///< backward: final leg done; free slots, release VCs
};

struct ShardMessage {
  MessageKind kind = MessageKind::kSegmentHandoff;
  std::uint32_t src_domain = 0;
  std::uint32_t dst_domain = 0;
  Seconds send_time = 0.0;
  Seconds deliver_time = 0.0;
  std::uint64_t seq = 0;       ///< per-source-world send counter (tiebreak)
  std::uint64_t transfer = 0;  ///< global transfer id; chains share it
  std::uint32_t leg = 0;       ///< index into cut_path legs this targets
  Bytes bytes = 0;
  BitsPerSecond rate = 0.0;    ///< requested chain guarantee (kVcBook)
  Seconds window = 0.0;        ///< requested circuit hold (kVcBook)
  RouteRef route;              ///< the transfer's path and legs (not hashed)
};

/// The deterministic delivery order.
inline bool message_before(const ShardMessage& a, const ShardMessage& b) {
  if (a.deliver_time != b.deliver_time) return a.deliver_time < b.deliver_time;
  if (a.src_domain != b.src_domain) return a.src_domain < b.src_domain;
  return a.seq < b.seq;
}

/// FNV-1a fold of one message into a running digest hash. Folding the
/// sorted message stream captures every cross-shard interaction, so two
/// runs with equal hashes exercised identical inter-domain behavior.
inline std::uint64_t fold_message(std::uint64_t h, const ShardMessage& m) {
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(m.kind));
  mix((static_cast<std::uint64_t>(m.src_domain) << 32) | m.dst_domain);
  mix(std::bit_cast<std::uint64_t>(m.deliver_time));
  mix(m.seq);
  mix(m.transfer);
  mix(m.leg);
  mix(m.bytes);
  return h;
}

}  // namespace gridvc::shard
