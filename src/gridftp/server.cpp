#include "gridftp/server.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gridvc::gridftp {

Server::Server(ServerConfig config) : config_(std::move(config)) {
  GRIDVC_REQUIRE(!config_.name.empty(), "server needs a name");
  GRIDVC_REQUIRE(config_.nic_rate > 0.0, "server NIC rate must be positive");
  GRIDVC_REQUIRE(config_.pool_size >= 1, "server pool must have at least one host");
}

auto Server::lower_bound(std::uint64_t transfer_id) const
    -> std::vector<Registered>::const_iterator {
  return std::lower_bound(transfers_.begin(), transfers_.end(), transfer_id,
                          [](const Registered& reg, std::uint64_t key) { return reg.id < key; });
}

void Server::set_pool_size(int pool_size) {
  GRIDVC_REQUIRE(pool_size >= 1, "server pool must have at least one host");
  if (config_.pool_size == pool_size) return;
  config_.pool_size = pool_size;
  // Transfers registered with more stripes than the new pool shrink their
  // engagement.
  total_engaged_ = 0;
  for (Registered& reg : transfers_) {
    reg.engaged_hosts = std::min(reg.engaged_hosts, pool_size);
    total_engaged_ += reg.engaged_hosts;
  }
  notify();
}

void Server::set_nic_rate(BitsPerSecond nic_rate) {
  GRIDVC_REQUIRE(nic_rate > 0.0, "server NIC rate must be positive");
  if (config_.nic_rate == nic_rate) return;
  config_.nic_rate = nic_rate;
  notify();
}

void Server::set_online(bool online) {
  if (online_ == online) return;
  online_ = online;
  if (!online_) {
    // Crash semantics: every registration is resource state of the dead
    // process and is gone. No notify here — shares of the still-running
    // transfers are meaningless until the engine has aborted them (see
    // TransferEngine::handle_server_down), and a listener firing first
    // would query shares for ids this server no longer knows.
    transfers_.clear();
    total_engaged_ = 0;
    return;
  }
  notify();
}

void Server::add_transfer(std::uint64_t transfer_id, int stripes, IoMode io) {
  GRIDVC_REQUIRE(online_, "cannot register a transfer with an offline server");
  GRIDVC_REQUIRE(stripes >= 1, "transfer needs at least one stripe");
  const auto it = lower_bound(transfer_id);
  GRIDVC_REQUIRE(it == transfers_.end() || it->id != transfer_id,
                 "transfer already registered");
  Registered reg;
  reg.id = transfer_id;
  reg.engaged_hosts = std::min(stripes, config_.pool_size);
  reg.io = io;
  transfers_.insert(it, reg);
  total_engaged_ += reg.engaged_hosts;
  notify();
}

void Server::remove_transfer(std::uint64_t transfer_id) {
  const auto it = lower_bound(transfer_id);
  GRIDVC_REQUIRE(it != transfers_.end() && it->id == transfer_id, "transfer not registered");
  total_engaged_ -= it->engaged_hosts;
  transfers_.erase(it);
  notify();
}

BitsPerSecond Server::share(std::uint64_t transfer_id) const {
  const auto it = lower_bound(transfer_id);
  GRIDVC_REQUIRE(it != transfers_.end() && it->id == transfer_id, "transfer not registered");
  return share_of(*it);
}

void Server::set_change_listener(std::function<void()> listener, const void* owner) {
  listener_ = std::move(listener);
  listener_owner_ = owner;
}

void Server::notify() {
  if (listener_) listener_();
}

}  // namespace gridvc::gridftp
