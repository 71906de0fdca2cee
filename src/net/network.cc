#include "net/network.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace nbraft::net {

SimNetwork::SimNetwork(sim::Simulator* sim, NetworkConfig config)
    : sim_(sim), config_(config), rng_(sim->rng()->Next()) {}

void SimNetwork::RegisterEndpoint(NodeId id, MessageHandler handler) {
  handlers_.At(id) = std::move(handler);
}

void SimNetwork::BindEndpoint(NodeId id, NodeId physical) {
  physical_plus1_.At(id) = physical + 1;
}

uint64_t SimNetwork::PairKey(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

uint64_t SimNetwork::DirectedKey(NodeId from, NodeId to) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
         static_cast<uint32_t>(to);
}

SimDuration SimNetwork::LatencyFor(NodeId from, NodeId to) const {
  if (pair_latency_.empty()) return config_.base_latency;
  const auto it = pair_latency_.find(PairKey(from, to));
  return it != pair_latency_.end() ? it->second : config_.base_latency;
}

SimDuration SimNetwork::SerializationTime(size_t bytes) const {
  if (config_.nic_bandwidth_bps <= 0) return 0;
  const double seconds =
      static_cast<double>(bytes) * 8.0 / config_.nic_bandwidth_bps;
  return static_cast<SimDuration>(seconds * static_cast<double>(kSecond));
}

bool SimNetwork::LinkBlocked(NodeId from, NodeId to) const {
  if (!isolated_nodes_.empty() &&
      (isolated_nodes_.count(from) > 0 || isolated_nodes_.count(to) > 0)) {
    return true;
  }
  if (!one_way_cuts_.empty() &&
      one_way_cuts_.count(DirectedKey(from, to)) > 0) {
    return true;
  }
  return !cut_links_.empty() && cut_links_.count(PairKey(from, to)) > 0;
}

SimTime SimNetwork::Send(NodeId from, NodeId to, size_t bytes,
                         PayloadRef payload) {
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;

  // All fault and resource state is per physical host: co-resident
  // endpoints (several consensus groups on one machine) share crash
  // state, partitions, and NIC serialization queues.
  const NodeId pfrom = PhysicalOf(from);
  const NodeId pto = PhysicalOf(to);

  if (IsDown(pfrom) || IsDown(pto) || LinkBlocked(pfrom, pto) ||
      rng_.NextBool(config_.drop_probability)) {
    ++stats_.messages_dropped;
    if (journal_ != nullptr) {
      journal_->Record(obs::JournalEventKind::kRpcDrop, from, to, -1,
                       static_cast<int64_t>(bytes));
    }
    return -1;
  }

  const SimTime now = sim_->Now();
  const SimDuration ser = SerializationTime(bytes);

  // Egress NIC of the sender's host: serialization queue.
  Nic& src = nics_.At(pfrom);
  const SimTime tx_start = std::max(src.egress_free_at, now);
  const SimTime tx_done = tx_start + ser;
  src.egress_free_at = tx_done;

  // Propagation + scheduling jitter. Jitter varies per message, so two
  // messages sent back-to-back can arrive in either order — the disorder
  // the paper's t_wait(F) bottleneck stems from.
  SimDuration jitter = 0;
  if (config_.jitter_mean > 0) {
    jitter = static_cast<SimDuration>(
        rng_.NextExponential(static_cast<double>(config_.jitter_mean)));
  }
  const SimTime propagated =
      tx_done + LatencyFor(pfrom, pto) + jitter + extra_delay_;

  Message msg;
  msg.from = from;
  msg.to = to;
  msg.bytes = bytes;
  msg.sent_at = now;
  msg.payload = std::move(payload);

  ++stats_.messages_in_flight;

  // The receiver's ingress NIC slot is claimed when the packet *arrives*
  // (not when it was sent): reordered packets are served in arrival order,
  // and the shared inbound link saturates when many clients send at once.
  // The serialization time is recomputed from msg.bytes at arrival — it is
  // a pure function of the (immutable) bandwidth, and not capturing it
  // keeps the capture inside EventFn's inline buffer.
  sim_->At(propagated, [this, msg = std::move(msg)]() mutable {
    Nic& dst = nics_.At(PhysicalOf(msg.to));
    const SimTime rx_start = std::max(dst.ingress_free_at, sim_->Now());
    const SimTime rx_done = rx_start + SerializationTime(msg.bytes);
    dst.ingress_free_at = rx_done;
    if (rx_done == sim_->Now()) {
      // Idle ingress, zero serialization time: the chained completion
      // event would fire at this same instant — deliver directly instead
      // of paying for a second event.
      Deliver(std::move(msg));
      return;
    }
    sim_->At(rx_done,
             [this, msg = std::move(msg)]() mutable { Deliver(std::move(msg)); });
  });
  return propagated + ser;
}

void SimNetwork::Deliver(Message&& msg) {
  --stats_.messages_in_flight;
  if (IsDown(PhysicalOf(msg.to))) {
    ++stats_.messages_dropped;
    if (journal_ != nullptr) {
      journal_->Record(obs::JournalEventKind::kRpcDrop, msg.from, msg.to,
                       -1, static_cast<int64_t>(msg.bytes));
    }
    return;
  }
  MessageHandler* handler = handlers_.Find(msg.to);
  if (handler == nullptr || !*handler) {
    ++stats_.messages_dropped;
    if (journal_ != nullptr) {
      journal_->Record(obs::JournalEventKind::kRpcDrop, msg.from, msg.to,
                       -1, static_cast<int64_t>(msg.bytes));
    }
    return;
  }
  ++stats_.messages_delivered;
  (*handler)(std::move(msg));
}

void SimNetwork::SetPairLatency(NodeId a, NodeId b, SimDuration latency) {
  pair_latency_[PairKey(PhysicalOf(a), PhysicalOf(b))] = latency;
}

void SimNetwork::SetNodeUp(NodeId id, bool up) {
  const NodeId physical = PhysicalOf(id);
  if (up) {
    down_.At(physical) = 0;
  } else {
    down_.At(physical) = 1;
    // A restarting host starts with quiet NICs.
    nics_.At(physical) = Nic{};
  }
}

void SimNetwork::SetLinkCut(NodeId a, NodeId b, bool cut,
                            bool bidirectional) {
  if (bidirectional) {
    if (cut) {
      cut_links_.insert(PairKey(PhysicalOf(a), PhysicalOf(b)));
    } else {
      cut_links_.erase(PairKey(PhysicalOf(a), PhysicalOf(b)));
    }
    return;
  }
  SetOneWayCut(a, b, cut);
}

void SimNetwork::SetOneWayCut(NodeId from, NodeId to, bool cut) {
  if (cut) {
    one_way_cuts_.insert(DirectedKey(PhysicalOf(from), PhysicalOf(to)));
  } else {
    one_way_cuts_.erase(DirectedKey(PhysicalOf(from), PhysicalOf(to)));
  }
}

void SimNetwork::Isolate(NodeId id, bool isolated) {
  if (isolated) {
    isolated_nodes_.insert(PhysicalOf(id));
  } else {
    isolated_nodes_.erase(PhysicalOf(id));
  }
}

void ApplyGeoTopology(SimNetwork* net, const std::vector<NodeId>& nodes) {
  NBRAFT_CHECK_LE(nodes.size(), 5u);
  // One-way latency (ms) between Beijing, Guangzhou, Shanghai, Hangzhou,
  // Chengdu — typical inter-region figures for Chinese cloud regions.
  static constexpr double kLatencyMs[5][5] = {
      //        BJ    GZ    SH    HZ    CD
      /*BJ*/ {0.3, 23.0, 13.0, 14.0, 19.0},
      /*GZ*/ {23.0, 0.3, 15.0, 14.0, 17.0},
      /*SH*/ {13.0, 15.0, 0.3, 3.0, 20.0},
      /*HZ*/ {14.0, 14.0, 3.0, 0.3, 19.0},
      /*CD*/ {19.0, 17.0, 20.0, 19.0, 0.3},
  };
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      const double ms = kLatencyMs[i][j];
      net->SetPairLatency(nodes[i], nodes[j],
                          static_cast<SimDuration>(ms * kMillisecond));
    }
  }
}

}  // namespace nbraft::net
