#ifndef NBRAFT_NET_NETWORK_H_
#define NBRAFT_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/sim_time.h"
#include "net/payload.h"
#include "obs/journal.h"
#include "sim/simulator.h"

namespace nbraft::net {

/// Endpoint identifier. Replica nodes use small non-negative ids; client
/// connections use ids at or above kClientIdBase.
using NodeId = int32_t;
constexpr NodeId kInvalidNode = -1;
constexpr NodeId kClientIdBase = 10000;

inline bool IsClientId(NodeId id) { return id >= kClientIdBase; }

/// A delivered datagram. `payload` carries a protocol-defined struct behind
/// a refcount (PayloadRef keeps the network layer protocol-agnostic without
/// std::any's deep copies); `bytes` is the modelled wire size, which drives
/// serialization/bandwidth costs.
struct Message {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  size_t bytes = 0;
  SimTime sent_at = 0;
  PayloadRef payload;
};

using MessageHandler = std::function<void(Message&&)>;

/// Network model parameters. Defaults approximate the paper's LAN testbed
/// (10 Gb/s NICs, sub-millisecond RTT with scheduling jitter).
struct NetworkConfig {
  /// Per-NIC bandwidth in bits per second, applied independently to each
  /// node's egress and ingress. Shared ingress at the leader is what makes
  /// t_trans(CL) scale as b/(w_net/N_cli) in the paper's Step 1 cost model.
  double nic_bandwidth_bps = 10e9;

  /// One-way propagation delay between any pair, unless overridden by a
  /// per-pair entry (used for geo-distributed topologies).
  SimDuration base_latency = Micros(120);

  /// Mean of the exponential per-message scheduling/queuing jitter. Jitter
  /// is what makes entries arrive out of order — the root cause of the
  /// paper's t_wait(F) bottleneck.
  SimDuration jitter_mean = Micros(160);

  /// Probability a message is silently dropped (in addition to partitions
  /// and crashed endpoints).
  double drop_probability = 0.0;
};

/// Message accounting snapshot. Every accepted Send() ends up delivered or
/// dropped; until its arrival event fires it is in flight. The invariant
/// `sent == delivered + dropped + in_flight` holds at every instant — a
/// message can't be double-counted or leak — and once the simulator drains,
/// in_flight is 0 and `sent == delivered + dropped` exactly.
struct NetStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t messages_in_flight = 0;
  uint64_t bytes_sent = 0;

  bool Consistent() const {
    return messages_sent ==
           messages_delivered + messages_dropped + messages_in_flight;
  }
};

/// Simulated network: point-to-point datagrams with per-NIC serialization
/// queues, propagation latency, jitter-induced reordering, loss, node
/// crashes and partitions. Single-threaded, driven by the Simulator.
///
/// Per-endpoint state (handlers, NICs, up/down) lives in dense vectors
/// indexed by NodeId — replicas from 0, clients from kClientIdBase — so the
/// per-message hot path is two array reads, not hash lookups.
class SimNetwork {
 public:
  SimNetwork(sim::Simulator* sim, NetworkConfig config);

  /// Registers the handler invoked for messages delivered to `id`.
  /// Registering twice replaces the handler.
  void RegisterEndpoint(NodeId id, MessageHandler handler);
  /// The handler registered for `id` (empty when none), so a caller can
  /// wrap an endpoint's delivery path and register the wrapper.
  MessageHandler handler(NodeId id) const {
    const MessageHandler* h = handlers_.Find(id);
    return h != nullptr ? *h : MessageHandler();
  }

  /// Binds endpoint `id` onto physical host `physical`. All endpoints bound
  /// to one host share its NIC serialization queues, up/down state, and
  /// partition/isolation faults — this is how several consensus groups
  /// co-resident on one machine contend for its network resources. Unbound
  /// endpoints (the default) are their own host, so a single-group cluster
  /// behaves exactly as before.
  void BindEndpoint(NodeId id, NodeId physical);

  /// The physical host an endpoint is bound to (itself when unbound).
  NodeId PhysicalOf(NodeId id) const {
    const NodeId* p = physical_plus1_.Find(id);
    return (p == nullptr || *p == 0) ? id : *p - 1;
  }

  /// Queues a message. Returns the scheduled arrival time, or -1 if the
  /// message was dropped at send time (down endpoint, partition, loss).
  /// Delivery can still silently fail if the receiver goes down in flight.
  SimTime Send(NodeId from, NodeId to, size_t bytes, PayloadRef payload);

  /// Symmetric one-way latency override for a pair (geo topologies).
  /// Physical-host scoped: pass host ids, and every endpoint bound to the
  /// pair inherits the latency.
  void SetPairLatency(NodeId a, NodeId b, SimDuration latency);

  /// Marks a node up/down. Messages to or from a down node are dropped;
  /// in-flight messages to it are dropped at delivery time. Host scoped:
  /// taking one endpoint down takes its physical host — and every
  /// co-resident endpoint — down with it.
  void SetNodeUp(NodeId id, bool up);

  /// Cuts / restores connectivity between two nodes. With `bidirectional`
  /// (the default, matching the historical API) both directions are
  /// affected; otherwise only messages a -> b are cut, which expresses the
  /// classic "leader sends but cannot hear" asymmetric failure.
  void SetLinkCut(NodeId a, NodeId b, bool cut, bool bidirectional = true);

  /// One-way cut: messages `from` -> `to` are dropped, the reverse
  /// direction is untouched. Equivalent to SetLinkCut(from, to, cut, false).
  void SetOneWayCut(NodeId from, NodeId to, bool cut);

  /// Isolates `id` from every other node without marking it down.
  void Isolate(NodeId id, bool isolated);

  const NetworkConfig& config() const { return config_; }
  void set_drop_probability(double p) { config_.drop_probability = p; }

  /// Additional one-way delay added to every message (delay storms). Only
  /// affects messages sent while the value is non-zero.
  void set_extra_delay(SimDuration d) { extra_delay_ = d; }
  SimDuration extra_delay() const { return extra_delay_; }

  /// Attaches the cluster flight recorder (nullptr = off, the default).
  /// The network records only drops — kRpcDrop with (from, to, bytes),
  /// sender first whether the drop happens at send or delivery time —
  /// because sends/receives are journaled, with their RPC kind, by the
  /// endpoints. Purely observational: delivery order and timing are
  /// unaffected.
  void set_journal(obs::Journal* journal) { journal_ = journal; }

  uint64_t messages_sent() const { return stats_.messages_sent; }
  uint64_t messages_delivered() const { return stats_.messages_delivered; }
  uint64_t messages_dropped() const { return stats_.messages_dropped; }
  uint64_t bytes_sent() const { return stats_.bytes_sent; }

  /// Accounting snapshot; see NetStats for the conservation invariant.
  const NetStats& stats() const { return stats_; }

 private:
  struct Nic {
    SimTime egress_free_at = 0;
    SimTime ingress_free_at = 0;
  };

  /// Dense per-endpoint storage split across the two NodeId ranges
  /// (replicas from 0, clients from kClientIdBase). Grows on first touch.
  template <typename T>
  class NodeTable {
   public:
    T& At(NodeId id) {
      std::vector<T>& vec = IsClientId(id) ? clients_ : nodes_;
      const auto index = Index(id);
      if (index >= vec.size()) vec.resize(index + 1);
      return vec[index];
    }
    T* Find(NodeId id) {
      std::vector<T>& vec = IsClientId(id) ? clients_ : nodes_;
      const auto index = Index(id);
      return index < vec.size() ? &vec[index] : nullptr;
    }
    const T* Find(NodeId id) const {
      const std::vector<T>& vec = IsClientId(id) ? clients_ : nodes_;
      const auto index = Index(id);
      return index < vec.size() ? &vec[index] : nullptr;
    }

   private:
    static size_t Index(NodeId id) {
      return static_cast<size_t>(IsClientId(id) ? id - kClientIdBase : id);
    }
    std::vector<T> nodes_;
    std::vector<T> clients_;
  };

  static uint64_t PairKey(NodeId a, NodeId b);
  static uint64_t DirectedKey(NodeId from, NodeId to);
  SimDuration LatencyFor(NodeId from, NodeId to) const;
  SimDuration SerializationTime(size_t bytes) const;
  bool LinkBlocked(NodeId from, NodeId to) const;
  /// Takes a *physical* host id (callers map endpoints via PhysicalOf).
  bool IsDown(NodeId physical) const {
    const uint8_t* flag = down_.Find(physical);
    return flag != nullptr && *flag != 0;
  }

  /// Final delivery step, run once the receiver's ingress NIC has drained
  /// the message: re-checks liveness, records stats/trace, invokes the
  /// handler.
  void Deliver(Message&& msg);

  sim::Simulator* sim_;
  NetworkConfig config_;
  NodeTable<MessageHandler> handlers_;  ///< Per endpoint.
  /// Endpoint -> physical host + 1; 0 = unbound (endpoint is its own
  /// host). NICs, down flags, cuts, isolation and pair latencies below are
  /// all keyed by physical host so co-resident endpoints share them.
  NodeTable<NodeId> physical_plus1_;
  NodeTable<Nic> nics_;
  NodeTable<uint8_t> down_;  ///< 1 = down.
  std::unordered_set<NodeId> isolated_nodes_;
  std::unordered_set<uint64_t> cut_links_;
  std::unordered_set<uint64_t> one_way_cuts_;  ///< Directed (from, to) keys.
  std::unordered_map<uint64_t, SimDuration> pair_latency_;
  SimDuration extra_delay_ = 0;
  nbraft::Rng rng_;
  obs::Journal* journal_ = nullptr;

  NetStats stats_;
};

/// Builds the paper's Fig. 20 geo-distributed topology: one-way latencies
/// between Beijing, Guangzhou, Shanghai, Hangzhou and Chengdu for the given
/// node ids (in that order). Values are typical inter-region RTT/2 for
/// Chinese cloud regions.
void ApplyGeoTopology(SimNetwork* net, const std::vector<NodeId>& nodes);

}  // namespace nbraft::net

#endif  // NBRAFT_NET_NETWORK_H_
