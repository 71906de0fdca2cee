#ifndef NBRAFT_RAFT_REPLICATION_PIPELINE_H_
#define NBRAFT_RAFT_REPLICATION_PIPELINE_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "common/index_ring.h"
#include "raft/messages.h"
#include "raft/node_context.h"

namespace nbraft::raft {

/// The leader side of replication (the paper's Fig. 3 pipeline): client
/// request intake (parse -> serialized indexing lane), per-follower
/// dispatcher queues, in-flight RPC bookkeeping with timeouts, heartbeat
/// fan-out, lagging-peer catch-up and snapshot sends. CRaft fragmenting,
/// KRaft relay assembly and VGRaft signing hook in on this side too. Each
/// AppendEntries RPC carries one entry.
class ReplicationPipeline {
 public:
  explicit ReplicationPipeline(NodeContext* ctx) : ctx_(ctx) {}

  // ---- Client request path ----
  void HandleClientRequest(ClientRequest req, SimTime received_at,
                           SimTime sent_at);

  // ---- Fan-out ----
  void ReplicateEntry(const storage::LogEntry& entry);
  void EnqueueForPeer(net::NodeId peer, storage::LogIndex index);
  void TryDispatch(net::NodeId peer);

  // ---- Responses / timeouts ----
  void HandleAppendResponse(AppendEntriesResponse resp);
  void HandleInstallSnapshotResponse(const InstallSnapshotResponse& resp);

  // ---- Heartbeats, catch-up, snapshots ----
  void BroadcastHeartbeat();
  void MaybeCatchUpPeer(net::NodeId peer, storage::LogIndex follower_last);
  void SendInstallSnapshot(net::NodeId peer);

  // ---- Lifecycle ----
  /// Drops all leader-only state: peer pipelines, outstanding RPCs (with
  /// their timeouts), fragment caches and the liveness estimate. Called on
  /// Crash(), StepDown() and BecomeLeader() so nothing leaks across
  /// leadership changes.
  void ResetLeaderState();

  /// Commit releases the fragment cache for an index (committed entries
  /// fall back to full payloads on re-send).
  void ReleaseFragments(storage::LogIndex index);

  // ---- Introspection ----
  /// Entries sitting in dispatcher queues across all peers (telemetry).
  size_t DispatcherQueueDepth() const;
  /// AppendEntries / InstallSnapshot RPCs currently on the wire.
  size_t OutstandingRpcCount() const { return outstanding_rpcs_.size(); }
  /// True when every leader-only container is empty (step-down audit).
  bool LeaderStateEmpty() const {
    return peer_state_.empty() && outstanding_rpcs_.empty() &&
           fragment_cache_.empty() && fragment_required_.empty();
  }

  // ---- Liveness helpers (shared with the applier's commit rules) ----
  int AliveNodes() const;
  bool IsPeerAlive(net::NodeId peer) const;
  /// Peers whose last AppendEntries/InstallSnapshot response arrived at or
  /// after `since` (CheckQuorum: the leader counts these + itself against
  /// the quorum once per election timeout).
  int PeersRespondedSince(SimTime since) const;
  int RequiredStrong(bool fragmented, int k);
  /// KRaft's relay bucket: ceil((N-1)/2) followers. 0 (send to every
  /// follower) for the other protocols and for a single follower.
  int EffectiveKBucket() const;
  const std::unordered_map<storage::LogIndex, int>& fragment_required()
      const {
    return fragment_required_;
  }

 private:
  /// Where one index stands in a peer's pipeline; indices with no slot
  /// are neither queued nor on the wire.
  struct PendingIndex {
    SimTime queued_at = 0;  ///< Enqueue time while queued.
    bool in_flight = false;
  };

  /// Leader-side replication state for one follower connection.
  struct PeerState {
    /// Queued and in-flight indices (the two are disjoint). Ascending, so
    /// dispatch takes the lowest queued index.
    IndexRing<PendingIndex> pending;
    size_t queued = 0;  ///< Slots of `pending` that are queued.
    /// No queued index lies below this. Dispatch scans from here, not
    /// from the ring front: an RPC the follower holds open keeps its
    /// in-flight slot at the front while later indices land behind it.
    storage::LogIndex queued_floor = 0;
    int busy_dispatchers = 0;
    bool snapshot_in_flight = false;
    storage::LogIndex mismatch_probe = -1;  ///< Backtracking cursor.
    /// Highest index ever enqueued for this peer; heartbeat catch-up only
    /// fills in above it (the pipeline below is in flight or completed —
    /// losses there are the RPC timeout's job, not catch-up's).
    storage::LogIndex max_enqueued = 0;
    /// Lowest index this leadership handed to the peer (0 = none yet). The
    /// max_enqueued bound holds only from here up: entries below it
    /// predate this leader's peer state and were never sent by it.
    storage::LogIndex min_enqueued = 0;
    SimTime last_response_at = 0;           ///< Liveness estimate.
    /// Stagnation detection: last log end the follower reported and when
    /// it last advanced. A follower stuck below the commit index (e.g.
    /// weakly accepted entries wiped with its window) gets a forced
    /// re-send.
    storage::LogIndex last_reported = -1;
    SimTime last_advance_at = 0;
  };

  /// An in-flight AppendEntries or InstallSnapshot RPC for log `index`.
  struct OutstandingRpc {
    net::NodeId peer = net::kInvalidNode;
    storage::LogIndex index = 0;
    bool is_snapshot = false;
    sim::EventId timeout_event = sim::kInvalidEventId;
  };

  void IndexAndReplicate(ClientRequest req);
  void SendAppendRpc(net::NodeId peer, storage::LogIndex index);
  /// Queues `index` for `peer` (absent from its pipeline) at time now.
  void Queue(PeerState* ps, storage::LogIndex index);
  /// Takes `index` off the wire for `peer` (a response or timeout).
  static void LandInFlight(PeerState* ps, storage::LogIndex index);
  void OnRpcTimeout(uint64_t rpc_id);
  /// False only when dynamic membership is active and `peer` is outside
  /// the active configuration (removed nodes get no replication traffic).
  bool KnowsPeer(net::NodeId peer);

  NodeContext* ctx_;
  std::map<net::NodeId, PeerState> peer_state_;
  /// Keyed by rpc_id, which only grows, so the ring spans the ids still
  /// awaiting a response or timeout.
  IndexRing<OutstandingRpc> outstanding_rpcs_;
  /// CRaft: per-index Reed–Solomon shards while fragment-replicated.
  /// Buffers, so handing a shard to an RPC shares it with the cache.
  std::unordered_map<storage::LogIndex, std::vector<nbraft::Buffer>>
      fragment_cache_;
  std::unordered_map<storage::LogIndex, int> fragment_required_;
  uint64_t next_rpc_id_ = 1;
  int last_alive_seen_ = -1;
  sim::EventId heartbeat_timer_ = sim::kInvalidEventId;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_REPLICATION_PIPELINE_H_
