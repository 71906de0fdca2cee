#ifndef NBRAFT_RAFT_REPLICATION_PIPELINE_H_
#define NBRAFT_RAFT_REPLICATION_PIPELINE_H_

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "raft/messages.h"
#include "raft/node_context.h"

namespace nbraft::raft {

/// The leader side of replication (the paper's Fig. 3 pipeline): client
/// request intake (parse -> serialized indexing lane), per-follower
/// dispatcher queues, in-flight RPC bookkeeping with timeouts, heartbeat
/// fan-out, lagging-peer catch-up and snapshot sends. CRaft fragmenting,
/// KRaft relay assembly and VGRaft signing hook in on this side too.
///
/// Batching: when `options.max_batch_entries` > 1, a freed dispatcher slot
/// coalesces up to that many *consecutive* queued indices into one
/// AppendEntries RPC (one wire round trip, one follower log-lock
/// acquisition for the whole run). On the NB-Raft path the batch is capped
/// so it never reaches past the follower's window
/// (`last_reported + window_size`). With the default of 1 the pipeline is
/// bit-identical to unbatched replication.
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
  int EffectiveKBucket() const;
  const std::unordered_map<storage::LogIndex, int>& fragment_required()
      const {
    return fragment_required_;
  }

 private:
  /// Leader-side replication state for one follower connection.
  struct PeerState {
    /// Pending indices → enqueue time. Ordered so dispatch pops the lowest
    /// index in O(log n) and batch coalescing walks consecutive runs.
    std::map<storage::LogIndex, SimTime> queue;
    std::set<storage::LogIndex> in_flight;  ///< Indices on the wire.
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

  /// An in-flight AppendEntries or InstallSnapshot RPC. `batch` lists
  /// every log index the RPC carries (one element unless batching
  /// coalesced a run).
  struct OutstandingRpc {
    net::NodeId peer = net::kInvalidNode;
    storage::LogIndex index = 0;
    bool is_snapshot = false;
    sim::EventId timeout_event = sim::kInvalidEventId;
    std::vector<storage::LogIndex> batch;
  };

  void IndexAndReplicate(ClientRequest req);
  void SendAppendRpc(net::NodeId peer,
                     std::vector<storage::LogIndex> batch);
  void OnRpcTimeout(uint64_t rpc_id);
  /// False only when dynamic membership is active and `peer` is outside
  /// the active configuration (removed nodes get no replication traffic).
  bool KnowsPeer(net::NodeId peer);

  NodeContext* ctx_;
  std::map<net::NodeId, PeerState> peer_state_;
  std::unordered_map<uint64_t, OutstandingRpc> outstanding_rpcs_;
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
