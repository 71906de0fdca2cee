#include "raft/replication_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "raft/commit_applier.h"
#include "raft/election_engine.h"
#include "raft/membership.h"
#include "raft/recovery_stm.h"

namespace nbraft::raft {

namespace {

/// Leader-side costs beyond t_idx (RaftOptions::index_cost).
constexpr SimDuration kLeaderAppendPerKib = Micros(1);  ///< Local append.
/// Erasure encoding (CRaft / ECRaft), per KiB of original payload.
constexpr SimDuration kEncodeCostPerKib = Micros(10);
/// VGRaft signing and verification-group selection, per entry.
constexpr SimDuration kSignCost = Micros(70);
constexpr SimDuration kGroupSelectCost = Micros(25);

}  // namespace

bool ReplicationPipeline::KnowsPeer(net::NodeId peer) {
  MembershipEngine* m = ctx_->membership();
  return m == nullptr || !m->active() || m->Knows(peer);
}

// ---------------------------------------------------------------------------
// Client request path
// ---------------------------------------------------------------------------

void ReplicationPipeline::HandleClientRequest(ClientRequest req,
                                              SimTime received_at,
                                              SimTime sent_at) {
  CoreState& core = ctx_->core();
  if (core.role != Role::kLeader) {
    ClientResponse resp;
    resp.state = AcceptState::kNotLeader;
    resp.request_id = req.request_id;
    resp.leader_hint = core.leader;
    ctx_->SendTo(req.client, resp);
    return;
  }
  ctx_->TracePhase(metrics::Phase::kTransClientLeader, sent_at, received_at,
                   /*term=*/0, /*index=*/0, req.request_id);

  // Step 2 of the paper: parse, then index on the serialized indexing lane
  // (the lock Ratis holds longer than IoTDB).
  const SimTime parse_submitted = ctx_->Now();
  const uint64_t epoch = core.epoch;
  const SimDuration parse_cost =
      ctx_->mutable_state_machine()->ParseCost(req.payload.size());
  ctx_->cpu()->Submit(
      parse_cost,
      [this, epoch, parse_submitted, req = std::move(req)]() mutable {
        if (ctx_->core().crashed || epoch != ctx_->core().epoch) return;
        const SimTime parse_done = ctx_->Now();
        ctx_->TracePhase(metrics::Phase::kParse, parse_submitted, parse_done,
                         /*term=*/0, /*index=*/0, req.request_id);
        SimDuration index_cost =
            ctx_->options().index_cost +
            PerKib(kLeaderAppendPerKib, req.payload.size());
        ctx_->index_lane()->Submit(
            index_cost,
            [this, epoch, parse_done, req = std::move(req)]() mutable {
              if (ctx_->core().crashed || epoch != ctx_->core().epoch) return;
              ctx_->TracePhase(metrics::Phase::kIndex, parse_done,
                               ctx_->Now(),
                               /*term=*/0, /*index=*/0, req.request_id);
              if (ctx_->core().role != Role::kLeader) {
                ClientResponse resp;
                resp.state = AcceptState::kNotLeader;
                resp.request_id = req.request_id;
                resp.leader_hint = ctx_->core().leader;
                ctx_->SendTo(req.client, resp);
                return;
              }
              IndexAndReplicate(std::move(req));
            });
      });
}

void ReplicationPipeline::IndexAndReplicate(ClientRequest req) {
  CoreState& core = ctx_->core();
  storage::RaftLog& log = ctx_->log();
  storage::LogEntry entry;
  entry.index = log.LastIndex() + 1;
  entry.term = core.current_term;
  entry.prev_term = log.LastTerm();
  entry.client_id = req.client;
  entry.request_id = req.request_id;
  entry.payload = std::move(req.payload);
  entry.payload_size_hint = entry.payload.size();
  log.Append(entry);
  ctx_->PersistEntry(entry);
  ++ctx_->stats().entries_appended;
  ctx_->applier()->OnLeaderAppended(entry.index);

  // Decide the replication shape (plain / fragmented / degraded).
  const int n = ctx_->cluster_size();
  const int f = (n - 1) / 2;
  const int alive = AliveNodes();
  const int dead = n - alive;
  int k = 0;  // 0 = full replication.
  const Protocol protocol = ctx_->options().protocol;
  if (ErasureCoded(protocol) && n >= 3) {
    if (dead == 0) {
      k = f + 1;
    } else if (CodesWhileDegraded(protocol)) {
      // ECRaft: keep coding in degraded mode with a smaller k when
      // possible; fall back to full replication otherwise.
      const int k_degraded = alive - (f - dead);
      k = k_degraded >= 2 ? k_degraded : 0;
      ++ctx_->stats().degraded_entries;
    } else {
      k = 0;  // CRaft degrades to full replication (its liveness fix).
      ++ctx_->stats().degraded_entries;
    }
  }
  const int required = RequiredStrong(k > 0, k);

  if (k > 0) {
    // Fragment the payload: the coder's CPU cost and shard sizes are
    // modelled, not computed.
    fragment_required_[entry.index] = k;
    const SimDuration encode_cost =
        PerKib(kEncodeCostPerKib, entry.payload.size());
    const uint64_t epoch = core.epoch;
    const storage::LogIndex index = entry.index;
    const size_t payload_size = entry.payload.size();
    ctx_->cpu()->Submit(encode_cost, [this, epoch, index, payload_size]() {
      const CoreState& c = ctx_->core();
      if (c.crashed || epoch != c.epoch || c.role != Role::kLeader) return;
      const auto it = fragment_required_.find(index);
      if (it == fragment_required_.end()) return;
      const int kk = it->second;
      // Modelled shards are all zero tail: one small allocation shared
      // across the whole shard set, whatever the shard size.
      const size_t shard_size = (payload_size + kk - 1) / kk;
      fragment_cache_[index].assign(
          static_cast<size_t>(ctx_->cluster_size()),
          nbraft::Buffer(std::string(), shard_size));
      auto e = ctx_->log().At(index);
      if (e.ok()) ReplicateEntry(e.value());
    });
  } else {
    ReplicateEntry(entry);
  }
  ctx_->applier()->AddLeaderVote(entry.index, entry.term, required);
}

// ---------------------------------------------------------------------------
// Fan-out
// ---------------------------------------------------------------------------

void ReplicationPipeline::ReplicateEntry(const storage::LogEntry& entry) {
  // VGRaft: hash + sign + verification-group selection before fan-out.
  SimDuration pre_cost = 0;
  if (SignsEntries(ctx_->options().protocol)) {
    pre_cost = PerKib(kHashCostPerKib, entry.WireSize()) + kSignCost +
               kGroupSelectCost;
  }
  const uint64_t epoch = ctx_->core().epoch;
  const storage::LogIndex index = entry.index;
  const auto fan_out = [this, epoch, index]() {
    const CoreState& core = ctx_->core();
    if (core.crashed || epoch != core.epoch || core.role != Role::kLeader) {
      return;
    }
    const std::vector<net::NodeId>& peers = ctx_->peer_ids();
    const int bucket = EffectiveKBucket();
    // KRaft: send to the bucket only; the bucket relays to the rest.
    const size_t limit =
        bucket > 0 ? std::min(static_cast<size_t>(bucket), peers.size())
                   : peers.size();
    RecoveryStm* recovery = ctx_->recovery();
    for (size_t i = 0; i < limit; ++i) {
      // A learner under catch-up is fed in log order by the recovery STM
      // until a round reaches the log head; fan-out copies before that
      // would land far past its window and pin dispatcher slots until the
      // RPC timeout.
      if (recovery != nullptr && recovery->FeedsInOrder(peers[i])) continue;
      EnqueueForPeer(peers[i], index);
    }
  };
  if (pre_cost > 0) {
    ctx_->cpu()->Submit(pre_cost, fan_out);
  } else {
    fan_out();
  }
}

void ReplicationPipeline::EnqueueForPeer(net::NodeId peer,
                                         storage::LogIndex index) {
  if (!KnowsPeer(peer)) return;  // Removed from the active config.
  PeerState& ps = peer_state_[peer];
  if (ps.pending.Contains(index)) return;  // Already queued or in flight.
  Queue(&ps, index);
  ps.max_enqueued = std::max(ps.max_enqueued, index);
  if (ps.min_enqueued == 0 || index < ps.min_enqueued) ps.min_enqueued = index;
  TryDispatch(peer);
}

void ReplicationPipeline::Queue(PeerState* ps, storage::LogIndex index) {
  ps->pending[index].queued_at = ctx_->Now();
  ++ps->queued;
  ps->queued_floor = std::min(ps->queued_floor, index);
}

void ReplicationPipeline::TryDispatch(net::NodeId peer) {
  if (ctx_->core().role != Role::kLeader) return;
  storage::RaftLog& log = ctx_->log();
  PeerState& ps = peer_state_[peer];
  while (ps.busy_dispatchers < ctx_->options().dispatchers_per_follower &&
         ps.queued > 0) {
    // Dispatch the lowest queued index first. In steady state entries are
    // enqueued in log order, so this is FIFO; after a fault it matters:
    // out-of-window entries a lagging follower is holding keep timing out
    // and re-queueing, and under FIFO they would recycle through the freed
    // dispatcher slots forever, starving the catch-up entries the follower
    // actually needs to advance its log.
    storage::LogIndex picked =
        std::max(ps.queued_floor, ps.pending.front_index());
    PendingIndex* pick = ps.pending.Find(picked);
    while (pick == nullptr || pick->in_flight) {
      pick = ps.pending.Find(++picked);
    }
    ps.queued_floor = picked + 1;
    const SimTime enqueued_at = pick->queued_at;
    --ps.queued;
    if (picked > log.LastIndex() || picked < log.FirstIndex()) {
      ps.pending.Erase(picked);
      // Past the end: truncated since queued. Compacted away: the peer
      // needs the snapshot instead.
      if (picked < log.FirstIndex()) SendInstallSnapshot(peer);
      continue;
    }
    pick->in_flight = true;
    ctx_->TracePhase(metrics::Phase::kQueue, enqueued_at, ctx_->Now(),
                     ctx_->TraceTermAt(picked), picked);
    ++ps.busy_dispatchers;
    SendAppendRpc(peer, picked);
  }
}

void ReplicationPipeline::SendAppendRpc(net::NodeId peer,
                                        storage::LogIndex index) {
  CoreState& core = ctx_->core();
  storage::RaftLog& log = ctx_->log();
  const std::vector<net::NodeId>& peers = ctx_->peer_ids();
  AppendEntriesRequest req;
  req.term = core.current_term;
  req.leader = ctx_->id();
  req.rpc_id = next_rpc_id_++;
  req.leader_commit = core.commit_index;
  req.commit_term = log.TermAt(core.commit_index).value_or(0);
  req.signed_payload = SignsEntries(ctx_->options().protocol);
  req.entry = log.AtUnchecked(index);

  // CRaft: swap the payload for this peer's shard while the entry is still
  // fragment-replicated (committed entries fall back to full payloads).
  const auto frag = fragment_cache_.find(index);
  if (frag != fragment_cache_.end()) {
    // Peer i holds shard i+1 (the leader implicitly holds shard 0).
    int shard_id = 0;
    for (size_t i = 0; i < peers.size(); ++i) {
      if (peers[i] == peer) {
        shard_id = static_cast<int>(i) + 1;
        break;
      }
    }
    req.entry.payload = frag->second[static_cast<size_t>(shard_id) %
                                     frag->second.size()];
    req.entry.payload_size_hint = 0;
    req.entry.frag_shard = shard_id;
    req.entry.frag_k = static_cast<uint32_t>(fragment_required_[index]);
    req.entry.full_size = log.AtUnchecked(index).WireSize();
  }

  // KRaft: attach the relay fan-out for this bucket member.
  const int bucket = EffectiveKBucket();
  if (bucket > 0) {
    const int limit = std::min<int>(bucket, static_cast<int>(peers.size()));
    int my_pos = -1;
    for (int i = 0; i < limit; ++i) {
      if (peers[i] == peer) {
        my_pos = i;
        break;
      }
    }
    if (my_pos >= 0) {
      for (size_t i = static_cast<size_t>(limit); i < peers.size(); ++i) {
        const int assigned =
            static_cast<int>((i + static_cast<size_t>(index)) %
                             static_cast<size_t>(limit));
        if (assigned == my_pos) req.relay_to.push_back(peers[i]);
      }
    }
  }

  ++ctx_->stats().append_rpcs_sent;
  ++ctx_->stats().append_entries_sent;

  const uint64_t rpc_id = req.rpc_id;
  const uint64_t epoch = core.epoch;
  const sim::EventId timeout_event =
      ctx_->simulator()->After(kRpcTimeout,
                               [this, epoch, rpc_id]() {
                                 const CoreState& c = ctx_->core();
                                 if (c.crashed || epoch != c.epoch) return;
                                 OnRpcTimeout(rpc_id);
                               });
  outstanding_rpcs_[static_cast<int64_t>(rpc_id)] =
      OutstandingRpc{peer, index, /*is_snapshot=*/false, timeout_event};
  ctx_->SendTo(peer, std::move(req));
}

void ReplicationPipeline::LandInFlight(PeerState* ps,
                                       storage::LogIndex index) {
  const PendingIndex* p = ps->pending.Find(index);
  if (p != nullptr && p->in_flight) ps->pending.Erase(index);
}

void ReplicationPipeline::OnRpcTimeout(uint64_t rpc_id) {
  const OutstandingRpc* found =
      outstanding_rpcs_.Find(static_cast<int64_t>(rpc_id));
  if (found == nullptr) return;
  const OutstandingRpc rpc = *found;
  outstanding_rpcs_.Erase(static_cast<int64_t>(rpc_id));
  ++ctx_->stats().rpc_timeouts;
  if (ctx_->core().role != Role::kLeader) return;
  PeerState& ps = peer_state_[rpc.peer];
  if (rpc.is_snapshot) {
    ps.snapshot_in_flight = false;  // Retried on the next trigger.
    return;
  }
  ps.busy_dispatchers = std::max(0, ps.busy_dispatchers - 1);
  LandInFlight(&ps, rpc.index);
  // Re-send if the entry is still uncommitted or the peer may lack it.
  if (rpc.index <= ctx_->log().LastIndex() &&
      !ps.pending.Contains(rpc.index)) {
    Queue(&ps, rpc.index);
  }
  TryDispatch(rpc.peer);
}

// ---------------------------------------------------------------------------
// Leader response path
// ---------------------------------------------------------------------------

void ReplicationPipeline::HandleAppendResponse(AppendEntriesResponse resp) {
  // Dispatcher bookkeeping happens regardless of role/term transitions. A
  // miss is normal: KRaft relays answer one rpc_id from several followers.
  const auto rpc_id = static_cast<int64_t>(resp.rpc_id);
  if (const OutstandingRpc* rpc = outstanding_rpcs_.Find(rpc_id);
      rpc != nullptr) {
    ctx_->simulator()->Cancel(rpc->timeout_event);
    PeerState& ps = peer_state_[rpc->peer];
    ps.busy_dispatchers = std::max(0, ps.busy_dispatchers - 1);
    LandInFlight(&ps, rpc->index);
    outstanding_rpcs_.Erase(rpc_id);
  }

  CoreState& core = ctx_->core();
  if (resp.term > core.current_term) {
    ctx_->election()->StepDown(resp.term, net::kInvalidNode);
    return;
  }
  if (core.role != Role::kLeader || resp.term < core.current_term) {
    return;
  }

  storage::RaftLog& log = ctx_->log();
  PeerState& ps = peer_state_[resp.from];
  ps.last_response_at = ctx_->Now();

  if (resp.is_heartbeat) {
    MaybeCatchUpPeer(resp.from, resp.last_index);
    TryDispatch(resp.from);
    return;
  }

  switch (resp.state) {
    case AcceptState::kWeakAccept: {
      if (ctx_->applier()->vote_list().AddWeak(resp.entry_index,
                                               resp.from)) {
        // A living quorum has received the entry: unblock the client
        // (Sec. III-B2).
        const storage::LogEntry* e =
            log.Contains(resp.entry_index) ? &log.AtUnchecked(resp.entry_index)
                                           : nullptr;
        if (e != nullptr && e->client_id != net::kInvalidNode &&
            e->client_id != kConfigClientId) {
          ClientResponse cresp;
          cresp.state = AcceptState::kWeakAccept;
          cresp.request_id = e->request_id;
          cresp.index = e->index;
          cresp.term = e->term;
          ctx_->SendTo(e->client_id, cresp);
        }
      }
      break;
    }
    case AcceptState::kStrongAccept: {
      // A covering ack proves the follower's prefix matches ours only if
      // (last_index, last_term) names an entry of OUR log (the log
      // matching property). Without this guard, a follower that flushed
      // stale old-term window entries could be counted as holding the
      // current leader's different entries at those indices.
      if (!log.Matches(resp.last_index, resp.last_term)) {
        if (resp.last_index <= log.LastIndex() &&
            resp.last_index >= log.FirstIndex()) {
          // Re-send our entry at that point; its delivery truncates the
          // follower's divergent tail.
          EnqueueForPeer(resp.from, resp.last_index);
        }
        break;
      }
      ps.mismatch_probe = -1;
      if (ctx_->recovery() != nullptr) {
        // A covering strong ack is exactly a contiguous durable prefix —
        // the only progress signal the catch-up STM trusts (weak accepts
        // may hide sliding-window holes).
        ctx_->recovery()->OnProgress(resp.from, resp.last_index);
      }
      // t_ack starts at the first strong accept covering an index.
      ctx_->applier()->NoteFirstStrongUpTo(resp.last_index);
      const auto committed = ctx_->applier()->vote_list().AddStrongUpTo(
          resp.last_index, resp.from, core.current_term);
      ctx_->applier()->CommitIndices(committed);
      break;
    }
    case AcceptState::kLogMismatch: {
      ++ctx_->stats().mismatches_sent;  // Symmetric counter, leader side.
      storage::LogIndex start =
          std::min(resp.last_index + 1, resp.entry_index);
      if (ps.mismatch_probe >= 0 && ps.mismatch_probe <= start) {
        start = ps.mismatch_probe - 1;  // Backtrack further.
      }
      if (start < log.FirstIndex()) {
        // The entries the follower needs were compacted away.
        SendInstallSnapshot(resp.from);
        break;
      }
      ps.mismatch_probe = start;
      for (storage::LogIndex i = start; i <= log.LastIndex(); ++i) {
        EnqueueForPeer(resp.from, i);
      }
      break;
    }
    case AcceptState::kLeaderChanged:
      // resp.term > current_term was handled above; a stale message.
      break;
    case AcceptState::kNotLeader:
      break;
  }
  TryDispatch(resp.from);
}

void ReplicationPipeline::MaybeCatchUpPeer(net::NodeId peer,
                                           storage::LogIndex follower_last) {
  storage::RaftLog& log = ctx_->log();
  PeerState& ps = peer_state_[peer];
  if (follower_last != ps.last_reported) {
    ps.last_reported = follower_last;
    ps.last_advance_at = ctx_->Now();
  }
  if (ctx_->recovery() != nullptr && ctx_->recovery()->Tracking(peer)) {
    // The catch-up STM feeds this peer in throttled rounds; the heartbeat
    // catch-up path would flood straight past the throttle.
    return;
  }
  if (follower_last >= log.LastIndex()) return;
  if (follower_last + 1 < log.FirstIndex()) {
    // The follower's continuation point was compacted away — only a
    // snapshot can move it forward, whatever we may have enqueued before
    // it fell behind.
    SendInstallSnapshot(peer);
    return;
  }
  if (follower_last + 1 < ps.min_enqueued) {
    // The follower's log ends below the first entry this leadership sent
    // it: the gap predates our peer state (a lagging survivor of the old
    // leader), so no pipeline copy and no mismatch will ever refill it.
    // Hand it over once, as a mismatch-driven resend would.
    const storage::LogIndex gap_end = ps.min_enqueued - 1;
    for (storage::LogIndex i = std::max(follower_last + 1, log.FirstIndex());
         i <= gap_end; ++i) {
      EnqueueForPeer(peer, i);
    }
  }
  // Only fill in entries never handed to this peer's pipeline: everything
  // at or below max_enqueued is queued, in flight, or already delivered
  // (losses there are retried by the RPC timeout). Without this bound the
  // stale follower_last in heartbeat acks floods the dispatchers with
  // duplicates of in-flight entries.
  storage::LogIndex start =
      std::max({follower_last + 1, ps.max_enqueued + 1, log.FirstIndex()});
  storage::LogIndex end =
      std::min(log.LastIndex(),
               start + 4 * ctx_->options().dispatchers_per_follower);
  if (ctx_->Now() - ps.last_advance_at > 2 * kRpcTimeout) {
    // Stagnant: every pipeline copy of the missing entries was consumed
    // without an append (cached in a window that was since cleared, or —
    // with durable disks — lost when a corrupted tail was repaired away on
    // recovery). Force a re-send of the continuation — no pipeline copy
    // of it is left to wait for.
    start = std::max(follower_last + 1, log.FirstIndex());
    // Where a crash can tear appended records, a follower's log end can
    // regress *below* the delivered-and-acked frontier (a repaired corrupt
    // tail), leaving an arbitrarily large hole no pipeline copy will ever
    // refill. The delivery bookkeeping is untrustworthy below
    // max_enqueued, so resync the whole range from the follower's reported
    // position, exactly like a log-mismatch rejection would. Elsewhere log
    // ends never regress and the bounded burst is always enough.
    end = ctx_->CrashCanTearAppends()
              ? log.LastIndex()
              : std::min(log.LastIndex(),
                         start + 4 * ctx_->options().dispatchers_per_follower);
    ps.last_advance_at = ctx_->Now();  // Back off between forced bursts.
  }
  for (storage::LogIndex i = start; i <= end; ++i) {
    if (!ps.pending.Contains(i)) EnqueueForPeer(peer, i);
  }
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

void ReplicationPipeline::BroadcastHeartbeat() {
  CoreState& core = ctx_->core();
  if (core.role != Role::kLeader || core.crashed) return;
  // Replica liveness changed? CRaft/ECRaft requirements must follow, or
  // in-flight fragmented entries needing all N acks would never commit
  // after a follower dies (CRaft's degraded-mode liveness fix).
  const int alive = AliveNodes();
  if (alive != last_alive_seen_) {
    last_alive_seen_ = alive;
    if (ErasureCoded(ctx_->options().protocol)) {
      ctx_->applier()->vote_list().ForEach(
          [this](storage::LogIndex index, VoteList::Tuple* tuple) {
            const auto frag = fragment_required_.find(index);
            const int k =
                frag == fragment_required_.end() ? 0 : frag->second;
            tuple->required = RequiredStrong(k > 0, k);
          });
      ctx_->applier()->CommitIndices(
          ctx_->applier()->vote_list().CollectCommittable(
              core.current_term));
    }
  }
  for (net::NodeId peer : ctx_->peer_ids()) {
    if (!KnowsPeer(peer)) continue;
    AppendEntriesRequest hb;
    hb.term = core.current_term;
    hb.leader = ctx_->id();
    hb.is_heartbeat = true;
    hb.leader_commit = core.commit_index;
    hb.commit_term = ctx_->log().TermAt(core.commit_index).value_or(0);
    ctx_->SendTo(peer, hb);
  }
  const uint64_t epoch = core.epoch;
  heartbeat_timer_ = ctx_->simulator()->After(
      kHeartbeatInterval, [this, epoch]() {
        const CoreState& c = ctx_->core();
        if (c.crashed || epoch != c.epoch) return;
        BroadcastHeartbeat();
      });
}

// ---------------------------------------------------------------------------
// Snapshot sends
// ---------------------------------------------------------------------------

void ReplicationPipeline::SendInstallSnapshot(net::NodeId peer) {
  CoreState& core = ctx_->core();
  if (core.role != Role::kLeader || core.snapshot_index == 0) return;
  PeerState& ps = peer_state_[peer];
  if (ps.snapshot_in_flight) return;
  ps.snapshot_in_flight = true;
  ++ctx_->stats().snapshots_sent;

  InstallSnapshotRequest req;
  req.term = core.current_term;
  req.leader = ctx_->id();
  req.rpc_id = next_rpc_id_++;
  req.last_included_index = core.snapshot_index;
  req.last_included_term = core.snapshot_term;
  req.data = core.snapshot_data;
  if (MembershipEngine* m = ctx_->membership(); m != nullptr && m->active()) {
    // A snapshot-bootstrapped learner must learn the roster too.
    req.config = m->config().Encode();
  }

  const uint64_t rpc_id = req.rpc_id;
  const uint64_t epoch = core.epoch;
  // Snapshots are large: give them a generous multiple of the RPC timeout.
  const sim::EventId timeout_event = ctx_->simulator()->After(
      4 * kRpcTimeout, [this, epoch, rpc_id]() {
        const CoreState& c = ctx_->core();
        if (c.crashed || epoch != c.epoch) return;
        OnRpcTimeout(rpc_id);
      });
  outstanding_rpcs_[static_cast<int64_t>(rpc_id)] = OutstandingRpc{
      peer, core.snapshot_index, /*is_snapshot=*/true, timeout_event};
  ctx_->SendTo(peer, std::move(req));
}

void ReplicationPipeline::HandleInstallSnapshotResponse(
    const InstallSnapshotResponse& resp) {
  const auto rpc_id = static_cast<int64_t>(resp.rpc_id);
  if (const OutstandingRpc* rpc = outstanding_rpcs_.Find(rpc_id);
      rpc != nullptr) {
    ctx_->simulator()->Cancel(rpc->timeout_event);
    outstanding_rpcs_.Erase(rpc_id);
  }
  if (resp.term > ctx_->core().current_term) {
    ctx_->election()->StepDown(resp.term, net::kInvalidNode);
    return;
  }
  if (ctx_->core().role != Role::kLeader) return;
  PeerState& ps = peer_state_[resp.from];
  ps.snapshot_in_flight = false;
  ps.last_response_at = ctx_->Now();
  if (resp.installed && ctx_->recovery() != nullptr) {
    ctx_->recovery()->OnProgress(resp.from, resp.last_index);
  }
  // Continue with log entries from wherever the follower now stands.
  MaybeCatchUpPeer(resp.from, resp.last_index);
  TryDispatch(resp.from);
}

// ---------------------------------------------------------------------------
// Lifecycle / introspection
// ---------------------------------------------------------------------------

void ReplicationPipeline::ResetLeaderState() {
  ctx_->simulator()->Cancel(heartbeat_timer_);
  heartbeat_timer_ = sim::kInvalidEventId;
  outstanding_rpcs_.ForEach([this](int64_t, const OutstandingRpc& rpc) {
    ctx_->simulator()->Cancel(rpc.timeout_event);
  });
  outstanding_rpcs_.Clear();
  peer_state_.clear();
  fragment_cache_.clear();
  fragment_required_.clear();
  // Reset the liveness estimate too: a later leadership must recompute the
  // CRaft/ECRaft commit requirements from scratch rather than inherit a
  // stale alive count from the previous reign.
  last_alive_seen_ = -1;
}

void ReplicationPipeline::ReleaseFragments(storage::LogIndex index) {
  fragment_cache_.erase(index);
  fragment_required_.erase(index);
}

size_t ReplicationPipeline::DispatcherQueueDepth() const {
  size_t depth = 0;
  for (const auto& [peer, ps] : peer_state_) depth += ps.queued;
  return depth;
}

// ---------------------------------------------------------------------------
// Liveness helpers
// ---------------------------------------------------------------------------

int ReplicationPipeline::AliveNodes() const {
  int alive = 1;  // Self.
  for (const net::NodeId peer : ctx_->peer_ids()) {
    if (IsPeerAlive(peer)) ++alive;
  }
  return alive;
}

int ReplicationPipeline::PeersRespondedSince(SimTime since) const {
  int responded = 0;
  for (const auto& [peer, state] : peer_state_) {
    if (state.last_response_at != 0 && state.last_response_at >= since) {
      ++responded;
    }
  }
  return responded;
}

bool ReplicationPipeline::IsPeerAlive(net::NodeId peer) const {
  const auto it = peer_state_.find(peer);
  if (it == peer_state_.end()) return true;  // No evidence yet: optimistic.
  if (it->second.last_response_at == 0) return true;
  return ctx_->simulator()->Now() - it->second.last_response_at <
         3 * kHeartbeatInterval;
}

int ReplicationPipeline::RequiredStrong(bool fragmented, int k) {
  const int n = ctx_->cluster_size();
  const int f = (n - 1) / 2;
  const int dead = n - AliveNodes();
  const int remaining_faults = std::max(0, f - dead);
  if (fragmented) {
    // A committed fragment set must still be decodable after every
    // remaining tolerated fault: k + (f - dead) holders.
    return std::min(n, k + remaining_faults);
  }
  // Full copies: one survivor after the remaining tolerated faults, but
  // never less than a majority of the full cluster for term safety.
  return std::max(ctx_->quorum(), remaining_faults + 1);
}

int ReplicationPipeline::EffectiveKBucket() const {
  if (!RelaysThroughKBucket(ctx_->options().protocol)) return 0;
  const int followers = static_cast<int>(ctx_->peer_ids().size());
  if (followers <= 1) return 0;  // Nothing to relay through (Fig. 15).
  return (followers + 1) / 2;
}

}  // namespace nbraft::raft
