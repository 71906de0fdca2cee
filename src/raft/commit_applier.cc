#include "raft/commit_applier.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "raft/membership.h"
#include "raft/replication_pipeline.h"

namespace nbraft::raft {

namespace {

/// t_commit bookkeeping per commit advance, on the general CPU pool.
constexpr SimDuration kCommitCost = Micros(1);

}  // namespace

void CommitApplier::OnLeaderAppended(storage::LogIndex index) {
  entry_timing_[index].indexed_at = ctx_->Now();
}

void CommitApplier::AddLeaderVote(storage::LogIndex index, storage::Term term,
                                  int required) {
  vote_list_.AddTuple(index, term, net::kInvalidNode, required);
  const uint64_t epoch = ctx_->core().epoch;
  ctx_->WhenDurable([this, epoch, index, term]() {
    CoreState& c = ctx_->core();
    if (c.crashed || epoch != c.epoch || c.role != Role::kLeader ||
        c.current_term != term) {
      return;
    }
    c.strong_ack_frontier = std::max(c.strong_ack_frontier, index);
    CommitIndices(vote_list_.AddStrongAt(index, ctx_->id(), term));
  });
}

void CommitApplier::NoteFirstStrongUpTo(storage::LogIndex last_index) {
  if (entry_timing_.empty()) return;
  const storage::LogIndex end =
      std::min(last_index, entry_timing_.back_index());
  for (storage::LogIndex index = entry_timing_.front_index(); index <= end;
       ++index) {
    EntryTiming* timing = entry_timing_.Find(index);
    if (timing != nullptr && timing->first_strong_at == 0) {
      timing->first_strong_at = ctx_->Now();
    }
  }
}

void CommitApplier::CommitIndices(
    const std::vector<storage::LogIndex>& indices) {
  CoreState& core = ctx_->core();
  for (const storage::LogIndex index : indices) {
    // The index may jump past commit_index + 1 right after an election:
    // entries from older terms commit implicitly through the first
    // current-term commit (Raft Sec. 5.4.2).
    NBRAFT_CHECK_GT(index, core.commit_index);
    if (obs::Journal* j = ctx_->journal(); j != nullptr) {
      j->Record(obs::JournalEventKind::kCommitAdvance, ctx_->id(), -1,
                static_cast<int64_t>(index),
                static_cast<int64_t>(index - core.commit_index));
    }
    ctx_->stats().entries_committed +=
        static_cast<uint64_t>(index - core.commit_index);
    core.commit_index = index;
    ctx_->cpu()->Consume(kCommitCost);
    const int64_t trace_term = ctx_->TraceTermAt(index);
    ctx_->TracePhase(metrics::Phase::kCommit, ctx_->Now(),
                     ctx_->Now() + kCommitCost,
                     trace_term, index);

    if (const EntryTiming* timing = entry_timing_.Find(index);
        timing != nullptr) {
      if (timing->first_strong_at != 0) {
        ctx_->TracePhase(metrics::Phase::kAck, timing->first_strong_at,
                         ctx_->Now(), trace_term, index);
      }
      entry_timing_.Erase(index);
    }
    ctx_->pipeline()->ReleaseFragments(index);
  }
  if (indices.empty()) return;
  if (MembershipEngine* m = ctx_->membership(); m != nullptr && m->active()) {
    // Committed config entries take their cluster-level effect here (the
    // joint -> final hand-off, leader self-removal step-down).
    m->OnCommitAdvanced(core.commit_index);
  }
  ApplyReadyEntries();
}

void CommitApplier::ApplyReadyEntries() {
  CoreState& core = ctx_->core();
  MaybeTakeSnapshot();
  while (core.apply_scheduled_up_to < core.commit_index) {
    const storage::LogIndex index = ++core.apply_scheduled_up_to;
    if (!ctx_->log().Contains(index)) break;  // Compacted (snapshot applied).
    const storage::LogEntry& entry = ctx_->log().AtUnchecked(index);

    // Fragments cannot be executed (no full command bytes): CRaft gives up
    // follower reads. The apply index still advances. Config entries are
    // cluster metadata, not state-machine commands — their payload is the
    // encoded roster and must never reach Apply().
    SimDuration cost = 0;
    if (!entry.IsFragment() && !entry.payload.empty() &&
        entry.client_id != kConfigClientId) {
      cost = ctx_->mutable_state_machine()->Apply(entry);
    }
    // Config entries keep their payload: a learner joining later catches
    // up by re-reading the log tail, and an encoded roster that was
    // released to save memory would replicate as an undecodable blank.
    // They are rare and tiny, so the memory bound is unaffected.
    if (ctx_->options().release_applied_payloads &&
        entry.client_id != kConfigClientId) {
      ctx_->log().ReleasePayloadAt(index);
    }

    const uint64_t epoch = core.epoch;
    ctx_->apply_lane()->Submit(
        cost, [this, epoch, index, cost, client = entry.client_id,
               request_id = entry.request_id, term = entry.term]() {
          CoreState& c = ctx_->core();
          if (c.crashed || epoch != c.epoch) return;
          c.applied_index = std::max(c.applied_index, index);
          ++ctx_->stats().entries_applied;
          if (obs::Journal* j = ctx_->journal(); j != nullptr) {
            j->Record(obs::JournalEventKind::kApplyAdvance, ctx_->id(), -1,
                      static_cast<int64_t>(index),
                      static_cast<int64_t>(request_id));
          }
          ctx_->TracePhase(metrics::Phase::kApply, ctx_->Now() - cost,
                           ctx_->Now(), term, index, request_id);
          if (c.role == Role::kLeader && client != net::kInvalidNode &&
              client != kConfigClientId) {
            ClientResponse cresp;
            cresp.state = AcceptState::kStrongAccept;
            cresp.request_id = request_id;
            cresp.index = index;
            cresp.term = term;
            ctx_->SendTo(client, cresp);
          }
        });
  }
}

void CommitApplier::MaybeTakeSnapshot() {
  CoreState& core = ctx_->core();
  if (ctx_->options().snapshot_threshold <= 0) return;
  // Fragment replicas hold no applicable state — a snapshot taken there
  // would be empty. Snapshot-based compaction is a full-replication
  // feature (CRaft pairs it with fragment reconstruction instead).
  if (ErasureCoded(ctx_->options().protocol)) return;
  storage::RaftLog& log = ctx_->log();
  const storage::LogIndex applied = core.apply_scheduled_up_to;
  if (applied - log.FirstIndex() + 1 <= ctx_->options().snapshot_threshold) {
    return;
  }
  // The state machine was mutated through `applied` (mutations happen at
  // scheduling time, in order), so the snapshot names that position.
  core.snapshot_data = ctx_->mutable_state_machine()->Snapshot();
  core.snapshot_index = applied;
  core.snapshot_term = log.TermAt(applied).value_or(0);
  ++ctx_->stats().snapshots_taken;
  ctx_->cpu()->Consume(
      PerKib(kSnapshotCostPerKib, core.snapshot_data.size()));
  ctx_->PersistSnapshot(core.snapshot_index, core.snapshot_term,
                        core.snapshot_data, /*installed=*/false);

  const storage::LogIndex compact_upto = std::max<storage::LogIndex>(
      applied - ctx_->options().snapshot_keep_tail, log.FirstIndex() - 1);
  if (compact_upto >= log.FirstIndex()) {
    NBRAFT_CHECK(log.CompactPrefix(compact_upto).ok());
    ctx_->PersistCompact(compact_upto);
  }
}

void CommitApplier::FailPendingClientEntries(storage::Term new_term,
                                             net::NodeId new_leader) {
  while (!vote_list_.empty()) {
    const storage::LogIndex index = vote_list_.FrontIndex();
    const storage::RaftLog& log = ctx_->log();
    const storage::LogEntry* e =
        log.Contains(index) ? &log.AtUnchecked(index) : nullptr;
    if (e != nullptr && e->client_id != net::kInvalidNode &&
        e->client_id != kConfigClientId) {
      ClientResponse cresp;
      cresp.state = AcceptState::kLeaderChanged;
      cresp.request_id = e->request_id;
      cresp.index = index;
      cresp.term = new_term;
      cresp.leader_hint = new_leader;
      ctx_->SendTo(e->client_id, cresp);
    }
    vote_list_.RemoveFront();
  }
}

void CommitApplier::ResetLeaderState() {
  vote_list_.Clear();
  entry_timing_.Clear();
}

}  // namespace nbraft::raft
