#include "raft/follower_ingress.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "raft/commit_applier.h"
#include "raft/election_engine.h"
#include "raft/membership.h"

namespace nbraft::raft {
namespace {

/// Lock cost of caching one entry in the sliding window.
constexpr SimDuration kWindowInsertCost = Nanos(500);
/// VGRaft: per-entry signature check (parallel, on the CPU pool) and the
/// serialized admission of a verified entry into consensus (charged on
/// the log-lock lane; dominates VGRaft's throughput ceiling).
constexpr SimDuration kVerifyCost = Micros(90);
constexpr SimDuration kVerifyAdmissionCost = Micros(18);

/// A configuration entry takes effect the moment it is appended — on
/// followers exactly as on the leader (Raft Sec. 6: a server always uses
/// the latest configuration in its log).
void NoteConfigAppended(NodeContext* ctx, const storage::LogEntry& entry) {
  if (entry.client_id != kConfigClientId) return;
  if (MembershipEngine* m = ctx->membership(); m != nullptr && m->active()) {
    m->OnConfigAppended(entry);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Window journal adapter
// ---------------------------------------------------------------------------

void FollowerIngress::WindowJournalAdapter::OnInsert(storage::LogIndex index,
                                                     size_t occupancy) {
  NodeContext* ctx = ingress_->ctx_;
  ctx->journal()->Record(obs::JournalEventKind::kWindowInsert, ctx->id(), -1,
                         static_cast<int64_t>(index),
                         static_cast<int64_t>(occupancy));
}

void FollowerIngress::WindowJournalAdapter::OnEvict(storage::LogIndex index,
                                                    size_t occupancy) {
  NodeContext* ctx = ingress_->ctx_;
  ctx->journal()->Record(obs::JournalEventKind::kWindowEvict, ctx->id(), -1,
                         static_cast<int64_t>(index),
                         static_cast<int64_t>(occupancy));
}

void FollowerIngress::WindowJournalAdapter::OnFlush(storage::LogIndex first,
                                                    size_t count,
                                                    size_t occupancy) {
  NodeContext* ctx = ingress_->ctx_;
  ctx->journal()->Record(obs::JournalEventKind::kWindowFlush, ctx->id(), -1,
                         static_cast<int64_t>(first),
                         static_cast<int64_t>(count));
  (void)occupancy;
}

void FollowerIngress::OnJournalChanged() {
  // Installed only while a journal is attached, so unjournaled runs keep
  // the window's no-observer fast path.
  window_.set_observer(ctx_->journal() != nullptr ? &window_journal_adapter_
                                                  : nullptr);
}

void FollowerIngress::OnCrash() {
  window_.Clear();
  held_entries_.clear();
  pending_accepts_.Clear();
}

void FollowerIngress::OnLeadershipTaken() {
  window_.Clear();
  held_entries_.clear();
}

// ---------------------------------------------------------------------------
// Append path
// ---------------------------------------------------------------------------

void FollowerIngress::HandleAppendEntries(AppendEntriesRequest req,
                                          SimTime received_at) {
  CoreState& core = ctx_->core();
  storage::RaftLog& log = ctx_->log();
  if (req.term < core.current_term) {
    // Stale leader: tell it a newer term exists (paper Fig. 11 — the reply
    // carries the higher term so the old leader steps down and returns
    // LEADER_CHANGED to its clients).
    AppendEntriesResponse resp;
    resp.term = core.current_term;
    resp.from = ctx_->id();
    resp.rpc_id = req.rpc_id;
    resp.state = AcceptState::kLeaderChanged;
    resp.is_heartbeat = req.is_heartbeat;
    resp.entry_index = req.is_heartbeat ? 0 : req.entry.index;
    resp.last_index = log.LastIndex();
    resp.last_term = log.LastTerm();
    ctx_->SendTo(req.leader, resp);
    return;
  }
  ctx_->election()->NoteLeaderContact(req.term, req.leader);

  // KRaft relay: forward to the assigned peers before local processing.
  if (!req.relay_to.empty()) {
    AppendEntriesRequest fwd = req;
    fwd.relay_to.clear();
    for (net::NodeId target : req.relay_to) {
      ctx_->SendTo(target, fwd);
    }
    req.relay_to.clear();
  }

  if (req.is_heartbeat) {
    // Heartbeats advance the commit index only when the follower can
    // verify its entry at leader_commit matches the leader's (otherwise a
    // stale divergent tail could be "committed" locally).
    if (log.Matches(req.leader_commit, req.commit_term)) {
      AdvanceFollowerCommit(req.leader_commit, req.leader_commit);
    }
    AppendEntriesResponse resp;
    resp.term = core.current_term;
    resp.from = ctx_->id();
    resp.rpc_id = req.rpc_id;
    resp.state = AcceptState::kStrongAccept;
    resp.is_heartbeat = true;
    resp.last_index = log.LastIndex();
    resp.last_term = log.LastTerm();
    ctx_->SendTo(req.leader, resp);
    return;
  }

  // VGRaft: verify the digest and signature before accepting. The
  // signature check itself parallelizes on the worker pool, but admitting
  // a verified entry into consensus serializes with the log handling —
  // the "heavy overhead" of per-consensus verification groups the paper
  // measures as VGRaft's weakness.
  if (SignsEntries(ctx_->options().protocol) && req.signed_payload) {
    const SimDuration verify_cost =
        PerKib(kHashCostPerKib, req.entry.WireSize()) + kVerifyCost;
    ctx_->log_lock_lane()->Consume(kVerifyAdmissionCost);
    const uint64_t epoch = core.epoch;
    ctx_->cpu()->Submit(verify_cost, [this, epoch, received_at,
                                      req = std::move(req)]() mutable {
      const CoreState& c = ctx_->core();
      if (c.crashed || epoch != c.epoch) return;
      ProcessEntry(req, received_at, /*from_held_queue=*/false);
    });
    return;
  }
  ProcessEntry(req, received_at, /*from_held_queue=*/false);
}

void FollowerIngress::ProcessEntry(const AppendEntriesRequest& req,
                                   SimTime received_at,
                                   bool from_held_queue) {
  CoreState& core = ctx_->core();
  storage::RaftLog& log = ctx_->log();
  const storage::LogEntry& entry = req.entry;
  const storage::LogIndex last = log.LastIndex();
  const storage::LogIndex diff = entry.index - last;

  // Duplicate delivery of an entry we already appended: the match proves
  // our prefix up to it agrees with the leader's. Entries below the
  // compacted prefix are covered by the installed snapshot (committed
  // state) and equally duplicates.
  if (diff <= 0 && (entry.index < log.FirstIndex() ||
                    log.Matches(entry.index, entry.term))) {
    if (entry.index >= log.FirstIndex()) {
      AdvanceFollowerCommit(req.leader_commit, entry.index);
    }
    // The duplicate was appended earlier but its covering fsync may still
    // be in flight: a strong accept must wait for it.
    const uint64_t epoch = core.epoch;
    ctx_->WhenDurable([this, epoch, to = ReplyTo::Of(req), last,
                       last_term = log.LastTerm()]() {
      const CoreState& c = ctx_->core();
      if (c.crashed || epoch != c.epoch) return;
      RespondAppend(to, AcceptState::kStrongAccept, last, last_term);
    });
    return;
  }

  if (diff <= 0) {
    // Sec. III-A1: a newer-term entry replaces an appended one. Committed
    // entries can never conflict (Leader Completeness).
    NBRAFT_CHECK_GT(entry.index, core.commit_index)
        << "node " << ctx_->id() << ": conflicting entry "
        << entry.ToString() << " from leader " << req.leader << " term "
        << req.term << " below commit " << core.commit_index
        << "; local term at index: "
        << log.TermAt(entry.index).value_or(-1) << ", my term "
        << core.current_term << ", last " << log.LastIndex();
    if (log.Matches(entry.index - 1, entry.prev_term)) {
      AppendAndFlush(req, received_at, /*truncate_first=*/true);
    } else {
      ++ctx_->stats().mismatches_sent;
      RespondAppend(req, AcceptState::kLogMismatch, log.LastIndex(),
                    log.LastTerm());
    }
    return;
  }

  if (diff == 1) {
    // Sec. III-A2b: directly appendable if the previous entry is our last.
    if (log.LastTerm() == entry.prev_term) {
      AppendAndFlush(req, received_at, /*truncate_first=*/false);
    } else {
      ++ctx_->stats().mismatches_sent;
      RespondAppend(req, AcceptState::kLogMismatch, log.LastIndex(),
                    log.LastTerm());
    }
    return;
  }

  if (diff <= ctx_->options().window_size) {
    // Sec. III-A2: cache in the sliding window, reply WEAK_ACCEPT.
    if (core.role == Role::kLearner) {
      // The WEAK_ACCEPT × catch-up hazard under study: a learner's window
      // frontier runs ahead of its contiguous durable prefix by `diff`.
      ctx_->stats().learner_gap_max = std::max<uint64_t>(
          ctx_->stats().learner_gap_max, static_cast<uint64_t>(diff));
    }
    window_.Insert(entry, received_at);
    ctx_->log_lock_lane()->Consume(kWindowInsertCost);
    ++ctx_->stats().window_inserts;
    ++ctx_->stats().weak_accepts_sent;
    RespondAppend(req, AcceptState::kWeakAccept, entry.index, entry.term);
    return;
  }

  // Sec. III-A3: beyond the window — hold and retry when the log advances.
  // The RPC stays open, keeping its dispatcher busy: this is the blocking
  // loop of the paper's Fig. 3 (and, with w = 0, the entirety of original
  // Raft's out-of-order handling).
  if (!from_held_queue) ++ctx_->stats().window_overflows;
  held_entries_.emplace(entry.index, HeldEntry{req, received_at});
}

SimDuration FollowerIngress::AppendChained(storage::LogEntry entry,
                                           SimTime received_at) {
  if (received_at != SlidingWindow::kNoReceiveTime) {
    ctx_->stats().wait_hist.Record(ctx_->Now() - received_at);
    ctx_->TracePhase(metrics::Phase::kWaitFollower, received_at, ctx_->Now(),
                     entry.term, entry.index, entry.request_id);
  }
  const SimDuration cost = FollowerAppendCost(entry);
  ctx_->PersistEntry(entry);
  NoteConfigAppended(ctx_, entry);
  ctx_->log().Append(std::move(entry));
  ++ctx_->stats().entries_appended;
  return cost;
}

SimDuration FollowerIngress::FlushWindowPrefix() {
  storage::RaftLog& log = ctx_->log();
  SimDuration cost = 0;
  // Borrow the member buffer (a nested flush would get an empty one).
  std::vector<SlidingWindow::Flushed> flushed = std::move(flush_buffer_);
  window_.TakeFlushablePrefix(log.LastIndex(), log.LastTerm(), &flushed);
  for (auto& [e, received_at] : flushed) {
    cost += AppendChained(std::move(e), received_at);
  }
  flushed.clear();
  flush_buffer_ = std::move(flushed);
  return cost;
}

void FollowerIngress::AppendAndFlush(const AppendEntriesRequest& req,
                                     SimTime received_at,
                                     bool truncate_first) {
  storage::RaftLog& log = ctx_->log();
  if (truncate_first) {
    NBRAFT_CHECK(log.TruncateSuffix(req.entry.index).ok());
    ctx_->PersistTruncate(req.entry.index);
  }

  SimDuration cost = AppendChained(req.entry, received_at);

  if (truncate_first) {
    window_.OnLogReshaped(log.LastIndex(), req.entry.term);
  }

  // Flush the continuous window prefix into the log (paper Fig. 9).
  cost += FlushWindowPrefix();

  const storage::LogIndex new_last = log.LastIndex();
  const storage::Term new_last_term = log.LastTerm();
  ctx_->stats().append_latency.Record(ctx_->Now() - received_at);

  // The appended chain was prev-verified against the leader's log, so the
  // whole prefix up to new_last matches — safe commit bound.
  AdvanceFollowerCommit(req.leader_commit, new_last);

  // Every append wakes the appender threads blocked on the log lock so
  // they can re-check their held entries — the resource drain of original
  // Raft's blocking under concurrency.
  cost += kHeldWakeupCost * static_cast<SimDuration>(held_entries_.size());

  SubmitStrongAccept(req, new_last, new_last_term, cost);

  RecheckHeldEntries();
}

void FollowerIngress::SubmitStrongAccept(const AppendEntriesRequest& req,
                                         storage::LogIndex new_last,
                                         storage::Term new_last_term,
                                         SimDuration cost) {
  // The append itself holds the log lock: charge the serialized lane and
  // reply when the work completes. The service cost is t_append(F) (tiny,
  // as the paper measures); time spent queued for the contended log lock
  // is part of t_wait(F) — the entry was received but could not be
  // appended yet.
  const uint64_t epoch = ctx_->core().epoch;
  const int64_t key = next_accept_++;
  pending_accepts_[key] =
      PendingAccept{ReplyTo::Of(req), req.entry.term, req.entry.request_id,
                    new_last,         new_last_term,  ctx_->Now(),
                    cost};
  ctx_->log_lock_lane()->Submit(cost, [this, epoch, key]() {
    const CoreState& c = ctx_->core();
    if (c.crashed || epoch != c.epoch) return;
    const PendingAccept a = *pending_accepts_.Find(key);
    pending_accepts_.Erase(key);
    const SimTime start = ctx_->Now() - a.cost;
    ctx_->TracePhase(metrics::Phase::kAppendFollower, start, ctx_->Now(),
                     a.entry_term, a.to.entry_index, a.request_id);
    ctx_->TracePhase(metrics::Phase::kWaitFollower, a.submit_time, start,
                     a.entry_term, a.to.entry_index, a.request_id);
    ++ctx_->stats().strong_accepts_sent;
    // The strong accept claims durability: it leaves only after the fsync
    // covering this append completes.
    ctx_->WhenDurable([this, epoch, a]() {
      const CoreState& c2 = ctx_->core();
      if (c2.crashed || epoch != c2.epoch) return;
      RespondAppend(a.to, AcceptState::kStrongAccept, a.new_last,
                    a.new_last_term);
    });
  });
}

void FollowerIngress::RespondAppend(const ReplyTo& to, AcceptState state,
                                    storage::LogIndex last_index,
                                    storage::Term last_term) {
  if (state == AcceptState::kStrongAccept) {
    // The response claims everything through last_index is durably stored
    // here; the safety oracle checks the claim against the fsynced
    // frontier at crash time.
    CoreState& core = ctx_->core();
    core.strong_ack_frontier =
        std::max(core.strong_ack_frontier, last_index);
  }
  AppendEntriesResponse resp;
  resp.term = ctx_->core().current_term;
  resp.from = ctx_->id();
  resp.rpc_id = to.rpc_id;
  resp.state = state;
  resp.entry_index = to.entry_index;
  resp.last_index = last_index;
  resp.last_term = last_term;
  ctx_->SendTo(to.leader, resp);
}

void FollowerIngress::RecheckHeldEntries() {
  if (in_recheck_ || held_entries_.empty()) return;
  in_recheck_ = true;
  // Only the lowest-index held entries can have become placeable; the
  // bound keeps re-advancing as processing appends more of the log.
  for (;;) {
    if (held_entries_.empty()) break;
    const storage::LogIndex bound =
        ctx_->log().LastIndex() + std::max(ctx_->options().window_size, 1);
    auto it = held_entries_.begin();
    if (it->first > bound) break;
    HeldEntry held = std::move(it->second);
    held_entries_.erase(it);
    if (held.request.term < ctx_->core().current_term) {
      RespondAppend(held.request, AcceptState::kLeaderChanged,
                    ctx_->log().LastIndex(), ctx_->log().LastTerm());
      continue;
    }
    // One more turn of the paper's waiting loop; mutating paths re-queue
    // for the log lock inside ProcessEntry.
    ProcessEntry(held.request, held.received_at, /*from_held_queue=*/true);
  }
  in_recheck_ = false;
}

void FollowerIngress::AdvanceFollowerCommit(storage::LogIndex leader_commit,
                                            storage::LogIndex
                                                verified_up_to) {
  CoreState& core = ctx_->core();
  if (core.role == Role::kLeader) return;
  const storage::LogIndex target =
      std::min({leader_commit, verified_up_to, ctx_->log().LastIndex()});
  if (target > core.commit_index) {
    if (obs::Journal* j = ctx_->journal(); j != nullptr) {
      j->Record(obs::JournalEventKind::kCommitAdvance, ctx_->id(), -1,
                static_cast<int64_t>(target),
                static_cast<int64_t>(target - core.commit_index));
    }
    ctx_->stats().entries_committed +=
        static_cast<uint64_t>(target - core.commit_index);
    core.commit_index = target;
    ctx_->applier()->ApplyReadyEntries();
  }
  if (core.heal_quarantine && core.commit_index >= core.heal_target) {
    // The committed prefix covers the repaired image's old durable
    // frontier: every index this node ever acknowledged is re-replicated
    // and committed locally, so the corruption hole is closed and it is
    // again safe to vote and stand for election.
    ctx_->ClearHealQuarantine();
  }
}

// ---------------------------------------------------------------------------
// Snapshot installation
// ---------------------------------------------------------------------------

void FollowerIngress::HandleInstallSnapshot(InstallSnapshotRequest req) {
  CoreState& core = ctx_->core();
  storage::RaftLog& log = ctx_->log();
  InstallSnapshotResponse resp;
  resp.from = ctx_->id();
  resp.rpc_id = req.rpc_id;
  if (req.term < core.current_term) {
    resp.term = core.current_term;
    resp.installed = false;
    resp.last_index = log.LastIndex();
    ctx_->SendTo(req.leader, resp);
    return;
  }
  ctx_->election()->NoteLeaderContact(req.term, req.leader);
  resp.term = core.current_term;

  if (req.last_included_index <= core.commit_index) {
    // Already at or past the snapshot: nothing to install.
    resp.installed = false;
    resp.last_index = log.LastIndex();
    ctx_->SendTo(req.leader, resp);
    return;
  }

  const Status restored = ctx_->mutable_state_machine()->Restore(req.data);
  if (!restored.ok()) {
    NBRAFT_LOG(Warn) << "node " << ctx_->id()
                     << ": snapshot restore failed: " << restored.ToString();
    resp.installed = false;
    resp.last_index = log.LastIndex();
    ctx_->SendTo(req.leader, resp);
    return;
  }
  log.ResetToSnapshot(req.last_included_index, req.last_included_term);
  core.commit_index = req.last_included_index;
  core.apply_scheduled_up_to = req.last_included_index;
  core.applied_index = req.last_included_index;
  core.snapshot_data = std::move(req.data);
  core.snapshot_index = req.last_included_index;
  core.snapshot_term = req.last_included_term;
  ctx_->PersistSnapshot(core.snapshot_index, core.snapshot_term,
                        core.snapshot_data, /*installed=*/true);
  window_.Clear();
  held_entries_.clear();
  ++ctx_->stats().snapshots_installed;
  if (!req.config.empty()) {
    // The snapshot carries the roster in effect at its last index — the
    // only way a fresh learner bootstrapped by snapshot learns who else
    // exists.
    if (MembershipEngine* m = ctx_->membership();
        m != nullptr && m->active()) {
      Configuration cfg;
      if (Configuration::Decode(req.config, &cfg)) {
        m->InstallRecovered(cfg, req.last_included_index);
        ctx_->PersistConfig(cfg.Encode(), req.last_included_index);
      }
    }
  }
  if (core.heal_quarantine && core.commit_index >= core.heal_target) {
    // The installed snapshot covers the lost committed prefix.
    ctx_->ClearHealQuarantine();
  }

  const SimDuration cost =
      PerKib(kSnapshotCostPerKib, core.snapshot_data.size());
  const uint64_t epoch = core.epoch;
  resp.installed = true;
  resp.last_index = log.LastIndex();
  ctx_->cpu()->Submit(cost, [this, epoch, resp, leader = req.leader]() {
    const CoreState& c = ctx_->core();
    if (c.crashed || epoch != c.epoch) return;
    ctx_->SendTo(leader, resp);
  });
}

SimDuration FollowerIngress::FollowerAppendCost(
    const storage::LogEntry& entry) const {
  return kFollowerAppendBase +
         PerKib(kFollowerAppendPerKib, entry.WireSize());
}

}  // namespace nbraft::raft
