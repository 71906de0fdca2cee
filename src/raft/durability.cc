#include "raft/durability.h"

#include <algorithm>

#include "raft/node_context.h"

namespace nbraft::raft {

void DurabilityCoordinator::Attach(storage::DurableLog* log,
                                   storage::LogIndex recovered_frontier) {
  log_ = log;
  appended_seq_ = 0;
  durable_seq_ = 0;
  pending_entry_frontier_ = recovered_frontier;
  durable_entry_frontier_ = recovered_frontier;
  waiters_.clear();
  syncs_in_flight_ = 0;
}

void DurabilityCoordinator::Detach() {
  ++generation_;
  log_ = nullptr;
  appended_seq_ = 0;
  durable_seq_ = 0;
  pending_entry_frontier_ = 0;
  durable_entry_frontier_ = 0;
  waiters_.clear();
  syncs_in_flight_ = 0;
}

void DurabilityCoordinator::PersistEntry(const storage::LogEntry& entry) {
  if (log_ == nullptr) return;
  pending_entry_frontier_ = std::max(pending_entry_frontier_, entry.index);
  AfterAppend(log_->AppendEntry(entry));
}

void DurabilityCoordinator::PersistTruncate(storage::LogIndex from_index) {
  if (log_ == nullptr) return;
  pending_entry_frontier_ =
      std::min(pending_entry_frontier_, from_index - 1);
  AfterAppend(log_->AppendTruncate(from_index));
}

void DurabilityCoordinator::PersistHardState(storage::Term term,
                                             net::NodeId voted_for) {
  if (log_ == nullptr) return;
  storage::DurableLog::HardState hs;
  hs.term = term;
  hs.voted_for = voted_for;
  AfterAppend(log_->AppendHardState(hs));
}

void DurabilityCoordinator::PersistSnapshot(storage::LogIndex index,
                                            storage::Term term,
                                            const nbraft::Buffer& data,
                                            bool installed) {
  if (log_ == nullptr) return;
  AfterAppend(log_->AppendSnapshot(index, term, data, installed));
}

void DurabilityCoordinator::PersistCompact(storage::LogIndex upto) {
  if (log_ == nullptr) return;
  AfterAppend(log_->AppendCompact(upto));
}

void DurabilityCoordinator::PersistConfig(const std::string& encoded,
                                          storage::LogIndex at) {
  if (log_ == nullptr) return;
  AfterAppend(log_->AppendConfig(encoded, at));
}

void DurabilityCoordinator::AfterAppend(const Result<size_t>& staged) {
  if (!staged.ok()) {
    ++ctx_->stats().storage_failures;
    ctx_->OnStorageFailure(staged.status());
    return;
  }
  const size_t encoded_size = *staged;
  ++appended_seq_;
  ctx_->stats().disk_bytes_written += encoded_size;
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kDiskWrite, ctx_->id(), -1,
              static_cast<int64_t>(encoded_size),
              static_cast<int64_t>(pending_entry_frontier_));
  }
  MaybeSync();
}

void DurabilityCoordinator::WhenDurable(std::function<void()> fn) {
  if (log_ == nullptr || appended_seq_ <= durable_seq_) {
    fn();
    return;
  }
  waiters_.emplace_back(appended_seq_, std::move(fn));
}

void DurabilityCoordinator::MaybeSync() {
  const bool group_commit = ctx_->options().disk.group_commit;
  if (group_commit && syncs_in_flight_ > 0) {
    // The barrier in flight doesn't cover this record; the follow-up sync
    // issued at its completion will (one fsync amortized over every record
    // staged meanwhile).
    return;
  }
  IssueSync();
}

void DurabilityCoordinator::IssueSync() {
  ++syncs_in_flight_;
  const uint64_t cover_seq = appended_seq_;
  const storage::LogIndex cover_frontier = pending_entry_frontier_;
  const uint64_t generation = generation_;
  const SimTime issued_at = ctx_->Now();
  log_->Sync([this, cover_seq, cover_frontier, generation,
              issued_at](Status synced) {
    OnSyncDone(synced, cover_seq, cover_frontier, generation, issued_at);
  });
}

void DurabilityCoordinator::OnSyncDone(const Status& synced,
                                       uint64_t cover_seq,
                                       storage::LogIndex cover_frontier,
                                       uint64_t generation,
                                       SimTime issued_at) {
  if (generation != generation_) return;  // Crashed since issue.
  --syncs_in_flight_;
  if (!synced.ok()) {
    // Waiters stay parked: the node is about to step down or halt, so the
    // acknowledgements they carry must never be sent.
    ++ctx_->stats().storage_failures;
    ctx_->OnStorageFailure(synced);
    return;
  }
  durable_seq_ = std::max(durable_seq_, cover_seq);
  durable_entry_frontier_ = cover_frontier;
  ++ctx_->stats().fsyncs_completed;
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kDiskFsync, ctx_->id(), -1,
              static_cast<int64_t>(cover_frontier),
              static_cast<int64_t>(ctx_->Now() - issued_at));
  }
  ctx_->TracePhase(metrics::Phase::kFsync, issued_at, ctx_->Now(),
                   ctx_->core().current_term, cover_frontier);
  while (!waiters_.empty() && waiters_.front().first <= durable_seq_) {
    std::function<void()> fn = std::move(waiters_.front().second);
    waiters_.pop_front();
    fn();
  }
  if (appended_seq_ > durable_seq_ && syncs_in_flight_ == 0) {
    // Group commit: records staged while this barrier was in flight get
    // their own covering barrier now.
    IssueSync();
  }
}

}  // namespace nbraft::raft
