#ifndef NBRAFT_RAFT_DURABILITY_H_
#define NBRAFT_RAFT_DURABILITY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "storage/durable_log.h"
#include "storage/log_entry.h"

namespace nbraft::raft {

class NodeContext;

/// Drives the node's durable log: stages persist records, issues the
/// covering fsync barriers (group commit batches every record staged while
/// a sync is in flight under the next single barrier), and parks
/// acknowledgement callbacks until the barrier that covers them completes.
///
/// This is the node's one ack gate: every durability claim reaches it
/// through NodeContext::WhenDurable, which runs the claim inline while
/// pending_records() is 0 and parks it here otherwise. Only the storage
/// decides how often that happens. With no durable log (modelled
/// durability, zero events) nothing is ever pending, so every claim
/// completes inline and the event sequence is the paper's original one.
/// On the simulated disk syncs cost virtual time on the disk's I/O lane,
/// and claims wait for their covering sync.
///
/// Storage failures (failed append or fsync) are routed to
/// NodeContext::OnStorageFailure; parked waiters are then never fired (the
/// node steps down or halts).
class DurabilityCoordinator {
 public:
  explicit DurabilityCoordinator(NodeContext* ctx) : ctx_(ctx) {}

  /// Points the coordinator at this lifetime's durable log (Start /
  /// Restart), resetting all sequence tracking. nullptr = modelled mode.
  /// `recovered_frontier` seeds the durable entry frontier with the last
  /// index recovered from the previous lifetime's image: those entries are
  /// already covered by completed fsyncs.
  void Attach(storage::DurableLog* log,
              storage::LogIndex recovered_frontier);

  /// Crash: drops the log pointer, invalidates in-flight sync completions
  /// and discards parked waiters (they died with the node's memory).
  void Detach();

  /// True when no durable log is attached (modelled durability): nothing
  /// is staged, so a crash can never tear an appended record.
  bool instant() const { return log_ == nullptr; }

  // ---- Persist operations (stage a record + schedule its barrier) ----
  void PersistEntry(const storage::LogEntry& entry);
  void PersistTruncate(storage::LogIndex from_index);
  void PersistHardState(storage::Term term, net::NodeId voted_for);
  void PersistSnapshot(storage::LogIndex index, storage::Term term,
                       const nbraft::Buffer& data, bool installed);
  void PersistCompact(storage::LogIndex upto);
  void PersistConfig(const std::string& encoded, storage::LogIndex at);

  /// Runs `fn` once everything persisted so far is covered by a completed
  /// fsync — inline when it already is (NodeContext::WhenDurable checks
  /// that first, before type erasure).
  void WhenDurable(std::function<void()> fn);

  /// Highest entry index covered by a completed fsync. Meaningless (0) in
  /// detached mode — callers use the in-memory log there.
  storage::LogIndex durable_entry_frontier() const {
    return durable_entry_frontier_;
  }

  /// Records staged but not yet covered by a completed fsync (telemetry:
  /// the pending-barrier backlog; always 0 when detached).
  uint64_t pending_records() const { return appended_seq_ - durable_seq_; }

 private:
  /// Common tail of every Persist op: account the staged record (its
  /// encoded size, as DurableLog reports it), surface errors, and schedule
  /// the covering barrier.
  void AfterAppend(const Result<size_t>& staged);
  void MaybeSync();
  void IssueSync();
  void OnSyncDone(const Status& synced, uint64_t cover_seq,
                  storage::LogIndex cover_frontier, uint64_t generation,
                  SimTime issued_at);

  NodeContext* ctx_;
  storage::DurableLog* log_ = nullptr;

  /// Monotonic count of staged records / records covered by a completed
  /// fsync. appended_ == durable_ means everything staged is durable.
  uint64_t appended_seq_ = 0;
  uint64_t durable_seq_ = 0;

  /// Highest entry index staged / covered by a completed fsync. The
  /// durable frontier is *assigned* (not maxed) from the value captured at
  /// sync issue, so a truncation lowers it at the next barrier.
  storage::LogIndex pending_entry_frontier_ = 0;
  storage::LogIndex durable_entry_frontier_ = 0;

  /// Waiters parked until durable_seq_ reaches their staged sequence.
  std::deque<std::pair<uint64_t, std::function<void()>>> waiters_;

  /// Invalidates sync completions issued before a crash.
  uint64_t generation_ = 0;
  int syncs_in_flight_ = 0;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_DURABILITY_H_
