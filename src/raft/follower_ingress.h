#ifndef NBRAFT_RAFT_FOLLOWER_INGRESS_H_
#define NBRAFT_RAFT_FOLLOWER_INGRESS_H_

#include <map>
#include <vector>

#include "common/index_ring.h"
#include "nbraft/sliding_window.h"
#include "raft/messages.h"
#include "raft/node_context.h"

namespace nbraft::raft {

/// Follower append cost. Appends serialize on the follower's log lock (the
/// paper's Fig. 3: the blue waiting loop "is controlled by Follower's
/// Log, which is accessed by multiple appenders").
inline constexpr SimDuration kFollowerAppendBase = Micros(8);
inline constexpr SimDuration kFollowerAppendPerKib = Micros(2);
/// Cost, per blocked (held) entry, that every append pays on the log
/// lock: each append wakes all waiting appender threads so they can
/// re-check appendability. This is how original Raft's blocking burns
/// follower capacity as concurrency grows; NB-Raft's window keeps the
/// held set empty and skips the cost.
inline constexpr SimDuration kHeldWakeupCost = Nanos(600);

/// The follower side of the append path: the decision tree for arriving
/// entries (duplicate / truncate-and-replace / direct append / sliding
/// window / held), the paper's blue waiting loop over held entries, the
/// serialized log-lock lane charge, commit advancement off verified
/// prefixes, and snapshot installation. Owns the sliding window and every
/// follower-only cache.
class FollowerIngress {
 public:
  explicit FollowerIngress(NodeContext* ctx)
      : ctx_(ctx),
        window_(ctx->options().window_size),
        window_journal_adapter_(this) {}

  void HandleAppendEntries(AppendEntriesRequest req, SimTime received_at);
  void HandleInstallSnapshot(InstallSnapshotRequest req);

  /// Advances the follower commit index to min(leader_commit,
  /// verified_up_to), where `verified_up_to` bounds the prefix known to
  /// match the leader's log (never advance over an unverified tail).
  void AdvanceFollowerCommit(storage::LogIndex leader_commit,
                             storage::LogIndex verified_up_to);

  /// Re-attaches / detaches the window's journal observer after the node's
  /// journal changed (detached when unjournaled, so the window keeps its
  /// zero-overhead fast path).
  void OnJournalChanged();

  /// Crash-stop cleanup: the window (with its receive times) and held
  /// entries are volatile.
  void OnCrash();

  /// This node was just elected: weakly accepted cache entries (and their
  /// receive times) belong to the previous leader's pipeline.
  void OnLeadershipTaken();

  const SlidingWindow& window() const { return window_; }

 private:
  /// The RPC an append response answers.
  struct ReplyTo {
    net::NodeId leader = net::kInvalidNode;
    uint64_t rpc_id = 0;
    storage::LogIndex entry_index = 0;

    static ReplyTo Of(const AppendEntriesRequest& req) {
      return {req.leader, req.rpc_id, req.entry.index};
    }
  };

  /// A strong accept waiting for the log lock: what its lane completion
  /// traces and answers. Parked in pending_accepts_ so the completion
  /// captures only its key and fits EventFn's inline buffer.
  struct PendingAccept {
    ReplyTo to;
    storage::Term entry_term = 0;
    uint64_t request_id = 0;
    storage::LogIndex new_last = 0;
    storage::Term new_last_term = 0;
    SimTime submit_time = 0;
    SimDuration cost = 0;
  };

  /// A received entry the follower cannot yet place (diff > max(w, 1)):
  /// the RPC stays open — this is the paper's blue waiting loop.
  struct HeldEntry {
    AppendEntriesRequest request;
    SimTime received_at = 0;
  };

  /// Forwards window transitions to the journal.
  class WindowJournalAdapter : public SlidingWindow::Observer {
   public:
    explicit WindowJournalAdapter(FollowerIngress* ingress)
        : ingress_(ingress) {}
    void OnInsert(storage::LogIndex index, size_t occupancy) override;
    void OnEvict(storage::LogIndex index, size_t occupancy) override;
    void OnFlush(storage::LogIndex first, size_t count,
                 size_t occupancy) override;

   private:
    FollowerIngress* ingress_;
  };

  /// Decides what to do with an arriving entry: duplicate ack, truncate &
  /// replace, direct append (+ window flush), window caching, or holding
  /// it in the waiting loop.
  void ProcessEntry(const AppendEntriesRequest& req, SimTime received_at,
                    bool from_held_queue);
  void AppendAndFlush(const AppendEntriesRequest& req, SimTime received_at,
                      bool truncate_first);
  /// Charges `cost` on the log-lock lane; on completion traces
  /// t_append(F) and t_wait(F) for `req`'s entry and, once durable,
  /// answers it with a strong accept covering (new_last, new_last_term).
  void SubmitStrongAccept(const AppendEntriesRequest& req,
                          storage::LogIndex new_last,
                          storage::Term new_last_term, SimDuration cost);
  void RespondAppend(const ReplyTo& to, AcceptState state,
                     storage::LogIndex last_index, storage::Term last_term);
  void RespondAppend(const AppendEntriesRequest& req, AcceptState state,
                     storage::LogIndex last_index, storage::Term last_term) {
    RespondAppend(ReplyTo::Of(req), state, last_index, last_term);
  }
  void RecheckHeldEntries();
  SimDuration FollowerAppendCost(const storage::LogEntry& entry) const;
  /// Appends one leader-chained entry: t_wait(F) accounting (skipped when
  /// `received_at` is SlidingWindow::kNoReceiveTime), persistence and the
  /// in-memory append; returns the entry's log-lock cost share. The one
  /// per-entry append sequence of the direct path and the window flush.
  SimDuration AppendChained(storage::LogEntry entry, SimTime received_at);
  /// Flushes the continuous window prefix into the log (paper Fig. 9),
  /// accumulating the per-entry cost; returns the total.
  SimDuration FlushWindowPrefix();

  NodeContext* ctx_;
  SlidingWindow window_;
  /// Held (blocked) arrivals ordered by entry index, so a log advance only
  /// touches the entries it actually unblocks.
  std::multimap<storage::LogIndex, HeldEntry> held_entries_;
  bool in_recheck_ = false;
  /// FlushWindowPrefix's reused output buffer.
  std::vector<SlidingWindow::Flushed> flush_buffer_;
  /// Strong accepts queued on the log-lock lane, by submission number.
  IndexRing<PendingAccept> pending_accepts_;
  int64_t next_accept_ = 0;
  WindowJournalAdapter window_journal_adapter_;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_FOLLOWER_INGRESS_H_
