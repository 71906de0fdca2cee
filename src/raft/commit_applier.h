#ifndef NBRAFT_RAFT_COMMIT_APPLIER_H_
#define NBRAFT_RAFT_COMMIT_APPLIER_H_

#include <vector>

#include "common/index_ring.h"
#include "nbraft/vote_list.h"
#include "raft/node_context.h"

namespace nbraft::raft {

/// Commit and apply: the leader's VoteList (weak/strong accept tallies),
/// commit-time bookkeeping (Fig. 4 t_commit / t_ack spans, fragment-cache
/// release), the ordered apply lane that drives the state machine and
/// answers clients with STRONG_ACCEPT, and snapshot-based log compaction.
class CommitApplier {
 public:
  explicit CommitApplier(NodeContext* ctx) : ctx_(ctx) {}

  VoteList& vote_list() { return vote_list_; }
  const VoteList& vote_list() const { return vote_list_; }

  /// Starts the Fig. 4 clock for a leader-appended index (t_idx done).
  void OnLeaderAppended(storage::LogIndex index);

  /// The leader's own commit vote for its just-appended `index` of `term`,
  /// a durability claim like any follower strong accept. Registers the
  /// VoteList tuple needing `required` strong accepts; once the covering
  /// fsync completes (inline when none is pending) raises the strong-ack
  /// frontier and commits what the vote completes — a solo quorum
  /// commits right there.
  void AddLeaderVote(storage::LogIndex index, storage::Term term,
                     int required);

  /// Marks the first covering strong accept for every index
  /// <= `last_index` that has none yet (t_ack starts here).
  void NoteFirstStrongUpTo(storage::LogIndex last_index);

  /// Commits the indices the VoteList released, in order.
  void CommitIndices(const std::vector<storage::LogIndex>& indices);

  /// Schedules every committed-but-unapplied entry onto the apply lane.
  void ApplyReadyEntries();

  /// Compacts the log once enough applied entries accumulated.
  void MaybeTakeSnapshot();

  /// Step-down notification path (Sec. III-B3a): replies LEADER_CHANGED to
  /// every client with an in-flight entry and drains the VoteList.
  void FailPendingClientEntries(storage::Term new_term,
                                net::NodeId new_leader);

  /// Drops leader-only state (VoteList, per-entry timing). Called on
  /// Crash(), StepDown() and BecomeLeader().
  void ResetLeaderState();

  /// True when every leader-only container is empty (step-down audit).
  bool LeaderStateEmpty() const {
    return vote_list_.empty() && entry_timing_.empty();
  }

 private:
  /// Per-index timestamps for the Fig. 4 breakdown.
  struct EntryTiming {
    SimTime indexed_at = 0;
    SimTime first_strong_at = 0;
  };

  NodeContext* ctx_;
  VoteList vote_list_;
  /// Keyed by log index; erased at commit, so the ring spans the
  /// uncommitted suffix like the VoteList.
  IndexRing<EntryTiming> entry_timing_;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_COMMIT_APPLIER_H_
