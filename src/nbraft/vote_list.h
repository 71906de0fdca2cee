#ifndef NBRAFT_NBRAFT_VOTE_LIST_H_
#define NBRAFT_NBRAFT_VOTE_LIST_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/index_ring.h"
#include "net/network.h"
#include "net/node_set.h"
#include "storage/log_entry.h"

namespace nbraft::raft {

/// The leader-side entry-state tracker of NB-Raft (paper Sec. III-B): an
/// ordered list of (logIndex, Weakly Accepted Nodes, Strongly Accepted
/// Nodes) tuples. The original Raft uses the same structure with only the
/// strong sets, so one VoteList serves every protocol variant.
///
/// Tuples sit in an IndexRing keyed by log index: the list is positional,
/// commits pop its front, and the leader appends at its back, so no tuple
/// costs an allocation once the ring has grown to the in-flight span.
class VoteList {
 public:
  struct Tuple {
    storage::Term term = 0;
    /// Acceptances needed to commit this entry: the majority quorum for
    /// plain entries, k + F for CRaft fragments.
    int required = 1;
    net::NodeSet weak;
    net::NodeSet strong;
    /// Whether the WEAK_ACCEPT response has already been sent to the client
    /// (sent at most once per entry, when weak ∪ strong first reaches the
    /// required count).
    bool weak_notified = false;
  };

  /// Registers a tuple when the leader starts replicating `index`, with
  /// `leader` already counted as strongly accepted. kInvalidNode registers
  /// no vote: the engine's path, where the leader's own vote arrives
  /// through AddStrongAt once its append is durable.
  void AddTuple(storage::LogIndex index, storage::Term term,
                net::NodeId leader, int required);

  bool Contains(storage::LogIndex index) const {
    return tuples_.Contains(index);
  }
  const Tuple* Find(storage::LogIndex index) const {
    return tuples_.Find(index);
  }

  /// Records a WEAK_ACCEPT from `node` for `index` (Sec. III-B2). Returns
  /// true when this made weak ∪ strong reach the tuple's required count for
  /// the first time — the moment the leader replies WEAK_ACCEPT to the
  /// client.
  bool AddWeak(storage::LogIndex index, net::NodeId node);

  /// Records a STRONG_ACCEPT covering every index <= `last_index`
  /// (Sec. III-B3b: window continuity means a strong accept covers the
  /// whole prefix). Tuples of `current_term` whose strong set reaches the
  /// tuple's required count commit — together with every earlier tuple
  /// (Raft's commit rule: an old-term tuple commits only transitively
  /// through a current-term one). Committed tuples are removed; their
  /// indices return in order.
  std::vector<storage::LogIndex> AddStrongUpTo(storage::LogIndex last_index,
                                               net::NodeId node,
                                               storage::Term current_term);

  /// Records a STRONG_ACCEPT from `node` for the tuple at `index` alone
  /// and, when that satisfies it, commits it with its committable prefix.
  /// This is the leader's self-vote: self-votes arrive in index order, so
  /// every earlier tuple already holds the leader's vote and touching one
  /// tuple commits what AddStrongUpTo would without walking the list.
  std::vector<storage::LogIndex> AddStrongAt(storage::LogIndex index,
                                             net::NodeId node,
                                             storage::Term current_term);

  /// Visits every tuple in index order (mutable) — used to re-evaluate
  /// required counts when the set of alive replicas changes (CRaft/ECRaft
  /// degraded-mode transitions).
  void ForEach(
      const std::function<void(storage::LogIndex, Tuple*)>& fn);

  /// Pops and returns the maximal committable prefix without adding any
  /// new vote — called after requirements were lowered.
  std::vector<storage::LogIndex> CollectCommittable(
      storage::Term current_term);

  /// Leader-change cleanup (Sec. III-B3a).
  void Clear() { tuples_.Clear(); }

  /// Removes the front tuple without committing it (used while draining
  /// the list to notify clients on leader change).
  void RemoveFront() {
    if (!tuples_.empty()) tuples_.PopFront();
  }

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Smallest tracked index, or -1 when empty.
  storage::LogIndex FrontIndex() const {
    return tuples_.empty() ? -1 : tuples_.front_index();
  }

  /// Overrides the count-based commit rule with a set-based one (dynamic
  /// membership: a joint configuration needs majorities of both voter
  /// generations, which no single count can express). Unset (the
  /// default), commit stays `strong.size() >= required` exactly as
  /// before. Weak-accept client notification keeps the count rule either
  /// way — it is a latency signal, not a safety decision.
  using CommitCheck = std::function<bool(const Tuple&)>;
  void set_commit_check(CommitCheck check) { commit_check_ = std::move(check); }

 private:
  bool StrongSatisfied(const Tuple& tuple) const {
    if (commit_check_) return commit_check_(tuple);
    return static_cast<int>(tuple.strong.size()) >= tuple.required;
  }

  /// Removes the committable prefix given the highest satisfied
  /// current-term index has been identified.
  std::vector<storage::LogIndex> PopCommittable(storage::LogIndex up_to,
                                                storage::Term current_term);

  IndexRing<Tuple> tuples_;
  CommitCheck commit_check_;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_NBRAFT_VOTE_LIST_H_
