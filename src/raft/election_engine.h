#ifndef NBRAFT_RAFT_ELECTION_ENGINE_H_
#define NBRAFT_RAFT_ELECTION_ENGINE_H_

#include <functional>
#include <vector>

#include "net/node_set.h"
#include "raft/messages.h"
#include "raft/node_context.h"

namespace nbraft::raft {

/// Leader election and term transitions: the randomized election timer,
/// vote bookkeeping, candidate -> leader promotion and the step-down path
/// (which drains the leader-side engines through the context). Everything
/// here mutates only CoreState term/role/vote fields plus its own timers.
///
/// Three independently switchable mitigations (RaftOptions) harden the
/// election path against protocol-level adversaries:
///
///  - PreVote: a timed-out follower first canvasses a non-binding
///    pre-vote quorum for its prospective term (current + 1) and only
///    then runs StartElection. Nothing is persisted and voted_for never
///    moves during the canvass, so an isolated node cannot inflate its
///    term — the classic disruptive-server attack dies here.
///  - CheckQuorum: a leader that heard AppendEntries responses from
///    fewer than quorum-1 peers within one election_timeout steps down
///    in its own term (counted as checkquorum_stepdowns, not as a
///    deposition).
///  - Leader lease: while this node heard a live leader within the last
///    election_timeout (or is that leader), vote and pre-vote requests
///    are rejected *without* adopting the candidate's term.
///
/// With all three off the code path — including the rng draw sequence —
/// is exactly the unmitigated engine (behavior_fingerprint-pinned).
class ElectionEngine {
 public:
  /// Invoked exactly once per term this node wins, from BecomeLeader().
  /// The chaos safety oracle uses it to check election safety (<= 1 leader
  /// per term) without polling.
  using LeaderObserver = std::function<void(storage::Term, net::NodeId)>;

  explicit ElectionEngine(NodeContext* ctx) : ctx_(ctx) {}

  /// (Re-)arms the randomized election timer. The jitter is drawn from
  /// the node's rng *per arming* — never cached at construction — so
  /// repeated election storms cannot resonate on identical timeouts
  /// (regression-pinned by ElectionJitter tests).
  void ArmElectionTimer();

  /// When the armed election timer fires; 0 while none is armed.
  SimTime election_deadline() const {
    return election_timer_ == sim::kInvalidEventId ? 0 : election_deadline_;
  }

  /// Election-timer expiry: pre-vote canvass when RaftOptions::pre_vote,
  /// otherwise a real election. TriggerElection (harness bootstrap)
  /// bypasses this and calls StartElection directly.
  void OnElectionTimeout();

  void StartElection();
  void HandleRequestVote(RequestVoteRequest req);
  void HandleVoteResponse(RequestVoteResponse resp);

  /// Leadership transfer (graceful drain): sends TimeoutNow to `target`,
  /// which campaigns immediately and deposes this leader with its higher
  /// term. Returns false when this node is not the leader or the target
  /// is not an eligible voter.
  bool TransferLeadership(net::NodeId target);

  /// Target side of TransferLeadership: campaign now, skipping both the
  /// election timeout and any PreVote canvass (the transfer is an explicit
  /// leader instruction, so the disruptive-server shield does not apply).
  void HandleTimeoutNow(const TimeoutNowRequest& req);

  /// Reverts to follower in `term` (> current steps the term forward),
  /// failing pending client entries and resetting the leader-side engines
  /// when this node was the leader. Re-arms the election timer, unless
  /// `keep_armed_timer` is set and a timer is already running.
  void StepDown(storage::Term term, net::NodeId leader,
                bool keep_armed_timer = false);

  /// A current-or-newer leader made contact: step down if needed, adopt
  /// the leader hint and reset the election timer (and the lease clock).
  void NoteLeaderContact(storage::Term term, net::NodeId leader);

  /// Crash-stop cleanup: cancels the timers and forgets votes.
  void OnCrash();

  /// Registers a callback fired on every BecomeLeader (term, node id).
  /// Multicast: every chaos safety oracle of the cluster listens.
  /// Observers fire in registration order.
  void add_leader_observer(LeaderObserver observer) {
    leader_observers_.push_back(std::move(observer));
  }

  /// Multiplies the randomized election timeout (chaos clock skew; 1.0 =
  /// nominal). Applies from the next time the timer is armed.
  void set_timer_skew(double skew) { timer_skew_ = skew; }
  double timer_skew() const { return timer_skew_; }

  /// Chaos vote-withholder adversary: while set, this node refuses every
  /// vote and pre-vote request (term bookkeeping still runs — the node is
  /// unhelpful, not byzantine).
  void set_withhold_votes(bool withhold) { withhold_votes_ = withhold; }
  bool withhold_votes() const { return withhold_votes_; }

  /// True while a leader-lease holds: this node is the leader, or heard
  /// one within the last election_timeout. Only meaningful with
  /// RaftOptions::check_quorum_lease (callers gate on the option).
  bool LeaseHeld() const;

 private:
  void BecomeLeader();
  void StartPreVote();
  /// Whether `votes` decides the election under the active configuration:
  /// joint configs need majorities of both voter generations (votes from
  /// removed nodes and learners are filtered out), fixed rosters keep the
  /// plain count >= quorum rule.
  bool VoteQuorumReached(const net::NodeSet& votes);
  /// True while this node holds no vote in the active configuration
  /// (learner, or removed): it neither campaigns nor arms election timers.
  bool IsPassive();
  void HandlePreVoteRequest(const RequestVoteRequest& req);
  void AbortPreVote() {
    prevote_in_progress_ = false;
    prevotes_received_.clear();
  }
  void ArmCheckQuorumTimer();
  void OnCheckQuorumTimeout();
  void CancelCheckQuorumTimer();
  /// Rejects `req` because the lease holds, without touching term state.
  void SendLeaseReject(const RequestVoteRequest& req);

  NodeContext* ctx_;
  net::NodeSet votes_received_;
  sim::EventId election_timer_ = sim::kInvalidEventId;
  SimTime election_deadline_ = 0;
  std::vector<LeaderObserver> leader_observers_;
  double timer_skew_ = 1.0;

  // PreVote canvass state (never a Role: a pre-candidate is still a
  // follower to the rest of the protocol).
  bool prevote_in_progress_ = false;
  storage::Term prevote_term_ = 0;  ///< Prospective term of the canvass.
  net::NodeSet prevotes_received_;

  // Leader lease: when this node last heard from a live leader.
  SimTime last_leader_contact_ = 0;

  // CheckQuorum: leader-side quorum-liveness probe.
  sim::EventId check_quorum_timer_ = sim::kInvalidEventId;

  bool withhold_votes_ = false;

  /// Set when a TimeoutNow told this node to campaign: the next
  /// BecomeLeader journals the transfer as completed.
  bool transfer_pending_ = false;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_ELECTION_ENGINE_H_
