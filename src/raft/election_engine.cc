#include "raft/election_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "raft/commit_applier.h"
#include "raft/follower_ingress.h"
#include "raft/membership.h"
#include "raft/recovery_stm.h"
#include "raft/replication_pipeline.h"

namespace nbraft::raft {

bool ElectionEngine::VoteQuorumReached(const net::NodeSet& votes) {
  MembershipEngine* m = ctx_->membership();
  if (m != nullptr && m->active()) return m->QuorumSatisfied(votes);
  return static_cast<int>(votes.size()) >= ctx_->quorum();
}

bool ElectionEngine::IsPassive() {
  MembershipEngine* m = ctx_->membership();
  return m != nullptr && m->active() && !m->SelfIsVoter();
}

void ElectionEngine::ArmElectionTimer() {
  sim::Simulator* sim = ctx_->simulator();
  sim->Cancel(election_timer_);
  if (IsPassive()) {
    // A learner (or a node voted out of the config) never campaigns: the
    // timer stays disarmed until a config change restores its vote.
    election_timer_ = sim::kInvalidEventId;
    return;
  }
  const SimDuration base = ctx_->options().election_timeout;
  // Jitter is drawn per arming (never cached per node): each retry gets a
  // fresh draw from [base, 2*base), which is what breaks split-vote /
  // election-storm resonance between replicas.
  SimDuration delay =
      base + static_cast<SimDuration>(ctx_->rng().NextBounded(
                 static_cast<uint64_t>(std::max<SimDuration>(base, 1))));
  if (timer_skew_ != 1.0) {
    // Chaos clock skew: stretch or shrink this node's perception of the
    // timeout (floor 1 tick keeps the timer strictly in the future).
    delay = std::max<SimDuration>(
        static_cast<SimDuration>(static_cast<double>(delay) * timer_skew_), 1);
  }
  const uint64_t epoch = ctx_->core().epoch;
  election_deadline_ = sim->Now() + delay;
  election_timer_ = sim->After(delay, [this, epoch]() {
    election_timer_ = sim::kInvalidEventId;  // Fired: no longer armed.
    const CoreState& core = ctx_->core();
    if (core.crashed || epoch != core.epoch || core.role == Role::kLeader) {
      return;
    }
    OnElectionTimeout();
  });
}

void ElectionEngine::OnElectionTimeout() {
  if (ctx_->options().pre_vote) {
    StartPreVote();
    return;
  }
  StartElection();
}

void ElectionEngine::OnCrash() {
  ctx_->simulator()->Cancel(election_timer_);
  election_timer_ = sim::kInvalidEventId;
  votes_received_.clear();
  AbortPreVote();
  CancelCheckQuorumTimer();
  last_leader_contact_ = 0;
  transfer_pending_ = false;
}

bool ElectionEngine::LeaseHeld() const {
  const CoreState& core = ctx_->core();
  if (core.role == Role::kLeader) return true;
  if (core.leader == net::kInvalidNode || last_leader_contact_ == 0) {
    return false;
  }
  return ctx_->simulator()->Now() - last_leader_contact_ <
         ctx_->options().election_timeout;
}

void ElectionEngine::StartPreVote() {
  CoreState& core = ctx_->core();
  if (IsPassive()) return;
  if (core.heal_quarantine) {
    // Same sit-out as StartElection: a corruption-truncated log must not
    // seek leadership, not even tentatively.
    ArmElectionTimer();
    return;
  }
  AbortPreVote();
  prevote_in_progress_ = true;
  prevote_term_ = core.current_term + 1;
  prevotes_received_.insert(ctx_->id());
  NBRAFT_LOG(Info) << "node " << ctx_->id()
                   << " starts pre-vote canvass for term " << prevote_term_;
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kPreVoteStart, ctx_->id(), -1,
              static_cast<int64_t>(prevote_term_));
  }
  if (VoteQuorumReached(prevotes_received_)) {
    AbortPreVote();
    StartElection();
    return;
  }
  // The canvass is non-binding: nothing is persisted and no durability
  // barrier gates the sends — a forgotten pre-vote costs nothing.
  RequestVoteRequest req;
  req.term = prevote_term_;
  req.candidate = ctx_->id();
  req.last_log_index = ctx_->log().LastIndex();
  req.last_log_term = ctx_->log().LastTerm();
  req.pre_vote = true;
  for (net::NodeId peer : ctx_->peer_ids()) {
    ctx_->SendTo(peer, req);
  }
  ArmElectionTimer();  // Retry the canvass with a fresh randomized timeout.
}

void ElectionEngine::StartElection() {
  CoreState& core = ctx_->core();
  if (IsPassive()) return;
  if (core.heal_quarantine) {
    // A corruption-truncated log must not seek leadership: it may be
    // missing committed entries, and electing it (or splitting votes with
    // it) could lose them. Sit out until healed from the leader.
    ArmElectionTimer();
    return;
  }
  AbortPreVote();
  ++core.current_term;
  ++ctx_->stats().terms_started;
  core.role = Role::kCandidate;
  core.voted_for = ctx_->id();
  ctx_->PersistHardState();
  core.leader = net::kInvalidNode;
  votes_received_.clear();
  votes_received_.insert(ctx_->id());
  ++ctx_->stats().elections_started;
  NBRAFT_LOG(Info) << "node " << ctx_->id() << " starts election, term "
                   << core.current_term;
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kTermChange, ctx_->id(), -1,
              static_cast<int64_t>(core.current_term) - 1,
              static_cast<int64_t>(core.current_term));
    j->Record(obs::JournalEventKind::kElectionStart, ctx_->id(), -1,
              static_cast<int64_t>(core.current_term));
    j->Record(obs::JournalEventKind::kRoleChange, ctx_->id(), -1,
              static_cast<int64_t>(Role::kCandidate),
              static_cast<int64_t>(core.current_term));
  }

  if (VoteQuorumReached(votes_received_)) {
    BecomeLeader();
    return;
  }
  RequestVoteRequest req;
  req.term = core.current_term;
  req.candidate = ctx_->id();
  req.last_log_index = ctx_->log().LastIndex();
  req.last_log_term = ctx_->log().LastTerm();
  // The candidacy (term bump + self-vote) must be fsynced before anyone
  // hears about it, or a crash could forget the vote and grant it again.
  const uint64_t epoch = core.epoch;
  const storage::Term term = core.current_term;
  ctx_->WhenDurable([this, epoch, term, req]() {
    const CoreState& c = ctx_->core();
    if (c.crashed || epoch != c.epoch || c.current_term != term ||
        c.role != Role::kCandidate) {
      return;
    }
    for (net::NodeId peer : ctx_->peer_ids()) {
      ctx_->SendTo(peer, req);
    }
  });
  ArmElectionTimer();  // Retry with a fresh randomized timeout.
}

void ElectionEngine::SendLeaseReject(const RequestVoteRequest& req) {
  const CoreState& core = ctx_->core();
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kLeaseReject, ctx_->id(),
              static_cast<int32_t>(req.candidate),
              static_cast<int64_t>(req.term), req.pre_vote ? 1 : 0);
  }
  RequestVoteResponse resp;
  resp.term = core.current_term;
  resp.from = ctx_->id();
  resp.granted = false;
  resp.pre_vote = req.pre_vote;
  ctx_->SendTo(req.candidate, resp);
}

void ElectionEngine::HandlePreVoteRequest(const RequestVoteRequest& req) {
  CoreState& core = ctx_->core();
  RequestVoteResponse resp;
  resp.term = core.current_term;
  resp.from = ctx_->id();
  resp.granted = false;
  resp.pre_vote = true;
  if (ctx_->options().check_quorum_lease && LeaseHeld()) {
    ++ctx_->stats().prevotes_rejected;
    SendLeaseReject(req);
    return;
  }
  if (!withhold_votes_ && !core.heal_quarantine &&
      req.term > core.current_term) {
    // Non-binding up-to-date check against the prospective term; no term
    // adoption, no voted_for move, no persistence, and — unlike a real
    // grant — no election-timer reset.
    const storage::RaftLog& log = ctx_->log();
    resp.granted = req.last_log_term > log.LastTerm() ||
                   (req.last_log_term == log.LastTerm() &&
                    req.last_log_index >= log.LastIndex());
  }
  if (resp.granted) {
    ++ctx_->stats().prevotes_granted;
  } else {
    ++ctx_->stats().prevotes_rejected;
  }
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(resp.granted ? obs::JournalEventKind::kPreVoteGrant
                           : obs::JournalEventKind::kPreVoteReject,
              ctx_->id(), static_cast<int32_t>(req.candidate),
              static_cast<int64_t>(req.term));
  }
  ctx_->SendTo(req.candidate, resp);
}

void ElectionEngine::HandleRequestVote(RequestVoteRequest req) {
  if (req.pre_vote) {
    HandlePreVoteRequest(req);
    return;
  }
  CoreState& core = ctx_->core();
  if (ctx_->options().check_quorum_lease && LeaseHeld()) {
    // The deposition shield: a known-live leader outranks any candidacy.
    // Critically this runs *before* the higher-term step-down — the
    // candidate's (possibly inflated) term is never adopted.
    SendLeaseReject(req);
    return;
  }
  if (req.term > core.current_term) {
    // Adopting the candidate's term is not leader contact: Raft (5.2)
    // resets the timer only on a grant (below). Re-arming here would let a
    // short-log candidate's denied request postpone the election of an
    // up-to-date node.
    StepDown(req.term, net::kInvalidNode, /*keep_armed_timer=*/true);
  }
  RequestVoteResponse resp;
  resp.term = core.current_term;
  resp.from = ctx_->id();
  resp.granted = false;
  if (!withhold_votes_ && req.term == core.current_term &&
      !core.heal_quarantine &&
      (core.voted_for == net::kInvalidNode ||
       core.voted_for == req.candidate)) {
    // A quarantined node grants no votes: its truncated log makes the
    // up-to-date comparison unsound (it may vote against entries it once
    // held committed).
    const storage::RaftLog& log = ctx_->log();
    const bool up_to_date =
        req.last_log_term > log.LastTerm() ||
        (req.last_log_term == log.LastTerm() &&
         req.last_log_index >= log.LastIndex());
    if (up_to_date) {
      resp.granted = true;
      core.voted_for = req.candidate;
      ctx_->PersistHardState();
      ArmElectionTimer();
    }
  }
  if (!resp.granted) {
    ctx_->SendTo(req.candidate, resp);
    return;
  }
  // The vote is a durable promise: it must not reach the candidate before
  // the fsync that remembers it.
  const uint64_t epoch = core.epoch;
  const net::NodeId candidate = req.candidate;
  ctx_->WhenDurable([this, epoch, candidate, resp]() {
    const CoreState& c = ctx_->core();
    if (c.crashed || epoch != c.epoch) return;
    ctx_->SendTo(candidate, resp);
  });
}

void ElectionEngine::HandleVoteResponse(RequestVoteResponse resp) {
  CoreState& core = ctx_->core();
  if (resp.term > core.current_term) {
    StepDown(resp.term, net::kInvalidNode);
    return;
  }
  if (resp.pre_vote) {
    // A candidate whose election stalled (votes lease-rejected, quorum
    // never formed) re-canvasses from its timer, so a canvass may
    // legitimately be in flight in either role; only the stale-term check
    // decides validity. Gating on follower here would drop every grant a
    // stuck candidate receives and wedge it at its current term forever.
    if (!prevote_in_progress_ || !resp.granted ||
        (core.role != Role::kFollower && core.role != Role::kCandidate) ||
        prevote_term_ != core.current_term + 1) {
      return;  // Stale canvass (term moved on) or a plain rejection.
    }
    prevotes_received_.insert(resp.from);
    if (VoteQuorumReached(prevotes_received_)) {
      AbortPreVote();
      StartElection();
    }
    return;
  }
  if (core.role != Role::kCandidate || resp.term != core.current_term ||
      !resp.granted) {
    return;
  }
  votes_received_.insert(resp.from);
  if (VoteQuorumReached(votes_received_)) {
    BecomeLeader();
  }
}

bool ElectionEngine::TransferLeadership(net::NodeId target) {
  CoreState& core = ctx_->core();
  if (core.role != Role::kLeader || target == ctx_->id()) return false;
  MembershipEngine* m = ctx_->membership();
  if (m != nullptr && m->active() && !m->IsVoter(target)) return false;
  ++ctx_->stats().transfers;
  NBRAFT_LOG(Info) << "node " << ctx_->id()
                   << " transfers leadership to node " << target << ", term "
                   << core.current_term;
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kTransferStart, ctx_->id(),
              static_cast<int32_t>(target),
              static_cast<int64_t>(core.current_term));
  }
  TimeoutNowRequest req;
  req.term = core.current_term;
  req.leader = ctx_->id();
  ctx_->SendTo(target, req);
  return true;
}

void ElectionEngine::HandleTimeoutNow(const TimeoutNowRequest& req) {
  CoreState& core = ctx_->core();
  if (req.term < core.current_term || core.role == Role::kLeader) return;
  if (core.heal_quarantine || IsPassive()) return;
  // An explicit leader instruction: campaign immediately, bypassing both
  // the randomized timeout and the PreVote canvass. The term bump deposes
  // the old leader the moment our vote request reaches it.
  transfer_pending_ = true;
  StartElection();
}

void ElectionEngine::ArmCheckQuorumTimer() {
  sim::Simulator* sim = ctx_->simulator();
  sim->Cancel(check_quorum_timer_);
  const uint64_t epoch = ctx_->core().epoch;
  check_quorum_timer_ =
      sim->After(ctx_->options().election_timeout, [this, epoch]() {
        const CoreState& core = ctx_->core();
        if (core.crashed || epoch != core.epoch ||
            core.role != Role::kLeader) {
          return;
        }
        OnCheckQuorumTimeout();
      });
}

void ElectionEngine::OnCheckQuorumTimeout() {
  CoreState& core = ctx_->core();
  const SimTime now = ctx_->simulator()->Now();
  const SimDuration window = ctx_->options().election_timeout;
  const int responsive =
      ctx_->pipeline()->PeersRespondedSince(now > window ? now - window : 0) +
      1;  // Self.
  if (responsive >= ctx_->quorum()) {
    ArmCheckQuorumTimer();
    return;
  }
  ++ctx_->stats().checkquorum_stepdowns;
  NBRAFT_LOG(Info) << "node " << ctx_->id() << " lost quorum contact ("
                   << responsive << " responsive), stepping down in term "
                   << core.current_term;
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kQuorumLost, ctx_->id(), -1,
              static_cast<int64_t>(core.current_term), responsive);
  }
  // Same-term step-down: this is voluntary abdication, not a deposition
  // (no higher term forced it), so leader_depositions stays untouched.
  StepDown(core.current_term, net::kInvalidNode);
}

void ElectionEngine::CancelCheckQuorumTimer() {
  if (check_quorum_timer_ == sim::kInvalidEventId) return;
  ctx_->simulator()->Cancel(check_quorum_timer_);
  check_quorum_timer_ = sim::kInvalidEventId;
}

void ElectionEngine::BecomeLeader() {
  CoreState& core = ctx_->core();
  NBRAFT_CHECK_NE(static_cast<int>(core.role),
                  static_cast<int>(Role::kLeader));
  core.role = Role::kLeader;
  core.leader = ctx_->id();
  ++ctx_->stats().times_elected;
  NBRAFT_LOG(Info) << "node " << ctx_->id() << " elected leader, term "
                   << core.current_term;
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kLeaderElected, ctx_->id(), -1,
              static_cast<int64_t>(core.current_term));
    j->Record(obs::JournalEventKind::kRoleChange, ctx_->id(), -1,
              static_cast<int64_t>(Role::kLeader),
              static_cast<int64_t>(core.current_term));
    if (transfer_pending_) {
      j->Record(obs::JournalEventKind::kTransferDone, ctx_->id(), -1,
                static_cast<int64_t>(core.current_term));
    }
  }
  transfer_pending_ = false;
  for (const LeaderObserver& observer : leader_observers_) {
    observer(core.current_term, ctx_->id());
  }
  ctx_->simulator()->Cancel(election_timer_);
  election_timer_ = sim::kInvalidEventId;
  AbortPreVote();
  if (ctx_->options().check_quorum_lease) ArmCheckQuorumTimer();

  // Any leader-side state left from a previous leadership — and weakly
  // accepted cache entries belonging to the previous leader's pipeline —
  // is stale now.
  ctx_->applier()->ResetLeaderState();
  ctx_->pipeline()->ResetLeaderState();
  ctx_->ingress()->OnLeadershipTaken();

  // Commit a no-op in the new term so older entries can commit (Raft's
  // current-term commit rule).
  storage::RaftLog& log = ctx_->log();
  storage::LogEntry noop;
  noop.index = log.LastIndex() + 1;
  noop.term = core.current_term;
  noop.prev_term = log.LastTerm();
  log.Append(noop);
  ctx_->PersistEntry(noop);
  ++ctx_->stats().entries_appended;
  ctx_->applier()->OnLeaderAppended(noop.index);
  ctx_->pipeline()->ReplicateEntry(noop);
  ctx_->applier()->AddLeaderVote(noop.index, noop.term, ctx_->quorum());

  ctx_->pipeline()->BroadcastHeartbeat();

  // Resume catch-up for any learners the committed config already names:
  // recovery tracking is leader-side soft state, so a new leader rebuilds
  // it from the configuration.
  MembershipEngine* m = ctx_->membership();
  if (m != nullptr && m->active() && ctx_->recovery() != nullptr) {
    for (net::NodeId learner : m->config().learners) {
      if (learner != ctx_->id()) ctx_->recovery()->StartRecovery(learner);
    }
  }
}

void ElectionEngine::StepDown(storage::Term term, net::NodeId leader,
                              bool keep_armed_timer) {
  CoreState& core = ctx_->core();
  const bool was_leader = core.role == Role::kLeader;
  const Role new_role = IsPassive() ? Role::kLearner : Role::kFollower;
  const bool role_changes = core.role != new_role;
  const storage::Term old_term = core.current_term;
  if (was_leader && term > old_term) {
    // A live leader forced down by a higher term — the deposition the
    // PreVote / CheckQuorum / lease mitigations exist to prevent.
    ++ctx_->stats().leader_depositions;
  }
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kStepDown, ctx_->id(), -1,
              static_cast<int64_t>(term), was_leader ? 1 : 0);
    if (term > old_term) {
      j->Record(obs::JournalEventKind::kTermChange, ctx_->id(), -1,
                static_cast<int64_t>(old_term), static_cast<int64_t>(term));
    }
    if (role_changes) {
      j->Record(obs::JournalEventKind::kRoleChange, ctx_->id(), -1,
                static_cast<int64_t>(new_role),
                static_cast<int64_t>(std::max(term, old_term)));
    }
  }
  if (was_leader) {
    // Tell clients of in-flight entries to retry with the new leader
    // (Sec. III-B3a: reply LEADER_CHANGED and clean the VoteList), then
    // drop every piece of leader-only state — peer pipelines, outstanding
    // RPCs, fragment caches, commit timing (the Crash() path clears the
    // same set; keeping one reset per engine keeps the lifetimes honest).
    ctx_->applier()->FailPendingClientEntries(term, leader);
    ctx_->pipeline()->ResetLeaderState();
    ctx_->applier()->ResetLeaderState();
    CancelCheckQuorumTimer();
    if (ctx_->recovery() != nullptr) ctx_->recovery()->StopAll();
  }
  if (term > core.current_term) {
    core.current_term = term;
    core.voted_for = net::kInvalidNode;
    ctx_->PersistHardState();
  }
  core.role = new_role;
  core.leader = leader;
  votes_received_.clear();
  transfer_pending_ = false;
  AbortPreVote();
  if (!keep_armed_timer || election_timer_ == sim::kInvalidEventId) {
    ArmElectionTimer();
  }
}

void ElectionEngine::NoteLeaderContact(storage::Term term,
                                       net::NodeId leader) {
  CoreState& core = ctx_->core();
  if (term > core.current_term ||
      (core.role != Role::kFollower && core.role != Role::kLearner)) {
    StepDown(term, leader);
  }
  core.leader = leader;
  // The lease clock: this is the moment a live leader was last heard.
  // Tracked unconditionally (one store) so turning the lease on never
  // changes any other code path.
  last_leader_contact_ = ctx_->simulator()->Now();
  AbortPreVote();  // A live leader ends any canvass.
  ArmElectionTimer();
}

}  // namespace nbraft::raft
