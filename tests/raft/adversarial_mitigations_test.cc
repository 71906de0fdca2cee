// The adversarial-resilience mitigations in isolation: PreVote canvasses
// never touch persistent term/vote state, a leader lease rejects (pre-)
// votes without adopting the candidate's term, CheckQuorum makes a
// quorum-deaf leader abdicate in its own term, and the election-timer
// jitter is drawn per arming (the split-vote / election-storm defence).

#include <gtest/gtest.h>

#include <vector>

#include "harness/cluster.h"
#include "raft/raft_node.h"
#include "sim/simulator.h"
#include "tests/raft/mock_node_context.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::raft {
namespace {

using raft_test::MockNodeContext;

RaftOptions MitigationOptions(bool pre_vote, bool check_quorum_lease) {
  RaftOptions options;
  options.election_timeout = Millis(150);
  options.pre_vote = pre_vote;
  options.check_quorum_lease = check_quorum_lease;
  return options;
}

RequestVoteRequest VoteRequest(storage::Term term, net::NodeId candidate,
                               bool pre_vote = false) {
  RequestVoteRequest req;
  req.term = term;
  req.candidate = candidate;
  req.last_log_index = 0;
  req.last_log_term = 0;
  req.pre_vote = pre_vote;
  return req;
}

// ---- PreVote ----

TEST(PreVoteTest, CanvassNeverTouchesTermOrVote) {
  // An isolated pre-voting node keeps canvassing forever without minting
  // a single term: this is exactly what defuses the disruptive server.
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3},
                      MitigationOptions(true, false));
  ctx.election()->ArmElectionTimer();
  sim.RunUntil(Seconds(3));

  EXPECT_EQ(ctx.core().current_term, 0);
  EXPECT_EQ(ctx.core().voted_for, net::kInvalidNode);
  EXPECT_EQ(ctx.core().role, Role::kFollower);
  EXPECT_EQ(ctx.stats().terms_started, 0u);
  EXPECT_EQ(ctx.stats().elections_started, 0u);

  // It did canvass — repeatedly, always for the same prospective term.
  const auto sent = ctx.SentOfType<RequestVoteRequest>();
  ASSERT_GE(sent.size(), 4u);  // >= 2 canvass rounds x 2 peers.
  for (const RequestVoteRequest& req : sent) {
    EXPECT_TRUE(req.pre_vote);
    EXPECT_EQ(req.term, 1);  // Prospective term: current (0) + 1.
  }
}

TEST(PreVoteTest, QuorumOfPreVotesStartsARealElection) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3},
                      MitigationOptions(true, false));
  ctx.election()->OnElectionTimeout();
  EXPECT_EQ(ctx.core().current_term, 0);  // Canvass in flight, no mint.
  ASSERT_EQ(ctx.SentOfType<RequestVoteRequest>().size(), 2u);

  RequestVoteResponse resp;
  resp.term = 0;
  resp.from = 2;
  resp.granted = true;
  resp.pre_vote = true;
  ctx.election()->HandleVoteResponse(resp);

  // Self + node 2 is a quorum of 3: the real election fires now.
  EXPECT_EQ(ctx.core().role, Role::kCandidate);
  EXPECT_EQ(ctx.core().current_term, 1);
  EXPECT_EQ(ctx.core().voted_for, 1);
  EXPECT_EQ(ctx.stats().terms_started, 1u);
  const auto sent = ctx.SentOfType<RequestVoteRequest>();
  ASSERT_EQ(sent.size(), 4u);
  EXPECT_FALSE(sent[2].pre_vote);
  EXPECT_EQ(sent[2].term, 1);
}

TEST(PreVoteTest, RejectionsNeverAccumulateIntoAnElection) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3, 4, 5},
                      MitigationOptions(true, false));
  ctx.election()->OnElectionTimeout();

  RequestVoteResponse resp;
  resp.term = 0;
  resp.from = 2;
  resp.granted = false;
  resp.pre_vote = true;
  ctx.election()->HandleVoteResponse(resp);
  resp.from = 3;
  ctx.election()->HandleVoteResponse(resp);
  resp.from = 4;
  ctx.election()->HandleVoteResponse(resp);

  EXPECT_EQ(ctx.core().role, Role::kFollower);
  EXPECT_EQ(ctx.core().current_term, 0);
  EXPECT_EQ(ctx.stats().elections_started, 0u);
}

TEST(PreVoteTest, VoterGrantsWithoutMovingItsOwnState) {
  sim::Simulator sim(7);
  MockNodeContext voter(&sim, /*id=*/1, {2, 3},
                        MitigationOptions(true, false));
  voter.election()->HandleRequestVote(VoteRequest(1, 2, /*pre_vote=*/true));

  auto responses = voter.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].granted);
  EXPECT_TRUE(responses[0].pre_vote);
  // The grant is non-binding: no term adoption, no voted_for move.
  EXPECT_EQ(voter.core().current_term, 0);
  EXPECT_EQ(voter.core().voted_for, net::kInvalidNode);
  EXPECT_EQ(voter.stats().prevotes_granted, 1u);

  // A canvasser with a stale log is refused (same up-to-date rule as a
  // real vote, against the prospective term).
  voter.FillLog(3, 1);
  RequestVoteRequest stale = VoteRequest(2, 3, /*pre_vote=*/true);
  stale.last_log_index = 1;
  stale.last_log_term = 1;
  voter.election()->HandleRequestVote(stale);
  responses = voter.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[1].granted);
  EXPECT_EQ(voter.stats().prevotes_rejected, 1u);
}

// ---- Leader lease ----

TEST(LeaderLeaseTest, RejectsVoteWithoutAdoptingInflatedTerm) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3},
                      MitigationOptions(false, true));
  // Advance off t=0 so the contact timestamp is distinguishable from the
  // "never heard a leader" sentinel.
  sim.RunUntil(Millis(1));
  ctx.election()->NoteLeaderContact(1, 2);
  ASSERT_TRUE(ctx.election()->LeaseHeld());

  // A disruptive server rejoins with a wildly inflated term. The lease
  // shields: rejected, and — the whole point — term 9 is never adopted.
  ctx.election()->HandleRequestVote(VoteRequest(9, 3));
  auto responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].granted);
  EXPECT_EQ(ctx.core().current_term, 1);
  EXPECT_EQ(ctx.core().leader, 2);

  // Pre-vote canvasses bounce off the same shield.
  ctx.election()->HandleRequestVote(VoteRequest(9, 3, /*pre_vote=*/true));
  responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[1].granted);
  EXPECT_EQ(ctx.stats().prevotes_rejected, 1u);
  EXPECT_EQ(ctx.core().current_term, 1);
}

TEST(LeaderLeaseTest, ExpiresOneElectionTimeoutAfterLastContact) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3},
                      MitigationOptions(false, true));
  sim.RunUntil(Millis(1));
  ctx.election()->NoteLeaderContact(1, 2);
  EXPECT_TRUE(ctx.election()->LeaseHeld());

  // Just inside the window the lease still holds...
  sim.RunUntil(Millis(1) + Millis(150) - 1);
  EXPECT_TRUE(ctx.election()->LeaseHeld());
  // ...and exactly at election_timeout of silence it lapses, so a real
  // candidacy from a live peer is electable again.
  sim.RunUntil(Millis(1) + Millis(150));
  EXPECT_FALSE(ctx.election()->LeaseHeld());
}

TEST(LeaderLeaseTest, DisabledOptionLeavesVotingUntouched) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3},
                      MitigationOptions(false, false));
  sim.RunUntil(Millis(1));
  ctx.election()->NoteLeaderContact(1, 2);

  // Without the option the same inflated candidacy is granted and the
  // term adopted — the unmitigated (fingerprint-pinned) behavior.
  ctx.election()->HandleRequestVote(VoteRequest(9, 3));
  auto responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].granted);
  EXPECT_EQ(ctx.core().current_term, 9);
}

// ---- Vote withholding (the chaos adversary hook) ----

TEST(VoteWithholderTest, RefusesVotesAndPreVotesButKeepsTermBookkeeping) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3},
                      MitigationOptions(true, false));
  ctx.election()->set_withhold_votes(true);

  ctx.election()->HandleRequestVote(VoteRequest(2, 3, /*pre_vote=*/true));
  auto responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].granted);
  EXPECT_EQ(ctx.stats().prevotes_rejected, 1u);

  ctx.election()->HandleRequestVote(VoteRequest(5, 2));
  responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[1].granted);
  // Unhelpful, not byzantine: the higher term was still adopted.
  EXPECT_EQ(ctx.core().current_term, 5);
  EXPECT_EQ(ctx.core().voted_for, net::kInvalidNode);

  ctx.election()->set_withhold_votes(false);
  ctx.election()->HandleRequestVote(VoteRequest(5, 2));
  responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[2].granted);
}

// ---- CheckQuorum ----

TEST(CheckQuorumTest, DeafLeaderAbdicatesInItsOwnTerm) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3},
                      MitigationOptions(false, true));
  // Win a real election so BecomeLeader arms the check-quorum timer.
  ctx.election()->StartElection();
  RequestVoteResponse granted;
  granted.term = ctx.core().current_term;
  granted.from = 2;
  granted.granted = true;
  ctx.election()->HandleVoteResponse(granted);
  ASSERT_EQ(ctx.core().role, Role::kLeader);
  const storage::Term led_term = ctx.core().current_term;

  // No AppendEntries response ever arrives: after one election_timeout
  // the leader concludes it cannot commit and steps down — same term, so
  // this is an abdication, never a deposition. (Check just past the probe:
  // as a follower it will legitimately seek election again later.)
  sim.RunUntil(Millis(200));
  EXPECT_EQ(ctx.core().role, Role::kFollower);
  EXPECT_EQ(ctx.core().current_term, led_term);
  EXPECT_EQ(ctx.stats().checkquorum_stepdowns, 1u);
  EXPECT_EQ(ctx.stats().leader_depositions, 0u);
}

TEST(CheckQuorumTest, HealthyClusterLeaderNeverAbdicates) {
  harness::ClusterConfig config = raft_test::SmallConfig();
  config.check_quorum_lease = true;
  config.workload.series_count = 10;
  harness::Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(5)));
  cluster.StartClients();
  cluster.RunFor(Seconds(3));

  uint64_t stepdowns = 0;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    stepdowns += cluster.node(i)->stats().checkquorum_stepdowns;
  }
  EXPECT_EQ(stepdowns, 0u) << "healthy leader hears its quorum";
  EXPECT_NE(cluster.leader(), nullptr);
}

TEST(CheckQuorumTest, IsolatedClusterLeaderStepsDownAndClusterMovesOn) {
  harness::ClusterConfig config = raft_test::SmallConfig();
  config.check_quorum_lease = true;
  harness::Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(5)));
  raft::RaftNode* old_leader = cluster.leader();
  ASSERT_NE(old_leader, nullptr);
  const net::NodeId victim = old_leader->id();

  for (int j = 0; j < cluster.num_nodes(); ++j) {
    if (j != victim) cluster.network()->SetLinkCut(victim, j, true);
  }
  cluster.RunFor(Seconds(3));

  // The isolated leader noticed the silence and abdicated instead of
  // lingering as a phantom leader accepting doomed writes.
  EXPECT_GE(old_leader->stats().checkquorum_stepdowns, 1u);
  EXPECT_NE(old_leader->role(), Role::kLeader);
  // The majority side elected a replacement.
  raft::RaftNode* new_leader = cluster.leader();
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader->id(), victim);
}

// ---- Election-timer jitter (regression-pinned: see ArmElectionTimer) ----

TEST(ElectionJitterTest, JitterIsDrawnPerArmingNotPerNode) {
  // A lone candidate that never wins re-arms its timer after every
  // failed election. If the jitter were cached at construction the gaps
  // between consecutive elections would all be identical — the exact
  // resonance an election storm needs.
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3},
                      MitigationOptions(false, false));
  ctx.election()->ArmElectionTimer();

  std::vector<SimTime> starts;
  uint64_t last_seen = 0;
  for (SimTime t = Millis(1); t <= Seconds(5) && starts.size() < 8;
       t += Millis(1)) {
    sim.RunUntil(t);
    if (ctx.stats().elections_started > last_seen) {
      last_seen = ctx.stats().elections_started;
      starts.push_back(sim.Now());
    }
  }
  ASSERT_GE(starts.size(), 4u);

  bool any_gap_differs = false;
  const SimTime first_gap = starts[1] - starts[0];
  for (size_t i = 2; i < starts.size(); ++i) {
    if (starts[i] - starts[i - 1] != first_gap) any_gap_differs = true;
    // Every gap still respects the [timeout, 2*timeout) envelope.
    EXPECT_GE(starts[i] - starts[i - 1], Millis(150));
    EXPECT_LT(starts[i] - starts[i - 1], Millis(300) + Millis(1));
  }
  EXPECT_TRUE(any_gap_differs)
      << "identical inter-election gaps: jitter looks cached per node";
}

TEST(ElectionJitterTest, ThreeWaySplitVoteConverges) {
  // Three replicas starting cold race their first election; repeated
  // split votes only terminate because every retry draws fresh jitter.
  // A batch of seeds guards against one lucky draw hiding a regression.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    harness::ClusterConfig config =
        raft_test::SmallConfig(Protocol::kRaft, /*nodes=*/3, /*clients=*/1,
                               /*seed=*/seed);
    harness::Cluster cluster(config);
    cluster.Start();
    EXPECT_TRUE(cluster.AwaitLeader(Seconds(10)))
        << "seed " << seed << " never converged on a leader";
  }
}

}  // namespace
}  // namespace nbraft::raft
