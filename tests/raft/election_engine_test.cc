#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "tests/raft/mock_node_context.h"

namespace nbraft::raft {
namespace {

using raft_test::MockNodeContext;

RaftOptions ElectionOptions() {
  RaftOptions options;
  options.election_timeout = Millis(150);
  return options;
}

RequestVoteRequest VoteRequest(storage::Term term, net::NodeId candidate) {
  RequestVoteRequest req;
  req.term = term;
  req.candidate = candidate;
  req.last_log_index = 0;
  req.last_log_term = 0;
  return req;
}

TEST(ElectionEngineTest, GrantsAtMostOneVotePerTerm) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3}, ElectionOptions());

  ctx.election()->HandleRequestVote(VoteRequest(5, 2));
  auto responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].granted);
  EXPECT_EQ(ctx.core().voted_for, 2);
  EXPECT_EQ(ctx.core().current_term, 5);

  // A second candidate in the same term is refused...
  ctx.election()->HandleRequestVote(VoteRequest(5, 3));
  responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[1].granted);
  EXPECT_EQ(ctx.core().voted_for, 2);

  // ...but the original candidate may be re-granted (lost response).
  ctx.election()->HandleRequestVote(VoteRequest(5, 2));
  responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[2].granted);

  // A higher term resets the vote.
  ctx.election()->HandleRequestVote(VoteRequest(6, 3));
  responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[3].granted);
  EXPECT_EQ(ctx.core().voted_for, 3);
}

TEST(ElectionEngineTest, RefusesCandidateWithStaleLog) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3}, ElectionOptions());
  ctx.FillLog(3, 2);  // Local log: 3 entries of term 2.

  RequestVoteRequest req = VoteRequest(5, 2);
  req.last_log_index = 2;  // Shorter log, same last term.
  req.last_log_term = 2;
  ctx.election()->HandleRequestVote(req);
  auto responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].granted);
  EXPECT_EQ(ctx.core().voted_for, net::kInvalidNode);
}

TEST(ElectionEngineTest, DeniedHigherTermVoteKeepsTheArmedTimer) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3}, ElectionOptions());
  ctx.FillLog(3, 2);
  ctx.election()->ArmElectionTimer();
  const SimTime deadline = ctx.election()->election_deadline();
  ASSERT_GT(deadline, 0);
  sim.RunUntil(Millis(100));

  // A candidate with a shorter log: its term is adopted, the vote denied,
  // and the timer must keep its deadline (Raft 5.2 resets it only on a
  // grant or on leader contact).
  RequestVoteRequest req = VoteRequest(5, 2);
  req.last_log_index = 1;
  req.last_log_term = 2;
  ctx.election()->HandleRequestVote(req);
  ASSERT_EQ(ctx.SentOfType<RequestVoteResponse>().size(), 1u);
  EXPECT_FALSE(ctx.SentOfType<RequestVoteResponse>()[0].granted);
  EXPECT_EQ(ctx.core().current_term, 5);
  EXPECT_EQ(ctx.election()->election_deadline(), deadline);

  // An up-to-date candidate in a newer term wins the vote and re-arms it.
  RequestVoteRequest good = VoteRequest(6, 3);
  good.last_log_index = 3;
  good.last_log_term = 2;
  ctx.election()->HandleRequestVote(good);
  ASSERT_EQ(ctx.SentOfType<RequestVoteResponse>().size(), 2u);
  EXPECT_TRUE(ctx.SentOfType<RequestVoteResponse>()[1].granted);
  EXPECT_GE(ctx.election()->election_deadline(),
            Millis(100) + ctx.options().election_timeout);
  EXPECT_NE(ctx.election()->election_deadline(), deadline);
}

TEST(ElectionEngineTest, HigherTermVoteRequestArmsATimerForAFormerLeader) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3}, ElectionOptions());
  ctx.MakeLeader(3);
  ASSERT_EQ(ctx.election()->election_deadline(), 0);
  ctx.election()->HandleRequestVote(VoteRequest(4, 2));
  EXPECT_EQ(ctx.core().role, Role::kFollower);
  EXPECT_GT(ctx.election()->election_deadline(), 0);
}

TEST(ElectionEngineTest, QuorumOfVotesElectsAndMajorityDissentDoesNot) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3, 4, 5}, ElectionOptions());

  ctx.election()->StartElection();
  EXPECT_EQ(ctx.core().role, Role::kCandidate);
  EXPECT_EQ(ctx.SentOfType<RequestVoteRequest>().size(), 4u);

  RequestVoteResponse denied;
  denied.term = ctx.core().current_term;
  denied.from = 2;
  denied.granted = false;
  ctx.election()->HandleVoteResponse(denied);
  EXPECT_EQ(ctx.core().role, Role::kCandidate);

  RequestVoteResponse granted = denied;
  granted.granted = true;
  granted.from = 3;
  ctx.election()->HandleVoteResponse(granted);
  EXPECT_EQ(ctx.core().role, Role::kCandidate);  // 2 of 5: not a quorum.
  granted.from = 4;
  ctx.election()->HandleVoteResponse(granted);
  EXPECT_EQ(ctx.core().role, Role::kLeader);  // 3 of 5.

  // Duplicate grants from one voter must not have double-counted (the
  // vote set is keyed by node, so re-delivery is idempotent).
  EXPECT_EQ(ctx.stats().times_elected, 1u);
}

TEST(ElectionEngineTest, TimerSkewStretchesTheElectionTimeout) {
  // Two identically seeded nodes; only the skew differs. The nominal node
  // must fire its election within a couple of timeouts, the skewed one
  // (100x sluggish) must stay silent over the same horizon.
  sim::Simulator nominal_sim(11);
  MockNodeContext nominal(&nominal_sim, /*id=*/1, {2, 3}, ElectionOptions());
  nominal.election()->ArmElectionTimer();
  nominal_sim.RunUntil(Seconds(1));
  EXPECT_GT(nominal.core().current_term, 0);
  EXPECT_GT(nominal.stats().elections_started, 0u);

  sim::Simulator skewed_sim(11);
  MockNodeContext skewed(&skewed_sim, /*id=*/1, {2, 3}, ElectionOptions());
  skewed.election()->set_timer_skew(100.0);
  skewed.election()->ArmElectionTimer();
  skewed_sim.RunUntil(Seconds(1));
  EXPECT_EQ(skewed.core().current_term, 0);
  EXPECT_EQ(skewed.stats().elections_started, 0u);

  // The skewed timer still fires eventually (liveness, not deadness).
  skewed_sim.RunUntil(Seconds(60));
  EXPECT_GT(skewed.stats().elections_started, 0u);
}

TEST(ElectionEngineTest, StepDownFromLeaderDropsLeaderState) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3}, ElectionOptions());
  ctx.MakeLeader(3);
  ctx.FillLog(2, 3);
  ctx.applier()->vote_list().AddTuple(1, 3, 1, 2);
  ctx.applier()->vote_list().AddTuple(2, 3, 1, 2);
  ctx.pipeline()->EnqueueForPeer(2, 1);
  ASSERT_FALSE(ctx.applier()->LeaderStateEmpty());

  ctx.election()->StepDown(4, 2);
  EXPECT_EQ(ctx.core().role, Role::kFollower);
  EXPECT_EQ(ctx.core().current_term, 4);
  EXPECT_EQ(ctx.core().leader, 2);
  EXPECT_TRUE(ctx.applier()->LeaderStateEmpty());
  EXPECT_TRUE(ctx.pipeline()->LeaderStateEmpty());
  EXPECT_EQ(ctx.pipeline()->OutstandingRpcCount(), 0u);
}

}  // namespace
}  // namespace nbraft::raft
