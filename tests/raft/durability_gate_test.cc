// The one ack gate on its parked path. With the mock context holding every
// WhenDurable continuation (a disk whose covering fsync is still in
// flight), each durability claim — the candidacy broadcast, a vote grant,
// the two follower strong-accept paths and the leader's own commit vote
// — must wait for the release, while a reply that promises nothing (a
// denied vote) leaves at once.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.h"
#include "tests/raft/mock_node_context.h"

namespace nbraft::raft {
namespace {

using raft_test::MockNodeContext;

RaftOptions GateOptions() {
  RaftOptions options;
  options.election_timeout = Millis(150);
  return options;
}

RequestVoteRequest VoteRequest(storage::Term term, net::NodeId candidate) {
  RequestVoteRequest req;
  req.term = term;
  req.candidate = candidate;
  return req;
}

/// An AppendEntries from leader 1 in term 1 carrying entry `index`.
AppendEntriesRequest Append(storage::LogIndex index, storage::Term prev_term) {
  AppendEntriesRequest req;
  req.term = 1;
  req.leader = 1;
  req.rpc_id = static_cast<uint64_t>(index);
  req.entry.index = index;
  req.entry.term = 1;
  req.entry.prev_term = prev_term;
  req.entry.payload = "p";
  return req;
}

std::vector<AppendEntriesResponse> StrongAccepts(const MockNodeContext& ctx) {
  std::vector<AppendEntriesResponse> out;
  for (const AppendEntriesResponse& r :
       ctx.SentOfType<AppendEntriesResponse>()) {
    if (r.state == AcceptState::kStrongAccept) out.push_back(r);
  }
  return out;
}

TEST(DurabilityGateTest, CandidacyBroadcastWaitsForRelease) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3}, GateOptions());
  ctx.hold_durability = true;

  ctx.election()->StartElection();
  EXPECT_EQ(ctx.core().role, Role::kCandidate);
  EXPECT_TRUE(ctx.SentOfType<RequestVoteRequest>().empty())
      << "the term bump and self-vote are not durable yet";

  ctx.ReleaseDurable();
  EXPECT_EQ(ctx.SentOfType<RequestVoteRequest>().size(), 2u);
}

TEST(DurabilityGateTest, VoteGrantWaitsForReleaseButDenialDoesNot) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3}, GateOptions());
  ctx.hold_durability = true;

  ctx.election()->HandleRequestVote(VoteRequest(5, 2));
  EXPECT_EQ(ctx.core().voted_for, 2);
  EXPECT_TRUE(ctx.SentOfType<RequestVoteResponse>().empty());

  // Already voted for 2 in term 5: the denial promises nothing, so it
  // needs no fsync.
  ctx.election()->HandleRequestVote(VoteRequest(5, 3));
  auto responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].granted);

  ctx.ReleaseDurable();
  responses = ctx.SentOfType<RequestVoteResponse>();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[1].granted);
}

TEST(DurabilityGateTest, FollowerStrongAcceptsWaitForRelease) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/2, {1, 3}, GateOptions());
  ctx.hold_durability = true;

  // Direct appends of entries 1, 2 and 3.
  ctx.ingress()->HandleAppendEntries(Append(1, 0), sim.Now());
  ctx.ingress()->HandleAppendEntries(Append(2, 1), sim.Now());
  ctx.ingress()->HandleAppendEntries(Append(3, 1), sim.Now());
  sim.RunUntil(Millis(1));  // The log-lock lane finishes the appends.
  // A duplicate delivery of entry 1.
  ctx.ingress()->HandleAppendEntries(Append(1, 0), sim.Now());

  EXPECT_EQ(ctx.log().LastIndex(), 3);
  EXPECT_TRUE(StrongAccepts(ctx).empty());
  EXPECT_EQ(ctx.core().strong_ack_frontier, 0);

  ctx.ReleaseDurable();
  const std::vector<AppendEntriesResponse> accepts = StrongAccepts(ctx);
  ASSERT_EQ(accepts.size(), 4u);
  EXPECT_EQ(accepts[0].last_index, 1);  // Direct appends.
  EXPECT_EQ(accepts[1].last_index, 2);
  EXPECT_EQ(accepts[2].last_index, 3);
  EXPECT_EQ(accepts[3].last_index, 3);  // Duplicate.
  EXPECT_EQ(ctx.core().strong_ack_frontier, 3);
}

TEST(DurabilityGateTest, LeaderSelfVoteWaitsForRelease) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3}, GateOptions());
  ctx.election()->StartElection();
  ctx.hold_durability = true;
  RequestVoteResponse grant;
  grant.term = ctx.core().current_term;
  grant.from = 2;
  grant.granted = true;
  ctx.election()->HandleVoteResponse(grant);
  ASSERT_EQ(ctx.core().role, Role::kLeader);
  const storage::LogIndex noop = ctx.log().LastIndex();

  // Follower 2's strong accept is one vote of the two needed; the
  // leader's own vote waits for its fsync.
  AppendEntriesResponse ack;
  ack.term = ctx.core().current_term;
  ack.from = 2;
  ack.state = AcceptState::kStrongAccept;
  ack.entry_index = noop;
  ack.last_index = noop;
  ack.last_term = ctx.core().current_term;
  ctx.pipeline()->HandleAppendResponse(ack);
  EXPECT_EQ(ctx.core().commit_index, 0);
  EXPECT_EQ(ctx.core().strong_ack_frontier, 0);

  ctx.ReleaseDurable();
  EXPECT_EQ(ctx.core().commit_index, noop);
  EXPECT_EQ(ctx.core().strong_ack_frontier, noop);
}

}  // namespace
}  // namespace nbraft::raft
