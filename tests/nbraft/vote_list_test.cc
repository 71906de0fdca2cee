#include "nbraft/vote_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace nbraft::raft {
namespace {

constexpr net::NodeId kLeader = 0;
constexpr int kQuorum3 = 2;  // 3-node cluster.

TEST(VoteListTest, AddTupleRegistersLeaderAsStrong) {
  VoteList vl;
  vl.AddTuple(5, 2, kLeader, kQuorum3);
  ASSERT_TRUE(vl.Contains(5));
  const auto* t = vl.Find(5);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->term, 2);
  EXPECT_EQ(t->strong.count(kLeader), 1u);
  EXPECT_TRUE(t->weak.empty());
  EXPECT_EQ(vl.size(), 1u);
}

// Paper Fig. 10: Node2's WEAK_ACCEPT for entry 7 joins the leader's strong
// self-vote; weak ∪ strong reaches the 3-replica majority and the client
// is notified.
TEST(VoteListTest, PaperFig10WeakUnionStrongReachesMajority) {
  VoteList vl;
  vl.AddTuple(7, 2, /*leader=*/1, kQuorum3);
  EXPECT_TRUE(vl.AddWeak(7, /*node=*/2))
      << "leader(strong) + node2(weak) = majority of 3";
}

TEST(VoteListTest, WeakNotifiedOnlyOnce) {
  VoteList vl;
  vl.AddTuple(7, 2, 1, kQuorum3);
  EXPECT_TRUE(vl.AddWeak(7, 2));
  EXPECT_FALSE(vl.AddWeak(7, 3)) << "client already notified";
}

TEST(VoteListTest, WeakBelowQuorumDoesNotNotify) {
  VoteList vl;
  vl.AddTuple(7, 2, 1, /*required=*/3);  // 5-node majority.
  EXPECT_FALSE(vl.AddWeak(7, 2));
  EXPECT_TRUE(vl.AddWeak(7, 3));
}

TEST(VoteListTest, WeakForUnknownIndexIgnored) {
  VoteList vl;
  EXPECT_FALSE(vl.AddWeak(99, 2));
}

TEST(VoteListTest, DuplicateWeakFromSameNodeNotDoubleCounted) {
  VoteList vl;
  vl.AddTuple(7, 2, 1, /*required=*/3);
  EXPECT_FALSE(vl.AddWeak(7, 2));
  EXPECT_FALSE(vl.AddWeak(7, 2)) << "same node again";
}

TEST(VoteListTest, NodeInBothWeakAndStrongCountedOnce) {
  VoteList vl;
  vl.AddTuple(7, 2, 1, /*required=*/3);
  vl.AddStrongUpTo(7, 2, /*current_term=*/2);  // Node 2 strong.
  EXPECT_FALSE(vl.AddWeak(7, 2)) << "weak from a node already strong";
}

// Paper Fig. 12: a STRONG_ACCEPT with lastIndex = 5 marks node 2 strong on
// every tuple with index <= 5.
TEST(VoteListTest, PaperFig12StrongCoversPrefix) {
  VoteList vl;
  for (storage::LogIndex i = 3; i <= 7; ++i) vl.AddTuple(i, 2, 1, kQuorum3);
  const auto committed = vl.AddStrongUpTo(5, 2, /*current_term=*/2);
  EXPECT_EQ(committed, (std::vector<storage::LogIndex>{3, 4, 5}));
  EXPECT_FALSE(vl.Contains(5)) << "committed tuples are removed";
  EXPECT_TRUE(vl.Contains(6));
  EXPECT_TRUE(vl.Contains(7));
}

TEST(VoteListTest, CommitRequiresQuorum) {
  VoteList vl;
  vl.AddTuple(1, 1, 0, /*required=*/3);  // 5-node cluster.
  EXPECT_TRUE(vl.AddStrongUpTo(1, 1, 1).empty());
  const auto committed = vl.AddStrongUpTo(1, 2, 1);
  EXPECT_EQ(committed, (std::vector<storage::LogIndex>{1}));
}

TEST(VoteListTest, PerTupleRequiredCounts) {
  VoteList vl;
  // A CRaft fragment tuple needing all 3 nodes next to a plain one.
  vl.AddTuple(1, 1, 0, /*required=*/3);
  vl.AddTuple(2, 1, 0, /*required=*/2);
  vl.AddStrongUpTo(2, 1, 1);
  // Node 1 strong: tuple 2 has quorum (0,1) but tuple 1 needs 3 — nothing
  // commits because commits are ordered.
  EXPECT_TRUE(vl.Contains(1));
  EXPECT_TRUE(vl.Contains(2));
  const auto committed = vl.AddStrongUpTo(2, 2, 1);
  EXPECT_EQ(committed, (std::vector<storage::LogIndex>{1, 2}));
}

TEST(VoteListTest, OldTermTupleCommitsOnlyTransitively) {
  VoteList vl;
  vl.AddTuple(1, 1, 0, kQuorum3);  // Old term.
  vl.AddTuple(2, 2, 0, kQuorum3);  // Current term.
  // Quorum on the old-term tuple alone must not commit it (Raft §5.4.2).
  EXPECT_TRUE(vl.AddStrongUpTo(1, 1, /*current_term=*/2).empty());
  EXPECT_TRUE(vl.Contains(1));
  // Quorum on the current-term tuple commits both.
  const auto committed = vl.AddStrongUpTo(2, 1, 2);
  EXPECT_EQ(committed, (std::vector<storage::LogIndex>{1, 2}));
}

TEST(VoteListTest, CommitsAreOrderedAcrossCalls) {
  VoteList vl;
  vl.AddTuple(1, 1, 0, kQuorum3);
  vl.AddTuple(2, 1, 0, kQuorum3);
  vl.AddTuple(3, 1, 0, kQuorum3);
  auto c1 = vl.AddStrongUpTo(3, 1, 1);
  EXPECT_EQ(c1, (std::vector<storage::LogIndex>{1, 2, 3}));
  EXPECT_TRUE(vl.empty());
}

// Paper Fig. 11: a reply with a higher term means leadership changed and
// the VoteList is cleaned.
TEST(VoteListTest, PaperFig11ClearOnLeaderChange) {
  VoteList vl;
  vl.AddTuple(7, 2, 1, kQuorum3);
  vl.AddTuple(8, 2, 1, kQuorum3);
  vl.Clear();
  EXPECT_TRUE(vl.empty());
  EXPECT_FALSE(vl.Contains(7));
}

TEST(VoteListTest, RemoveFrontDropsWithoutCommit) {
  VoteList vl;
  vl.AddTuple(4, 1, 0, kQuorum3);
  vl.AddTuple(5, 1, 0, kQuorum3);
  EXPECT_EQ(vl.FrontIndex(), 4);
  vl.RemoveFront();
  EXPECT_EQ(vl.FrontIndex(), 5);
  vl.RemoveFront();
  EXPECT_EQ(vl.FrontIndex(), -1);
  vl.RemoveFront();  // No-op on empty.
}

TEST(VoteListTest, ForEachVisitsInOrderAndAllowsMutation) {
  VoteList vl;
  vl.AddTuple(3, 1, 0, 5);
  vl.AddTuple(4, 1, 0, 5);
  std::vector<storage::LogIndex> visited;
  vl.ForEach([&](storage::LogIndex index, VoteList::Tuple* t) {
    visited.push_back(index);
    t->required = 1;  // Lower the requirement (degraded-mode transition).
  });
  EXPECT_EQ(visited, (std::vector<storage::LogIndex>{3, 4}));
  // Leader-only strong votes now satisfy the lowered requirement.
  const auto committed = vl.CollectCommittable(/*current_term=*/1);
  EXPECT_EQ(committed, (std::vector<storage::LogIndex>{3, 4}));
  EXPECT_TRUE(vl.empty());
}

TEST(VoteListTest, CollectCommittableWithoutSatisfiedTuplesIsEmpty) {
  VoteList vl;
  vl.AddTuple(1, 1, 0, 3);
  EXPECT_TRUE(vl.CollectCommittable(1).empty());
  EXPECT_TRUE(vl.Contains(1));
}

TEST(VoteListTest, CollectCommittableRespectsTermRule) {
  VoteList vl;
  vl.AddTuple(1, 1, 0, 1);  // Old-term tuple, requirement already met.
  EXPECT_TRUE(vl.CollectCommittable(/*current_term=*/2).empty())
      << "an old-term tuple alone must not commit";
  EXPECT_EQ(vl.CollectCommittable(/*current_term=*/1),
            (std::vector<storage::LogIndex>{1}));
}

TEST(VoteListTest, AddStrongAtVotesOneTupleAndCommitsItsPrefix) {
  VoteList vl;
  for (storage::LogIndex i = 1; i <= 3; ++i) {
    vl.AddTuple(i, 1, net::kInvalidNode, kQuorum3);
  }
  vl.AddStrongUpTo(3, 2, 1);  // Follower 2 holds 1..3.
  // The leader's vote for 1 commits 1 alone and leaves 2 and 3 untouched.
  EXPECT_EQ(vl.AddStrongAt(1, kLeader, 1),
            (std::vector<storage::LogIndex>{1}));
  EXPECT_EQ(vl.Find(2)->strong.count(kLeader), 0u);
  EXPECT_EQ(vl.AddStrongAt(2, kLeader, 1),
            (std::vector<storage::LogIndex>{2}));
  // An unsatisfied tuple commits nothing; an already committed one is a
  // no-op.
  vl.AddTuple(4, 1, net::kInvalidNode, kQuorum3);
  EXPECT_TRUE(vl.AddStrongAt(4, kLeader, 1).empty());
  EXPECT_TRUE(vl.AddStrongAt(1, kLeader, 1).empty());
  EXPECT_EQ(vl.AddStrongAt(3, kLeader, 1),
            (std::vector<storage::LogIndex>{3}));
  EXPECT_TRUE(vl.Contains(4));
}

TEST(VoteListTest, StrongForFutureIndexIgnored) {
  VoteList vl;
  vl.AddTuple(10, 1, 0, kQuorum3);
  EXPECT_TRUE(vl.AddStrongUpTo(5, 1, 1).empty());
  EXPECT_EQ(vl.Find(10)->strong.size(), 1u);
}

TEST(VoteListTest, AddTupleBelowTheFrontBecomesTheFront) {
  VoteList vl;
  vl.AddTuple(10, 1, kLeader, kQuorum3);
  vl.AddTuple(11, 1, kLeader, kQuorum3);
  vl.AddTuple(5, 1, kLeader, kQuorum3);
  EXPECT_EQ(vl.FrontIndex(), 5);
  EXPECT_EQ(vl.size(), 3u);
  // One follower's strong accept through 11 commits 5, then 10 and 11
  // across the hole.
  EXPECT_EQ(vl.AddStrongUpTo(11, 1, 1),
            (std::vector<storage::LogIndex>{5, 10, 11}));
  EXPECT_TRUE(vl.empty());
}

TEST(VoteListTest, HolesAreSkippedByStrongAcceptsAndCommits) {
  VoteList vl;
  for (const storage::LogIndex i : {1, 2, 4, 7}) {
    vl.AddTuple(i, 1, kLeader, kQuorum3);
  }
  EXPECT_FALSE(vl.Contains(3));
  EXPECT_EQ(vl.Find(3), nullptr);
  EXPECT_FALSE(vl.AddWeak(3, 2)) << "a hole has no tuple to vote on";
  EXPECT_EQ(vl.AddStrongUpTo(5, 1, 1),
            (std::vector<storage::LogIndex>{1, 2, 4}));
  EXPECT_EQ(vl.FrontIndex(), 7);
  EXPECT_EQ(vl.size(), 1u);
}

TEST(VoteListTest, RemoveFrontSkipsHoles) {
  VoteList vl;
  for (const storage::LogIndex i : {3, 6, 20}) {
    vl.AddTuple(i, 1, kLeader, kQuorum3);
  }
  vl.RemoveFront();
  EXPECT_EQ(vl.FrontIndex(), 6);
  vl.RemoveFront();
  EXPECT_EQ(vl.FrontIndex(), 20);
  EXPECT_EQ(vl.size(), 1u);
  vl.RemoveFront();
  EXPECT_TRUE(vl.empty());
}

TEST(VoteListTest, ClearThenALowerIndexStartsAfresh) {
  VoteList vl;
  for (storage::LogIndex i = 100; i <= 140; ++i) {
    vl.AddTuple(i, 3, kLeader, kQuorum3);
  }
  vl.AddWeak(120, 2);
  vl.Clear();
  vl.AddTuple(5, 4, net::kInvalidNode, kQuorum3);
  EXPECT_EQ(vl.FrontIndex(), 5);
  EXPECT_EQ(vl.size(), 1u);
  EXPECT_FALSE(vl.Contains(120));
  const VoteList::Tuple* t = vl.Find(5);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->strong.empty()) << "no vote survives Clear";
  EXPECT_TRUE(t->weak.empty());
  EXPECT_FALSE(t->weak_notified);
}

TEST(VoteListTest, ForEachStaysAscendingAsTheRingWraps) {
  VoteList vl;
  storage::LogIndex next = 1;
  // Commit from the front while appending at the back, so the live span
  // wraps around the ring many times.
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 7; ++k) vl.AddTuple(next++, 1, kLeader, kQuorum3);
    vl.AddStrongUpTo(next - 4, 1, 1);
  }
  std::vector<storage::LogIndex> visited;
  vl.ForEach([&](storage::LogIndex index, VoteList::Tuple*) {
    visited.push_back(index);
  });
  EXPECT_EQ(visited, (std::vector<storage::LogIndex>{next - 3, next - 2,
                                                     next - 1}));
  EXPECT_EQ(vl.FrontIndex(), next - 3);
}

TEST(VoteListTest, JointConfigCommitCheckNeedsBothMajorities) {
  VoteList vl;
  const net::NodeSet old_voters{0, 1, 2};
  const net::NodeSet new_voters{2, 3, 4};
  const auto majority = [](const net::NodeSet& voters,
                           const net::NodeSet& acks) {
    size_t have = 0;
    for (const net::NodeId id : voters) have += acks.count(id);
    return have >= voters.size() / 2 + 1;
  };
  vl.set_commit_check([&](const VoteList::Tuple& t) {
    return majority(old_voters, t.strong) && majority(new_voters, t.strong);
  });
  vl.AddTuple(1, 1, /*leader=*/0, /*required=*/1);
  vl.AddTuple(2, 1, /*leader=*/0, /*required=*/1);
  EXPECT_TRUE(vl.AddStrongUpTo(2, 1, 1).empty())
      << "{0, 1} is an old majority only";
  EXPECT_TRUE(vl.AddStrongUpTo(2, 3, 1).empty())
      << "{0, 1, 3} holds one new voter";
  EXPECT_EQ(vl.AddStrongUpTo(1, 4, 1), (std::vector<storage::LogIndex>{1}))
      << "{0, 1, 3, 4} is a majority of both";
  EXPECT_TRUE(vl.Contains(2));
}

TEST(VoteListTest, NodeSetSpillsPastItsInlineIdsAndStaysSorted) {
  net::NodeSet set;
  const std::vector<net::NodeId> ids = {9, 3, 11, 0, 7, 5, 12, 1, 8, 4, 10};
  for (const net::NodeId id : ids) EXPECT_TRUE(set.insert(id));
  EXPECT_FALSE(set.insert(7));
  ASSERT_EQ(set.size(), ids.size());
  std::vector<net::NodeId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::vector<net::NodeId>(set.begin(), set.end()), sorted);
  EXPECT_EQ(set.count(12), 1u);
  EXPECT_EQ(set.count(2), 0u);

  const net::NodeSet small{2, 3, 13};
  EXPECT_EQ(set.UnionSize(small), ids.size() + 2);
  EXPECT_EQ(small.UnionSize(set), ids.size() + 2);
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(6));
  EXPECT_EQ(*set.begin(), 6);
}

}  // namespace
}  // namespace nbraft::raft
