// The follower's decision tree for an arriving entry, one branch per test:
// duplicate ack, truncate-and-replace, log mismatch, direct append that
// flushes the window prefix, window insert (WEAK_ACCEPT), and an entry
// beyond the window held until the log advances. The last test pins the
// one per-entry append sequence: t_wait(F) is recorded once per entry that
// carries a receive time and never for a passed window entry.

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"
#include "tests/raft/mock_node_context.h"

namespace nbraft::raft {
namespace {

using raft_test::MockNodeContext;

constexpr net::NodeId kLeader = 1;
constexpr net::NodeId kSelf = 2;

RaftOptions IngressOptions(int window) {
  RaftOptions options;
  options.window_size = window;
  return options;
}

/// An AppendEntries from a leader in `leader_term` carrying the entry
/// (index, entry_term) chained to `prev_term`.
AppendEntriesRequest Append(storage::Term leader_term, storage::LogIndex index,
                            storage::Term entry_term,
                            storage::Term prev_term) {
  AppendEntriesRequest req;
  req.term = leader_term;
  req.leader = kLeader;
  req.rpc_id = static_cast<uint64_t>(index);
  req.entry.index = index;
  req.entry.term = entry_term;
  req.entry.prev_term = prev_term;
  req.entry.payload = "p";
  return req;
}

std::vector<AppendEntriesResponse> Replies(const MockNodeContext& ctx,
                                           AcceptState state) {
  std::vector<AppendEntriesResponse> out;
  for (const AppendEntriesResponse& r :
       ctx.SentOfType<AppendEntriesResponse>()) {
    if (r.state == state) out.push_back(r);
  }
  return out;
}

/// Lets the log-lock lane finish every queued append.
void Drain(sim::Simulator* sim) { sim->RunUntil(sim->Now() + Millis(1)); }

TEST(FollowerIngressTest, DuplicateDeliveryIsAcknowledgedStrong) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, kSelf, {kLeader, 3}, IngressOptions(8));
  ctx.ingress()->HandleAppendEntries(Append(1, 1, 1, 0), sim.Now());
  ctx.ingress()->HandleAppendEntries(Append(1, 2, 1, 1), sim.Now());
  Drain(&sim);
  ASSERT_EQ(Replies(ctx, AcceptState::kStrongAccept).size(), 2u);

  // Entry 1 again: no append, a strong accept covering the whole log.
  ctx.ingress()->HandleAppendEntries(Append(1, 1, 1, 0), sim.Now());
  const auto accepts = Replies(ctx, AcceptState::kStrongAccept);
  ASSERT_EQ(accepts.size(), 3u);
  EXPECT_EQ(accepts[2].entry_index, 1);
  EXPECT_EQ(accepts[2].last_index, 2);
  EXPECT_EQ(accepts[2].last_term, 1);
  EXPECT_EQ(ctx.log().LastIndex(), 2);
  EXPECT_EQ(ctx.stats().entries_appended, 2u);
}

TEST(FollowerIngressTest, NewerTermEntryTruncatesAndReplacesTheTail) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, kSelf, {kLeader, 3}, IngressOptions(8));
  for (storage::LogIndex i = 1; i <= 3; ++i) {
    ctx.ingress()->HandleAppendEntries(Append(1, i, 1, i == 1 ? 0 : 1),
                                       sim.Now());
  }
  // A term-1 entry cached past the tail belongs to the old leader.
  ctx.ingress()->HandleAppendEntries(Append(1, 5, 1, 1), sim.Now());
  ASSERT_TRUE(ctx.ingress()->window().Contains(5));
  Drain(&sim);

  // A term-2 leader replaces index 2: 2..3 go, the new 2 is appended, and
  // the window drops the stale term-1 entry.
  ctx.ingress()->HandleAppendEntries(Append(2, 2, 2, 1), sim.Now());
  Drain(&sim);
  EXPECT_EQ(ctx.log().LastIndex(), 2);
  EXPECT_EQ(ctx.log().TermAt(2).value_or(-1), 2);
  EXPECT_TRUE(ctx.ingress()->window().empty());
  const auto accepts = Replies(ctx, AcceptState::kStrongAccept);
  ASSERT_EQ(accepts.size(), 4u);
  EXPECT_EQ(accepts[3].last_index, 2);
  EXPECT_EQ(accepts[3].last_term, 2);
}

TEST(FollowerIngressTest, UnchainedEntryIsALogMismatch) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, kSelf, {kLeader, 3}, IngressOptions(8));
  ctx.ingress()->HandleAppendEntries(Append(1, 1, 1, 0), sim.Now());

  // Entry 2 claims a term-2 predecessor; our entry 1 has term 1.
  ctx.ingress()->HandleAppendEntries(Append(2, 2, 2, 2), sim.Now());
  const auto mismatches = Replies(ctx, AcceptState::kLogMismatch);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_EQ(mismatches[0].entry_index, 2);
  EXPECT_EQ(mismatches[0].last_index, 1);
  EXPECT_EQ(ctx.log().LastIndex(), 1);
  EXPECT_EQ(ctx.stats().mismatches_sent, 1u);
}

TEST(FollowerIngressTest, WindowInsertRepliesWeakAccept) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, kSelf, {kLeader, 3}, IngressOptions(8));
  ctx.ingress()->HandleAppendEntries(Append(1, 3, 1, 1), sim.Now());

  const auto weak = Replies(ctx, AcceptState::kWeakAccept);
  ASSERT_EQ(weak.size(), 1u);
  EXPECT_EQ(weak[0].entry_index, 3);
  EXPECT_EQ(weak[0].last_index, 3);
  EXPECT_EQ(weak[0].last_term, 1);
  EXPECT_TRUE(ctx.ingress()->window().Contains(3));
  EXPECT_EQ(ctx.log().LastIndex(), 0);
  EXPECT_EQ(ctx.stats().window_inserts, 1u);
  EXPECT_EQ(ctx.stats().weak_accepts_sent, 1u);
  EXPECT_EQ(ctx.stats().wait_hist.count(), 0u) << "nothing appended yet";
}

TEST(FollowerIngressTest, DirectAppendFlushesTheWindowPrefix) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, kSelf, {kLeader, 3}, IngressOptions(8));
  ctx.ingress()->HandleAppendEntries(Append(1, 2, 1, 1), sim.Now());
  ctx.ingress()->HandleAppendEntries(Append(1, 3, 1, 1), sim.Now());
  sim.RunUntil(Millis(1));

  // Entry 1 extends the log directly and flushes 2..3 behind it.
  ctx.ingress()->HandleAppendEntries(Append(1, 1, 1, 0), sim.Now());
  EXPECT_EQ(ctx.log().LastIndex(), 3);
  EXPECT_TRUE(ctx.ingress()->window().empty());
  EXPECT_EQ(ctx.stats().entries_appended, 3u);
  // One t_wait(F) sample per entry; the flushed two waited 1 ms.
  EXPECT_EQ(ctx.stats().wait_hist.count(), 3u);
  EXPECT_GE(ctx.stats().wait_hist.max(), Millis(1));

  Drain(&sim);
  const auto accepts = Replies(ctx, AcceptState::kStrongAccept);
  ASSERT_EQ(accepts.size(), 1u);
  EXPECT_EQ(accepts[0].entry_index, 1);
  EXPECT_EQ(accepts[0].last_index, 3);
}

TEST(FollowerIngressTest, BeyondWindowEntryIsHeldUntilTheLogAdvances) {
  sim::Simulator sim(7);
  // Original Raft: no window.
  MockNodeContext ctx(&sim, kSelf, {kLeader, 3}, IngressOptions(0));
  const AppendEntriesRequest first = Append(1, 1, 1, 0);
  const AppendEntriesRequest held = Append(1, 2, 1, 1);

  ctx.ingress()->HandleAppendEntries(held, sim.Now());
  Drain(&sim);
  EXPECT_TRUE(ctx.SentOfType<AppendEntriesResponse>().empty())
      << "a held entry keeps its RPC open";
  EXPECT_EQ(ctx.stats().window_overflows, 1u);
  EXPECT_EQ(ctx.log().LastIndex(), 0);

  // Appending 1 wakes the one held entry (charged on the log lock), which
  // is then appended in turn.
  ctx.ingress()->HandleAppendEntries(first, sim.Now());
  EXPECT_EQ(ctx.log().LastIndex(), 2);
  Drain(&sim);
  const auto accepts = Replies(ctx, AcceptState::kStrongAccept);
  ASSERT_EQ(accepts.size(), 2u);
  EXPECT_EQ(accepts[0].entry_index, 1);
  EXPECT_EQ(accepts[1].entry_index, 2);
  EXPECT_EQ(accepts[1].last_index, 2);
  EXPECT_EQ(ctx.stats().window_overflows, 1u) << "a retry is no overflow";
  // t_append(F) is both appends' log-lock time plus exactly one wakeup:
  // the held entry was still blocked when 1 was appended, and nothing was
  // held when it was appended itself.
  ASSERT_GT(kHeldWakeupCost, 0) << "an uncharged wakeup would go unseen";
  const SimDuration append_cost =
      2 * kFollowerAppendBase +
      PerKib(kFollowerAppendPerKib, first.entry.WireSize()) +
      PerKib(kFollowerAppendPerKib, held.entry.WireSize());
  EXPECT_EQ(ctx.stats().breakdown.total(metrics::Phase::kAppendFollower),
            append_cost + kHeldWakeupCost);
}

TEST(FollowerIngressTest, PassedWindowEntryFlushesWithoutAWaitSample) {
  sim::Simulator sim(7);
  MockNodeContext ctx(&sim, kSelf, {kLeader, 3}, IngressOptions(8));
  ctx.ingress()->HandleAppendEntries(Append(2, 1, 1, 0), sim.Now());
  // Cached with a receive time: (3, term 2) from the term-2 leader.
  ctx.ingress()->HandleAppendEntries(Append(2, 3, 2, 2), sim.Now());
  // A term-3 leader appends its own 2 and 3, passing the cached 3.
  ctx.ingress()->HandleAppendEntries(Append(3, 2, 3, 1), sim.Now());
  ctx.ingress()->HandleAppendEntries(Append(3, 3, 3, 3), sim.Now());
  ASSERT_TRUE(ctx.ingress()->window().Contains(3));
  EXPECT_EQ(ctx.stats().wait_hist.count(), 3u);

  // A term-4 leader re-sends the term-2 entry at 2: the truncation puts
  // the cached 3 ahead of the log again and it flushes behind the new 2.
  ctx.ingress()->HandleAppendEntries(Append(4, 2, 2, 1), sim.Now());
  EXPECT_EQ(ctx.log().LastIndex(), 3);
  EXPECT_EQ(ctx.log().TermAt(3).value_or(-1), 2);
  EXPECT_TRUE(ctx.ingress()->window().empty());
  EXPECT_EQ(ctx.stats().entries_appended, 5u);
  EXPECT_EQ(ctx.stats().wait_hist.count(), 4u)
      << "the passed entry lost its receive time";
}

}  // namespace
}  // namespace nbraft::raft
