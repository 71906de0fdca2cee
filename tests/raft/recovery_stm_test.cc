// RecoveryStm in isolation on the mock context: the per-round throttle,
// the deterministic capped backoff while a learner stalls, the
// snapshot-install stage (entered when the needed tail was compacted,
// resumed without double-sending), the promotion threshold on the
// learner's contiguous durable prefix, and the hand-back to ordinary
// fan-out once a round reaches the log head.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "raft/membership.h"
#include "raft/recovery_stm.h"
#include "sim/simulator.h"
#include "tests/raft/mock_node_context.h"

namespace nbraft::raft {
namespace {

using raft_test::MockNodeContext;

constexpr net::NodeId kLearner = 3;

RaftOptions RecoveryOptions() {
  RaftOptions options;
  options.election_timeout = Millis(150);
  options.membership.recovery_max_entries_per_round = 4;
  options.membership.promotion_lag = 16;
  return options;
}

/// A leader with voters {0,1,2} and learner 3, `log_entries` deep.
struct Fixture {
  Fixture(sim::Simulator* sim, int log_entries,
          RaftOptions options = RecoveryOptions())
      : ctx(sim, /*id=*/0, {1, 2, kLearner}, options) {
    Configuration config;
    config.voters = {0, 1, 2};
    config.learners = {kLearner};
    ctx.membership()->Bootstrap(config);
    ctx.MakeLeader(/*term=*/1);
    ctx.FillLog(log_entries, /*term=*/1);
  }

  /// Highest entry index sent to the learner so far (0 when none).
  storage::LogIndex MaxIndexSent() const {
    storage::LogIndex max_index = 0;
    for (const auto& m : ctx.sent) {
      if (m.to != kLearner) continue;
      const auto* req = m.payload.Get<AppendEntriesRequest>();
      if (req == nullptr || req->is_heartbeat) continue;
      max_index = std::max(max_index, req->entry.index);
    }
    return max_index;
  }

  MockNodeContext ctx;
};

void RunUntilRounds(sim::Simulator* sim, Fixture* f, int rounds) {
  for (int i = 0; i < 1000 && f->ctx.recovery()->RoundsFor(kLearner) < rounds;
       ++i) {
    sim->RunUntil(sim->Now() + Millis(5));
  }
  ASSERT_GE(f->ctx.recovery()->RoundsFor(kLearner), rounds);
}

TEST(RecoveryStmTest, ThrottleCapsEntriesPerRound) {
  sim::Simulator sim(7);
  Fixture f(&sim, /*log_entries=*/100);
  f.ctx.recovery()->StartRecovery(kLearner);
  EXPECT_TRUE(f.ctx.recovery()->Tracking(kLearner));

  // However many rounds fire, no entry beyond matched + cap may ever be
  // read out while the learner reports no progress.
  RunUntilRounds(&sim, &f, 3);
  EXPECT_EQ(f.ctx.recovery()->StageOf(kLearner), RecoveryStm::Stage::kLogTail);
  EXPECT_LE(f.MaxIndexSent(), 4);

  // Progress slides the throttle window forward, nothing more.
  f.ctx.recovery()->OnProgress(kLearner, 4);
  const int rounds = f.ctx.recovery()->RoundsFor(kLearner);
  RunUntilRounds(&sim, &f, rounds + 2);
  EXPECT_LE(f.MaxIndexSent(), 8);
}

TEST(RecoveryStmTest, StalledLearnerBacksOffDeterministically) {
  sim::Simulator sim(7);
  Fixture f(&sim, /*log_entries=*/100);
  f.ctx.recovery()->StartRecovery(kLearner);

  // Delay scheduled after round r, with zero progress throughout: one
  // fresh round at the 10 ms base interval, then 20 * 2^(stalls-1) ms
  // capped at 500 — a deterministic sequence, no jitter to desynchronize
  // replays.
  const std::vector<SimDuration> expected = {
      Millis(10),  Millis(20),  Millis(40),  Millis(80),
      Millis(160), Millis(320), Millis(500), Millis(500)};
  for (size_t r = 0; r < expected.size(); ++r) {
    RunUntilRounds(&sim, &f, static_cast<int>(r) + 1);
    EXPECT_EQ(f.ctx.recovery()->CurrentDelay(kLearner), expected[r])
        << "after round " << (r + 1);
  }

  // Progress snaps the cadence back to the base interval.
  f.ctx.recovery()->OnProgress(kLearner, 4);
  const int rounds = f.ctx.recovery()->RoundsFor(kLearner);
  RunUntilRounds(&sim, &f, rounds + 1);
  EXPECT_EQ(f.ctx.recovery()->CurrentDelay(kLearner), Millis(10));
}

TEST(RecoveryStmTest, CompactedTailStagesSnapshotWithoutDoubleSend) {
  sim::Simulator sim(7);
  Fixture f(&sim, /*log_entries=*/50);
  f.ctx.core().snapshot_index = 30;
  f.ctx.core().snapshot_term = 1;
  f.ctx.core().snapshot_data = "snap";
  ASSERT_TRUE(f.ctx.log().CompactPrefix(30).ok());
  f.ctx.recovery()->StartRecovery(kLearner);

  // The learner's next needed entry (1) was compacted away: snapshot
  // stage. Repeated rounds (e.g. spanning a learner crash mid-install)
  // re-enter the stage but the in-flight guard never double-sends.
  RunUntilRounds(&sim, &f, 4);
  EXPECT_EQ(f.ctx.recovery()->StageOf(kLearner), RecoveryStm::Stage::kSnapshot);
  int installs = 0;
  for (const auto& m : f.ctx.sent) {
    if (m.to == kLearner && m.payload.Get<InstallSnapshotRequest>() != nullptr) {
      ++installs;
    }
  }
  EXPECT_EQ(installs, 1);

  // The install landed (durable prefix = snapshot index): tail reads resume.
  f.ctx.recovery()->OnProgress(kLearner, 30);
  const int rounds = f.ctx.recovery()->RoundsFor(kLearner);
  RunUntilRounds(&sim, &f, rounds + 1);
  EXPECT_EQ(f.ctx.recovery()->StageOf(kLearner), RecoveryStm::Stage::kLogTail);
  EXPECT_LE(f.MaxIndexSent(), 34);  // Throttle window above the snapshot.
}

TEST(RecoveryStmTest, PromotesOnlyWithinBoundedContiguousLag) {
  sim::Simulator sim(7);
  Fixture f(&sim, /*log_entries=*/100);
  f.ctx.recovery()->StartRecovery(kLearner);

  // 17 behind (> promotion_lag 16): still a learner. This is the
  // WEAK_ACCEPT x learner-lag guard — the reported prefix is the
  // *contiguous* durable frontier, never the sliding-window high-water
  // mark, so window holes cannot fake eligibility.
  f.ctx.recovery()->OnProgress(kLearner, 83);
  RunUntilRounds(&sim, &f, f.ctx.recovery()->RoundsFor(kLearner) + 2);
  EXPECT_TRUE(f.ctx.membership()->IsLearner(kLearner));
  EXPECT_EQ(f.ctx.stats().learners_promoted, 0u);

  // 16 behind: caught up — auto-promotion proposes the joint change and
  // recovery hands the learner to ordinary replication.
  f.ctx.recovery()->OnProgress(kLearner, 84);
  for (int i = 0; i < 1000 && f.ctx.recovery()->Tracking(kLearner); ++i) {
    sim.RunUntil(sim.Now() + Millis(5));
  }
  EXPECT_FALSE(f.ctx.recovery()->Tracking(kLearner));
  EXPECT_TRUE(f.ctx.membership()->config().joint());
  EXPECT_TRUE(f.ctx.membership()->IsVoter(kLearner));
  EXPECT_EQ(f.ctx.stats().learners_promoted, 1u);
}

TEST(RecoveryStmTest, TrackedLearnerGetsNoFanOutCopies) {
  sim::Simulator sim(7);
  Fixture f(&sim, /*log_entries=*/100);
  f.ctx.recovery()->StartRecovery(kLearner);

  const auto sent_to = [&f](net::NodeId peer, storage::LogIndex index) {
    for (const auto& m : f.ctx.sent) {
      const auto* req = m.payload.Get<AppendEntriesRequest>();
      if (m.to == peer && req != nullptr && !req->is_heartbeat &&
          req->entry.index == index) {
        return true;
      }
    }
    return false;
  };

  // A new entry while recovery feeds the learner in log order: the
  // voters get it, the learner does not (entry 101 would sit far past
  // its window and pin a dispatcher slot until the RPC timeout).
  f.ctx.FillLog(1, /*term=*/1);
  f.ctx.pipeline()->ReplicateEntry(f.ctx.log().AtUnchecked(101));
  EXPECT_TRUE(sent_to(1, 101));
  EXPECT_TRUE(sent_to(2, 101));
  EXPECT_FALSE(sent_to(kLearner, 101));

  // Once recovery lets go, ordinary fan-out resumes.
  f.ctx.recovery()->StopRecovery(kLearner);
  f.ctx.FillLog(1, /*term=*/1);
  f.ctx.pipeline()->ReplicateEntry(f.ctx.log().AtUnchecked(102));
  EXPECT_TRUE(sent_to(kLearner, 102));
}

TEST(RecoveryStmTest, LearnerRejoinsFanOutOnceARoundReachesTheHead) {
  sim::Simulator sim(7);
  RaftOptions options = RecoveryOptions();
  options.membership.promotion_lag = 0;  // Never eligible short of the head.
  Fixture f(&sim, /*log_entries=*/100, options);
  f.ctx.recovery()->StartRecovery(kLearner);

  // A round that stops short of the head keeps the learner off fan-out.
  f.ctx.recovery()->OnProgress(kLearner, 90);
  RunUntilRounds(&sim, &f, f.ctx.recovery()->RoundsFor(kLearner) + 1);
  EXPECT_TRUE(f.ctx.recovery()->FeedsInOrder(kLearner));

  // This round reads 98..100, the head: later entries are contiguous with
  // what the learner holds, so fan-out carries them.
  f.ctx.recovery()->OnProgress(kLearner, 97);
  RunUntilRounds(&sim, &f, f.ctx.recovery()->RoundsFor(kLearner) + 1);
  EXPECT_TRUE(f.ctx.recovery()->Tracking(kLearner));
  EXPECT_FALSE(f.ctx.recovery()->FeedsInOrder(kLearner));
  f.ctx.FillLog(1, /*term=*/1);
  f.ctx.pipeline()->ReplicateEntry(f.ctx.log().AtUnchecked(101));
  EXPECT_EQ(f.MaxIndexSent(), 101);
}

TEST(RecoveryStmTest, RecoveryIsLeaderOnlyState) {
  sim::Simulator sim(7);
  Fixture f(&sim, /*log_entries=*/100);
  f.ctx.recovery()->StartRecovery(kLearner);
  RunUntilRounds(&sim, &f, 1);

  // Deposed: pending round timers die on the role guard.
  f.ctx.core().role = Role::kFollower;
  const int rounds = f.ctx.recovery()->RoundsFor(kLearner);
  sim.RunUntil(sim.Now() + Millis(500));
  EXPECT_EQ(f.ctx.recovery()->RoundsFor(kLearner), rounds);

  // Crash/step-down bookkeeping wipes the tracked set so a later
  // re-election can resume from scratch.
  f.ctx.recovery()->StopAll();
  EXPECT_FALSE(f.ctx.recovery()->Tracking(kLearner));
  EXPECT_EQ(f.ctx.recovery()->StageOf(kLearner), RecoveryStm::Stage::kIdle);

  // A non-leader cannot start recovery at all.
  f.ctx.recovery()->StartRecovery(kLearner);
  EXPECT_FALSE(f.ctx.recovery()->Tracking(kLearner));
}

}  // namespace
}  // namespace nbraft::raft
