#include "raft/recovery_stm.h"

#include <algorithm>

#include "common/logging.h"
#include "raft/membership.h"
#include "raft/node_context.h"
#include "raft/replication_pipeline.h"
#include "sim/simulator.h"

namespace nbraft::raft {

namespace {

/// Cadence of recovery rounds while the learner makes progress.
constexpr SimDuration kRecoveryInterval = Millis(10);
/// Capped exponential backoff for rounds that observe no progress.
constexpr SimDuration kRecoveryBackoffBase = Millis(20);
constexpr SimDuration kRecoveryBackoffCap = Millis(500);

}  // namespace

void RecoveryStm::StartRecovery(net::NodeId learner) {
  if (ctx_->core().role != Role::kLeader) return;
  if (learners_.count(learner) != 0) return;
  LearnerState state;
  state.timer_epoch = 1;
  learners_[learner] = state;
  ScheduleRound(learner, kRecoveryInterval);
}

void RecoveryStm::StopRecovery(net::NodeId learner) {
  learners_.erase(learner);  // Pending round timers see the gap and die.
}

void RecoveryStm::StopAll() { learners_.clear(); }

RecoveryStm::Stage RecoveryStm::StageOf(net::NodeId learner) const {
  const auto it = learners_.find(learner);
  return it == learners_.end() ? Stage::kIdle : it->second.stage;
}

int RecoveryStm::RoundsFor(net::NodeId learner) const {
  const auto it = learners_.find(learner);
  return it == learners_.end() ? 0 : it->second.rounds;
}

SimDuration RecoveryStm::CurrentDelay(net::NodeId learner) const {
  const auto it = learners_.find(learner);
  return it == learners_.end() ? 0 : it->second.last_delay;
}

void RecoveryStm::OnProgress(net::NodeId learner,
                             storage::LogIndex durable_prefix) {
  const auto it = learners_.find(learner);
  if (it == learners_.end()) return;
  LearnerState& state = it->second;
  if (durable_prefix > state.matched) {
    state.matched = durable_prefix;
    state.stalled_rounds = 0;
  }
  if (state.stage == Stage::kSnapshot &&
      state.matched + 1 >= ctx_->log().FirstIndex()) {
    state.stage = Stage::kLogTail;  // Snapshot landed; tail reads resume.
  }
}

void RecoveryStm::ScheduleRound(net::NodeId learner, SimDuration delay) {
  LearnerState& state = learners_[learner];
  state.last_delay = delay;
  const uint64_t timer_epoch = ++state.timer_epoch;
  const uint64_t core_epoch = ctx_->core().epoch;
  ctx_->simulator()->After(delay, [this, learner, timer_epoch, core_epoch]() {
    const CoreState& core = ctx_->core();
    if (core.crashed || core.epoch != core_epoch ||
        core.role != Role::kLeader) {
      return;
    }
    const auto it = learners_.find(learner);
    if (it == learners_.end() || it->second.timer_epoch != timer_epoch) {
      return;
    }
    RunRound(learner);
  });
}

void RecoveryStm::RunRound(net::NodeId learner) {
  LearnerState& state = learners_[learner];
  const MembershipOptions& opts = ctx_->options().membership;
  ++state.rounds;
  if (state.matched == state.round_baseline) {
    ++state.stalled_rounds;
  } else {
    state.stalled_rounds = 0;
  }
  state.round_baseline = state.matched;

  const storage::RaftLog& log = ctx_->log();
  const storage::LogIndex last = log.LastIndex();
  // A log shorter than the lag window satisfies the bound vacuously, so
  // the learner must additionally have confirmed at least one entry:
  // matched == 0 means it may never have received anything at all, and a
  // promoted empty-log voter can stall every later quorum it joins.
  const bool caught_up = last - state.matched <= opts.promotion_lag &&
                         (state.matched > 0 || last == 0);
  if (caught_up) {
    // Caught up within the bounded lag — on the learner's *contiguous*
    // prefix, so WEAK_ACCEPT window holes can never fake eligibility.
    state.stage = Stage::kCaughtUp;
    MembershipEngine* membership = ctx_->membership();
    if (membership != nullptr &&
        membership->IsLearner(learner) &&
        membership->ProposePromote(learner)) {
      // Promotion proposed; the joint change takes it from here and the
      // ordinary replication path covers the sub-lag remainder.
      StopRecovery(learner);
      return;
    }
    if (membership != nullptr && membership->IsVoter(learner)) {
      StopRecovery(learner);  // Promoted by other means; job done.
      return;
    }
    // Promotion blocked (another change in flight, or auto-promote off):
    // keep the learner warm and retry at the base cadence.
    ScheduleRound(learner, kRecoveryInterval);
    return;
  }

  const storage::LogIndex needed = state.matched + 1;
  if (needed < log.FirstIndex()) {
    // The tail the learner needs was compacted away: stage a snapshot
    // install. SendInstallSnapshot no-ops while one is in flight, so a
    // backoff-extended round never double-sends.
    state.stage = Stage::kSnapshot;
    state.at_head = false;
    ctx_->pipeline()->SendInstallSnapshot(learner);
  } else {
    state.stage = Stage::kLogTail;
    const storage::LogIndex end = std::min(
        last, needed + static_cast<storage::LogIndex>(
                           opts.recovery_max_entries_per_round) -
                  1);
    state.at_head = end == last;
    for (storage::LogIndex index = needed; index <= end; ++index) {
      ctx_->pipeline()->EnqueueForPeer(learner, index);
    }
    ctx_->pipeline()->TryDispatch(learner);
  }
  ScheduleRound(learner, NextDelay(state));
}

SimDuration RecoveryStm::NextDelay(const LearnerState& state) const {
  if (state.stalled_rounds == 0) return kRecoveryInterval;
  // Deterministic capped exponential backoff: base * 2^(stalls-1).
  SimDuration delay = kRecoveryBackoffBase;
  for (int i = 1; i < state.stalled_rounds; ++i) {
    delay *= 2;
    if (delay >= kRecoveryBackoffCap) break;
  }
  return std::min(delay, kRecoveryBackoffCap);
}

}  // namespace nbraft::raft
