#ifndef NBRAFT_RAFT_RECOVERY_STM_H_
#define NBRAFT_RAFT_RECOVERY_STM_H_

#include <cstdint>
#include <map>

#include "common/sim_time.h"
#include "net/network.h"
#include "storage/log_entry.h"

namespace nbraft::raft {

class NodeContext;

/// Leader-side learner catch-up state machine, modeled on the shape of
/// Redpanda's recovery_stm: bring a fresh (or far-behind) learner to the
/// log head in stages —
///
///   kSnapshot: the learner's next needed entry was compacted away, so a
///     snapshot install must land first;
///   kLogTail:  throttled reads of the log tail, at most
///     `recovery_max_entries_per_round` entries enqueued per round so recovery
///     traffic never starves live replication;
///   kCaughtUp: the learner's durable contiguous prefix is within
///     `promotion_lag` of the leader's last index — eligible for
///     promotion to voter, which the leader proposes at once.
///
/// Rounds are timer-driven on a fixed 10 ms interval; a round that
/// observes no progress backs off exponentially from 20 ms up to a 500 ms
/// cap and snaps back to the base interval on the next response.
/// Promotion keys off the learner's *contiguous* durable prefix
/// (AppendEntries responses report it), never the sliding-window
/// frontier — under NB-Raft a learner's window can hold entries far
/// ahead of holes, and promoting on that illusion would seat a voter
/// whose applied prefix lags non-contiguously (the WEAK_ACCEPT x
/// learner-lag hazard; EXPERIMENTS.md quantifies the gap).
///
/// The state machine is inert unless a leader starts it for a learner:
/// construction arms nothing and draws no randomness, so dormant
/// behavior fingerprints are untouched.
class RecoveryStm {
 public:
  enum class Stage { kIdle, kSnapshot, kLogTail, kCaughtUp };

  explicit RecoveryStm(NodeContext* ctx) : ctx_(ctx) {}

  /// Leader: begin (or resume, after re-election) driving catch-up.
  void StartRecovery(net::NodeId learner);
  void StopRecovery(net::NodeId learner);
  /// Step-down / crash: recovery is leader-only state.
  void StopAll();

  bool Tracking(net::NodeId learner) const {
    return learners_.count(learner) != 0;
  }
  /// Whether the learner is fed only by recovery rounds: tracked and not
  /// yet read out to the log head. Fan-out skips such a learner; once a
  /// round reaches the head, new entries are contiguous with what it
  /// holds and ordinary fan-out keeps it there.
  bool FeedsInOrder(net::NodeId learner) const {
    const auto it = learners_.find(learner);
    return it != learners_.end() && !it->second.at_head;
  }
  Stage StageOf(net::NodeId learner) const;
  /// Rounds run so far for `learner` (test introspection).
  int RoundsFor(net::NodeId learner) const;
  /// Delay the next round was scheduled with (test introspection).
  SimDuration CurrentDelay(net::NodeId learner) const;

  /// Progress feedback from AppendEntries / InstallSnapshot responses:
  /// `durable_prefix` is the learner's contiguous durable frontier.
  void OnProgress(net::NodeId learner, storage::LogIndex durable_prefix);

 private:
  struct LearnerState {
    Stage stage = Stage::kLogTail;
    storage::LogIndex matched = 0;        ///< Contiguous durable prefix.
    storage::LogIndex round_baseline = -1;  ///< `matched` at last round.
    bool at_head = false;  ///< Last round read out to the log head.
    int stalled_rounds = 0;
    int rounds = 0;
    SimDuration last_delay = 0;
    uint64_t timer_epoch = 0;  ///< Invalidates superseded round timers.
  };

  void ScheduleRound(net::NodeId learner, SimDuration delay);
  void RunRound(net::NodeId learner);
  SimDuration NextDelay(const LearnerState& state) const;

  NodeContext* ctx_;
  std::map<net::NodeId, LearnerState> learners_;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_RECOVERY_STM_H_
