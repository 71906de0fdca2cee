#ifndef NBRAFT_RAFT_NODE_CONTEXT_H_
#define NBRAFT_RAFT_NODE_CONTEXT_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "metrics/breakdown.h"
#include "net/network.h"
#include "obs/journal.h"
#include "raft/node_stats.h"
#include "raft/types.h"
#include "sim/cpu_executor.h"
#include "sim/simulator.h"
#include "storage/raft_log.h"
#include "tsdb/state_machine.h"

namespace nbraft::raft {

class ElectionEngine;
class ReplicationPipeline;
class FollowerIngress;
class CommitApplier;
class MembershipEngine;
class RecoveryStm;

/// The consensus core state every engine reads and mutates. Owned by the
/// router (RaftNode); the engines access it through NodeContext::core() so
/// ownership stays in one place while the logic is layered.
struct CoreState {
  // ---- Durable (survives a crash; recovered from the disk when real
  // durability is on) ----
  storage::Term current_term = 0;
  net::NodeId voted_for = net::kInvalidNode;

  // ---- Volatile ----
  bool crashed = false;
  Role role = Role::kFollower;
  net::NodeId leader = net::kInvalidNode;
  storage::LogIndex commit_index = 0;
  storage::LogIndex applied_index = 0;
  storage::LogIndex apply_scheduled_up_to = 0;
  /// Bumped on restart so stale scheduled callbacks become no-ops.
  uint64_t epoch = 0;

  // Latest snapshot (durable): state bytes and the log position it covers.
  std::string snapshot_data;
  storage::LogIndex snapshot_index = 0;
  storage::Term snapshot_term = 0;

  // ---- Durability bookkeeping (volatile; the chaos oracle reads it) ----
  /// Highest log index this node has claimed locally durable to the
  /// outside: follower strong-accept responses and the leader's own
  /// commit-quorum vote. Clamped down when the suffix is truncated (the
  /// claim is revoked with the entries). At crash time the safety oracle
  /// asserts it never exceeds the fsynced frontier.
  storage::LogIndex strong_ack_frontier = 0;
  /// Set when recovery detected corruption and cut durable suffix state:
  /// the node rejoins as a non-candidate that grants no votes until its
  /// committed prefix has healed from the leader (never serve — or elect
  /// over — divergent state).
  bool heal_quarantine = false;
  /// The index the committed prefix must reach for the quarantine to
  /// lift: the repaired image's durable entry frontier, i.e. the highest
  /// index this node could ever have acknowledged before the rot. Once
  /// commit_index covers it, every ack the node ever issued points at an
  /// entry it provably holds again.
  storage::LogIndex heal_target = 0;
};

/// The seam between the consensus engines and the node that hosts them:
/// simulator, network, durable state, CPU lanes, stats and tracing, plus
/// access to the sibling engines. RaftNode implements it for production;
/// tests implement it with a mock to drive a single engine in isolation.
class NodeContext {
 public:
  virtual ~NodeContext() = default;

  // ---- Environment ----
  virtual sim::Simulator* simulator() = 0;
  virtual net::NodeId id() const = 0;
  virtual const std::vector<net::NodeId>& peer_ids() const = 0;
  virtual const RaftOptions& options() const = 0;
  virtual nbraft::Rng& rng() = 0;
  virtual NodeStats& stats() = 0;
  /// The cluster flight recorder, or nullptr (the default) when the run
  /// is not journaled — every hook is then a single branch. Non-pure so
  /// engine-level mocks don't have to implement it.
  virtual obs::Journal* journal() const { return nullptr; }
  /// The dynamic-membership engine, or nullptr (the default, same
  /// contract as journal()): every membership hook guards on it being
  /// present *and* active, so fixed-roster behavior is untouched.
  virtual MembershipEngine* membership() { return nullptr; }
  /// The learner catch-up state machine (leader side), or nullptr.
  virtual RecoveryStm* recovery() { return nullptr; }
  virtual tsdb::StateMachine* mutable_state_machine() = 0;

  // ---- Modelled CPU lanes ----
  virtual sim::CpuExecutor* cpu() = 0;        ///< General worker pool.
  virtual sim::CpuExecutor* index_lane() = 0; ///< Serial indexing lock.
  virtual sim::CpuExecutor* apply_lane() = 0; ///< Ordered apply.
  virtual sim::CpuExecutor* log_lock_lane() = 0;  ///< Follower log lock.

  // ---- Shared state ----
  virtual CoreState& core() = 0;
  virtual const CoreState& core() const = 0;
  virtual storage::RaftLog& log() = 0;
  virtual const storage::RaftLog& log() const = 0;

  // ---- Services ----
  /// Sends one RPC (a raft/messages.h struct), billed its own WireSize()
  /// and journaled as its own rpc(). Both are read before the message
  /// moves into the payload, so no caller can bill a moved-from request.
  template <typename Msg>
  void SendTo(net::NodeId to, Msg&& msg) {
    const size_t bytes = msg.WireSize();
    const obs::JournalRpc rpc = msg.rpc();
    Transmit(to, bytes, rpc, net::PayloadRef(std::forward<Msg>(msg)));
  }
  /// SendTo's one primitive: puts an already-sized payload on the wire.
  virtual void Transmit(net::NodeId to, size_t bytes, obs::JournalRpc rpc,
                        net::PayloadRef payload) = 0;
  virtual void PersistEntry(const storage::LogEntry& entry) = 0;
  virtual void PersistTruncate(storage::LogIndex from_index) = 0;
  virtual void PersistHardState() = 0;
  /// Records a snapshot boundary (`installed` = received from the leader)
  /// and a prefix compaction in the durable record stream.
  virtual void PersistSnapshot(storage::LogIndex index, storage::Term term,
                               const std::string& data, bool installed) = 0;
  virtual void PersistCompact(storage::LogIndex upto) = 0;
  /// Records the active configuration as a durable marker (last wins on
  /// recovery). Only called with dynamic membership active; the default
  /// no-op keeps engine-level mocks and fixed rosters untouched.
  virtual void PersistConfig(const std::string& encoded,
                             storage::LogIndex at) {
    (void)encoded;
    (void)at;
  }

  // ---- Durability barrier: the one ack gate ----
  /// Runs `fn` once everything persisted so far is covered by a completed
  /// fsync. Every action that claims durability goes through here: the
  /// candidacy broadcast, vote grants, follower strong accepts and the
  /// leader's own commit vote. When nothing awaits an fsync (always,
  /// unless a simulated disk is attached) `fn` runs inline before any type
  /// erasure, so the gate costs one virtual call and no allocation.
  template <typename Fn>
  void WhenDurable(Fn&& fn) {
    if (!DurabilityPending()) {
      fn();
      return;
    }
    ParkUntilDurable(std::function<void()>(std::forward<Fn>(fn)));
  }
  /// True while some persisted record still awaits its covering fsync.
  virtual bool DurabilityPending() const = 0;
  /// WhenDurable's slow path: parks `fn` until the fsync covering
  /// everything persisted so far completes.
  virtual void ParkUntilDurable(std::function<void()> fn) = 0;
  /// Whether a crash can tear records this node already appended off its
  /// log: a simulated disk drops un-fsynced appends and repairs corrupt
  /// tails away. Modelled durability never forgets, so there a log end
  /// never regresses. A policy input, not an ack gate: the leader sizes a
  /// stagnant follower's forced resync by it (every replica of a cluster
  /// runs the same storage model).
  virtual bool CrashCanTearAppends() const { return false; }
  /// Highest entry index covered by a completed fsync (the whole log
  /// without a simulated disk).
  virtual storage::LogIndex DurableEntryFrontier() const = 0;
  /// A write or fsync against the durable log failed: surface it (leader
  /// steps down, follower halts) instead of aborting the process.
  virtual void OnStorageFailure(const Status& status) = 0;
  /// The committed prefix caught up with the leader after a corruption
  /// recovery: lift the quarantine (and clear its durable scar).
  virtual void ClearHealQuarantine() = 0;
  /// Accounts `end - start` to the Fig. 4 breakdown and, when traced,
  /// records the matching lifecycle span (one write site keeps the
  /// trace/Breakdown parity check exact).
  virtual void TracePhase(metrics::Phase phase, SimTime start, SimTime end,
                          int64_t term, int64_t index,
                          uint64_t request_id = 0) = 0;
  /// Term of the local entry at `index`, for span keys; only paid when the
  /// tracer is attached.
  virtual int64_t TraceTermAt(storage::LogIndex index) const = 0;

  // ---- Sibling engines ----
  virtual ElectionEngine* election() = 0;
  virtual ReplicationPipeline* pipeline() = 0;
  virtual FollowerIngress* ingress() = 0;
  virtual CommitApplier* applier() = 0;

  // ---- Convenience ----
  SimTime Now() { return simulator()->Now(); }
  int cluster_size() const {
    return static_cast<int>(peer_ids().size()) + 1;
  }
  /// Count-based majority. Fixed rosters: (peers + 1) / 2 + 1, exactly as
  /// always. With dynamic membership active it delegates to the live
  /// configuration (the larger generation's majority during a joint
  /// window); set-based joint decisions use MembershipEngine directly.
  int quorum();  // Defined in node_context.cc (needs MembershipEngine).
};

/// Cost helper shared by the engines' KiB-proportional CPU charges.
inline SimDuration PerKib(SimDuration per_kib, size_t bytes) {
  constexpr size_t kKibibyte = 1024;
  return per_kib * static_cast<SimDuration>(bytes) /
         static_cast<SimDuration>(kKibibyte);
}

/// Serialize / restore cost of snapshot state, per KiB (taking a snapshot
/// on the applier, installing one on the follower).
inline constexpr SimDuration kSnapshotCostPerKib = Micros(2);
/// VGRaft entry digest, per KiB (leader signing and follower verifying).
inline constexpr SimDuration kHashCostPerKib = Micros(3);

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_NODE_CONTEXT_H_
