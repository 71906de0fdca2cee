#ifndef NBRAFT_RAFT_RAFT_NODE_H_
#define NBRAFT_RAFT_RAFT_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "nbraft/sliding_window.h"
#include "nbraft/vote_list.h"
#include "net/network.h"
#include "obs/tracer.h"
#include "raft/commit_applier.h"
#include "raft/durability.h"
#include "raft/election_engine.h"
#include "raft/follower_ingress.h"
#include "raft/membership.h"
#include "raft/node_context.h"
#include "raft/node_stats.h"
#include "raft/recovery_stm.h"
#include "raft/replication_pipeline.h"
#include "raft/types.h"
#include "sim/cpu_executor.h"
#include "sim/simulator.h"
#include "storage/durable_log.h"
#include "storage/raft_log.h"
#include "storage/sim_disk.h"
#include "tsdb/state_machine.h"

namespace nbraft::raft {

/// One consensus replica. A single node implements Raft, NB-Raft, CRaft,
/// ECRaft, KRaft and VGRaft via `RaftOptions` (original Raft is exactly
/// window_size = 0 with every flag off).
///
/// The node is a thin message router over four engines that share state
/// through the NodeContext seam it implements:
///
///   - ElectionEngine       timers, votes, term transitions, step-down
///   - ReplicationPipeline  leader fan-out: dispatchers, RPCs, catch-up
///   - FollowerIngress      append decision tree, sliding window, held loop
///   - CommitApplier        VoteList commit, ordered apply, compaction
///
/// RaftNode itself owns only what must live in one place: the durable
/// state (term, vote, log, durable log), the CoreState every engine reads,
/// the CPU lanes, the network endpoint and the stats/tracer sinks.
/// Everything is event-driven on the deterministic simulator.
class RaftNode : public NodeContext {
 public:
  RaftNode(sim::Simulator* sim, net::SimNetwork* network, net::NodeId id,
           std::vector<net::NodeId> peers, RaftOptions options,
           std::unique_ptr<tsdb::StateMachine> state_machine);
  ~RaftNode() override;

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  /// Registers the network endpoint and arms the election timer.
  void Start();

  /// Crash-stops the node: drops volatile state (role, window, vote list,
  /// pending RPCs), keeps the durable state (log, term, vote).
  void Crash();

  /// Restarts a crashed node as a follower.
  void Restart();

  /// Forces an immediate election (tests / harness bootstrap).
  void TriggerElection();

  /// True between Start() and destruction (elastic harness: nodes that are
  /// constructed but never started take no part in the cluster).
  bool started() const { return started_; }

  // ---- Introspection ----
  net::NodeId id() const override { return id_; }
  Role role() const { return core_.role; }
  bool crashed() const { return core_.crashed; }
  storage::Term current_term() const { return core_.current_term; }
  net::NodeId leader_hint() const { return core_.leader; }
  const storage::RaftLog& log() const override { return log_; }
  storage::LogIndex commit_index() const { return core_.commit_index; }
  storage::LogIndex applied_index() const { return core_.applied_index; }
  const SlidingWindow& window() const { return ingress_->window(); }
  const VoteList& vote_list() const { return applier_->vote_list(); }
  /// Highest index this node has claimed durably stored (safety oracle).
  storage::LogIndex strong_ack_frontier() const {
    return core_.strong_ack_frontier;
  }
  bool heal_quarantine() const { return core_.heal_quarantine; }
  /// The node's simulated disk, if configured (chaos fault injection).
  /// Survives crash/restart cycles — it is the durable image.
  storage::SimDisk* disk() { return disk_.get(); }
  const storage::SimDisk* disk() const { return disk_.get(); }
  const RaftOptions& options() const override { return options_; }
  const tsdb::StateMachine& state_machine() const { return *state_machine_; }
  tsdb::StateMachine* mutable_state_machine() override {
    return state_machine_.get();
  }
  NodeStats& stats() override { return stats_; }
  const NodeStats& stats() const { return stats_; }
  sim::CpuExecutor* cpu() override { return cpu_; }

  /// Attaches the lifecycle tracer (nullptr = off, the default). Every
  /// phase the node adds to its `Breakdown` is mirrored as a span.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches the cluster flight recorder (nullptr = off, the default).
  /// Role/term transitions, elections and their mitigations, RPC
  /// send/recv, window transitions, commit/apply advances, disk
  /// write/fsync activity and crash/recovery milestones are recorded into
  /// the node's journal ring.
  void set_journal(obs::Journal* journal);

  using LeaderObserver = ElectionEngine::LeaderObserver;
  /// Registers a leadership callback (multicast — each chaos safety
  /// oracle listens; see ElectionEngine::add_leader_observer).
  void add_leader_observer(LeaderObserver observer) {
    election_->add_leader_observer(std::move(observer));
  }

  /// Multiplies the randomized election timeout (chaos clock skew; 1.0 =
  /// nominal). Applies from the next time the timer is armed.
  void set_timer_skew(double skew) { election_->set_timer_skew(skew); }
  double timer_skew() const { return election_->timer_skew(); }

  /// Chaos vote-withholder adversary: while set, this node refuses every
  /// vote and pre-vote request (term bookkeeping still runs).
  void set_withhold_votes(bool withhold) {
    election_->set_withhold_votes(withhold);
  }
  bool withhold_votes() const { return election_->withhold_votes(); }

  /// Degrades (or restores) all of this node's CPU lanes — the chaos
  /// slow-node fault. Charged costs divide by the factor, so factor < 1
  /// slows the node down and 1.0 restores nominal speed.
  void SetCpuSpeedFactor(double factor);

  /// Entries sitting in dispatcher queues across all peers (telemetry).
  size_t DispatcherQueueDepth() const {
    return pipeline_->DispatcherQueueDepth();
  }
  /// AppendEntries / InstallSnapshot RPCs currently on the wire.
  size_t OutstandingRpcCount() const {
    return pipeline_->OutstandingRpcCount();
  }
  /// Durable records staged but not yet covered by a completed fsync
  /// (the `storage.barriers_pending` pull source; 0 in instant modes).
  uint64_t PendingBarrierRecords() const {
    return durability_->pending_records();
  }
  /// True when every leader-only container (dispatcher queues, in-flight
  /// RPCs, fragment caches, VoteList, per-entry timing) is empty. Step-down
  /// and crash must leave this true — regression-tested.
  bool LeaderVolatileStateEmpty() const {
    return pipeline_->LeaderStateEmpty() && applier_->LeaderStateEmpty();
  }

  // ---- NodeContext (the seam the engines program against) ----
  sim::Simulator* simulator() override { return sim_; }
  const std::vector<net::NodeId>& peer_ids() const override {
    return peers_;
  }
  nbraft::Rng& rng() override { return rng_; }
  obs::Journal* journal() const override { return journal_; }
  sim::CpuExecutor* index_lane() override { return index_lane_.get(); }
  sim::CpuExecutor* apply_lane() override { return apply_lane_.get(); }
  sim::CpuExecutor* log_lock_lane() override { return log_lock_lane_.get(); }
  CoreState& core() override { return core_; }
  const CoreState& core() const override { return core_; }
  storage::RaftLog& log() override { return log_; }
  void Transmit(net::NodeId to, size_t bytes, obs::JournalRpc rpc,
                net::PayloadRef payload) override;
  void PersistEntry(const storage::LogEntry& entry) override;
  void PersistTruncate(storage::LogIndex from_index) override;
  void PersistHardState() override;
  void PersistSnapshot(storage::LogIndex index, storage::Term term,
                       const std::string& data, bool installed) override;
  void PersistCompact(storage::LogIndex upto) override;
  bool DurabilityPending() const override {
    return durability_->pending_records() > 0;
  }
  void ParkUntilDurable(std::function<void()> fn) override {
    durability_->WhenDurable(std::move(fn));
  }
  bool CrashCanTearAppends() const override { return !durability_->instant(); }
  storage::LogIndex DurableEntryFrontier() const override;
  void OnStorageFailure(const Status& status) override;
  void ClearHealQuarantine() override;
  void TracePhase(metrics::Phase phase, SimTime start, SimTime end,
                  int64_t term, int64_t index,
                  uint64_t request_id = 0) override;
  int64_t TraceTermAt(storage::LogIndex index) const override;
  ElectionEngine* election() override { return election_.get(); }
  ReplicationPipeline* pipeline() override { return pipeline_.get(); }
  FollowerIngress* ingress() override { return ingress_.get(); }
  CommitApplier* applier() override { return applier_.get(); }
  MembershipEngine* membership() override { return membership_.get(); }
  RecoveryStm* recovery() override { return recovery_.get(); }
  void PersistConfig(const std::string& encoded,
                     storage::LogIndex at) override;

 private:
  // ---- Message plumbing ----
  void HandleMessage(net::Message&& msg);
  /// Journals the receipt of `msg`, whose payload is `rpc`.
  template <typename Msg>
  void JournalRecv(const net::Message& msg, const Msg& rpc) {
    if (journal_ == nullptr) return;
    journal_->Record(obs::JournalEventKind::kRpcRecv, id_, msg.from,
                     static_cast<int64_t>(rpc.rpc()),
                     static_cast<int64_t>(msg.bytes));
  }

  // ---- Membership ----
  /// Activates the membership engine from options' initial_config (no-op
  /// when unset — the dormant fixed-roster default — or already active).
  void BootstrapMembership();

  // ---- Durability (simulated disk) ----
  /// Folds the simulated disk's durable record stream back into memory and
  /// repairs (quarantining) a corruption-cut stream.
  void RecoverFromDisk();
  /// Installs a recovered state: log, hard state, snapshot restore, heal
  /// quarantine on corruption.
  void ApplyRecovered(storage::DurableLog::RecoveredState&& recovered);
  /// Builds this lifetime's DurableLog for the configured mode (if any)
  /// and points the coordinator at it.
  void OpenDurableLog();

  sim::Simulator* sim_;
  net::SimNetwork* network_;
  const net::NodeId id_;
  std::vector<net::NodeId> peers_;
  RaftOptions options_;
  std::unique_ptr<tsdb::StateMachine> state_machine_;
  nbraft::Rng rng_;

  // Modelled CPU resources: the host's shared pool plus this replica's
  // serial lanes.
  sim::CpuExecutor* cpu_;                         ///< General worker pool.
  std::unique_ptr<sim::CpuExecutor> index_lane_;  ///< Serial indexing lock.
  std::unique_ptr<sim::CpuExecutor> apply_lane_;  ///< Ordered apply.
  std::unique_ptr<sim::CpuExecutor> log_lock_lane_;  ///< Follower log lock.

  /// Durable + volatile consensus core shared by the engines.
  CoreState core_;
  storage::RaftLog log_;
  bool started_ = false;

  /// Real write-ahead log (nullptr in modelled-durability mode). Non-null
  /// implies a crash wipes all in-memory state and Restart recovers it.
  std::unique_ptr<storage::DurableLog> durable_;
  /// Simulated disk image (options.disk.enabled); outlives crashes.
  std::unique_ptr<storage::SimDisk> disk_;
  /// Fsync barriers + ack gating over durable_.
  std::unique_ptr<DurabilityCoordinator> durability_;
  /// Collapses a burst of storage failures into one step-down/halt.
  bool storage_failure_pending_ = false;

  obs::Tracer* tracer_ = nullptr;
  obs::Journal* journal_ = nullptr;
  NodeStats stats_;

  // The engines (constructed after the lanes; they capture `this` as their
  // NodeContext).
  std::unique_ptr<ElectionEngine> election_;
  std::unique_ptr<ReplicationPipeline> pipeline_;
  std::unique_ptr<FollowerIngress> ingress_;
  std::unique_ptr<CommitApplier> applier_;
  /// Dynamic membership (always constructed, dormant until Bootstrap).
  std::unique_ptr<MembershipEngine> membership_;
  /// Leader-side learner catch-up state machine.
  std::unique_ptr<RecoveryStm> recovery_;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_RAFT_NODE_H_
