#ifndef NBRAFT_TESTS_RAFT_MOCK_NODE_CONTEXT_H_
#define NBRAFT_TESTS_RAFT_MOCK_NODE_CONTEXT_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/payload.h"

#include "raft/commit_applier.h"
#include "raft/election_engine.h"
#include "raft/follower_ingress.h"
#include "raft/membership.h"
#include "raft/messages.h"
#include "raft/node_context.h"
#include "raft/recovery_stm.h"
#include "raft/replication_pipeline.h"
#include "sim/cpu_executor.h"
#include "sim/simulator.h"
#include "tsdb/state_machine.h"

namespace nbraft::raft_test {

/// NodeContext double for driving a single engine in isolation: outbound
/// messages are recorded instead of hitting a network, persistence is a
/// no-op, and the sibling engines are real (they are cheap and an engine
/// under test may legitimately call into them).
class MockNodeContext : public raft::NodeContext {
 public:
  struct SentMessage {
    net::NodeId to = net::kInvalidNode;
    size_t bytes = 0;
    net::PayloadRef payload;
  };

  MockNodeContext(sim::Simulator* sim, net::NodeId id,
                  std::vector<net::NodeId> peers, raft::RaftOptions options)
      : sim_(sim),
        id_(id),
        peers_(std::move(peers)),
        options_(options),
        rng_(sim->rng()->Next()),
        state_machine_(std::make_unique<tsdb::TsdbStateMachine>()) {
    cpu_ = std::make_unique<sim::CpuExecutor>(sim_, /*lanes=*/16, "mock.cpu");
    index_lane_ = std::make_unique<sim::CpuExecutor>(sim_, 1, "mock.index");
    apply_lane_ = std::make_unique<sim::CpuExecutor>(sim_, 1, "mock.apply");
    log_lock_lane_ =
        std::make_unique<sim::CpuExecutor>(sim_, 1, "mock.loglock");
    election_ = std::make_unique<raft::ElectionEngine>(this);
    pipeline_ = std::make_unique<raft::ReplicationPipeline>(this);
    ingress_ = std::make_unique<raft::FollowerIngress>(this);
    applier_ = std::make_unique<raft::CommitApplier>(this);
    // Dormant until a test calls membership()->Bootstrap(...).
    membership_ = std::make_unique<raft::MembershipEngine>(this);
    recovery_ = std::make_unique<raft::RecoveryStm>(this);
  }

  // ---- NodeContext ----
  sim::Simulator* simulator() override { return sim_; }
  net::NodeId id() const override { return id_; }
  const std::vector<net::NodeId>& peer_ids() const override {
    return peers_;
  }
  const raft::RaftOptions& options() const override { return options_; }
  nbraft::Rng& rng() override { return rng_; }
  raft::NodeStats& stats() override { return stats_; }
  tsdb::StateMachine* mutable_state_machine() override {
    return state_machine_.get();
  }
  sim::CpuExecutor* cpu() override { return cpu_.get(); }
  sim::CpuExecutor* index_lane() override { return index_lane_.get(); }
  sim::CpuExecutor* apply_lane() override { return apply_lane_.get(); }
  sim::CpuExecutor* log_lock_lane() override { return log_lock_lane_.get(); }
  raft::CoreState& core() override { return core_; }
  const raft::CoreState& core() const override { return core_; }
  storage::RaftLog& log() override { return log_; }
  const storage::RaftLog& log() const override { return log_; }
  void Transmit(net::NodeId to, size_t bytes, obs::JournalRpc,
                net::PayloadRef payload) override {
    sent.push_back(SentMessage{to, bytes, std::move(payload)});
  }
  raft::MembershipEngine* membership() override { return membership_.get(); }
  raft::RecoveryStm* recovery() override { return recovery_.get(); }
  void PersistEntry(const storage::LogEntry&) override {}
  void PersistTruncate(storage::LogIndex) override {}
  void PersistConfig(const std::string& encoded,
                     storage::LogIndex at) override {
    persisted_configs.emplace_back(encoded, at);
  }
  void PersistHardState() override {}
  void PersistSnapshot(storage::LogIndex, storage::Term, const std::string&,
                       bool) override {}
  void PersistCompact(storage::LogIndex) override {}
  bool DurabilityPending() const override { return hold_durability; }
  void ParkUntilDurable(std::function<void()> fn) override {
    parked_.push_back(std::move(fn));
  }
  storage::LogIndex DurableEntryFrontier() const override {
    return log_.LastIndex();
  }
  void OnStorageFailure(const Status&) override {}
  void ClearHealQuarantine() override { core_.heal_quarantine = false; }
  void TracePhase(metrics::Phase phase, SimTime start, SimTime end,
                  int64_t, int64_t, uint64_t) override {
    stats_.breakdown.Add(phase, end - start);
  }
  int64_t TraceTermAt(storage::LogIndex) const override { return 0; }
  raft::ElectionEngine* election() override { return election_.get(); }
  raft::ReplicationPipeline* pipeline() override { return pipeline_.get(); }
  raft::FollowerIngress* ingress() override { return ingress_.get(); }
  raft::CommitApplier* applier() override { return applier_.get(); }

  // ---- Test helpers ----
  /// Appends `count` entries of `term` after the current log end.
  void FillLog(int count, storage::Term term) {
    for (int i = 0; i < count; ++i) {
      storage::LogEntry e;
      e.index = log_.LastIndex() + 1;
      e.term = term;
      e.prev_term = log_.LastTerm();
      e.payload = "p";
      e.payload_size_hint = 1;
      log_.Append(e);
    }
  }

  void MakeLeader(storage::Term term) {
    core_.current_term = term;
    core_.role = raft::Role::kLeader;
    core_.leader = id_;
  }

  /// All recorded messages of payload type T, in send order.
  template <typename T>
  std::vector<T> SentOfType() const {
    std::vector<T> out;
    for (const SentMessage& m : sent) {
      if (const T* p = m.payload.Get<T>()) out.push_back(*p);
    }
    return out;
  }

  /// Completes the held "fsync": runs every parked WhenDurable
  /// continuation in order. Continuations that park again while
  /// hold_durability is still set wait for the next release.
  void ReleaseDurable() {
    std::vector<std::function<void()>> ready;
    ready.swap(parked_);
    for (std::function<void()>& fn : ready) fn();
  }

  std::vector<SentMessage> sent;
  /// Every PersistConfig call, in order (encoded roster, effective index).
  std::vector<std::pair<std::string, storage::LogIndex>> persisted_configs;
  /// While set, every WhenDurable continuation parks until ReleaseDurable()
  /// — a disk whose covering fsync is still in flight. Clear (the
  /// default), they run inline, as with no disk attached.
  bool hold_durability = false;

 private:
  sim::Simulator* sim_;
  const net::NodeId id_;
  std::vector<net::NodeId> peers_;
  raft::RaftOptions options_;
  nbraft::Rng rng_;
  std::unique_ptr<tsdb::StateMachine> state_machine_;
  std::unique_ptr<sim::CpuExecutor> cpu_;
  std::unique_ptr<sim::CpuExecutor> index_lane_;
  std::unique_ptr<sim::CpuExecutor> apply_lane_;
  std::unique_ptr<sim::CpuExecutor> log_lock_lane_;
  raft::CoreState core_;
  storage::RaftLog log_;
  raft::NodeStats stats_;
  std::unique_ptr<raft::ElectionEngine> election_;
  std::unique_ptr<raft::ReplicationPipeline> pipeline_;
  std::unique_ptr<raft::FollowerIngress> ingress_;
  std::unique_ptr<raft::CommitApplier> applier_;
  std::unique_ptr<raft::MembershipEngine> membership_;
  std::unique_ptr<raft::RecoveryStm> recovery_;
  std::vector<std::function<void()>> parked_;
};

}  // namespace nbraft::raft_test

#endif  // NBRAFT_TESTS_RAFT_MOCK_NODE_CONTEXT_H_
