#include "raft/raft_node.h"

#include <utility>

#include "common/logging.h"

namespace nbraft::raft {
RaftNode::RaftNode(sim::Simulator* sim, net::SimNetwork* network,
                   net::NodeId id, std::vector<net::NodeId> peers,
                   RaftOptions options,
                   std::unique_ptr<tsdb::StateMachine> state_machine)
    : sim_(sim),
      network_(network),
      id_(id),
      peers_(std::move(peers)),
      options_(options),
      state_machine_(std::move(state_machine)),
      rng_(sim->rng()->Next()),
      cpu_(options_.shared_cpu) {
  NBRAFT_CHECK(state_machine_ != nullptr);
  NBRAFT_CHECK(options_.shared_cpu != nullptr);
  durability_ = std::make_unique<DurabilityCoordinator>(this);
  index_lane_ = std::make_unique<sim::CpuExecutor>(
      sim_, 1, "node" + std::to_string(id_) + ".index");
  apply_lane_ = std::make_unique<sim::CpuExecutor>(
      sim_, 1, "node" + std::to_string(id_) + ".apply");
  log_lock_lane_ = std::make_unique<sim::CpuExecutor>(
      sim_, 1, "node" + std::to_string(id_) + ".loglock");
  log_lock_lane_->set_switch_cost(kLockSwitchCost, kMaxSwitchOverhead);
  election_ = std::make_unique<ElectionEngine>(this);
  pipeline_ = std::make_unique<ReplicationPipeline>(this);
  ingress_ = std::make_unique<FollowerIngress>(this);
  applier_ = std::make_unique<CommitApplier>(this);
  membership_ = std::make_unique<MembershipEngine>(this);
  recovery_ = std::make_unique<RecoveryStm>(this);
}

RaftNode::~RaftNode() = default;

void RaftNode::Start() {
  NBRAFT_CHECK(!started_);
  started_ = true;
  BootstrapMembership();
  if (options_.disk.enabled) {
    storage::SimDisk::Options dopts;
    dopts.write_latency = options_.disk.write_latency;
    dopts.fsync_latency = options_.disk.fsync_latency;
    dopts.fault_seed = options_.disk.fault_seed;
    dopts.shared_io_lane = options_.disk.shared_io_lane;
    disk_ = std::make_unique<storage::SimDisk>(sim_, dopts, id_);
  }
  OpenDurableLog();
  network_->RegisterEndpoint(
      id_, [this](net::Message&& msg) { HandleMessage(std::move(msg)); });
  election_->ArmElectionTimer();
}

void RaftNode::Crash() {
  if (core_.crashed) return;
  if (journal_ != nullptr) {
    journal_->Record(obs::JournalEventKind::kCrash, id_, -1, 0,
                     disk_ != nullptr ? 1 : 0);
  }
  core_.crashed = true;
  network_->SetNodeUp(id_, false);
  // Volatile state is lost; durable state (term, vote, log) survives, and
  // the state machine is durable by the paper's Sec. IV assumptions. Each
  // engine drops its own caches and cancels its own timers.
  election_->OnCrash();
  pipeline_->ResetLeaderState();
  ingress_->OnCrash();
  applier_->ResetLeaderState();
  recovery_->StopAll();
  core_.role = Role::kFollower;
  core_.leader = net::kInvalidNode;
  if (disk_ != nullptr) {
    // Real durability: everything in memory dies with the process; only
    // the disk image survives.
    durability_->Detach();
    durable_.reset();
    log_ = storage::RaftLog();
    core_.current_term = 0;
    core_.voted_for = net::kInvalidNode;
    core_.commit_index = 0;
    core_.applied_index = 0;
    core_.apply_scheduled_up_to = 0;
    core_.snapshot_data.clear();
    core_.snapshot_index = 0;
    core_.snapshot_term = 0;
    core_.strong_ack_frontier = 0;
    core_.heal_quarantine = false;
    core_.heal_target = 0;
    storage_failure_pending_ = false;
    state_machine_->Reset();
    membership_->Reset();
    // Power loss on the simulated disk: un-fsynced records tear off.
    disk_->Crash();
  }
}

void RaftNode::Restart() {
  NBRAFT_CHECK(core_.crashed);
  if (journal_ != nullptr) {
    journal_->Record(obs::JournalEventKind::kRestart, id_);
  }
  core_.crashed = false;
  ++core_.epoch;
  // Durable-mode crashes wiped the volatile membership state; re-bootstrap
  // before recovery so recovered config markers land on an active engine
  // (and win over the construction-time roster).
  BootstrapMembership();
  if (disk_ != nullptr) RecoverFromDisk();
  OpenDurableLog();
  network_->SetNodeUp(id_, true);
  election_->ArmElectionTimer();
}

void RaftNode::TriggerElection() {
  if (core_.crashed) return;
  election_->StartElection();
}

void RaftNode::BootstrapMembership() {
  if (membership_->active()) return;  // Modelled-durability crash kept it.
  if (options_.membership.initial_config.empty()) return;
  Configuration cfg;
  NBRAFT_CHECK(Configuration::Decode(options_.membership.initial_config, &cfg))
      << "bad initial_config: " << options_.membership.initial_config;
  membership_->Bootstrap(cfg);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

void RaftNode::set_journal(obs::Journal* journal) {
  journal_ = journal;
  ingress_->OnJournalChanged();
}

void RaftNode::TracePhase(metrics::Phase phase, SimTime start, SimTime end,
                          int64_t term, int64_t index, uint64_t request_id) {
  stats_.breakdown.Add(phase, end - start);
  if (tracer_ != nullptr) {
    tracer_->RecordSpan(phase, id_, term, index, request_id, start, end);
  }
}

int64_t RaftNode::TraceTermAt(storage::LogIndex index) const {
  if (tracer_ == nullptr) return 0;
  return log_.TermAt(index).value_or(0);
}

// ---------------------------------------------------------------------------
// Message plumbing
// ---------------------------------------------------------------------------

void RaftNode::HandleMessage(net::Message&& msg) {
  if (core_.crashed) return;
  const SimTime received_at = sim_->Now();
  if (auto* ae = msg.payload.Get<AppendEntriesRequest>()) {
    JournalRecv(msg, *ae);
    if (!ae->is_heartbeat) {
      TracePhase(metrics::Phase::kTransLeaderFollower, msg.sent_at,
                 received_at, ae->entry.term, ae->entry.index,
                 ae->entry.request_id);
    }
    ingress_->HandleAppendEntries(std::move(*ae), received_at);
  } else if (auto* aer = msg.payload.Get<AppendEntriesResponse>()) {
    JournalRecv(msg, *aer);
    pipeline_->HandleAppendResponse(std::move(*aer));
  } else if (auto* rv = msg.payload.Get<RequestVoteRequest>()) {
    JournalRecv(msg, *rv);
    election_->HandleRequestVote(*rv);
  } else if (auto* rvr = msg.payload.Get<RequestVoteResponse>()) {
    JournalRecv(msg, *rvr);
    election_->HandleVoteResponse(*rvr);
  } else if (auto* cr = msg.payload.Get<ClientRequest>()) {
    JournalRecv(msg, *cr);
    pipeline_->HandleClientRequest(std::move(*cr), received_at, msg.sent_at);
  } else if (auto* is = msg.payload.Get<InstallSnapshotRequest>()) {
    JournalRecv(msg, *is);
    ingress_->HandleInstallSnapshot(std::move(*is));
  } else if (auto* isr = msg.payload.Get<InstallSnapshotResponse>()) {
    JournalRecv(msg, *isr);
    pipeline_->HandleInstallSnapshotResponse(*isr);
  } else if (auto* tn = msg.payload.Get<TimeoutNowRequest>()) {
    JournalRecv(msg, *tn);
    election_->HandleTimeoutNow(*tn);
  } else {
    NBRAFT_LOG(Warn) << "node " << id_ << ": unknown message type";
  }
}

void RaftNode::Transmit(net::NodeId to, size_t bytes, obs::JournalRpc rpc,
                        net::PayloadRef payload) {
  if (journal_ != nullptr) {
    journal_->Record(obs::JournalEventKind::kRpcSend, id_, to,
                     static_cast<int64_t>(rpc), static_cast<int64_t>(bytes));
  }
  network_->Send(id_, to, bytes, std::move(payload));
}

// ---------------------------------------------------------------------------
// CPU
// ---------------------------------------------------------------------------

void RaftNode::SetCpuSpeedFactor(double factor) {
  cpu_->set_speed_factor(factor);
  index_lane_->set_speed_factor(factor);
  apply_lane_->set_speed_factor(factor);
  log_lock_lane_->set_speed_factor(factor);
}

// ---------------------------------------------------------------------------
// Durability
// ---------------------------------------------------------------------------

void RaftNode::OpenDurableLog() {
  if (disk_ != nullptr) {
    durable_ = std::make_unique<storage::DurableLog>();
    durable_->OpenWith(std::make_unique<storage::SimDiskBackend>(disk_.get()));
  }
  // No disk, no durable log: modelled durability, nothing to coordinate.
  durability_->Attach(durable_.get(), log_.LastIndex());
}

void RaftNode::PersistEntry(const storage::LogEntry& entry) {
  durability_->PersistEntry(entry);
}

void RaftNode::PersistTruncate(storage::LogIndex from_index) {
  // Truncated entries take their durability claims with them.
  core_.strong_ack_frontier =
      std::min(core_.strong_ack_frontier, from_index - 1);
  durability_->PersistTruncate(from_index);
  if (membership_->active()) {
    // A truncated suffix takes its configuration entries with it: roll
    // back to the roster in effect before the cut.
    membership_->OnTruncated(from_index);
  }
}

void RaftNode::PersistHardState() {
  durability_->PersistHardState(core_.current_term, core_.voted_for);
}

void RaftNode::PersistSnapshot(storage::LogIndex index, storage::Term term,
                               const std::string& data, bool installed) {
  durability_->PersistSnapshot(index, term, nbraft::Buffer(data), installed);
}

void RaftNode::PersistCompact(storage::LogIndex upto) {
  durability_->PersistCompact(upto);
}

void RaftNode::PersistConfig(const std::string& encoded,
                             storage::LogIndex at) {
  durability_->PersistConfig(encoded, at);
}

storage::LogIndex RaftNode::DurableEntryFrontier() const {
  // Modelled durability: everything appended is durable.
  if (durability_->instant()) return log_.LastIndex();
  return durability_->durable_entry_frontier();
}

void RaftNode::OnStorageFailure(const Status& status) {
  NBRAFT_LOG(Warn) << "node " << id_
                   << ": storage failure: " << status.ToString();
  if (storage_failure_pending_ || core_.crashed) return;
  storage_failure_pending_ = true;
  if (journal_ != nullptr) {
    journal_->Record(obs::JournalEventKind::kStorageFailure, id_, -1,
                     core_.role == Role::kLeader ? 1 : 0);
  }
  // Deferred one event so the failing persist call unwinds first: its
  // caller may still be mutating engine state.
  const uint64_t epoch = core_.epoch;
  sim_->After(0, [this, epoch]() {
    storage_failure_pending_ = false;
    if (core_.crashed || epoch != core_.epoch) return;
    if (core_.role == Role::kLeader) {
      // A leader that cannot persist must not keep acknowledging: hand
      // leadership off. The same-term step-down persists nothing, so this
      // cannot recurse into another storage failure.
      election_->StepDown(core_.current_term, net::kInvalidNode);
    } else {
      // A follower that cannot persist halts loudly rather than serving
      // acknowledgements it cannot back.
      Crash();
    }
  });
}

void RaftNode::ClearHealQuarantine() {
  core_.heal_quarantine = false;
  core_.heal_target = 0;
  if (disk_ != nullptr) disk_->ClearHealScar();
}

void RaftNode::RecoverFromDisk() {
  auto recovered = storage::DurableLog::RecoverFromDisk(*disk_);
  if (recovered.corrupt_dropped_records > 0) {
    // fsck: cut the image at the corrupt record so post-heal appends land
    // on a clean stream. The scar keeps the quarantine across crashes.
    disk_->RepairCorruptTail();
  }
  ApplyRecovered(std::move(recovered));
  if (disk_->heal_scar()) {
    core_.heal_quarantine = true;
    core_.heal_target = std::max(core_.heal_target, disk_->scar_frontier());
  }
}

void RaftNode::ApplyRecovered(storage::DurableLog::RecoveredState&& recovered) {
  log_ = std::move(recovered.log);
  core_.current_term = recovered.hard_state.term;
  core_.voted_for = recovered.hard_state.voted_for;
  if (recovered.has_snapshot) {
    core_.snapshot_data = recovered.snapshot_data.str();
    core_.snapshot_index = recovered.snapshot_index;
    core_.snapshot_term = recovered.snapshot_term;
    NBRAFT_CHECK(state_machine_->Restore(core_.snapshot_data).ok());
    // The snapshot covers the committed prefix through its index; apply
    // resumes past it.
    core_.commit_index = recovered.snapshot_index;
    core_.applied_index = recovered.snapshot_index;
    core_.apply_scheduled_up_to = recovered.snapshot_index;
  }
  if (recovered.corrupt_dropped_records > 0) {
    core_.heal_quarantine = true;
    // Conservative floor; RecoverFromDisk raises it to the repaired
    // image's exact pre-cut durable frontier.
    core_.heal_target = std::max(core_.heal_target, log_.LastIndex());
  }
  if (!recovered.config.empty() && membership_->active()) {
    // The recovered configuration marker supersedes the construction-time
    // bootstrap roster (Restart re-bootstrapped just before recovery).
    Configuration cfg;
    if (Configuration::Decode(recovered.config, &cfg)) {
      membership_->InstallRecovered(cfg, recovered.config_index);
    }
  }
  ++stats_.recoveries;
  if (journal_ != nullptr) {
    journal_->Record(obs::JournalEventKind::kRecovery, id_, -1,
                     static_cast<int64_t>(log_.LastIndex()),
                     core_.heal_quarantine ? 1 : 0);
  }
  NBRAFT_LOG(Info) << "node " << id_ << " recovered " << log_.LastIndex()
                   << " entries, term " << core_.current_term
                   << (recovered.has_snapshot ? ", snapshot at " : "")
                   << (recovered.has_snapshot
                           ? std::to_string(core_.snapshot_index)
                           : "")
                   << (core_.heal_quarantine ? ", QUARANTINED (corruption)"
                                             : "");
}

}  // namespace nbraft::raft
