#include "harness/cluster.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "obs/names.h"
#include "obs/output_file.h"

namespace nbraft::harness {

namespace {

/// Span ring capacity of a traced cluster's tracer.
constexpr size_t kTraceSpanCapacity = 1 << 20;

}  // namespace

void ClusterStats::Merge(const ClusterStats& other) {
  requests_issued += other.requests_issued;
  requests_completed += other.requests_completed;
  weak_accepts += other.weak_accepts;
  client_retries += other.client_retries;
  completion_latency.Merge(other.completion_latency);
  unblock_latency.Merge(other.unblock_latency);
  follower_wait.Merge(other.follower_wait);
  breakdown.Merge(other.breakdown);
  entries_committed_leader += other.entries_committed_leader;
  elections += other.elections;
  rpc_timeouts += other.rpc_timeouts;
  window_inserts += other.window_inserts;
  degraded_entries += other.degraded_entries;
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      shard_map_(std::max(config_.num_groups, 1)) {
  NBRAFT_CHECK_GE(config_.num_nodes, 1);
  NBRAFT_CHECK_GE(config_.num_clients, 0);
  NBRAFT_CHECK_GE(config_.num_groups, 1);
  if (!config_.trace_path.empty() || !config_.trace_jsonl_path.empty()) {
    config_.trace = true;
  }
  // Spans come from the tracer, point events from the journal.
  if (config_.trace) config_.journal = true;

  raft::RaftOptions options =
      raft::OptionsForProtocol(config_.protocol, config_.window_size);
  options.dispatchers_per_follower = config_.dispatchers < 0
                                         ? std::max(config_.num_clients, 1)
                                         : config_.dispatchers;
  options.pre_vote = config_.pre_vote;
  options.check_quorum_lease = config_.check_quorum_lease;
  options.election_timeout = config_.election_timeout;
  options.release_applied_payloads = config_.release_payloads;
  options.snapshot_threshold = config_.snapshot_threshold;
  options.snapshot_keep_tail = config_.snapshot_keep_tail;
  options.disk = config_.disk;
  if (config_.promotion_lag >= 0) {
    options.membership.promotion_lag = config_.promotion_lag;
  }
  if (config_.recovery_batch >= 0) {
    options.membership.recovery_max_entries_per_round = config_.recovery_batch;
  }
  if (config_.profile == SystemProfile::kRatis) {
    // Ratis holds a heavier lock during indexing (paper Sec. II-F), moving
    // queue time into t_idx.
    options.index_cost = Micros(12);
  }

  Substrate::Config sub;
  sub.seed = config_.seed;
  sub.network = config_.network;
  sub.num_physical_nodes = config_.num_nodes;
  sub.cpu_lanes = config_.cpu_lanes;
  sub.cpu_speed = config_.cpu_speed;
  substrate_ = std::make_unique<Substrate>(sub);

  if (config_.geo_distributed) {
    NBRAFT_CHECK_LE(config_.num_nodes, 5)
        << "geo topology models 5 regions (Fig. 20)";
    std::vector<net::NodeId> hosts;
    for (int i = 0; i < config_.num_nodes; ++i) hosts.push_back(i);
    // Pair latencies are host-scoped, so this covers every group at once.
    net::ApplyGeoTopology(substrate_->network(), hosts);
  }

  raft::RaftClient::Options client_options;
  client_options.think_time = config_.client_think;
  client_options.payload_size = config_.payload_size;
  client_options.pipeline_window =
      options.window_size > 0 ? options.window_size : 0;
  client_options.backoff_base = config_.client_backoff_base;
  client_options.backoff_cap = config_.client_backoff_cap;
  client_options.record_ack_ids = config_.record_client_acks;
  client_options.max_requests = config_.client_max_requests;

  // Groups construct in ascending order, replicas before clients inside
  // each — for one group this is the exact historical rng draw sequence.
  for (int g = 0; g < config_.num_groups; ++g) {
    groups_.push_back(std::make_unique<GroupRuntime>(
        substrate_.get(), config_, g, options, client_options, shard_map_));
  }

  SetupObservability();
}

Cluster::~Cluster() = default;

void Cluster::SetupObservability() {
  if (config_.journal) {
    obs::Journal::Options jopts;
    jopts.per_node_capacity = config_.journal_capacity;
    journal_ = std::make_unique<obs::Journal>(
        sim(), config_.num_groups * config_.num_nodes, jopts);
    network()->set_journal(journal_.get());
    for (auto& group : groups_) {
      for (int r = 0; r < group->num_nodes(); ++r) {
        group->node(r)->set_journal(journal_.get());
      }
    }
    if (config_.num_groups > 1) {
      // Journal lines carry the owning group (single-group output stays
      // byte-identical: no resolver, no field).
      const int32_t N = config_.num_nodes;
      const int32_t G = config_.num_groups;
      const int32_t M = config_.num_clients;
      journal_->set_group_resolver([N, G, M](int32_t id) -> int32_t {
        if (id >= net::kClientIdBase) {
          const int32_t idx = id - net::kClientIdBase;
          return (M > 0 && idx < G * M) ? idx / M : -1;
        }
        return id < G * N ? id / N : -1;
      });
    }
  }

  if (!config_.trace && config_.sample_interval <= 0) return;

  if (config_.trace) {
    tracer_ = std::make_unique<obs::Tracer>(kTraceSpanCapacity);
    for (auto& group : groups_) {
      for (int r = 0; r < group->num_nodes(); ++r) {
        group->node(r)->set_tracer(tracer_.get());
      }
      // Clients journal only in traced runs, so untraced post-mortems
      // stay replica/nemesis/oracle-only.
      for (int i = 0; i < group->num_clients(); ++i) {
        group->client(i)->set_tracer(tracer_.get());
        group->client(i)->set_journal(journal_.get());
      }
    }
  }

  if (config_.sample_interval > 0) {
    sampler_ = std::make_unique<obs::Sampler>(sim(), config_.sample_interval);
    // Cluster-wide aggregates (across every group).
    sampler_->AddSource(obs::names::kWindowOccupancy, [this]() {
      size_t total = 0;
      for (const auto& group : groups_) {
        for (int r = 0; r < group->num_nodes(); ++r) {
          total += group->node(r)->window().size();
        }
      }
      return static_cast<double>(total);
    });
    sampler_->AddSource(obs::names::kCommitIndexMax, [this]() {
      storage::LogIndex max_commit = 0;
      for (const auto& group : groups_) {
        for (int r = 0; r < group->num_nodes(); ++r) {
          max_commit = std::max(max_commit, group->node(r)->commit_index());
        }
      }
      return static_cast<double>(max_commit);
    });
    sampler_->AddSource(obs::names::kApplyLag, [this]() {
      int64_t lag = 0;
      for (const auto& group : groups_) {
        for (int r = 0; r < group->num_nodes(); ++r) {
          lag += group->node(r)->commit_index() -
                 group->node(r)->applied_index();
        }
      }
      return static_cast<double>(lag);
    });
    sampler_->AddSource(obs::names::kDispatcherQueueDepth, [this]() {
      size_t total = 0;
      for (const auto& group : groups_) {
        for (int r = 0; r < group->num_nodes(); ++r) {
          total += group->node(r)->DispatcherQueueDepth();
        }
      }
      return static_cast<double>(total);
    });
    sampler_->AddSource(obs::names::kRpcsInflight, [this]() {
      size_t total = 0;
      for (const auto& group : groups_) {
        for (int r = 0; r < group->num_nodes(); ++r) {
          total += group->node(r)->OutstandingRpcCount();
        }
      }
      return static_cast<double>(total);
    });
    sampler_->AddSource(obs::names::kNicBytesSent, [this]() {
      return static_cast<double>(network()->bytes_sent());
    });

    // Per-replica series, suffixed with the replica's endpoint id (for one
    // group that is ".node0".."nodeN", the historical names; the
    // Prometheus exporter turns it into a node label). Lambdas capture raw
    // pointers: groups_ never shrinks and outlives the sampler.
    for (int g = 0; g < num_groups(); ++g) {
      GroupRuntime* grp = groups_[static_cast<size_t>(g)].get();
      for (int r = 0; r < config_.num_nodes; ++r) {
        raft::RaftNode* node = grp->node(r);
        const std::string suffix =
            ".node" + std::to_string(node->id());
        sampler_->AddSource(obs::names::kWindowOccupancyNode + suffix,
                            [node]() {
                              return static_cast<double>(
                                  node->window().size());
                            });
        sampler_->AddSource(obs::names::kBarriersPending + suffix, [node]() {
          return static_cast<double>(node->PendingBarrierRecords());
        });
        // Replication lag is an intra-group notion: distance to the
        // furthest log *within this node's group*.
        sampler_->AddSource(obs::names::kReplicationLag + suffix,
                            [grp, node]() {
                              storage::LogIndex max_last = 0;
                              for (int j = 0; j < grp->num_nodes(); ++j) {
                                max_last = std::max(
                                    max_last, grp->node(j)->log().LastIndex());
                              }
                              return static_cast<double>(
                                  max_last - node->log().LastIndex());
                            });
        sampler_->AddSource(obs::names::kCpuQueueDepth + suffix, [node]() {
          return static_cast<double>(node->cpu()->outstanding());
        });
        sampler_->AddSource(obs::names::kIoQueueDepth + suffix, [node]() {
          storage::SimDisk* disk = node->disk();
          return disk == nullptr ? 0.0
                                 : static_cast<double>(
                                       disk->io_lane()->outstanding());
        });
      }
    }
  }
}

std::string Cluster::EndpointName(int32_t id) const {
  const int32_t N = config_.num_nodes;
  const int32_t M = config_.num_clients;
  const char* kind = "node ";
  int32_t group = -1;
  int32_t local = id;
  if (id >= net::kClientIdBase) {
    kind = "client ";
    local = id - net::kClientIdBase;
    if (config_.num_groups > 1 && M > 0 && local < config_.num_groups * M) {
      group = local / M;
      local %= M;
    }
  } else if (config_.num_groups > 1 && id >= 0 &&
             id < config_.num_groups * N) {
    group = id / N;
    local = id % N;
  }
  // Built with append: GCC 12 flags `"g" + std::to_string(...) + ...`
  // chains with a -Wrestrict false positive in Release builds.
  std::string name;
  if (group >= 0) name.append("g").append(std::to_string(group)).append(" ");
  name.append(kind).append(std::to_string(local));
  return name;
}

Status Cluster::WriteTraces() const {
  if (tracer_ == nullptr) return Status::Ok();
  obs::ExportInputs inputs;
  inputs.tracer = tracer_.get();
  inputs.journal = journal_.get();
  inputs.sampler = sampler_.get();
  inputs.endpoint_name = [this](int32_t id) { return EndpointName(id); };
  if (!config_.trace_path.empty()) {
    Status s = obs::WriteChromeTrace(config_.trace_path, inputs);
    if (!s.ok()) return s;
  }
  if (!config_.trace_jsonl_path.empty()) {
    Status s = obs::WriteJsonl(config_.trace_jsonl_path, inputs);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status Cluster::WriteObsBundle(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create obs bundle dir " + dir + ": " +
                           ec.message());
  }
  obs::ExportInputs inputs;
  inputs.sampler = sampler_.get();
  inputs.endpoint_name = [this](int32_t id) { return EndpointName(id); };

  Status s = obs::WriteMetricsJson(dir + "/metrics.json", inputs);
  if (!s.ok()) return s;
  s = obs::WritePrometheusText(dir + "/metrics.prom", inputs);
  if (!s.ok()) return s;

  if (journal_ != nullptr) {
    // Full retained history (lookback 0): the bundle is a snapshot, not a
    // violation-scoped post-mortem — ChaosRunner handles those.
    s = journal_->WriteJsonl(dir + "/journal.jsonl", substrate_->sim()->Now(),
                             0);
    if (!s.ok()) return s;
    s = journal_->WriteTimeline(
        dir + "/timeline.txt", substrate_->sim()->Now(), 0,
        [this](int32_t id) { return EndpointName(id); });
    if (!s.ok()) return s;
  }

  const auto write_file = [](const std::string& path,
                             const std::string& body) -> Status {
    obs::OutputFile f(path);
    if (f.get() == nullptr) return Status::IoError("cannot open " + path);
    std::fwrite(body.data(), 1, body.size(), f.get());
    return f.Close();
  };
  s = write_file(dir + "/node_stats.json", NodeStatsJson());
  if (!s.ok()) return s;
  if (config_.num_groups > 1) {
    for (size_t g = 0; g < groups_.size(); ++g) {
      s = write_file(dir + "/node_stats_g" + std::to_string(g) + ".json",
                     groups_[g]->NodeStatsJson());
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

void Cluster::Start() {
  for (auto& group : groups_) group->StartNodes();
  if (sampler_ != nullptr) sampler_->Start();
  // Bootstrap: each group's designated replica stands for election
  // immediately instead of waiting a full randomized timeout. Round-robin
  // placement spreads initial leaders across hosts (group 0 -> node 0,
  // exactly the historical single-group bootstrap).
  for (int g = 0; g < num_groups(); ++g) {
    // Elastic mode: only the initial voters are running — bootstrap among
    // them (fixed roster: all num_nodes hosts, the historical behavior).
    const int started = groups_[static_cast<size_t>(g)]->initial_started();
    raft::RaftNode* first = groups_[static_cast<size_t>(g)]->node(
        shard_map_.BootstrapLeaderReplica(g, started));
    sim()->After(Millis(1), [first]() { first->TriggerElection(); });
  }
}

void Cluster::StartClients() {
  for (auto& group : groups_) group->StartClients();
}

void Cluster::RunFor(SimDuration d) { sim()->RunUntil(sim()->Now() + d); }

bool Cluster::AwaitLeader(SimDuration limit) {
  const auto all_groups_led = [this]() {
    for (int g = 0; g < num_groups(); ++g) {
      if (leader(g) == nullptr) return false;
    }
    return true;
  };
  const SimTime deadline = sim()->Now() + limit;
  while (sim()->Now() < deadline) {
    if (all_groups_led()) return true;
    sim()->RunUntil(sim()->Now() + Millis(10));
  }
  return all_groups_led();
}

void Cluster::CrashNode(int i) {
  // Audit observers see pre-crash state for every co-resident replica
  // before any of them is wiped.
  for (const auto& observer : crash_observers_) observer(i);
  // Never-started replicas (elastic spares) have nothing to crash.
  for (auto& group : groups_) {
    if (group->node(i)->started()) group->node(i)->Crash();
  }
}

void Cluster::RestartNode(int i) {
  for (auto& group : groups_) {
    if (group->node(i)->started() && group->node(i)->crashed()) {
      group->node(i)->Restart();
    }
  }
}

int Cluster::CrashLeader() { return CrashLeader(0); }

int Cluster::CrashLeader(int group) {
  GroupRuntime* grp = groups_[static_cast<size_t>(group)].get();
  for (int r = 0; r < grp->num_nodes(); ++r) {
    raft::RaftNode* node = grp->node(r);
    if (!node->crashed() && node->role() == raft::Role::kLeader) {
      CrashNode(r);
      return r;
    }
  }
  return -1;
}

void Cluster::StopAllClients() {
  for (auto& group : groups_) group->StopClients();
}

bool Cluster::AddNode(int g, int i) {
  GroupRuntime* grp = groups_[static_cast<size_t>(g)].get();
  grp->StartReplica(i);  // Idempotent; the proposal below may still fail.
  raft::RaftNode* lead = grp->leader();
  if (lead == nullptr || !lead->membership()->active()) return false;
  return lead->membership()->ProposeAddLearner(grp->Endpoint(i));
}

bool Cluster::RemoveNode(int g, int i) {
  GroupRuntime* grp = groups_[static_cast<size_t>(g)].get();
  raft::RaftNode* lead = grp->leader();
  if (lead == nullptr || !lead->membership()->active()) return false;
  const net::NodeId target = grp->Endpoint(i);
  if (lead->id() == target) {
    // Hand leadership to another live voter first; the caller retries the
    // removal once the transfer lands (self-removal through the joint
    // change works too, but an orderly hand-off keeps the group available
    // through the shrink).
    for (int r = 0; r < grp->num_nodes(); ++r) {
      if (r == i) continue;
      raft::RaftNode* peer = grp->node(r);
      if (!peer->started() || peer->crashed()) continue;
      if (!lead->membership()->IsVoter(grp->Endpoint(r))) continue;
      lead->election()->TransferLeadership(grp->Endpoint(r));
      return false;
    }
    return false;
  }
  return lead->membership()->ProposeRemove(target);
}

bool Cluster::TransferLeadership(int g, int i) {
  GroupRuntime* grp = groups_[static_cast<size_t>(g)].get();
  raft::RaftNode* lead = grp->leader();
  if (lead == nullptr) return false;
  const net::NodeId target = grp->Endpoint(i);
  if (lead->id() == target) return false;  // Already leads.
  raft::RaftNode* node = grp->node(i);
  if (!node->started() || node->crashed()) return false;
  return lead->election()->TransferLeadership(target);
}

void Cluster::SetTimerSkewAt(int i, double skew) {
  for (auto& group : groups_) group->node(i)->set_timer_skew(skew);
}

void Cluster::SetCpuSpeedFactorAt(int i, double factor) {
  // Co-resident replicas share the host pool, so this sets that executor
  // G times (idempotent) alongside each replica's serial lanes.
  for (auto& group : groups_) group->node(i)->SetCpuSpeedFactor(factor);
}

void Cluster::SetWithholdVotesAt(int i, bool withhold) {
  for (auto& group : groups_) group->node(i)->set_withhold_votes(withhold);
}

bool Cluster::SetDiskStallAt(int i, SimDuration extra) {
  bool any = false;
  for (auto& group : groups_) {
    if (storage::SimDisk* disk = group->node(i)->disk()) {
      disk->set_fsync_stall(extra);
      any = true;
    }
  }
  return any;
}

bool Cluster::CorruptDiskTailAt(int i) {
  bool any = false;
  for (auto& group : groups_) {
    if (storage::SimDisk* disk = group->node(i)->disk()) {
      if (disk->CorruptTailRecord()) any = true;
    }
  }
  return any;
}

void Cluster::ResetMeasurement() {
  for (auto& group : groups_) group->ResetMeasurement();
}

ClusterStats Cluster::Collect() const {
  ClusterStats out;
  for (const auto& group : groups_) out.Merge(group->Collect());
  return out;
}

std::string Cluster::NodeStatsJson() const {
  if (config_.num_groups == 1) return groups_[0]->NodeStatsJson();
  std::string out = "{";
  bool first = true;
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (int r = 0; r < groups_[g]->num_nodes(); ++r) {
      if (!first) out += ",";
      first = false;
      out += "\"g" + std::to_string(g) + ".node" + std::to_string(r) + "\":";
      out += groups_[g]->node(r)->stats().ToJson();
    }
  }
  out += "}";
  return out;
}

Status Cluster::CheckLogMatching() const {
  for (const auto& group : groups_) {
    Status s = group->CheckLogMatching();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status Cluster::CheckCommittedPrefixes() const {
  for (const auto& group : groups_) {
    Status s = group->CheckCommittedPrefixes();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

uint64_t Cluster::TotalRequestsIssued() const {
  uint64_t total = 0;
  for (const auto& group : groups_) total += group->TotalRequestsIssued();
  return total;
}

}  // namespace nbraft::harness
