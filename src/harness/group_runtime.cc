#include "harness/group_runtime.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "tsdb/state_machine.h"

namespace nbraft::harness {

namespace {

std::unique_ptr<tsdb::StateMachine> MakeStateMachine(SystemProfile profile) {
  if (profile == SystemProfile::kRatis) {
    return std::make_unique<tsdb::FileStoreStateMachine>();
  }
  tsdb::TsdbStateMachine::Options options;
  return std::make_unique<tsdb::TsdbStateMachine>(options);
}

}  // namespace

GroupRuntime::GroupRuntime(Substrate* substrate, const ClusterConfig& config,
                           int group, const raft::RaftOptions& base_options,
                           const raft::RaftClient::Options& client_options,
                           const ShardMap& shard_map)
    : substrate_(substrate),
      group_(group),
      initial_voters_(config.initial_voters) {
  const int N = config.num_nodes;
  for (int r = 0; r < N; ++r) {
    server_ids_.push_back(ReplicaEndpoint(group_, N, r));
  }
  // Group 0's endpoints equal the host ids; every other group binds its
  // endpoints onto the same hosts, so co-resident replicas share NIC
  // serialization, latency topology and partition/crash state.
  if (group_ > 0) {
    for (int r = 0; r < N; ++r) {
      substrate_->network()->BindEndpoint(server_ids_[static_cast<size_t>(r)],
                                          r);
    }
  }

  // Elastic mode: every replica bootstraps the same initial voter roster
  // (the first `initial_voters` hosts); later hosts join as learners via
  // Cluster::AddNode. Empty (the default) keeps membership dormant.
  std::string initial_config;
  if (initial_voters_ > 0) {
    raft::Configuration cfg;
    const int voters = std::min(initial_voters_, N);
    for (int r = 0; r < voters; ++r) {
      cfg.voters.push_back(server_ids_[static_cast<size_t>(r)]);
    }
    initial_config = cfg.Encode();
  }

  for (int r = 0; r < N; ++r) {
    std::vector<net::NodeId> peers;
    for (int j = 0; j < N; ++j) {
      if (j != r) peers.push_back(server_ids_[static_cast<size_t>(j)]);
    }
    raft::RaftOptions options = base_options;
    options.group_id = group_;
    options.membership.initial_config = initial_config;
    options.shared_cpu = substrate_->host_cpu(r);
    options.disk.shared_io_lane = substrate_->host_io_lane(r);
    auto node = std::make_unique<raft::RaftNode>(
        substrate_->sim(), substrate_->network(),
        server_ids_[static_cast<size_t>(r)], std::move(peers), options,
        MakeStateMachine(config.profile));
    node->stats().group = group_;
    node->stats().replica = r;
    nodes_.push_back(std::move(node));
  }

  const bool sharded = shard_map.num_groups() > 1;
  std::vector<uint64_t> group_series;
  if (sharded) {
    group_series = shard_map.SeriesForGroup(group_, config.workload.series_count);
  }
  for (int i = 0; i < config.num_clients; ++i) {
    IngestWorkload::Options wopts = config.workload;
    if (sharded) wopts.series_ids = group_series;
    // The workload seed counts clients across the whole cluster so no two
    // clients anywhere draw the same stream; for group 0 this reduces to
    // the historical seed * K + i.
    const uint64_t ordinal =
        static_cast<uint64_t>(group_) * static_cast<uint64_t>(config.num_clients) +
        static_cast<uint64_t>(i);
    workloads_.push_back(std::make_unique<IngestWorkload>(
        wopts, config.seed * 1315423911ULL + ordinal));
    IngestWorkload* workload = workloads_.back().get();
    clients_.push_back(std::make_unique<raft::RaftClient>(
        substrate_->sim(), substrate_->network(),
        ClientEndpoint(group_, config.num_clients, i), server_ids_,
        client_options,
        [workload](size_t target) { return workload->MakePayload(target); }));
  }
}

raft::RaftNode* GroupRuntime::leader() {
  raft::RaftNode* best = nullptr;
  for (auto& node : nodes_) {
    if (node->crashed() || node->role() != raft::Role::kLeader) continue;
    if (best == nullptr || node->current_term() > best->current_term()) {
      best = node.get();
    }
  }
  return best;
}

int GroupRuntime::ReplicaOf(net::NodeId endpoint) const {
  for (size_t r = 0; r < server_ids_.size(); ++r) {
    if (server_ids_[r] == endpoint) return static_cast<int>(r);
  }
  return -1;
}

int GroupRuntime::initial_started() const {
  if (initial_voters_ <= 0) return num_nodes();
  return std::min(initial_voters_, num_nodes());
}

bool GroupRuntime::StartReplica(int r) {
  raft::RaftNode* node = nodes_[static_cast<size_t>(r)].get();
  if (node->started()) return false;
  node->Start();
  return true;
}

void GroupRuntime::StartNodes() {
  const int start = initial_started();
  for (int r = 0; r < start; ++r) nodes_[static_cast<size_t>(r)]->Start();
}

void GroupRuntime::StartClients() {
  for (auto& client : clients_) client->Start();
}

void GroupRuntime::StopClients() {
  for (auto& client : clients_) client->Stop();
}

void GroupRuntime::ResetMeasurement() {
  for (auto& client : clients_) client->ResetMeasurement();
}

ClusterStats GroupRuntime::Collect() const {
  ClusterStats out;
  for (const auto& client : clients_) {
    const raft::ClientStats& cs = client->stats();
    out.requests_issued += cs.requests_issued;
    out.requests_completed += cs.requests_completed;
    out.weak_accepts += cs.weak_accepts;
    out.client_retries += cs.retries;
    out.completion_latency.Merge(cs.completion_latency);
    out.unblock_latency.Merge(cs.unblock_latency);
    out.breakdown.Add(metrics::Phase::kGenClient, cs.gen_time_total);
  }
  for (const auto& node : nodes_) {
    const raft::NodeStats& ns = node->stats();
    out.follower_wait.Merge(ns.wait_hist);
    out.breakdown.Merge(ns.breakdown);
    out.elections += ns.elections_started;
    out.rpc_timeouts += ns.rpc_timeouts;
    out.window_inserts += ns.window_inserts;
    out.degraded_entries += ns.degraded_entries;
    if (node->role() == raft::Role::kLeader && !node->crashed()) {
      out.entries_committed_leader = ns.entries_committed;
    }
  }
  return out;
}

std::string GroupRuntime::NodeStatsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"node" + std::to_string(i) + "\":";
    out += nodes_[i]->stats().ToJson();
  }
  out += "}";
  return out;
}

Status GroupRuntime::CheckLogMatching() const {
  for (size_t a = 0; a < nodes_.size(); ++a) {
    for (size_t b = a + 1; b < nodes_.size(); ++b) {
      const auto& la = nodes_[a]->log();
      const auto& lb = nodes_[b]->log();
      const storage::LogIndex last =
          std::min(la.LastIndex(), lb.LastIndex());
      const storage::LogIndex first =
          std::max(la.FirstIndex(), lb.FirstIndex());
      // Find the highest shared (index, term) point.
      storage::LogIndex match = 0;
      for (storage::LogIndex i = last; i >= first; --i) {
        if (la.AtUnchecked(i).term == lb.AtUnchecked(i).term) {
          match = i;
          break;
        }
      }
      // Everything at or below the match point must agree.
      for (storage::LogIndex i = first; i <= match; ++i) {
        const auto& ea = la.AtUnchecked(i);
        const auto& eb = lb.AtUnchecked(i);
        if (ea.term != eb.term || ea.request_id != eb.request_id) {
          return Status::Corruption(
              (group_ > 0 ? "group " + std::to_string(group_) + ": " : "") +
              "log matching violated at index " + std::to_string(i) +
              " between nodes " + std::to_string(a) + " and " +
              std::to_string(b));
        }
      }
    }
  }
  return Status::Ok();
}

Status GroupRuntime::CheckCommittedPrefixes() const {
  // State Machine Safety: two nodes may only disagree above the commit
  // point of at least one of them (an uncommitted conflicting tail on a
  // stale follower is legal; a committed divergence is not).
  for (size_t a = 0; a < nodes_.size(); ++a) {
    const auto& la = nodes_[a]->log();
    for (size_t b = a + 1; b < nodes_.size(); ++b) {
      const auto& lb = nodes_[b]->log();
      const storage::LogIndex upto = std::min(
          {nodes_[a]->commit_index(), nodes_[b]->commit_index(),
           la.LastIndex(), lb.LastIndex()});
      for (storage::LogIndex i = std::max(la.FirstIndex(), lb.FirstIndex());
           i <= upto; ++i) {
        const auto& ea = la.AtUnchecked(i);
        const auto& eb = lb.AtUnchecked(i);
        if (ea.term != eb.term || ea.request_id != eb.request_id) {
          return Status::Corruption(
              (group_ > 0 ? "group " + std::to_string(group_) + ": " : "") +
              "committed entries diverge at index " + std::to_string(i));
        }
      }
    }
  }
  return Status::Ok();
}

uint64_t GroupRuntime::CountUniqueRequestsInLog(int replica) const {
  const auto& log = nodes_[static_cast<size_t>(replica)]->log();
  std::set<uint64_t> ids;
  for (storage::LogIndex i = log.FirstIndex(); i <= log.LastIndex(); ++i) {
    const auto& e = log.AtUnchecked(i);
    if (e.client_id != net::kInvalidNode &&
        e.client_id != raft::kConfigClientId) {
      ids.insert(e.request_id);
    }
  }
  return ids.size();
}

uint64_t GroupRuntime::TotalRequestsIssued() const {
  uint64_t total = 0;
  for (const auto& client : clients_) {
    total += client->requests_issued_total();
  }
  return total;
}

}  // namespace nbraft::harness
