#ifndef NBRAFT_HARNESS_CLUSTER_H_
#define NBRAFT_HARNESS_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness/cluster_types.h"
#include "harness/group_runtime.h"
#include "harness/shard_map.h"
#include "harness/substrate.h"
#include "net/network.h"
#include "obs/exporter.h"
#include "obs/journal.h"
#include "obs/sampler.h"
#include "obs/tracer.h"
#include "raft/raft_client.h"
#include "raft/raft_node.h"
#include "raft/types.h"
#include "sim/simulator.h"

namespace nbraft::harness {

/// An in-process multi-Raft cluster on the deterministic simulator: one
/// shared Substrate (simulator, network, per-host CPU/disk pools) carrying
/// `num_groups` consensus groups of N replicas each, plus a ShardMap that
/// places series on groups.
///
/// With num_groups == 1 (the default) this is exactly the paper's testbed,
/// and the single-group API below (node(i), leader(), CrashLeader(), ...)
/// delegates to group 0.
///
/// Group g's replica r is *co-resident* with every other group's replica r
/// on physical host r: they share the host's NIC serialization and
/// partition/crash state, one CPU pool, and one disk I/O lane — so chaos
/// faults and load interference hit whole hosts, not individual groups.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts all replicas and bootstraps each group's initial leader
  /// (round-robin over hosts: group g triggers replica g mod N).
  void Start();

  /// Starts every client connection (typically after Start + a grace
  /// period so leaders exist).
  void StartClients();

  /// Advances virtual time by `d`.
  void RunFor(SimDuration d);

  /// Runs until every group has a leader (or `limit` elapses).
  bool AwaitLeader(SimDuration limit = Seconds(10));

  // ---- Failure injection (Sec. V-G / Fig. 21) ----

  /// Crashes physical host `i`: every group's replica i dies together.
  /// Crash observers fire for the host *before* any replica's memory is
  /// wiped.
  void CrashNode(int i);
  /// Restarts physical host `i` (every group's replica i recovers).
  void RestartNode(int i);
  /// Kills group 0's current leader's host; returns its index or -1.
  int CrashLeader();
  /// Kills group g's current leader's *host* (co-resident replicas of
  /// other groups die with it); returns the replica/host index or -1.
  int CrashLeader(int group);

  /// Called with the physical host index on every CrashNode/CrashLeader,
  /// *before* any replica's memory is wiped — the safety oracles audit
  /// durability claims (strong-ack frontier vs fsynced frontier) here.
  /// Multicast: each group's oracle registers its own observer.
  void set_crash_observer(std::function<void(int)> observer) {
    crash_observers_.push_back(std::move(observer));
  }
  /// Kills every client simultaneously (the paper's loss experiment kills
  /// leader and clients together).
  void StopAllClients();

  // ---- Elastic membership (requires ClusterConfig::initial_voters > 0) --

  /// Starts host `i`'s replica of group `g` (if not yet running) and asks
  /// the group's leader to add it as a learner; the leader's recovery
  /// state machine then drives catch-up and (by default) promotion to
  /// voter. Returns false when the group has no leader, membership is
  /// dormant, or another change is still in flight — retry later.
  bool AddNode(int g, int i);

  /// Removes host `i`'s replica from group `g`'s configuration (joint
  /// consensus for voters, a plain entry for learners). Removing the
  /// sitting leader transfers leadership away instead and returns false —
  /// retry once the new leader is seated. Returns false likewise with no
  /// leader or a change in flight.
  bool RemoveNode(int g, int i);

  /// Asks group `g`'s leader to hand leadership to host `i`'s replica
  /// (TimeoutNow). Returns false with no leader, an ineligible target, or
  /// when `i` already leads.
  bool TransferLeadership(int g, int i);

  // ---- Host-scoped chaos faults (all co-resident replicas) ----

  /// Election-timer skew on every replica of host `i`.
  void SetTimerSkewAt(int i, double skew);
  /// CPU slowdown on host `i`: its shared pool and every co-resident
  /// replica's serial lanes.
  void SetCpuSpeedFactorAt(int i, double factor);
  /// Vote-withholder adversary on every replica of host `i`.
  void SetWithholdVotesAt(int i, bool withhold);
  /// Extra fsync stall on every simulated disk of host `i`. Returns false
  /// when the run has no simulated disks.
  bool SetDiskStallAt(int i, SimDuration extra);
  /// Corrupts the newest eligible tail record of each of host `i`'s
  /// disks. Returns true if any record was corrupted.
  bool CorruptDiskTailAt(int i);

  // ---- Introspection ----
  sim::Simulator* sim() { return substrate_->sim(); }
  net::SimNetwork* network() { return substrate_->network(); }
  Substrate* substrate() { return substrate_.get(); }

  /// Group 0's replica `i` (the historical single-group accessor; with
  /// one group this is every node). Host-scoped fault helpers above hit
  /// all co-resident replicas instead.
  raft::RaftNode* node(int i) { return groups_[0]->node(i); }
  /// Group `g`'s replica `r`.
  raft::RaftNode* node(int g, int r) {
    return groups_[static_cast<size_t>(g)]->node(r);
  }
  /// Client by cluster-wide index (group-major: g * clients_per_group + i).
  raft::RaftClient* client(int i) {
    const int per_group = config_.num_clients;
    return groups_[static_cast<size_t>(i / per_group)]->client(i % per_group);
  }
  /// Group `g`'s client `i`.
  raft::RaftClient* client(int g, int i) {
    return groups_[static_cast<size_t>(g)]->client(i);
  }
  int num_nodes() const { return config_.num_nodes; }  ///< Physical hosts.
  int num_groups() const { return static_cast<int>(groups_.size()); }
  /// Total clients across all groups.
  int num_clients() const { return config_.num_clients * num_groups(); }
  const ClusterConfig& config() const { return config_; }
  GroupRuntime* group(int g) { return groups_[static_cast<size_t>(g)].get(); }

  /// Group 0's current leader (the historical accessor), or nullptr.
  raft::RaftNode* leader() { return groups_[0]->leader(); }
  /// Group `g`'s current leader among non-crashed replicas, or nullptr.
  raft::RaftNode* leader(int g) {
    return groups_[static_cast<size_t>(g)]->leader();
  }

  const ShardMap& shard_map() const { return shard_map_; }

  /// Marks the start of the measurement window (resets client stats).
  void ResetMeasurement();

  // ---- Observability ----

  /// Lifecycle tracer (nullptr unless ClusterConfig enabled tracing).
  obs::Tracer* tracer() { return tracer_.get(); }
  /// Sampler of the cluster's pull sources; its store holds the sampled
  /// series (nullptr unless ClusterConfig::sample_interval > 0).
  obs::Sampler* sampler() { return sampler_.get(); }
  /// Flight recorder (nullptr unless ClusterConfig::journal).
  obs::Journal* journal() { return journal_.get(); }
  const obs::Journal* journal() const { return journal_.get(); }

  /// Maps an endpoint id to its display name: "node 2" / "client 17"
  /// single-group, "g1 node 2" / "g1 client 17" sharded.
  std::string EndpointName(int32_t id) const;

  /// Writes the full observability bundle into `dir` (created if needed):
  /// the metrics.json snapshot, the Chrome trace_event JSON as trace.json
  /// (open it in chrome://tracing or https://ui.perfetto.dev), the journal
  /// as journal.jsonl + timeline.txt, and node_stats.json (plus per-group
  /// node_stats_g<g>.json when sharded). Pieces whose collector is off are
  /// skipped: trace.json exists only when ClusterConfig::trace is on. This
  /// is the one artifact writer; tools/obs_report.py renders its output.
  Status WriteObsBundle(const std::string& dir) const;

  /// Aggregates node + client metrics across every group (single group:
  /// exactly that group's stats).
  ClusterStats Collect() const;
  /// One group's stats alone.
  ClusterStats CollectGroup(int g) const {
    return groups_[static_cast<size_t>(g)]->Collect();
  }

  /// Raw per-node counters as one JSON object — keyed "node0".."nodeN"
  /// single-group, "g0.node0".."gG.nodeN" sharded; each value a
  /// raft::NodeStats::ToJson object. Machine-readable complement to
  /// Collect() for dashboards and offline diffing.
  std::string NodeStatsJson() const;

  // ---- Invariant checks (used by the integration tests) ----

  /// Log Matching within every group: if two logs share (index, term)
  /// they share everything up to that index.
  Status CheckLogMatching() const;

  /// Committed-prefix agreement within every group.
  Status CheckCommittedPrefixes() const;

  /// Counts distinct client request ids in group `g` replica `r`'s log —
  /// the survivor count of the paper's data-loss experiment.
  uint64_t CountUniqueRequestsInLog(int g, int r) const {
    return groups_[static_cast<size_t>(g)]->CountUniqueRequestsInLog(r);
  }

  /// Total distinct requests issued across all clients of all groups.
  uint64_t TotalRequestsIssued() const;

 private:
  void SetupObservability();

  ClusterConfig config_;
  std::unique_ptr<Substrate> substrate_;
  ShardMap shard_map_;
  std::vector<std::unique_ptr<GroupRuntime>> groups_;

  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::Sampler> sampler_;
  std::unique_ptr<obs::Journal> journal_;
  std::vector<std::function<void(int)>> crash_observers_;
};

}  // namespace nbraft::harness

#endif  // NBRAFT_HARNESS_CLUSTER_H_
