#ifndef NBRAFT_HARNESS_CLUSTER_TYPES_H_
#define NBRAFT_HARNESS_CLUSTER_TYPES_H_

#include <string>

#include "harness/workload.h"
#include "metrics/breakdown.h"
#include "metrics/histogram.h"
#include "net/network.h"
#include "raft/types.h"

namespace nbraft::harness {

/// Which state-machine/cost profile the replicas run (the two systems of
/// the paper's Fig. 4).
enum class SystemProfile {
  kIoTDB,  ///< Memtable-batched time-series apply; light indexing lock.
  kRatis,  ///< FileStore: per-request I/O apply; heavy indexing lock.
};

/// Everything needed to assemble one experiment's cluster.
struct ClusterConfig {
  int num_nodes = 3;           ///< Paper default replication factor.
  /// Closed-loop clients *per consensus group* (one group by default, so
  /// this is the historical total).
  int num_clients = 64;

  /// Consensus groups sharing the simulated substrate (multi-Raft
  /// sharding). Every group runs `num_nodes` replicas co-resident on the
  /// same `num_nodes` physical hosts: group g's replica r shares host r's
  /// NIC, CPU pool and disk I/O lane with every other group's replica r.
  /// 1 (the default) is the paper's single-group testbed.
  int num_groups = 1;

  /// Dynamic membership (elastic scale-out). 0 (the default) keeps the
  /// membership engine dormant: all `num_nodes` hosts start as a fixed
  /// voter roster, bit-identical to the historical cluster. > 0 activates
  /// joint-consensus membership on every replica: the first
  /// `initial_voters` hosts start as voters and the rest are constructed
  /// (same rng draw sequence) but left unstarted until Cluster::AddNode
  /// brings them in as learners.
  int initial_voters = 0;

  /// Learner promotion-lag override for elastic clusters; < 0 keeps the
  /// MembershipOptions default. The WEAK_ACCEPT x learner-lag study
  /// sweeps this to trade promotion latency against the amount of tail
  /// the joint change must finish replicating.
  int64_t promotion_lag = -1;

  /// Catch-up throttle override (max entries per recovery round); < 0
  /// keeps the MembershipOptions default. A joining learner only
  /// converges when this bandwidth exceeds the ingest rate, so elastic
  /// benches provision it above the offered load.
  int recovery_batch = -1;

  raft::Protocol protocol = raft::Protocol::kRaft;
  int window_size = 10000;     ///< Paper default for NB variants.
  size_t payload_size = 4096;  ///< Paper default 4 KB.

  /// Dispatchers per follower; -1 follows the paper ("the number of
  /// dispatchers is the same as clients").
  int dispatchers = -1;

  /// Adversarial-resilience mitigations forwarded to every node (see
  /// raft::RaftOptions). All off by default — the default cluster is
  /// bit-identical to the unmitigated protocol.
  bool pre_vote = false;
  bool check_quorum_lease = false;

  /// CPU cores modelled per host, in the pool every co-resident replica
  /// shares (paper testbed: large SMP boxes; what matters is the ratio of
  /// cores to concurrent requests).
  int cpu_lanes = 16;
  double cpu_speed = 1.0;      ///< Fig. 23: < 1 models disabled CPU-Turbo.

  /// Snapshot/compaction threshold forwarded to every node (0 = off).
  int64_t snapshot_threshold = 0;
  int64_t snapshot_keep_tail = 64;

  /// Simulated durable disk forwarded to every node (disk.enabled = on).
  /// See raft::DiskOptions.
  raft::DiskOptions disk;

  SimDuration election_timeout = Millis(500);
  SimDuration client_think = Micros(5);

  /// Client resend backoff (doubling up to the cap, plus seeded jitter).
  SimDuration client_backoff_base = Millis(1500);
  SimDuration client_backoff_cap = Millis(8000);

  /// Retain weak/strong acked request ids on every client so the chaos
  /// safety oracle can audit acknowledged-write durability.
  bool record_client_acks = false;

  /// Per-client cap on issued requests, 0 = unlimited. Lets chaos runs
  /// drain to a true quiescent point (retries still run after the cap).
  uint64_t client_max_requests = 0;
  net::NetworkConfig network;
  bool geo_distributed = false;  ///< Fig. 20 topology (max 5 nodes).
  SystemProfile profile = SystemProfile::kIoTDB;
  uint64_t seed = 42;
  IngestWorkload::Options workload;

  /// Free applied payload bytes (keep on for long throughput runs).
  bool release_payloads = true;

  // ---- Observability ----

  /// Enables the per-entry lifecycle tracer (implied by a non-empty
  /// trace path) and, for its point events, the journal with the clients
  /// wired in. Off by default: untraced runs pay a single null check.
  bool trace = false;

  /// Where WriteTraces() puts the Chrome trace_event JSON ("" = skip).
  /// Open it in chrome://tracing or https://ui.perfetto.dev.
  std::string trace_path;

  /// Where WriteTraces() puts the flat JSONL dump ("" = skip).
  std::string trace_jsonl_path;

  /// Telemetry sampling period for window occupancy / commit lag / queue
  /// depth / in-flight RPCs / NIC bytes (0 = sampler off). Samples are kept
  /// Gorilla-compressed in the sampler's SeriesStore.
  SimDuration sample_interval = 0;

  /// Enables the cluster flight recorder (implied by `trace`): one fixed
  /// ring of structured protocol events per node (role/term changes,
  /// elections, RPC sends/receives, window transitions, commit/apply
  /// advances, disk barriers, chaos faults). Off by default — an unjournaled run
  /// pays one null check per hook.
  bool journal = false;

  /// Events retained per node ring (plus one shared cluster ring and one
  /// client ring).
  size_t journal_capacity = 1 << 14;
};

/// Aggregated run metrics (one group's, or — after Merge — a whole
/// multi-group cluster's).
struct ClusterStats {
  uint64_t requests_issued = 0;
  uint64_t requests_completed = 0;
  uint64_t weak_accepts = 0;
  uint64_t client_retries = 0;
  metrics::Histogram completion_latency;
  metrics::Histogram unblock_latency;
  metrics::Histogram follower_wait;  ///< t_wait(F) across followers.
  metrics::Breakdown breakdown;      ///< Merged over all nodes + t_gen.
  uint64_t entries_committed_leader = 0;
  uint64_t elections = 0;
  uint64_t rpc_timeouts = 0;
  uint64_t window_inserts = 0;
  uint64_t degraded_entries = 0;

  /// Folds another group's stats into this one (histograms and breakdowns
  /// merge, counters add — entries_committed_leader sums over each
  /// group's leader). Merging into a default-constructed object copies.
  void Merge(const ClusterStats& other);
};

}  // namespace nbraft::harness

#endif  // NBRAFT_HARNESS_CLUSTER_TYPES_H_
