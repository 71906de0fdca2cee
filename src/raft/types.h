#ifndef NBRAFT_RAFT_TYPES_H_
#define NBRAFT_RAFT_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/sim_time.h"

namespace nbraft::sim {
class CpuExecutor;
}  // namespace nbraft::sim

namespace nbraft::raft {

/// Raft role of a node. kLearner is the passive membership role (dynamic
/// membership only): the node replicates the log but never campaigns,
/// never arms an election timer, and never counts toward any quorum —
/// both catch-up learners and nodes removed from the configuration sit
/// here. Fixed-roster clusters only ever see the first three.
enum class Role { kFollower, kCandidate, kLeader, kLearner };

std::string_view RoleName(Role role);

/// Reply states of NB-Raft (paper Fig. 5). The original Raft only ever
/// produces kStrongAccept / kLogMismatch.
enum class AcceptState : uint8_t {
  kStrongAccept,   ///< Entry (and its whole prefix) appended durably.
  kWeakAccept,     ///< Entry received and cached in the sliding window.
  kLogMismatch,    ///< Prefix missing or conflicting; resend earlier entries.
  kLeaderChanged,  ///< A newer term exists; retry with the new leader.
  kNotLeader,      ///< This node is not the leader (client-facing).
};

std::string_view AcceptStateName(AcceptState state);

/// The protocols compared in the paper's evaluation.
enum class Protocol {
  kRaft,         ///< Original Raft (NB-Raft with w = 0).
  kNbRaft,       ///< Non-Blocking Raft (this paper).
  kCRaft,        ///< Erasure-coded Raft [FAST'20].
  kNbCRaft,      ///< NB-Raft + CRaft combination.
  kECRaft,       ///< CRaft with erasure-coded degraded mode [ICPADS'21].
  kKRaft,        ///< K-Bucket relay Raft [ICPADS'19].
  kVGRaft,       ///< Verification-group byzantine-resistant Raft [ICCT'21].
};

std::string_view ProtocolName(Protocol protocol);

/// Variant predicates: the mechanisms each protocol adds to the one
/// RaftNode. NB-Raft's sliding window is not among them; it is
/// `RaftOptions::window_size`, which OptionsForProtocol sets for kNbRaft
/// and kNbCRaft and which w = 0 turns back into original Raft.
///
/// CRaft, NB-Raft+CRaft and ECRaft replicate Reed-Solomon fragments.
/// Fragments are modelled, not computed: their sizes and the coding CPU
/// cost are charged, and their bytes are filler.
constexpr bool ErasureCoded(Protocol protocol) {
  return protocol == Protocol::kCRaft || protocol == Protocol::kNbCRaft ||
         protocol == Protocol::kECRaft;
}
/// ECRaft keeps coding, with a smaller k, when replicas are down; CRaft
/// falls back to full copies.
constexpr bool CodesWhileDegraded(Protocol protocol) {
  return protocol == Protocol::kECRaft;
}
/// KRaft sends each entry to a bucket of ceil((N-1)/2) followers, which
/// relay it to the rest.
constexpr bool RelaysThroughKBucket(Protocol protocol) {
  return protocol == Protocol::kKRaft;
}
/// VGRaft hashes and signs every entry; followers verify it before
/// admitting it.
constexpr bool SignsEntries(Protocol protocol) {
  return protocol == Protocol::kVGRaft;
}

/// Modelled CPU costs. Every cost constant in the engines (this group and
/// the k*Cost constants next to their readers) is calibrated to a
/// contemporary server core (paper testbed: Xeon Platinum 8260).
///
/// Scheduling overhead charged per concurrently outstanding task on a host
/// CPU pool (context switching / cache pressure), saturating at
/// kMaxSwitchOverhead. This is what bends the throughput curve downward
/// past ~512 clients in Figs. 14/17/18.
inline constexpr SimDuration kContextSwitchCost = Nanos(120);
/// The same overhead per waiter on a replica's log-lock lane.
inline constexpr SimDuration kLockSwitchCost = Nanos(300);
inline constexpr SimDuration kMaxSwitchOverhead = Micros(3);

/// Simulated durable-disk configuration. With `enabled` set, each node
/// stores its durable log on a deterministic simulated disk: writes and
/// fsyncs cost virtual time on a dedicated I/O lane, un-fsynced records
/// are torn off by a crash, and acknowledgements wait for the covering
/// fsync (group commit batches records per barrier). All-zero latencies
/// still run the full durability machinery — they just make it free.
struct DiskOptions {
  bool enabled = false;
  SimDuration write_latency = 0;  ///< Media write cost per record.
  SimDuration fsync_latency = 0;  ///< Barrier cost per fsync.
  /// Batch every record staged while a sync is in flight under the next
  /// single barrier (one fsync amortized over many records). Off = one
  /// fsync per persisted record, serialized on the I/O lane.
  bool group_commit = true;
  /// Seed for the disk fault injector (torn-tail draws, corruption
  /// placement); independent of the simulator rng.
  uint64_t fault_seed = 1;
  /// Externally owned single-lane I/O executor shared by every disk on
  /// this node's physical host (multi-Raft: co-resident groups contend
  /// for the host's media time and fsync serialization). Null (the
  /// default) gives the disk its own lane.
  sim::CpuExecutor* shared_io_lane = nullptr;
};

/// Learner promotion lag and recovery throttle defaults, shared by
/// MembershipOptions and harness::ClusterConfig (see the fields there).
inline constexpr int64_t kDefaultPromotionLag = 16;
inline constexpr int kDefaultRecoveryBatch = 32;

/// Dynamic-membership configuration. Dormant (and behavior-fingerprint
/// invisible) while `initial_config` is empty: the roster is then fixed
/// at construction as peers + self, exactly as before.
struct MembershipOptions {
  /// Encoded initial Configuration (see raft/membership.h). Empty (the
  /// default) keeps dynamic membership off entirely.
  std::string initial_config;
  /// Learner promotion threshold: eligible once its contiguous durable
  /// prefix is within this many entries of the leader's last index.
  int64_t promotion_lag = kDefaultPromotionLag;
  /// Recovery throttle: max log entries enqueued per recovery round.
  int recovery_max_entries_per_round = kDefaultRecoveryBatch;
};

/// Leader heartbeat period. The leader's liveness estimate counts a peer
/// silent for three periods as dead.
inline constexpr SimDuration kHeartbeatInterval = Millis(50);

/// Dispatcher RPC timeout before an entry is re-sent.
inline constexpr SimDuration kRpcTimeout = Millis(400);

/// Per-node protocol configuration. A single RaftNode implements every
/// variant: `protocol` selects the variant mechanisms (see the predicates
/// above) and `window_size` the non-blocking window, so NB-Raft + CRaft is
/// kNbCRaft with window_size > 0, and kRaft with window_size = 0 is
/// original Raft.
struct RaftOptions {
  /// The protocol this replica runs. OptionsForProtocol sets it together
  /// with the matching window size.
  Protocol protocol = Protocol::kRaft;

  /// NB-Raft sliding-window size w; 0 reproduces original Raft exactly
  /// (paper Sec. III, contribution 3). The paper's default is 10000.
  int window_size = 0;

  /// Consensus group this replica belongs to (multi-Raft sharding). Pure
  /// identity: stamped into NodeStats and journal context so stats and
  /// post-mortems can tell co-resident groups apart. 0 in single-group
  /// clusters.
  int32_t group_id = 0;

  /// Externally owned general CPU pool shared by every replica on this
  /// node's physical host (multi-Raft: co-resident groups contend for the
  /// host's cores). Required: the harness Substrate owns one per host. The
  /// serial index/apply/log-lock lanes stay per-replica — they model
  /// software locks, not cores.
  sim::CpuExecutor* shared_cpu = nullptr;

  /// Dispatchers per follower (N_csm): concurrent in-flight AppendEntries
  /// RPCs per follower connection. The evaluation sets this equal to the
  /// number of clients "to avoid long queues".
  int dispatchers_per_follower = 16;

  /// Log compaction: once more than this many applied entries sit in the
  /// log, snapshot the state machine and compact the prefix (0 disables).
  /// Lagging followers whose next entry was compacted away receive an
  /// InstallSnapshot instead.
  int64_t snapshot_threshold = 0;
  /// Applied entries kept behind the snapshot point so slightly-lagging
  /// followers can still catch up from the log.
  int64_t snapshot_keep_tail = 64;

  /// Base follower (election) timeout; the concrete timeout is drawn
  /// uniformly from [election_timeout, 2 * election_timeout).
  SimDuration election_timeout = Millis(500);

  // ---- Adversarial-resilience mitigations ----
  // Two switches, so ablations (attack x mitigation sweeps) can isolate
  // PreVote from the lease. All off by default: the default protocol is
  // bit-identical to the unmitigated implementation.

  /// PreVote (libraft's pre-candidate phase): before incrementing its
  /// term, a timed-out follower canvasses the cluster with a
  /// non-binding RequestVote marked pre_vote. Only a pre-vote quorum
  /// starts a real election, so a partitioned node cannot inflate its
  /// term unboundedly and depose a healthy leader on rejoin.
  bool pre_vote = false;

  /// CheckQuorum + leader lease, which only make sense together:
  ///  * Lease: while a node has heard from a live leader within the last
  ///    election_timeout (or is itself the leader), it rejects vote and
  ///    pre-vote requests without adopting the candidate's term. This is
  ///    the deposition shield against term-inflating rejoiners.
  ///  * CheckQuorum: a leader that has not heard AppendEntries responses
  ///    from a quorum within one election_timeout steps down (same term).
  ///    A leader shielded from depositions must also notice when it has
  ///    actually lost the cluster.
  bool check_quorum_lease = false;

  /// Drop applied entries' payload bytes to bound memory in long benchmark
  /// runs (metadata and modelled sizes are kept). Disable in tests that
  /// inspect payloads.
  bool release_applied_payloads = false;

  /// Simulated durable disk: with `disk.enabled` a crash drops all
  /// in-memory state and a restart recovers the log, term, vote and
  /// snapshot/compaction boundaries from the disk image (the durable-log
  /// assumption of the paper's Sec. IV made concrete). Off, durability is
  /// modelled: a crash keeps memory.
  DiskOptions disk;

  /// Dynamic membership (joint consensus + learner recovery). Dormant by
  /// default.
  MembershipOptions membership;

  /// t_idx per entry, on the serial indexing lane (models the lock). The
  /// Ratis profile holds a heavier lock (paper Sec. II-F).
  SimDuration index_cost = Micros(3);
};

/// Canonical options for a protocol as configured in the paper's
/// experiments (`window_size` defaults to the paper's 10000 for the
/// non-blocking variants).
RaftOptions OptionsForProtocol(Protocol protocol, int window_size = 10000);

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_TYPES_H_
