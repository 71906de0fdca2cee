#ifndef NBRAFT_OBS_JOURNAL_H_
#define NBRAFT_OBS_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "sim/simulator.h"

namespace nbraft::obs {

/// What a journal event describes. Names follow the documented
/// `subsystem.noun_verb` scheme (see KindName).
enum class JournalEventKind : uint8_t {
  // raft: consensus engine transitions.
  kRoleChange = 0,  ///< a = new role (0 F / 1 C / 2 L), b = term.
  kTermChange,      ///< a = old term, b = new term.
  kElectionStart,   ///< a = term.
  kLeaderElected,   ///< a = term.
  kStepDown,        ///< a = term, b = 1 when leadership was lost.
  // election: mitigation phases (PreVote / leader lease / CheckQuorum).
  kPreVoteStart,   ///< a = prospective term.
  kPreVoteGrant,   ///< peer = candidate, a = prospective term.
  kPreVoteReject,  ///< peer = candidate, a = prospective term.
  kLeaseReject,    ///< peer = candidate, a = candidate term, b = 1 prevote.
  kQuorumLost,     ///< a = term, b = responsive voters (incl. self).
  // net: RPCs, decoded at the consensus layer.
  kRpcSend,  ///< peer = to, a = JournalRpc, b = wire bytes.
  kRpcRecv,  ///< peer = from, a = JournalRpc, b = wire bytes.
  kRpcDrop,  ///< node = from, peer = to, a = -1 (undecoded), b = bytes.
  // raft: sliding window (NB-Raft out-of-order ingress).
  kWindowInsert,  ///< a = index, b = occupancy after insert.
  kWindowEvict,   ///< a = index, b = occupancy after evict.
  kWindowFlush,   ///< a = first flushed index, b = flushed count.
  // raft: commit / apply progress.
  kCommitAdvance,  ///< a = new commit index, b = entries advanced.
  kApplyAdvance,   ///< a = applied index, b = request id.
  // storage: durable log activity.
  kDiskWrite,       ///< a = staged record bytes, b = pending entry frontier.
  kDiskFsync,       ///< a = durable entry frontier, b = barrier latency ns.
  kStorageFailure,  ///< a = 1 leader step-down / 0 follower halt.
  // lifecycle.
  kCrash,     ///< b = 1 when the durable image survives (disk mode).
  kRestart,   ///< —
  kRecovery,  ///< a = recovered last index, b = 1 when quarantined.
  // chaos.
  kNemesisFault,  ///< a = FaultKind, b = param; peer = second victim.
  kNemesisHeal,   ///< a = FaultKind, b = param.
  kViolation,     ///< a = violation ordinal (oracle's running count).
  // membership: dynamic reconfiguration (joint consensus + learners).
  kConfigPropose,   ///< a = config entry index, b = 1 when joint.
  kConfigJoint,     ///< a = joint entry index, b = |C_new|.
  kConfigCommit,    ///< a = config entry index, b = |voters|.
  kLearnerAdd,      ///< peer = learner, a = config entry index.
  kLearnerPromote,  ///< peer = learner, a = joint entry index.
  kTransferStart,   ///< peer = target, a = term.
  kTransferDone,    ///< a = term of the transferred leadership.
  // client: the closed-loop connection's view (recorded in traced runs).
  kClientWeakAccept,    ///< a = log index, b = request id.
  kClientStrongAccept,  ///< a = committed log index, b = request id.
  kClientRetryAll,      ///< a = weakly accepted requests re-queued.
  kNumKinds
};

/// RPC type vocabulary for kRpcSend/kRpcRecv `a` arguments. Defined here so
/// the journal can print names without depending on the raft layer; each
/// raft message struct names its own kind (rpc()). The trace exports print
/// the raw value, so values never move: 9 and 10 are retired.
enum class JournalRpc : int8_t {
  kUnknown = -1,
  kAppendEntries = 0,
  kHeartbeat,
  kAppendEntriesResp,
  kRequestVote,
  kRequestVoteResp,
  kClientRequest,
  kClientResponse,
  kInstallSnapshot,
  kInstallSnapshotResp,
  kTimeoutNow = 11,
};

const char* JournalRpcName(JournalRpc rpc);

/// One structured protocol event. Plain data, fixed size: the rings hold
/// these by value and recording never allocates.
struct JournalEvent {
  SimTime at = 0;
  uint64_t seq = 0;  ///< Global record order (total order across rings).
  JournalEventKind kind = JournalEventKind::kNumKinds;
  int32_t node = -1;  ///< Acting replica, or -1 for cluster-level events.
  int32_t peer = -1;  ///< Other endpoint, when the event has one.
  int64_t a = 0;      ///< Kind-specific (see JournalEventKind comments).
  int64_t b = 0;
};

/// The cluster flight recorder and the one stream of point events: one
/// fixed-capacity ring of JournalEvents per replica, one shared ring for
/// cluster-level events (nemesis, oracle) and one shared ring for client
/// endpoints, so a chatty node or client fleet cannot evict another
/// endpoint's history. Recording is O(1) with zero
/// steady-state allocation; a null Journal* (the default everywhere) makes
/// every hook a single branch — untraced runs pay nothing, which is what
/// keeps the perf-smoke gate green.
///
/// Events carry a global sequence number stamped at record time; merging
/// the rings and sorting by `seq` reproduces exact causal record order
/// (the simulator is single-threaded), which is what makes post-mortem
/// dumps byte-identical across reruns of the same seed.
class Journal {
 public:
  struct Options {
    size_t per_node_capacity = 1 << 14;
  };

  /// `sim` provides the virtual clock; may be nullptr in unit tests that
  /// use RecordAt. `num_nodes` rings are created for replicas 0..N-1.
  Journal(const sim::Simulator* sim, int num_nodes, Options options);
  Journal(const sim::Simulator* sim, int num_nodes)
      : Journal(sim, num_nodes, Options{}) {}

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Stamped with the simulator's current virtual time. Events with a
  /// negative `node` land in the shared cluster ring; ids at or above
  /// num_nodes (client endpoints: replica ids never reach it) land in the
  /// shared client ring.
  void Record(JournalEventKind kind, int32_t node, int32_t peer = -1,
              int64_t a = 0, int64_t b = 0);

  /// Explicit-timestamp variant (tests, callers without a simulator).
  void RecordAt(SimTime at, JournalEventKind kind, int32_t node,
                int32_t peer = -1, int64_t a = 0, int64_t b = 0);

  // ---- Introspection ----
  int num_nodes() const { return num_nodes_; }
  uint64_t events_recorded() const { return recorded_; }
  uint64_t events_dropped() const { return dropped_; }

  /// Retained events of one ring, oldest first. `node` in [0, num_nodes),
  /// num_nodes() for the shared cluster ring, or num_nodes() + 1 for the
  /// client ring.
  std::vector<JournalEvent> NodeEvents(int node) const;

  /// All retained events merged across rings, in record (seq) order.
  std::vector<JournalEvent> MergedEvents() const;

  // ---- Post-mortem export ----

  /// Maps an endpoint id to a display name; nullptr labels "node N".
  using EndpointNamer = std::function<std::string(int32_t)>;

  /// Maps an endpoint id to its consensus group (multi-Raft sharding), or
  /// -1 for cluster-level ids. When set, every JSONL event line carries a
  /// "group" field so post-mortems of a sharded cluster can be filtered
  /// per group. Left unset (the default, and always in single-group
  /// clusters) the dump format is byte-identical to the pre-sharding one.
  using GroupResolver = std::function<int32_t(int32_t)>;
  void set_group_resolver(GroupResolver resolver) {
    group_resolver_ = std::move(resolver);
  }

  /// Writes the merged, record-ordered event stream as JSONL. Events older
  /// than `cutoff - lookback` are skipped when lookback > 0 (the "last N
  /// seconds before the violation" window); pass lookback = 0 to dump
  /// everything retained. The first line is a meta object with recorded /
  /// dropped / emitted counts so truncation is always visible.
  Status WriteJsonl(const std::string& path, SimTime cutoff,
                    SimDuration lookback) const;

  /// Human-readable timeline of the same window: one line per event,
  /// virtual-time ordered, with decoded kind/RPC names.
  Status WriteTimeline(const std::string& path, SimTime cutoff,
                       SimDuration lookback,
                       const EndpointNamer& namer) const;

  /// `subsystem.noun_verb` name of a kind (stable vocabulary, used by the
  /// exporters and pinned by the naming-scheme test).
  static const char* KindName(JournalEventKind kind);

  /// One formatted timeline line (no trailing newline), shared by
  /// WriteTimeline and tests.
  static std::string FormatEvent(const JournalEvent& e,
                                 const EndpointNamer& namer);

 private:
  struct Ring {
    std::vector<JournalEvent> slots;
    size_t head = 0;       ///< Next write position.
    uint64_t written = 0;  ///< Total ever recorded into this ring.

    size_t retained() const {
      return written < slots.size() ? static_cast<size_t>(written)
                                    : slots.size();
    }
  };

  const Ring& RingFor(int node) const;

  const sim::Simulator* sim_;
  int num_nodes_;
  GroupResolver group_resolver_;
  /// [0..num_nodes-1] replicas, [num_nodes] cluster, [num_nodes+1] clients.
  std::vector<Ring> rings_;
  uint64_t next_seq_ = 0;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace nbraft::obs

#endif  // NBRAFT_OBS_JOURNAL_H_
