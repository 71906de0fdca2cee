#ifndef NBRAFT_RAFT_NODE_STATS_H_
#define NBRAFT_RAFT_NODE_STATS_H_

#include <cstdint>
#include <string>

#include "metrics/breakdown.h"
#include "metrics/histogram.h"

namespace nbraft::raft {

/// Per-node metrics the harness aggregates after a run.
///
/// These are raw struct fields. What crosses into the observability
/// pipeline (sampler sources and journal events) is named under the
/// canonical `subsystem.noun_verb[.nodeN]` scheme — the names live in
/// src/obs/names.h and Journal::KindName, and DESIGN.md section "2e.
/// Observability pipeline" documents each one. ToJson() keys stay
/// snake_case field names; the scheme applies to the named metric
/// streams, not struct members.
struct NodeStats {
  /// Multi-Raft identity: which consensus group this replica serves and
  /// its replica ordinal within the group (both 0 in single-group
  /// clusters). Stamped by the harness so per-group breakdowns can be
  /// reassembled from a flat stats dump.
  int32_t group = 0;
  int32_t replica = 0;

  metrics::Breakdown breakdown;
  metrics::Histogram wait_hist;       ///< t_wait(F) per delayed entry.
  metrics::Histogram append_latency;  ///< Receive -> appended, per entry.
  uint64_t entries_appended = 0;
  uint64_t entries_committed = 0;
  uint64_t entries_applied = 0;
  uint64_t weak_accepts_sent = 0;
  uint64_t strong_accepts_sent = 0;
  uint64_t mismatches_sent = 0;
  uint64_t window_inserts = 0;
  uint64_t window_overflows = 0;  ///< diff > w arrivals (held, blocking).
  uint64_t elections_started = 0;
  uint64_t times_elected = 0;

  // Adversarial-resilience accounting (PreVote / CheckQuorum / lease).
  /// Terms this node minted by bumping current_term in StartElection.
  /// Every term value in the cluster above the initial one was minted by
  /// exactly one such bump, so the chaos oracle checks
  /// max(current_term) <= sum(terms_started) as term-accounting honesty.
  uint64_t terms_started = 0;
  uint64_t prevotes_granted = 0;   ///< Pre-vote canvasses this node granted.
  uint64_t prevotes_rejected = 0;  ///< Pre-vote canvasses this node refused.
  /// Times this node lost leadership to a higher term while alive — the
  /// healthy-leader deposition the PreVote/CheckQuorum/lease mitigations
  /// exist to prevent (CheckQuorum's own same-term step-down counts under
  /// checkquorum_stepdowns instead).
  uint64_t leader_depositions = 0;
  uint64_t checkquorum_stepdowns = 0;  ///< Leader gave up: quorum unheard.
  uint64_t rpc_timeouts = 0;
  uint64_t degraded_entries = 0;  ///< CRaft/ECRaft degraded-mode entries.
  uint64_t snapshots_taken = 0;
  uint64_t snapshots_sent = 0;
  uint64_t snapshots_installed = 0;

  // Dynamic membership (zero on fixed rosters — the dormant default).
  uint64_t config_changes = 0;     ///< Final (non-joint) configs committed.
  uint64_t learners_promoted = 0;  ///< Learner -> voter promotions proposed.
  uint64_t transfers = 0;          ///< Leadership transfers initiated.
  /// Largest window gap (frontier - contiguous durable prefix) observed
  /// while this node was a learner: the WEAK_ACCEPT × catch-up hazard the
  /// recovery STM's promotion rule must see through.
  uint64_t learner_gap_max = 0;

  // Durable storage (non-zero only with a durable log attached).
  uint64_t fsyncs_completed = 0;
  uint64_t disk_bytes_written = 0;  ///< Encoded record bytes staged.
  uint64_t storage_failures = 0;    ///< Failed writes/fsyncs surfaced.
  uint64_t recoveries = 0;          ///< Restarts that replayed durable state.

  // Replication pipeline RPC accounting (leader side, non-heartbeat).
  uint64_t append_rpcs_sent = 0;     ///< AppendEntries RPCs carrying entries.
  uint64_t append_entries_sent = 0;  ///< Entries those RPCs carried.

  /// Serializes every counter (plus the breakdown and histograms) as a
  /// JSON object, so harness and chaos reports can emit node stats without
  /// hand-formatting each field.
  std::string ToJson() const;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_NODE_STATS_H_
