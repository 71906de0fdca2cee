#ifndef NBRAFT_CHAOS_CHAOS_PLAN_H_
#define NBRAFT_CHAOS_CHAOS_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "net/network.h"

namespace nbraft::chaos {

/// One kind of nemesis action. Each injected fault also schedules its own
/// heal, so a plan can never leave the cluster permanently degraded.
enum class FaultKind : uint8_t {
  kCrash,            ///< Crash a random up replica, restart later.
  kCrashLeader,      ///< Crash the current leader specifically.
  kPartition,        ///< Symmetric link cut between a random pair.
  kOneWayPartition,  ///< Directed cut: a can send to b, b's replies vanish.
  kLinkFlap,         ///< Rapid cut/heal cycles on one link.
  kDropStorm,        ///< Raise global message-drop probability.
  kDelayStorm,       ///< Add a fixed extra delay to every message.
  kClockSkew,        ///< Scale one node's election timeout.
  kSlowNode,         ///< Degrade one node's CPU lanes.
  kDiskStall,        ///< Stall one node's fsyncs (slow disk / write-cache flush).
  kDiskCorruption,   ///< Bit-rot a durable tail record, then crash the node so
                     ///< recovery detects it (disk-fault runs only).
  // Protocol-level adversaries: attacks on the election protocol itself
  // rather than the environment. Not in the default mix (the default
  // fault schedule is fingerprint-pinned) — opt in via `mix`.
  kDisruptiveServer,  ///< Isolate a non-leader so its term inflates (or its
                      ///< pre-vote canvasses fail), then rejoin it. Without
                      ///< PreVote the rejoin deposes a healthy leader.
  kVoteWithholder,    ///< One node refuses every vote/pre-vote request.
  kElectionStorm,     ///< Repeatedly isolate whoever is currently leader,
                      ///< forcing back-to-back elections.
  kMembershipChurn,   ///< Remove a non-leader voter from its group's
                      ///< configuration (joint consensus), then add the host
                      ///< back as a learner when the fault heals — recovery
                      ///< catch-up re-promotes it. Needs an elastic cluster
                      ///< (ClusterConfig::initial_voters > 0); not in the
                      ///< default mix (fingerprint-pinned).
};

const char* FaultKindName(FaultKind kind);

/// Declarative description of a fault campaign. The Nemesis draws every
/// choice (kind, victims, gaps, durations, intensities) from its own RNG
/// seeded with `seed`, so a plan + seed fully determines the fault
/// schedule.
struct ChaosPlan {
  uint64_t seed = 1;

  /// Fault kinds to draw from, uniformly. Repeat a kind to weight it.
  /// Empty = the default mix (every kind once).
  std::vector<FaultKind> mix;

  /// Virtual-time gap between consecutive injections.
  SimDuration min_gap = Millis(40);
  SimDuration max_gap = Millis(160);

  /// How long a fault stays active before its guaranteed heal.
  SimDuration min_duration = Millis(60);
  SimDuration max_duration = Millis(240);

  /// Crash cap: at most this many nemesis-crashed replicas at once.
  /// -1 = keep a quorum alive, i.e. (num_nodes - 1) / 2.
  int max_concurrent_crashes = -1;

  /// Added to every fsync during kDiskStall. The other intensities are
  /// constants in nemesis.cc.
  SimDuration disk_stall_extra = Millis(5);

  const std::vector<FaultKind>& EffectiveMix() const;
};

/// One executed nemesis action (or heal), in injection order. The sequence
/// of records is the fault schedule; Fingerprint() condenses it for the
/// determinism check.
struct FaultRecord {
  FaultKind kind = FaultKind::kCrash;
  bool heal = false;  ///< true for the healing half of the fault.
  SimTime at = 0;
  net::NodeId a = net::kInvalidNode;  ///< Victim (crash/skew/slow) or link end.
  net::NodeId b = net::kInvalidNode;  ///< Other link end, if any.
  int64_t param = 0;  ///< Intensity, scaled: skew/speed x1000, drop x1000, delay.
};

std::string FaultRecordToString(const FaultRecord& record);

/// FNV-1a over the full schedule: same seed => same fingerprint.
uint64_t FingerprintFaults(const std::vector<FaultRecord>& records);

}  // namespace nbraft::chaos

#endif  // NBRAFT_CHAOS_CHAOS_PLAN_H_
