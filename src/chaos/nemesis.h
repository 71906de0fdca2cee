#ifndef NBRAFT_CHAOS_NEMESIS_H_
#define NBRAFT_CHAOS_NEMESIS_H_

#include <set>
#include <unordered_map>
#include <vector>

#include "chaos/chaos_plan.h"
#include "common/random.h"
#include "harness/cluster.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace nbraft::chaos {

/// The fault injector: runs on the cluster's simulator and executes a
/// ChaosPlan — crash/restart (incl. leader-targeted), symmetric and
/// one-way partitions, link flaps, drop/delay storms, election-timer skew
/// and CPU degradation — with every choice drawn from its own RNG seeded
/// by the plan. Each fault schedules its own heal; Stop() + HealAll()
/// restores the cluster to nominal regardless of what was active.
///
/// Every action is appended to `records()` (the fault schedule) and
/// recorded as a `chaos.fault_inject` / `chaos.fault_heal` journal event
/// when the cluster is journaled.
class Nemesis {
 public:
  Nemesis(harness::Cluster* cluster, ChaosPlan plan);

  Nemesis(const Nemesis&) = delete;
  Nemesis& operator=(const Nemesis&) = delete;

  /// Schedules the first injection. Call after the cluster started.
  void Start();

  /// Stops injecting new faults (already-scheduled heals still run).
  void Stop();

  /// Reverts every outstanding fault immediately: restarts crashed nodes,
  /// removes cuts, clears storms, skew and CPU degradation.
  void HealAll();

  const std::vector<FaultRecord>& records() const { return records_; }
  uint64_t Fingerprint() const { return FingerprintFaults(records_); }

  /// Replicas crashed by this nemesis and not yet restarted.
  int crashed_count() const { return static_cast<int>(crashed_.size()); }

 private:
  void ScheduleNext();
  void InjectOne();
  void Record(FaultKind kind, bool heal, net::NodeId a, net::NodeId b,
              int64_t param);

  // Individual faults. Each returns false if not applicable right now
  // (e.g. crash cap reached), in which case the injection is skipped.
  bool InjectCrash(bool target_leader, SimDuration duration);
  bool InjectPartition(bool one_way, SimDuration duration);
  bool InjectLinkFlap(SimDuration duration);
  bool InjectDropStorm(SimDuration duration);
  bool InjectDelayStorm(SimDuration duration);
  bool InjectClockSkew(SimDuration duration);
  bool InjectSlowNode(SimDuration duration);
  bool InjectDiskStall(SimDuration duration);
  bool InjectDiskCorruption(SimDuration duration);
  // Protocol-level adversaries.
  bool InjectDisruptiveServer(SimDuration duration);
  bool InjectVoteWithholder(SimDuration duration);
  bool InjectElectionStorm(SimDuration duration);
  // Membership-level fault (elastic clusters only).
  bool InjectMembershipChurn(SimDuration duration);
  /// Heal half of kMembershipChurn: adds the removed host back as a
  /// learner, retrying while the group is leaderless or another change is
  /// in flight. Gives up (recording the heal with param -1) after
  /// `attempts_left` tries — the roster just stays one voter smaller.
  void ReaddChurned(uint64_t id, int attempts_left);

  /// Cuts (or restores) every link between `victim` and the other
  /// replicas — full isolation, the adversaries' shared primitive.
  void SetIsolated(net::NodeId victim, bool isolated);

  /// Random up replica (excludes nemesis-crashed nodes), or kInvalidNode.
  net::NodeId PickUpNode();
  /// Random unordered replica pair with both ends up.
  bool PickUpPair(net::NodeId* a, net::NodeId* b);
  SimDuration DrawGap();
  SimDuration DrawDuration();
  int MaxConcurrentCrashes() const;

  harness::Cluster* cluster_;
  ChaosPlan plan_;
  nbraft::Rng rng_;
  bool running_ = false;

  std::set<net::NodeId> crashed_;
  /// Reference counts for global effects that can overlap.
  int active_drop_storms_ = 0;
  int active_delay_storms_ = 0;
  /// Per-node outstanding skew / slow effects (heal restores 1.0 when the
  /// last one on that node expires).
  std::unordered_map<net::NodeId, int> active_skew_;
  std::unordered_map<net::NodeId, int> active_slow_;
  std::unordered_map<net::NodeId, int> active_disk_stall_;
  /// Corruptions injected so far (capped by nemesis.cc's
  /// kMaxDiskCorruptions).
  int corruptions_injected_ = 0;
  /// Outstanding cuts (and flaps) so heals and HealAll can revert them.
  struct ActiveCut {
    uint64_t id;
    net::NodeId a;
    net::NodeId b;
    bool one_way;
  };
  std::vector<ActiveCut> active_cuts_;
  uint64_t next_cut_id_ = 1;

  /// Outstanding full-node isolations (disruptive server / election
  /// storm). `victim` is kInvalidNode during a storm's healed half-cycle.
  struct ActiveIsolation {
    uint64_t id;
    net::NodeId victim;
    FaultKind kind;
  };
  std::vector<ActiveIsolation> active_isolations_;
  /// Per-node outstanding vote-withholder effects (refcounted like skew).
  std::unordered_map<net::NodeId, int> active_withhold_;

  /// Hosts churned out of a group's configuration and not yet re-added.
  struct ActiveChurn {
    uint64_t id;
    int group;
    int host;
  };
  std::vector<ActiveChurn> active_churn_;

  std::vector<FaultRecord> records_;
};

}  // namespace nbraft::chaos

#endif  // NBRAFT_CHAOS_NEMESIS_H_
