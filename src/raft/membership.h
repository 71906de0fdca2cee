#ifndef NBRAFT_RAFT_MEMBERSHIP_H_
#define NBRAFT_RAFT_MEMBERSHIP_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/node_set.h"
#include "storage/log_entry.h"

namespace nbraft::raft {

class NodeContext;

/// Sentinel client_id marking configuration log entries. Distinct from
/// kInvalidNode (-1, leader no-ops) and real client ids (>= kClientIdBase):
/// every path that treats client_id as a reply address must skip it.
inline constexpr net::NodeId kConfigClientId = -2;

/// A replica roster. `voters` is the voting set (C_old during a joint
/// window); a non-empty `new_voters` marks the joint configuration
/// C_old,new, where elections and commits need majorities of BOTH sets.
/// `learners` replicate the log but never vote and never count toward a
/// commit quorum. All three vectors are kept sorted and disjoint-by-role
/// so Encode() is canonical and comparisons are bytewise.
struct Configuration {
  std::vector<net::NodeId> voters;
  std::vector<net::NodeId> new_voters;
  std::vector<net::NodeId> learners;

  bool joint() const { return !new_voters.empty(); }

  /// Voter in either generation (C_old or C_new).
  bool IsVoter(net::NodeId id) const;
  bool IsLearner(net::NodeId id) const;
  /// Any role at all — replication fans out exactly to known nodes.
  bool Knows(net::NodeId id) const;
  /// Voters + learners minus `self`: the replication fan-out size.
  int OthersKnown(net::NodeId self) const;

  /// Sorts and dedups each role vector (canonical form).
  void Normalize();

  /// Canonical text form, e.g. "v=0,1,2;n=3,4;l=5" (sections for C_old,
  /// C_new and learners; empty sections stay present so Decode is total).
  std::string Encode() const;
  static bool Decode(std::string_view text, Configuration* out);

  friend bool operator==(const Configuration& a, const Configuration& b) {
    return a.voters == b.voters && a.new_voters == b.new_voters &&
           a.learners == b.learners;
  }
};

/// The configuration-change engine: joint consensus (Raft Sec. 6 /
/// dissertation Sec. 4.3). A change from C_old to C_new first replicates
/// the transitional entry C_old,new; while it is in effect every election
/// and every commit needs separate majorities of both generations, so no
/// two disjoint majorities can ever decide anything — the two-leader
/// window of naive switchover cannot open. Once C_old,new commits the
/// leader appends plain C_new, and the change completes when that commits.
/// Joint consensus was chosen over staged single-server changes because
/// the chaos harness grows and shrinks by arbitrary deltas mid-fault and
/// the single-server variant's correctness leans on a subtle
/// no-concurrent-change discipline that is exactly what a nemesis likes
/// to violate; the joint window is checkable with one invariant instead.
///
/// Configurations take effect when *appended*, not when committed (a
/// server always uses the latest configuration in its log), and a
/// truncated suffix rolls the configuration back to the one in effect
/// before it — `history_` remembers the supplanted configurations for
/// exactly that.
///
/// The engine is always constructed (it draws no randomness and arms no
/// timers) but stays dormant until Bootstrap() installs a roster; every
/// hook in the consensus engines is guarded by `active()`, which keeps the
/// fixed-roster behavior fingerprint bit-identical.
class MembershipEngine {
 public:
  explicit MembershipEngine(NodeContext* ctx) : ctx_(ctx) {}

  bool active() const { return active_; }
  const Configuration& config() const { return config_; }
  storage::LogIndex config_index() const { return config_index_; }
  /// A change is still replicating: the joint window is open or the
  /// latest configuration entry has not committed yet.
  bool ChangeInFlight() const;

  /// Activates dynamic membership with an initial roster (no log entry:
  /// this is the construction-time configuration every replica agrees on).
  void Bootstrap(const Configuration& config);

  /// Durable-mode crash: volatile membership state is wiped with the rest
  /// of the core; Restart() re-bootstraps and replays recovered markers.
  void Reset();

  // ---- Leader API (all return false when this node is not the leader,
  // a change is already in flight, or the request is a no-op) ----
  bool ProposeAddLearner(net::NodeId id);
  /// Starts the joint change that makes a caught-up learner a voter.
  bool ProposePromote(net::NodeId learner);
  /// Starts the joint change that removes `id` (voter or learner). A
  /// leader may remove itself; it keeps leading until C_new commits.
  bool ProposeRemove(net::NodeId id);

  // ---- Hooks from the consensus engines ----
  /// A configuration entry was appended (leader or follower): it takes
  /// effect immediately.
  void OnConfigAppended(const storage::LogEntry& entry);
  /// Commit advanced: completes the joint handoff (leader appends C_new
  /// once C_old,new commits) and counts completed changes.
  void OnCommitAdvanced(storage::LogIndex commit_index);
  /// The log suffix from `from_index` was truncated: any configuration it
  /// carried is rolled back.
  void OnTruncated(storage::LogIndex from_index);
  /// Restart recovery / snapshot install found a persisted configuration.
  void InstallRecovered(const Configuration& config, storage::LogIndex at);

  // ---- Quorum evaluation ----
  /// True when `acks` satisfies a majority of voters AND, during the
  /// joint window, a majority of new_voters. Non-voter ids in `acks`
  /// (learners, removed nodes) never count.
  bool QuorumSatisfied(const net::NodeSet& acks) const;
  /// Count-based quorum for the paths that only track a tally (vote-list
  /// `required`, CheckQuorum): the larger generation's majority during
  /// the joint window.
  int CountQuorum() const;

  bool IsVoter(net::NodeId id) const { return config_.IsVoter(id); }
  bool IsLearner(net::NodeId id) const { return config_.IsLearner(id); }
  bool Knows(net::NodeId id) const { return config_.Knows(id); }
  bool SelfIsVoter() const;

 private:
  /// Leader-side: appends `next` as a config log entry and replicates it
  /// (the config-entry twin of the BecomeLeader no-op append).
  bool AppendConfigEntry(const Configuration& next);
  /// Makes `config` the active configuration (append, recovery or
  /// rollback all funnel here).
  void Install(const Configuration& config, storage::LogIndex at,
               bool remember_previous);
  /// Role upkeep after a configuration change: a node gaining the vote
  /// arms its election timer, one losing it goes passive.
  void ReconcileSelfRole();

  NodeContext* ctx_;
  bool active_ = false;
  Configuration config_;
  storage::LogIndex config_index_ = 0;
  /// Joint entry index for which C_new was already proposed (guards the
  /// commit hook against double-appending the final configuration).
  storage::LogIndex final_proposed_for_ = 0;
  /// Highest config-entry index whose commit was already counted.
  storage::LogIndex committed_counted_ = 0;
  /// Supplanted configurations, oldest first: (index of the entry that
  /// replaced them, the configuration that was in effect before it).
  std::vector<std::pair<storage::LogIndex, Configuration>> history_;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_MEMBERSHIP_H_
