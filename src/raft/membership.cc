#include "raft/membership.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "raft/commit_applier.h"
#include "raft/election_engine.h"
#include "raft/node_context.h"
#include "raft/recovery_stm.h"
#include "raft/replication_pipeline.h"

namespace nbraft::raft {
namespace {

bool Contains(const std::vector<net::NodeId>& set, net::NodeId id) {
  return std::find(set.begin(), set.end(), id) != set.end();
}

void Erase(std::vector<net::NodeId>* set, net::NodeId id) {
  set->erase(std::remove(set->begin(), set->end(), id), set->end());
}

/// Majority of `set` present in `acks`; vacuously true for an empty set
/// (only reachable through a decoded-then-rejected configuration).
bool MajorityOf(const std::vector<net::NodeId>& set,
                const net::NodeSet& acks) {
  if (set.empty()) return true;
  int have = 0;
  for (const net::NodeId id : set) {
    if (acks.count(id) != 0) ++have;
  }
  return have >= static_cast<int>(set.size()) / 2 + 1;
}

void EncodeSection(const std::vector<net::NodeId>& ids, char tag,
                   std::string* out) {
  out->push_back(tag);
  out->push_back('=');
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += std::to_string(ids[i]);
  }
}

bool DecodeSection(std::string_view section, char tag,
                   std::vector<net::NodeId>* out) {
  if (section.size() < 2 || section[0] != tag || section[1] != '=') {
    return false;
  }
  section.remove_prefix(2);
  while (!section.empty()) {
    const size_t comma = section.find(',');
    const std::string_view token = section.substr(0, comma);
    if (token.empty()) return false;
    int64_t value = 0;
    for (const char c : token) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + (c - '0');
    }
    out->push_back(static_cast<net::NodeId>(value));
    if (comma == std::string_view::npos) break;
    section.remove_prefix(comma + 1);
  }
  return true;
}

}  // namespace

bool Configuration::IsVoter(net::NodeId id) const {
  return Contains(voters, id) || Contains(new_voters, id);
}

bool Configuration::IsLearner(net::NodeId id) const {
  return Contains(learners, id);
}

bool Configuration::Knows(net::NodeId id) const {
  return IsVoter(id) || IsLearner(id);
}

int Configuration::OthersKnown(net::NodeId self) const {
  int count = 0;
  for (const net::NodeId id : voters) {
    if (id != self) ++count;
  }
  for (const net::NodeId id : new_voters) {
    if (id != self && !Contains(voters, id)) ++count;
  }
  for (const net::NodeId id : learners) {
    if (id != self && !IsVoter(id)) ++count;
  }
  return count;
}

void Configuration::Normalize() {
  for (std::vector<net::NodeId>* set : {&voters, &new_voters, &learners}) {
    std::sort(set->begin(), set->end());
    set->erase(std::unique(set->begin(), set->end()), set->end());
  }
}

std::string Configuration::Encode() const {
  std::string out;
  EncodeSection(voters, 'v', &out);
  out.push_back(';');
  EncodeSection(new_voters, 'n', &out);
  out.push_back(';');
  EncodeSection(learners, 'l', &out);
  return out;
}

bool Configuration::Decode(std::string_view text, Configuration* out) {
  Configuration parsed;
  const size_t first = text.find(';');
  if (first == std::string_view::npos) return false;
  const size_t second = text.find(';', first + 1);
  if (second == std::string_view::npos) return false;
  if (!DecodeSection(text.substr(0, first), 'v', &parsed.voters) ||
      !DecodeSection(text.substr(first + 1, second - first - 1), 'n',
                     &parsed.new_voters) ||
      !DecodeSection(text.substr(second + 1), 'l', &parsed.learners)) {
    return false;
  }
  parsed.Normalize();
  *out = std::move(parsed);
  return true;
}

bool MembershipEngine::ChangeInFlight() const {
  if (!active_) return false;
  return config_.joint() || config_index_ > ctx_->core().commit_index;
}

bool MembershipEngine::SelfIsVoter() const {
  return config_.IsVoter(ctx_->id());
}

bool MembershipEngine::QuorumSatisfied(
    const net::NodeSet& acks) const {
  return MajorityOf(config_.voters, acks) &&
         (!config_.joint() || MajorityOf(config_.new_voters, acks));
}

int MembershipEngine::CountQuorum() const {
  const int old_majority = static_cast<int>(config_.voters.size()) / 2 + 1;
  if (!config_.joint()) return old_majority;
  const int new_majority = static_cast<int>(config_.new_voters.size()) / 2 + 1;
  return std::max(old_majority, new_majority);
}

void MembershipEngine::Bootstrap(const Configuration& config) {
  config_ = config;
  config_.Normalize();
  config_index_ = 0;
  final_proposed_for_ = 0;
  committed_counted_ = 0;
  history_.clear();
  active_ = true;
  // Commit decisions become set-based: a tuple commits when its strong
  // holders satisfy the active configuration (both generations during a
  // joint window), with the count-based rule restored while Reset.
  ctx_->applier()->vote_list().set_commit_check(
      [this](const VoteList::Tuple& t) {
        if (!active_) return static_cast<int>(t.strong.size()) >= t.required;
        return QuorumSatisfied(t.strong);
      });
  ReconcileSelfRole();
}

void MembershipEngine::Reset() {
  active_ = false;
  config_ = Configuration{};
  config_index_ = 0;
  final_proposed_for_ = 0;
  committed_counted_ = 0;
  history_.clear();
}

bool MembershipEngine::ProposeAddLearner(net::NodeId id) {
  if (!active_ || ctx_->core().role != Role::kLeader) return false;
  if (config_.Knows(id) || ChangeInFlight()) return false;
  Configuration next = config_;
  next.learners.push_back(id);
  if (!AppendConfigEntry(next)) return false;
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kLearnerAdd, ctx_->id(),
              static_cast<int32_t>(id),
              static_cast<int64_t>(config_index_));
  }
  if (RecoveryStm* recovery = ctx_->recovery(); recovery != nullptr) {
    recovery->StartRecovery(id);
  }
  return true;
}

bool MembershipEngine::ProposePromote(net::NodeId learner) {
  if (!active_ || ctx_->core().role != Role::kLeader) return false;
  if (!config_.IsLearner(learner) || ChangeInFlight()) return false;
  Configuration next = config_;
  next.new_voters = config_.voters;
  next.new_voters.push_back(learner);
  Erase(&next.learners, learner);
  if (!AppendConfigEntry(next)) return false;
  ++ctx_->stats().learners_promoted;
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kLearnerPromote, ctx_->id(),
              static_cast<int32_t>(learner),
              static_cast<int64_t>(config_index_));
  }
  return true;
}

bool MembershipEngine::ProposeRemove(net::NodeId id) {
  if (!active_ || ctx_->core().role != Role::kLeader) return false;
  if (!config_.Knows(id) || ChangeInFlight()) return false;
  Configuration next = config_;
  if (config_.IsLearner(id)) {
    // Dropping a learner never moves a quorum: a plain config entry.
    Erase(&next.learners, id);
  } else {
    next.new_voters = config_.voters;
    Erase(&next.new_voters, id);
    if (next.new_voters.empty()) return false;  // Never empty the roster.
  }
  return AppendConfigEntry(next);
}

bool MembershipEngine::AppendConfigEntry(const Configuration& next) {
  CoreState& core = ctx_->core();
  if (core.role != Role::kLeader) return false;
  Configuration canonical = next;
  canonical.Normalize();

  storage::RaftLog& log = ctx_->log();
  storage::LogEntry entry;
  entry.index = log.LastIndex() + 1;
  entry.term = core.current_term;
  entry.prev_term = log.LastTerm();
  entry.client_id = kConfigClientId;
  entry.payload = nbraft::Buffer(canonical.Encode());
  log.Append(entry);
  ctx_->PersistEntry(entry);
  ++ctx_->stats().entries_appended;
  // The configuration takes effect the moment it is appended.
  OnConfigAppended(entry);
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kConfigPropose, ctx_->id(), -1,
              static_cast<int64_t>(entry.index), canonical.joint() ? 1 : 0);
  }

  ctx_->applier()->OnLeaderAppended(entry.index);
  ctx_->pipeline()->ReplicateEntry(entry);
  // A roster whose voting majority is the leader alone (bootstrap node,
  // or adding the first learner) commits on the leader's own vote.
  ctx_->applier()->AddLeaderVote(entry.index, entry.term, ctx_->quorum());
  return true;
}

void MembershipEngine::OnConfigAppended(const storage::LogEntry& entry) {
  if (entry.client_id != kConfigClientId) return;
  Configuration next;
  if (!Configuration::Decode(entry.payload.view(), &next)) {
    NBRAFT_LOG(Warn) << "node " << ctx_->id()
                     << " dropped undecodable config entry " << entry.index;
    return;
  }
  const bool was_joint = config_.joint();
  Install(next, entry.index, /*remember_previous=*/true);
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    if (config_.joint() && !was_joint) {
      j->Record(obs::JournalEventKind::kConfigJoint, ctx_->id(), -1,
                static_cast<int64_t>(entry.index),
                static_cast<int64_t>(config_.new_voters.size()));
    }
  }
}

void MembershipEngine::OnCommitAdvanced(storage::LogIndex commit_index) {
  if (!active_ || config_index_ == 0 || commit_index < config_index_) return;
  CoreState& core = ctx_->core();
  if (config_.joint()) {
    // C_old,new is committed: the leader (whichever node holds the role
    // when this lands — a successor inherits the duty) appends plain
    // C_new. Deferred one event so the append never reenters the commit
    // path that delivered this hook.
    if (core.role != Role::kLeader || final_proposed_for_ == config_index_) {
      return;
    }
    final_proposed_for_ = config_index_;
    const uint64_t epoch = core.epoch;
    const storage::LogIndex joint_index = config_index_;
    ctx_->simulator()->After(0, [this, epoch, joint_index]() {
      CoreState& c = ctx_->core();
      if (c.crashed || epoch != c.epoch || c.role != Role::kLeader) return;
      if (!config_.joint() || config_index_ != joint_index) return;
      Configuration final_config;
      final_config.voters = config_.new_voters;
      final_config.learners = config_.learners;
      AppendConfigEntry(final_config);
    });
    return;
  }
  if (config_index_ <= committed_counted_) return;
  committed_counted_ = config_index_;
  ++ctx_->stats().config_changes;
  if (obs::Journal* j = ctx_->journal(); j != nullptr) {
    j->Record(obs::JournalEventKind::kConfigCommit, ctx_->id(), -1,
              static_cast<int64_t>(config_index_),
              static_cast<int64_t>(config_.voters.size()));
  }
  if (core.role == Role::kLeader && !config_.IsVoter(ctx_->id())) {
    // The leader removed itself: it led through the change (Raft Sec. 6
    // lets a leader commit entries it does not count itself in) and
    // abdicates only now that C_new is durable on its own majority.
    const uint64_t epoch = core.epoch;
    const storage::Term term = core.current_term;
    ctx_->simulator()->After(0, [this, epoch, term]() {
      CoreState& c = ctx_->core();
      if (c.crashed || epoch != c.epoch || c.role != Role::kLeader ||
          c.current_term != term) {
        return;
      }
      ctx_->election()->StepDown(term, net::kInvalidNode);
    });
  }
}

void MembershipEngine::OnTruncated(storage::LogIndex from_index) {
  if (!active_ || config_index_ < from_index) return;
  while (config_index_ >= from_index && !history_.empty()) {
    config_index_ = history_.back().first;
    config_ = std::move(history_.back().second);
    history_.pop_back();
  }
  ctx_->PersistConfig(config_.Encode(), config_index_);
  ReconcileSelfRole();
}

void MembershipEngine::InstallRecovered(const Configuration& config,
                                        storage::LogIndex at) {
  config_ = config;
  config_.Normalize();
  config_index_ = at;
  ReconcileSelfRole();
}

void MembershipEngine::Install(const Configuration& config,
                               storage::LogIndex at, bool remember_previous) {
  if (remember_previous) history_.emplace_back(config_index_, config_);
  config_ = config;
  config_.Normalize();
  config_index_ = at;
  ctx_->PersistConfig(config_.Encode(), at);
  ReconcileSelfRole();
}

void MembershipEngine::ReconcileSelfRole() {
  CoreState& core = ctx_->core();
  const net::NodeId self = ctx_->id();
  if (config_.IsVoter(self)) {
    if (core.role == Role::kLearner) {
      core.role = Role::kFollower;
      if (obs::Journal* j = ctx_->journal(); j != nullptr) {
        j->Record(obs::JournalEventKind::kRoleChange, self, -1,
                  static_cast<int64_t>(Role::kFollower),
                  static_cast<int64_t>(core.current_term));
      }
      ctx_->election()->ArmElectionTimer();
    }
    return;
  }
  // Learner or removed: passive. A sitting leader is left alone — the
  // self-removal step-down is sequenced by OnCommitAdvanced.
  if (core.role == Role::kFollower || core.role == Role::kCandidate) {
    core.role = Role::kLearner;
    if (obs::Journal* j = ctx_->journal(); j != nullptr) {
      j->Record(obs::JournalEventKind::kRoleChange, self, -1,
                static_cast<int64_t>(Role::kLearner),
                static_cast<int64_t>(core.current_term));
    }
    ctx_->election()->ArmElectionTimer();  // Passive: cancels the timer.
  }
}

}  // namespace nbraft::raft
