#include "chaos/nemesis.h"

#include <algorithm>

#include "common/logging.h"

namespace nbraft::chaos {

namespace {

// Fault intensities.
constexpr double kDropStormProbability = 0.25;
constexpr SimDuration kDelayStormExtra = Millis(10);
constexpr double kSkewMin = 0.5;  ///< Election-timer scale lower bound.
constexpr double kSkewMax = 2.5;  ///< Upper bound (> 1 = sluggish node).
constexpr double kSlowFactor = 0.25;  ///< CPU speed during kSlowNode.
constexpr int kFlapCycles = 4;        ///< Cut/heal cycles per kLinkFlap.
/// Corruption budget per run: each corruption truncates one node's log
/// tail, so more than one per run can cut a quorum's worth of copies of
/// the same entry (safety requires a quorum of intact replicas).
constexpr int kMaxDiskCorruptions = 1;
/// Isolate/rejoin cycles per kElectionStorm (each cycle targets whoever is
/// leader at that moment, ending healed).
constexpr int kStormCycles = 3;

}  // namespace

Nemesis::Nemesis(harness::Cluster* cluster, ChaosPlan plan)
    : cluster_(cluster), plan_(std::move(plan)), rng_(plan_.seed) {
  NBRAFT_CHECK_GE(plan_.max_gap, plan_.min_gap);
  NBRAFT_CHECK_GE(plan_.max_duration, plan_.min_duration);
  NBRAFT_CHECK_GT(plan_.min_gap, 0);
  NBRAFT_CHECK_GT(plan_.min_duration, 0);
}

void Nemesis::Start() {
  NBRAFT_CHECK(!running_);
  running_ = true;
  ScheduleNext();
}

void Nemesis::Stop() { running_ = false; }

SimDuration Nemesis::DrawGap() {
  return static_cast<SimDuration>(rng_.NextInRange(plan_.min_gap,
                                                   plan_.max_gap));
}

SimDuration Nemesis::DrawDuration() {
  return static_cast<SimDuration>(
      rng_.NextInRange(plan_.min_duration, plan_.max_duration));
}

int Nemesis::MaxConcurrentCrashes() const {
  if (plan_.max_concurrent_crashes >= 0) return plan_.max_concurrent_crashes;
  return (cluster_->num_nodes() - 1) / 2;  // Always keep a quorum alive.
}

void Nemesis::ScheduleNext() {
  cluster_->sim()->After(DrawGap(), [this]() {
    if (!running_) return;
    InjectOne();
    ScheduleNext();
  });
}

void Nemesis::InjectOne() {
  const auto& mix = plan_.EffectiveMix();
  const FaultKind kind =
      mix[static_cast<size_t>(rng_.NextBounded(mix.size()))];
  const SimDuration duration = DrawDuration();
  switch (kind) {
    case FaultKind::kCrash:
      InjectCrash(/*target_leader=*/false, duration);
      break;
    case FaultKind::kCrashLeader:
      InjectCrash(/*target_leader=*/true, duration);
      break;
    case FaultKind::kPartition:
      InjectPartition(/*one_way=*/false, duration);
      break;
    case FaultKind::kOneWayPartition:
      InjectPartition(/*one_way=*/true, duration);
      break;
    case FaultKind::kLinkFlap:
      InjectLinkFlap(duration);
      break;
    case FaultKind::kDropStorm:
      InjectDropStorm(duration);
      break;
    case FaultKind::kDelayStorm:
      InjectDelayStorm(duration);
      break;
    case FaultKind::kClockSkew:
      InjectClockSkew(duration);
      break;
    case FaultKind::kSlowNode:
      InjectSlowNode(duration);
      break;
    case FaultKind::kDiskStall:
      InjectDiskStall(duration);
      break;
    case FaultKind::kDiskCorruption:
      InjectDiskCorruption(duration);
      break;
    case FaultKind::kDisruptiveServer:
      InjectDisruptiveServer(duration);
      break;
    case FaultKind::kVoteWithholder:
      InjectVoteWithholder(duration);
      break;
    case FaultKind::kElectionStorm:
      InjectElectionStorm(duration);
      break;
    case FaultKind::kMembershipChurn:
      InjectMembershipChurn(duration);
      break;
  }
}

void Nemesis::Record(FaultKind kind, bool heal, net::NodeId a, net::NodeId b,
                     int64_t param) {
  FaultRecord record;
  record.kind = kind;
  record.heal = heal;
  record.at = cluster_->sim()->Now();
  record.a = a;
  record.b = b;
  record.param = param;
  records_.push_back(record);
  NBRAFT_LOG(Debug) << "nemesis: " << FaultRecordToString(record);
  if (obs::Journal* journal = cluster_->journal()) {
    journal->Record(heal ? obs::JournalEventKind::kNemesisHeal
                         : obs::JournalEventKind::kNemesisFault,
                    a, b, static_cast<int64_t>(kind), param);
  }
}

net::NodeId Nemesis::PickUpNode() {
  std::vector<net::NodeId> up;
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    // Elastic clusters keep spare hosts unstarted; faulting them is a
    // no-op, so they are not in the draw (fixed rosters start everyone).
    if (cluster_->node(i)->started() && !cluster_->node(i)->crashed()) {
      up.push_back(i);
    }
  }
  if (up.empty()) return net::kInvalidNode;
  return up[static_cast<size_t>(rng_.NextBounded(up.size()))];
}

bool Nemesis::PickUpPair(net::NodeId* a, net::NodeId* b) {
  std::vector<net::NodeId> up;
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    if (cluster_->node(i)->started() && !cluster_->node(i)->crashed()) {
      up.push_back(i);
    }
  }
  if (up.size() < 2) return false;
  const size_t ia = static_cast<size_t>(rng_.NextBounded(up.size()));
  size_t ib = static_cast<size_t>(rng_.NextBounded(up.size() - 1));
  if (ib >= ia) ++ib;
  *a = up[ia];
  *b = up[ib];
  return true;
}

bool Nemesis::InjectCrash(bool target_leader, SimDuration duration) {
  if (crashed_count() >= MaxConcurrentCrashes()) return false;
  net::NodeId victim = net::kInvalidNode;
  if (target_leader) {
    if (raft::RaftNode* leader = cluster_->leader()) victim = leader->id();
  }
  if (victim == net::kInvalidNode) victim = PickUpNode();
  if (victim == net::kInvalidNode) return false;
  const FaultKind kind =
      target_leader ? FaultKind::kCrashLeader : FaultKind::kCrash;
  cluster_->CrashNode(victim);
  crashed_.insert(victim);
  Record(kind, /*heal=*/false, victim, net::kInvalidNode, duration);
  cluster_->sim()->After(duration, [this, kind, victim]() {
    if (crashed_.erase(victim) == 0) return;  // HealAll got there first.
    cluster_->RestartNode(victim);
    Record(kind, /*heal=*/true, victim, net::kInvalidNode, 0);
  });
  return true;
}

bool Nemesis::InjectPartition(bool one_way, SimDuration duration) {
  net::NodeId a, b;
  if (!PickUpPair(&a, &b)) return false;
  const FaultKind kind =
      one_way ? FaultKind::kOneWayPartition : FaultKind::kPartition;
  if (one_way) {
    cluster_->network()->SetOneWayCut(a, b, true);
  } else {
    cluster_->network()->SetLinkCut(a, b, true);
  }
  const uint64_t id = next_cut_id_++;
  active_cuts_.push_back({id, a, b, one_way});
  Record(kind, /*heal=*/false, a, b, duration);
  cluster_->sim()->After(duration, [this, kind, id]() {
    auto it = std::find_if(active_cuts_.begin(), active_cuts_.end(),
                           [id](const ActiveCut& c) { return c.id == id; });
    if (it == active_cuts_.end()) return;  // HealAll got there first.
    if (it->one_way) {
      cluster_->network()->SetOneWayCut(it->a, it->b, false);
    } else {
      cluster_->network()->SetLinkCut(it->a, it->b, false);
    }
    Record(kind, /*heal=*/true, it->a, it->b, 0);
    active_cuts_.erase(it);
  });
  return true;
}

bool Nemesis::InjectLinkFlap(SimDuration duration) {
  net::NodeId a, b;
  if (!PickUpPair(&a, &b)) return false;
  // The link toggles cut -> healed kFlapCycles times over `duration`, ending
  // healed. Intermediate toggles stop silently if the flap was healed.
  const SimDuration half =
      std::max<SimDuration>(duration / (2 * kFlapCycles), 1);
  cluster_->network()->SetLinkCut(a, b, true);
  const uint64_t id = next_cut_id_++;
  active_cuts_.push_back({id, a, b, /*one_way=*/false});
  Record(FaultKind::kLinkFlap, /*heal=*/false, a, b, kFlapCycles);
  for (int t = 1; t < 2 * kFlapCycles; ++t) {
    const bool cut = (t % 2) == 0;
    cluster_->sim()->After(half * t, [this, id, cut]() {
      auto it = std::find_if(active_cuts_.begin(), active_cuts_.end(),
                             [id](const ActiveCut& c) { return c.id == id; });
      if (it == active_cuts_.end()) return;
      cluster_->network()->SetLinkCut(it->a, it->b, cut);
    });
  }
  cluster_->sim()->After(half * (2 * kFlapCycles), [this, id]() {
    auto it = std::find_if(active_cuts_.begin(), active_cuts_.end(),
                           [id](const ActiveCut& c) { return c.id == id; });
    if (it == active_cuts_.end()) return;
    cluster_->network()->SetLinkCut(it->a, it->b, false);
    Record(FaultKind::kLinkFlap, /*heal=*/true, it->a, it->b, 0);
    active_cuts_.erase(it);
  });
  return true;
}

bool Nemesis::InjectDropStorm(SimDuration duration) {
  ++active_drop_storms_;
  cluster_->network()->set_drop_probability(kDropStormProbability);
  Record(FaultKind::kDropStorm, /*heal=*/false, net::kInvalidNode,
         net::kInvalidNode, static_cast<int64_t>(kDropStormProbability * 1000));
  cluster_->sim()->After(duration, [this]() {
    if (active_drop_storms_ == 0) return;  // HealAll got there first.
    if (--active_drop_storms_ == 0) {
      cluster_->network()->set_drop_probability(
          cluster_->config().network.drop_probability);
      Record(FaultKind::kDropStorm, /*heal=*/true, net::kInvalidNode,
             net::kInvalidNode, 0);
    }
  });
  return true;
}

bool Nemesis::InjectDelayStorm(SimDuration duration) {
  ++active_delay_storms_;
  cluster_->network()->set_extra_delay(kDelayStormExtra);
  Record(FaultKind::kDelayStorm, /*heal=*/false, net::kInvalidNode,
         net::kInvalidNode, kDelayStormExtra);
  cluster_->sim()->After(duration, [this]() {
    if (active_delay_storms_ == 0) return;
    if (--active_delay_storms_ == 0) {
      cluster_->network()->set_extra_delay(0);
      Record(FaultKind::kDelayStorm, /*heal=*/true, net::kInvalidNode,
             net::kInvalidNode, 0);
    }
  });
  return true;
}

bool Nemesis::InjectClockSkew(SimDuration duration) {
  const net::NodeId victim = PickUpNode();
  if (victim == net::kInvalidNode) return false;
  const double skew = kSkewMin + rng_.NextDouble() * (kSkewMax - kSkewMin);
  cluster_->SetTimerSkewAt(victim, skew);
  ++active_skew_[victim];
  Record(FaultKind::kClockSkew, /*heal=*/false, victim, net::kInvalidNode,
         static_cast<int64_t>(skew * 1000));
  cluster_->sim()->After(duration, [this, victim]() {
    auto it = active_skew_.find(victim);
    if (it == active_skew_.end()) return;
    if (--it->second == 0) {
      active_skew_.erase(it);
      cluster_->SetTimerSkewAt(victim, 1.0);
      Record(FaultKind::kClockSkew, /*heal=*/true, victim, net::kInvalidNode,
             0);
    }
  });
  return true;
}

bool Nemesis::InjectSlowNode(SimDuration duration) {
  const net::NodeId victim = PickUpNode();
  if (victim == net::kInvalidNode) return false;
  cluster_->SetCpuSpeedFactorAt(victim, kSlowFactor);
  ++active_slow_[victim];
  Record(FaultKind::kSlowNode, /*heal=*/false, victim, net::kInvalidNode,
         static_cast<int64_t>(kSlowFactor * 1000));
  cluster_->sim()->After(duration, [this, victim]() {
    auto it = active_slow_.find(victim);
    if (it == active_slow_.end()) return;
    if (--it->second == 0) {
      active_slow_.erase(it);
      cluster_->SetCpuSpeedFactorAt(victim, 1.0);
      Record(FaultKind::kSlowNode, /*heal=*/true, victim, net::kInvalidNode,
             0);
    }
  });
  return true;
}

bool Nemesis::InjectDiskStall(SimDuration duration) {
  const net::NodeId victim = PickUpNode();
  if (victim == net::kInvalidNode) return false;
  // Stalls every co-resident disk of the host (run may have none at all).
  if (!cluster_->SetDiskStallAt(victim, plan_.disk_stall_extra)) return false;
  ++active_disk_stall_[victim];
  Record(FaultKind::kDiskStall, /*heal=*/false, victim, net::kInvalidNode,
         plan_.disk_stall_extra);
  cluster_->sim()->After(duration, [this, victim]() {
    auto it = active_disk_stall_.find(victim);
    if (it == active_disk_stall_.end()) return;
    if (--it->second == 0) {
      active_disk_stall_.erase(it);
      cluster_->SetDiskStallAt(victim, 0);
      Record(FaultKind::kDiskStall, /*heal=*/true, victim, net::kInvalidNode,
             0);
    }
  });
  return true;
}

bool Nemesis::InjectDiskCorruption(SimDuration duration) {
  if (corruptions_injected_ >= kMaxDiskCorruptions) return false;
  if (crashed_count() >= MaxConcurrentCrashes()) return false;
  const net::NodeId victim = PickUpNode();
  if (victim == net::kInvalidNode) return false;
  // Rots the newest eligible record on each co-resident disk; false when
  // the run has no disks or nothing is eligible yet.
  if (!cluster_->CorruptDiskTailAt(victim)) return false;
  ++corruptions_injected_;
  // Crash the victim so its next recovery detects the rot, repairs the
  // image and enters heal quarantine.
  cluster_->CrashNode(victim);
  crashed_.insert(victim);
  Record(FaultKind::kDiskCorruption, /*heal=*/false, victim,
         net::kInvalidNode, duration);
  cluster_->sim()->After(duration, [this, victim]() {
    if (crashed_.erase(victim) == 0) return;  // HealAll got there first.
    cluster_->RestartNode(victim);
    Record(FaultKind::kDiskCorruption, /*heal=*/true, victim,
           net::kInvalidNode, 0);
  });
  return true;
}

void Nemesis::SetIsolated(net::NodeId victim, bool isolated) {
  for (int j = 0; j < cluster_->num_nodes(); ++j) {
    if (j == victim) continue;
    cluster_->network()->SetLinkCut(victim, j, isolated);
  }
}

bool Nemesis::InjectDisruptiveServer(SimDuration duration) {
  // The classic rejoining-partitioned-node attack: isolate a NON-leader so
  // its election timer keeps firing while it cannot win. Without PreVote
  // its term inflates once per timeout; the rejoin then forces the healthy
  // leader down. With PreVote the canvasses fail and nothing inflates.
  raft::RaftNode* leader = cluster_->leader();
  if (leader == nullptr) return false;
  std::vector<net::NodeId> eligible;
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    if (i == leader->id() || !cluster_->node(i)->started() ||
        cluster_->node(i)->crashed()) {
      continue;
    }
    const auto already = [i](const ActiveIsolation& iso) {
      return iso.victim == i;
    };
    if (std::find_if(active_isolations_.begin(), active_isolations_.end(),
                     already) != active_isolations_.end()) {
      continue;
    }
    eligible.push_back(i);
  }
  if (eligible.empty()) return false;
  const net::NodeId victim =
      eligible[static_cast<size_t>(rng_.NextBounded(eligible.size()))];
  SetIsolated(victim, true);
  const uint64_t id = next_cut_id_++;
  active_isolations_.push_back({id, victim, FaultKind::kDisruptiveServer});
  Record(FaultKind::kDisruptiveServer, /*heal=*/false, victim,
         net::kInvalidNode, duration);
  cluster_->sim()->After(duration, [this, id]() {
    auto it = std::find_if(
        active_isolations_.begin(), active_isolations_.end(),
        [id](const ActiveIsolation& iso) { return iso.id == id; });
    if (it == active_isolations_.end()) return;  // HealAll got there first.
    SetIsolated(it->victim, false);
    Record(FaultKind::kDisruptiveServer, /*heal=*/true, it->victim,
           net::kInvalidNode, 0);
    active_isolations_.erase(it);
  });
  return true;
}

bool Nemesis::InjectVoteWithholder(SimDuration duration) {
  const net::NodeId victim = PickUpNode();
  if (victim == net::kInvalidNode) return false;
  cluster_->SetWithholdVotesAt(victim, true);
  ++active_withhold_[victim];
  Record(FaultKind::kVoteWithholder, /*heal=*/false, victim,
         net::kInvalidNode, duration);
  cluster_->sim()->After(duration, [this, victim]() {
    auto it = active_withhold_.find(victim);
    if (it == active_withhold_.end()) return;
    if (--it->second == 0) {
      active_withhold_.erase(it);
      cluster_->SetWithholdVotesAt(victim, false);
      Record(FaultKind::kVoteWithholder, /*heal=*/true, victim,
             net::kInvalidNode, 0);
    }
  });
  return true;
}

bool Nemesis::InjectElectionStorm(SimDuration duration) {
  // Repeated-partition schedule: every cycle isolates whoever is leader at
  // that moment for half a cycle, forcing the rest to elect, then rejoins
  // it. Ends healed. One inject/heal record pair (like kLinkFlap), so the
  // fault fingerprint stays schedule-shaped, not leader-identity-shaped.
  raft::RaftNode* leader = cluster_->leader();
  if (leader == nullptr) return false;
  const SimDuration half =
      std::max<SimDuration>(duration / (2 * kStormCycles), 1);
  const net::NodeId first_victim = leader->id();
  SetIsolated(first_victim, true);
  const uint64_t id = next_cut_id_++;
  active_isolations_.push_back({id, first_victim, FaultKind::kElectionStorm});
  Record(FaultKind::kElectionStorm, /*heal=*/false, first_victim,
         net::kInvalidNode, kStormCycles);
  for (int t = 1; t < 2 * kStormCycles; ++t) {
    const bool cut = (t % 2) == 0;
    cluster_->sim()->After(half * t, [this, id, cut]() {
      auto it = std::find_if(
          active_isolations_.begin(), active_isolations_.end(),
          [id](const ActiveIsolation& iso) { return iso.id == id; });
      if (it == active_isolations_.end()) return;
      if (cut) {
        if (raft::RaftNode* l = cluster_->leader()) {
          it->victim = l->id();
          SetIsolated(it->victim, true);
        } else {
          it->victim = net::kInvalidNode;  // No leader to attack this cycle.
        }
      } else {
        if (it->victim != net::kInvalidNode) SetIsolated(it->victim, false);
        it->victim = net::kInvalidNode;
      }
    });
  }
  cluster_->sim()->After(half * (2 * kStormCycles), [this, id]() {
    auto it = std::find_if(
        active_isolations_.begin(), active_isolations_.end(),
        [id](const ActiveIsolation& iso) { return iso.id == id; });
    if (it == active_isolations_.end()) return;
    if (it->victim != net::kInvalidNode) SetIsolated(it->victim, false);
    Record(FaultKind::kElectionStorm, /*heal=*/true, it->victim,
           net::kInvalidNode, 0);
    active_isolations_.erase(it);
  });
  return true;
}

bool Nemesis::InjectMembershipChurn(SimDuration duration) {
  // Shrink-then-regrow: drop a non-leader voter out of a random group's
  // configuration via joint consensus, then add the host back as a learner
  // when the fault heals — the leader's recovery STM drives catch-up and
  // re-promotion to voter.
  if (cluster_->config().initial_voters <= 0) return false;
  const int group = static_cast<int>(
      rng_.NextBounded(static_cast<size_t>(cluster_->num_groups())));
  raft::RaftNode* leader = cluster_->leader(group);
  if (leader == nullptr || !leader->membership()->active()) return false;
  if (leader->membership()->ChangeInFlight()) return false;
  const raft::Configuration& config = leader->membership()->config();
  // Never shrink below 3 voters: removing from a 2-voter roster leaves a
  // singleton quorum, and the point of this fault is churn, not collapse.
  if (config.voters.size() < 3) return false;
  std::vector<int> eligible;
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    raft::RaftNode* replica = cluster_->node(group, i);
    if (!replica->started() || replica->crashed()) continue;
    if (replica->id() == leader->id()) continue;
    if (!config.IsVoter(replica->id())) continue;
    const auto pending = [group, i](const ActiveChurn& c) {
      return c.group == group && c.host == i;
    };
    if (std::find_if(active_churn_.begin(), active_churn_.end(), pending) !=
        active_churn_.end()) {
      continue;
    }
    eligible.push_back(i);
  }
  if (eligible.empty()) return false;
  const int victim =
      eligible[static_cast<size_t>(rng_.NextBounded(eligible.size()))];
  if (!cluster_->RemoveNode(group, victim)) return false;
  const uint64_t id = next_cut_id_++;
  active_churn_.push_back({id, group, victim});
  Record(FaultKind::kMembershipChurn, /*heal=*/false, victim, group, duration);
  cluster_->sim()->After(duration,
                         [this, id]() { ReaddChurned(id, /*attempts_left=*/16); });
  return true;
}

void Nemesis::ReaddChurned(uint64_t id, int attempts_left) {
  auto it = std::find_if(active_churn_.begin(), active_churn_.end(),
                         [id](const ActiveChurn& c) { return c.id == id; });
  if (it == active_churn_.end()) return;  // HealAll got there first.
  if (cluster_->AddNode(it->group, it->host)) {
    Record(FaultKind::kMembershipChurn, /*heal=*/true, it->host, it->group, 0);
    active_churn_.erase(it);
    return;
  }
  if (attempts_left <= 1) {
    // Leaderless too long or changes kept colliding; the roster stays one
    // voter smaller, which is degraded but safe.
    Record(FaultKind::kMembershipChurn, /*heal=*/true, it->host, it->group,
           -1);
    active_churn_.erase(it);
    return;
  }
  cluster_->sim()->After(Millis(50), [this, id, attempts_left]() {
    ReaddChurned(id, attempts_left - 1);
  });
}

void Nemesis::HealAll() {
  for (net::NodeId victim : crashed_) {
    cluster_->RestartNode(victim);
    Record(FaultKind::kCrash, /*heal=*/true, victim, net::kInvalidNode, 0);
  }
  crashed_.clear();
  for (const ActiveCut& cut : active_cuts_) {
    if (cut.one_way) {
      cluster_->network()->SetOneWayCut(cut.a, cut.b, false);
    } else {
      cluster_->network()->SetLinkCut(cut.a, cut.b, false);
    }
    Record(cut.one_way ? FaultKind::kOneWayPartition : FaultKind::kPartition,
           /*heal=*/true, cut.a, cut.b, 0);
  }
  active_cuts_.clear();
  for (const ActiveIsolation& iso : active_isolations_) {
    if (iso.victim != net::kInvalidNode) SetIsolated(iso.victim, false);
    Record(iso.kind, /*heal=*/true, iso.victim, net::kInvalidNode, 0);
  }
  active_isolations_.clear();
  for (const auto& [victim, count] : active_withhold_) {
    cluster_->SetWithholdVotesAt(victim, false);
    Record(FaultKind::kVoteWithholder, /*heal=*/true, victim,
           net::kInvalidNode, 0);
  }
  active_withhold_.clear();
  if (active_drop_storms_ > 0) {
    active_drop_storms_ = 0;
    cluster_->network()->set_drop_probability(
        cluster_->config().network.drop_probability);
    Record(FaultKind::kDropStorm, /*heal=*/true, net::kInvalidNode,
           net::kInvalidNode, 0);
  }
  if (active_delay_storms_ > 0) {
    active_delay_storms_ = 0;
    cluster_->network()->set_extra_delay(0);
    Record(FaultKind::kDelayStorm, /*heal=*/true, net::kInvalidNode,
           net::kInvalidNode, 0);
  }
  for (const auto& [victim, count] : active_skew_) {
    cluster_->SetTimerSkewAt(victim, 1.0);
    Record(FaultKind::kClockSkew, /*heal=*/true, victim, net::kInvalidNode,
           0);
  }
  active_skew_.clear();
  for (const auto& [victim, count] : active_slow_) {
    cluster_->SetCpuSpeedFactorAt(victim, 1.0);
    Record(FaultKind::kSlowNode, /*heal=*/true, victim, net::kInvalidNode,
           0);
  }
  active_slow_.clear();
  for (const auto& [victim, count] : active_disk_stall_) {
    cluster_->SetDiskStallAt(victim, 0);
    Record(FaultKind::kDiskStall, /*heal=*/true, victim, net::kInvalidNode,
           0);
  }
  active_disk_stall_.clear();
  for (const ActiveChurn& churn : active_churn_) {
    // Best-effort re-add: the runner's post-heal AwaitLeader + drain give
    // the proposal room to land; failure leaves a smaller, still-safe
    // roster (param -1 marks the give-up, as in ReaddChurned).
    const bool ok = cluster_->AddNode(churn.group, churn.host);
    Record(FaultKind::kMembershipChurn, /*heal=*/true, churn.host,
           churn.group, ok ? 0 : -1);
  }
  active_churn_.clear();
}

}  // namespace nbraft::chaos
