#include "obs/journal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/logging.h"
#include "obs/output_file.h"

namespace nbraft::obs {

namespace {

std::string DefaultName(int32_t id) {
  if (id < 0) return "cluster";
  return "node " + std::to_string(id);
}

}  // namespace

const char* JournalRpcName(JournalRpc rpc) {
  switch (rpc) {
    case JournalRpc::kAppendEntries:
      return "append_entries";
    case JournalRpc::kHeartbeat:
      return "heartbeat";
    case JournalRpc::kAppendEntriesResp:
      return "append_entries_resp";
    case JournalRpc::kRequestVote:
      return "request_vote";
    case JournalRpc::kRequestVoteResp:
      return "request_vote_resp";
    case JournalRpc::kClientRequest:
      return "client_request";
    case JournalRpc::kClientResponse:
      return "client_response";
    case JournalRpc::kInstallSnapshot:
      return "install_snapshot";
    case JournalRpc::kInstallSnapshotResp:
      return "install_snapshot_resp";
    case JournalRpc::kTimeoutNow:
      return "timeout_now";
    case JournalRpc::kUnknown:
      break;
  }
  return "unknown";
}

const char* Journal::KindName(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::kRoleChange:
      return "raft.role_change";
    case JournalEventKind::kTermChange:
      return "raft.term_change";
    case JournalEventKind::kElectionStart:
      return "raft.election_start";
    case JournalEventKind::kLeaderElected:
      return "raft.leader_elected";
    case JournalEventKind::kStepDown:
      return "raft.step_down";
    case JournalEventKind::kPreVoteStart:
      return "election.prevote_start";
    case JournalEventKind::kPreVoteGrant:
      return "election.prevote_grant";
    case JournalEventKind::kPreVoteReject:
      return "election.prevote_reject";
    case JournalEventKind::kLeaseReject:
      return "election.lease_reject";
    case JournalEventKind::kQuorumLost:
      return "election.quorum_lost";
    case JournalEventKind::kRpcSend:
      return "net.msg_send";
    case JournalEventKind::kRpcRecv:
      return "net.msg_recv";
    case JournalEventKind::kRpcDrop:
      return "net.msg_drop";
    case JournalEventKind::kWindowInsert:
      return "raft.window_insert";
    case JournalEventKind::kWindowEvict:
      return "raft.window_evict";
    case JournalEventKind::kWindowFlush:
      return "raft.window_flush";
    case JournalEventKind::kCommitAdvance:
      return "raft.commit_advance";
    case JournalEventKind::kApplyAdvance:
      return "raft.apply_advance";
    case JournalEventKind::kDiskWrite:
      return "storage.record_write";
    case JournalEventKind::kDiskFsync:
      return "storage.fsync_complete";
    case JournalEventKind::kStorageFailure:
      return "storage.failure_surface";
    case JournalEventKind::kCrash:
      return "raft.node_crash";
    case JournalEventKind::kRestart:
      return "raft.node_restart";
    case JournalEventKind::kRecovery:
      return "storage.state_recover";
    case JournalEventKind::kNemesisFault:
      return "chaos.fault_inject";
    case JournalEventKind::kNemesisHeal:
      return "chaos.fault_heal";
    case JournalEventKind::kViolation:
      return "chaos.invariant_violate";
    case JournalEventKind::kConfigPropose:
      return "membership.config_propose";
    case JournalEventKind::kConfigJoint:
      return "membership.joint_enter";
    case JournalEventKind::kConfigCommit:
      return "membership.config_commit";
    case JournalEventKind::kLearnerAdd:
      return "membership.learner_add";
    case JournalEventKind::kLearnerPromote:
      return "membership.learner_promote";
    case JournalEventKind::kTransferStart:
      return "membership.transfer_start";
    case JournalEventKind::kTransferDone:
      return "membership.transfer_done";
    case JournalEventKind::kClientWeakAccept:
      return "client.weak_accept";
    case JournalEventKind::kClientStrongAccept:
      return "client.strong_accept";
    case JournalEventKind::kClientRetryAll:
      return "client.retry_all";
    case JournalEventKind::kNumKinds:
      break;
  }
  return "obs.unknown_event";
}

Journal::Journal(const sim::Simulator* sim, int num_nodes, Options options)
    : sim_(sim), num_nodes_(num_nodes) {
  NBRAFT_CHECK_GE(num_nodes, 0);
  NBRAFT_CHECK_GT(options.per_node_capacity, 0u);
  rings_.resize(static_cast<size_t>(num_nodes) + 2);
  for (Ring& ring : rings_) {
    ring.slots.resize(options.per_node_capacity);
  }
}

void Journal::Record(JournalEventKind kind, int32_t node, int32_t peer,
                     int64_t a, int64_t b) {
  RecordAt(sim_ != nullptr ? sim_->Now() : 0, kind, node, peer, a, b);
}

void Journal::RecordAt(SimTime at, JournalEventKind kind, int32_t node,
                       int32_t peer, int64_t a, int64_t b) {
  int32_t ring_index = node;
  if (node < 0) {
    ring_index = num_nodes_;  // cluster-level
  } else if (node >= num_nodes_) {
    ring_index = num_nodes_ + 1;  // client endpoints
  }
  Ring& ring = rings_[static_cast<size_t>(ring_index)];
  if (ring.written >= ring.slots.size()) ++dropped_;
  ring.slots[ring.head] = JournalEvent{at, next_seq_++, kind, node, peer,
                                       a,  b};
  ring.head = (ring.head + 1) % ring.slots.size();
  ++ring.written;
  ++recorded_;
}

const Journal::Ring& Journal::RingFor(int node) const {
  NBRAFT_CHECK_GE(node, 0);
  NBRAFT_CHECK_LT(static_cast<size_t>(node), rings_.size());
  return rings_[static_cast<size_t>(node)];
}

std::vector<JournalEvent> Journal::NodeEvents(int node) const {
  const Ring& ring = RingFor(node);
  const size_t n = ring.retained();
  std::vector<JournalEvent> out;
  out.reserve(n);
  const size_t start = ring.written < ring.slots.size() ? 0 : ring.head;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring.slots[(start + i) % ring.slots.size()]);
  }
  return out;
}

std::vector<JournalEvent> Journal::MergedEvents() const {
  std::vector<JournalEvent> out;
  size_t total = 0;
  for (const Ring& ring : rings_) total += ring.retained();
  out.reserve(total);
  for (size_t r = 0; r < rings_.size(); ++r) {
    std::vector<JournalEvent> events = NodeEvents(static_cast<int>(r));
    out.insert(out.end(), events.begin(), events.end());
  }
  // seq is globally unique and monotone with virtual time (the simulator
  // is single-threaded), so this is both time order and causal order.
  std::sort(out.begin(), out.end(),
            [](const JournalEvent& x, const JournalEvent& y) {
              return x.seq < y.seq;
            });
  return out;
}

Status Journal::WriteJsonl(const std::string& path, SimTime cutoff,
                           SimDuration lookback) const {
  OutputFile f(path);
  if (f.get() == nullptr) {
    return Status::IoError("cannot open journal dump " + path);
  }
  const SimTime from = lookback > 0 ? cutoff - lookback : 0;
  const std::vector<JournalEvent> events = MergedEvents();
  size_t emitted = 0;
  for (const JournalEvent& e : events) {
    if (e.at < from || e.at > cutoff) continue;
    ++emitted;
  }
  std::fprintf(f.get(),
               "{\"type\":\"meta\",\"events_recorded\":%" PRIu64
               ",\"events_dropped\":%" PRIu64
               ",\"events_emitted\":%zu,\"window_from_ns\":%" PRId64
               ",\"window_to_ns\":%" PRId64 "}\n",
               recorded_, dropped_, emitted, from, cutoff);
  for (const JournalEvent& e : events) {
    if (e.at < from || e.at > cutoff) continue;
    // Group stamp, only in sharded clusters (resolver set): single-group
    // dumps stay byte-identical to the pre-sharding format.
    char group[32] = "";
    if (group_resolver_) {
      const int32_t g = group_resolver_(e.node);
      if (g >= 0) std::snprintf(group, sizeof(group), ",\"group\":%d", g);
    }
    if (e.kind == JournalEventKind::kRpcSend ||
        e.kind == JournalEventKind::kRpcRecv) {
      std::fprintf(f.get(),
                   "{\"type\":\"event\",\"seq\":%" PRIu64
                   ",\"at_ns\":%" PRId64
                   ",\"kind\":\"%s\",\"node\":%d,\"peer\":%d,"
                   "\"rpc\":\"%s\",\"bytes\":%" PRId64 "%s}\n",
                   e.seq, e.at, KindName(e.kind), e.node, e.peer,
                   JournalRpcName(static_cast<JournalRpc>(e.a)), e.b, group);
    } else {
      std::fprintf(f.get(),
                   "{\"type\":\"event\",\"seq\":%" PRIu64
                   ",\"at_ns\":%" PRId64
                   ",\"kind\":\"%s\",\"node\":%d,\"peer\":%d,"
                   "\"a\":%" PRId64 ",\"b\":%" PRId64 "%s}\n",
                   e.seq, e.at, KindName(e.kind), e.node, e.peer, e.a, e.b,
                   group);
    }
  }
  return f.Close();
}

std::string Journal::FormatEvent(const JournalEvent& e,
                                 const EndpointNamer& namer) {
  const auto name_of = [&namer](int32_t id) {
    return namer ? namer(id) : DefaultName(id);
  };
  char stamp[64];
  std::snprintf(stamp, sizeof(stamp), "[%14.6f ms] ",
                static_cast<double>(e.at) / 1e6);
  std::string line = stamp;
  line += name_of(e.node) + ": ";
  switch (e.kind) {
    case JournalEventKind::kRoleChange: {
      const char* role = e.a == 3   ? "learner"
                         : e.a == 2 ? "leader"
                         : e.a == 1 ? "candidate"
                                    : "follower";
      line += "role -> " + std::string(role) + " (term " +
              std::to_string(e.b) + ")";
      break;
    }
    case JournalEventKind::kTermChange:
      line += "term " + std::to_string(e.a) + " -> " + std::to_string(e.b);
      break;
    case JournalEventKind::kElectionStart:
      line += "starts election, term " + std::to_string(e.a);
      break;
    case JournalEventKind::kLeaderElected:
      line += "ELECTED LEADER, term " + std::to_string(e.a);
      break;
    case JournalEventKind::kStepDown:
      line += std::string(e.b != 0 ? "steps down from leadership"
                                   : "steps down") +
              ", term " + std::to_string(e.a);
      break;
    case JournalEventKind::kPreVoteStart:
      line += "starts pre-vote canvass for term " + std::to_string(e.a);
      break;
    case JournalEventKind::kPreVoteGrant:
      line += "grants pre-vote to " + name_of(e.peer) + " for term " +
              std::to_string(e.a);
      break;
    case JournalEventKind::kPreVoteReject:
      line += "rejects pre-vote from " + name_of(e.peer) + " for term " +
              std::to_string(e.a);
      break;
    case JournalEventKind::kLeaseReject:
      line += std::string("lease holds: rejects ") +
              (e.b != 0 ? "pre-vote" : "vote") + " from " + name_of(e.peer) +
              " at term " + std::to_string(e.a);
      break;
    case JournalEventKind::kQuorumLost:
      line += "QUORUM LOST as leader, term " + std::to_string(e.a) + " (" +
              std::to_string(e.b) + " responsive)";
      break;
    case JournalEventKind::kRpcSend:
      line += "send " +
              std::string(JournalRpcName(static_cast<JournalRpc>(e.a))) +
              " -> " + name_of(e.peer) + " (" + std::to_string(e.b) + " B)";
      break;
    case JournalEventKind::kRpcRecv:
      line += "recv " +
              std::string(JournalRpcName(static_cast<JournalRpc>(e.a))) +
              " <- " + name_of(e.peer) + " (" + std::to_string(e.b) + " B)";
      break;
    case JournalEventKind::kRpcDrop:
      line += "DROP -> " + name_of(e.peer) + " (" + std::to_string(e.b) +
              " B)";
      break;
    case JournalEventKind::kWindowInsert:
      line += "window insert idx " + std::to_string(e.a) + " (occ " +
              std::to_string(e.b) + ")";
      break;
    case JournalEventKind::kWindowEvict:
      line += "window evict idx " + std::to_string(e.a) + " (occ " +
              std::to_string(e.b) + ")";
      break;
    case JournalEventKind::kWindowFlush:
      line += "window flush from idx " + std::to_string(e.a) + " x" +
              std::to_string(e.b);
      break;
    case JournalEventKind::kCommitAdvance:
      line += "commit -> " + std::to_string(e.a) + " (+" +
              std::to_string(e.b) + ")";
      break;
    case JournalEventKind::kApplyAdvance:
      line += "applied -> " + std::to_string(e.a);
      break;
    case JournalEventKind::kDiskWrite:
      line += "disk write " + std::to_string(e.a) + " B (frontier " +
              std::to_string(e.b) + ")";
      break;
    case JournalEventKind::kDiskFsync:
      line += "fsync complete, durable frontier " + std::to_string(e.a) +
              " (" + std::to_string(e.b) + " ns)";
      break;
    case JournalEventKind::kStorageFailure:
      line += std::string("STORAGE FAILURE -> ") +
              (e.a != 0 ? "step down" : "halt");
      break;
    case JournalEventKind::kCrash:
      line += "CRASH";
      if (e.b != 0) line += " (durable image survives)";
      break;
    case JournalEventKind::kRestart:
      line += "restart";
      break;
    case JournalEventKind::kRecovery:
      line += "recovered through idx " + std::to_string(e.a);
      if (e.b != 0) line += " QUARANTINED (corruption repaired)";
      break;
    case JournalEventKind::kNemesisFault:
      line += "nemesis fault kind " + std::to_string(e.a);
      if (e.peer >= 0) line += " with " + name_of(e.peer);
      line += " param " + std::to_string(e.b);
      break;
    case JournalEventKind::kNemesisHeal:
      line += "nemesis heal kind " + std::to_string(e.a);
      break;
    case JournalEventKind::kViolation:
      line += "!!! INVARIANT VIOLATION #" + std::to_string(e.a) + " !!!";
      break;
    case JournalEventKind::kConfigPropose:
      line += std::string("proposes ") + (e.b != 0 ? "joint " : "") +
              "config at idx " + std::to_string(e.a);
      break;
    case JournalEventKind::kConfigJoint:
      line += "enters joint config at idx " + std::to_string(e.a) + " (" +
              std::to_string(e.b) + " new voters)";
      break;
    case JournalEventKind::kConfigCommit:
      line += "config committed at idx " + std::to_string(e.a) + " (" +
              std::to_string(e.b) + " voters)";
      break;
    case JournalEventKind::kLearnerAdd:
      line += "adds learner " + name_of(e.peer) + " at idx " +
              std::to_string(e.a);
      break;
    case JournalEventKind::kLearnerPromote:
      line += "promotes learner " + name_of(e.peer) + " at idx " +
              std::to_string(e.a);
      break;
    case JournalEventKind::kTransferStart:
      line += "transfers leadership to " + name_of(e.peer) + ", term " +
              std::to_string(e.a);
      break;
    case JournalEventKind::kTransferDone:
      line += "leadership transfer complete, term " + std::to_string(e.a);
      break;
    case JournalEventKind::kClientWeakAccept:
      line += "weak accept of request " + std::to_string(e.b) + " at idx " +
              std::to_string(e.a);
      break;
    case JournalEventKind::kClientStrongAccept:
      line += "strong accept through idx " + std::to_string(e.a);
      break;
    case JournalEventKind::kClientRetryAll:
      line += "retries " + std::to_string(e.a) + " weakly accepted requests";
      break;
    case JournalEventKind::kNumKinds:
      line += "?";
      break;
  }
  return line;
}

Status Journal::WriteTimeline(const std::string& path, SimTime cutoff,
                              SimDuration lookback,
                              const EndpointNamer& namer) const {
  OutputFile f(path);
  if (f.get() == nullptr) {
    return Status::IoError("cannot open timeline " + path);
  }
  const SimTime from = lookback > 0 ? cutoff - lookback : 0;
  std::fprintf(f.get(),
               "# flight-recorder timeline: %" PRIu64 " events recorded, %" PRIu64
               " overwritten; window [%" PRId64 ", %" PRId64 "] ns\n",
               recorded_, dropped_, from, cutoff);
  for (const JournalEvent& e : MergedEvents()) {
    if (e.at < from || e.at > cutoff) continue;
    std::fputs(FormatEvent(e, namer).c_str(), f.get());
    std::fputc('\n', f.get());
  }
  return f.Close();
}

}  // namespace nbraft::obs
