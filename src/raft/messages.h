#ifndef NBRAFT_RAFT_MESSAGES_H_
#define NBRAFT_RAFT_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "net/network.h"
#include "obs/journal.h"
#include "raft/types.h"
#include "storage/log_entry.h"

namespace nbraft::raft {

// The closed set of RPCs. Each struct is the one place that knows its
// modelled wire size (WireSize()) and its journal kind (rpc());
// NodeContext::SendTo reads both off the message it sends.

/// AppendEntries RPC. Each dispatcher is a synchronous RPC lane (paper
/// Fig. 3) carrying `entry`; heartbeats are empty RPCs that also carry the
/// commit index.
struct AppendEntriesRequest {
  storage::Term term = 0;
  net::NodeId leader = net::kInvalidNode;
  uint64_t rpc_id = 0;  ///< Correlates the response with its dispatcher.

  bool is_heartbeat = false;
  storage::LogEntry entry;  ///< Valid when !is_heartbeat.
  storage::LogIndex leader_commit = 0;
  /// Term of the leader's entry at leader_commit: lets a follower verify
  /// its log matches before advancing its commit index off a heartbeat.
  storage::Term commit_term = 0;

  /// KRaft: nodes this receiver must forward the request to.
  std::vector<net::NodeId> relay_to;

  /// VGRaft: request carries a digest + signature the receiver verifies.
  bool signed_payload = false;

  /// Modelled wire size.
  size_t WireSize() const {
    return (is_heartbeat ? 0 : entry.WireSize()) + 64 + relay_to.size() * 4 +
           (signed_payload ? 96 : 0);
  }
  obs::JournalRpc rpc() const {
    return is_heartbeat ? obs::JournalRpc::kHeartbeat
                        : obs::JournalRpc::kAppendEntries;
  }
};

/// Response to AppendEntries, covering all the paper's reply kinds.
///
///  * kStrongAccept: `last_index`/`last_term` name the follower's last
///    appended entry — the leader marks every tuple <= last_index strong
///    (Sec. III-B3b) and detects leader change via last_term
///    (Sec. III-B3a).
///  * kWeakAccept: `entry_index` names the cached entry (Sec. III-B2).
///  * kLogMismatch: `last_index` is the follower's last appended index, a
///    resend hint.
struct AppendEntriesResponse {
  storage::Term term = 0;
  net::NodeId from = net::kInvalidNode;
  uint64_t rpc_id = 0;
  AcceptState state = AcceptState::kStrongAccept;
  storage::LogIndex entry_index = 0;  ///< Index the RPC carried (0 for hb).
  storage::LogIndex last_index = 0;
  storage::Term last_term = 0;
  bool is_heartbeat = false;

  size_t WireSize() const { return 64; }
  obs::JournalRpc rpc() const { return obs::JournalRpc::kAppendEntriesResp; }
};

struct RequestVoteRequest {
  storage::Term term = 0;
  net::NodeId candidate = net::kInvalidNode;
  storage::LogIndex last_log_index = 0;
  storage::Term last_log_term = 0;
  /// PreVote canvass (RaftOptions::pre_vote): `term` is the *prospective*
  /// term (current + 1) the candidate would campaign in. A pre-vote
  /// grant is non-binding — the voter persists nothing and its
  /// voted_for is untouched.
  bool pre_vote = false;

  size_t WireSize() const { return 64; }
  obs::JournalRpc rpc() const { return obs::JournalRpc::kRequestVote; }
};

struct RequestVoteResponse {
  storage::Term term = 0;
  net::NodeId from = net::kInvalidNode;
  bool granted = false;
  bool pre_vote = false;  ///< Echoes the request's pre_vote flag.

  size_t WireSize() const { return 48; }
  obs::JournalRpc rpc() const { return obs::JournalRpc::kRequestVoteResp; }
};

/// Leader -> lagging follower: full state-machine snapshot replacing the
/// follower's log prefix (sent when the entries a follower needs were
/// already compacted away).
struct InstallSnapshotRequest {
  storage::Term term = 0;
  net::NodeId leader = net::kInvalidNode;
  uint64_t rpc_id = 0;
  storage::LogIndex last_included_index = 0;
  storage::Term last_included_term = 0;
  std::string data;  ///< StateMachine::Snapshot() bytes.
  /// Encoded Configuration in effect at last_included_index (dynamic
  /// membership only; a fresh learner bootstrapped by snapshot must learn
  /// the roster too). Empty on fixed rosters — and then wire-free.
  std::string config;

  size_t WireSize() const { return data.size() + config.size() + 96; }
  obs::JournalRpc rpc() const { return obs::JournalRpc::kInstallSnapshot; }
};

struct InstallSnapshotResponse {
  storage::Term term = 0;
  net::NodeId from = net::kInvalidNode;
  uint64_t rpc_id = 0;
  bool installed = false;
  storage::LogIndex last_index = 0;  ///< Follower log end after install.

  size_t WireSize() const { return 64; }
  obs::JournalRpc rpc() const {
    return obs::JournalRpc::kInstallSnapshotResp;
  }
};

/// A client write request (one IoT ingestion batch).
struct ClientRequest {
  net::NodeId client = net::kInvalidNode;
  uint64_t request_id = 0;
  /// Shared with the client's retry copy and, on the leader, with the log
  /// entry it becomes — one allocation end to end.
  nbraft::Buffer payload;

  size_t WireSize() const { return payload.size() + 48; }
  obs::JournalRpc rpc() const { return obs::JournalRpc::kClientRequest; }
};

/// Leader -> client reply (Sec. III-C): WEAK_ACCEPT unblocks the client's
/// next request; STRONG_ACCEPT confirms commit of everything up to `index`.
struct ClientResponse {
  AcceptState state = AcceptState::kStrongAccept;
  uint64_t request_id = 0;
  storage::LogIndex index = 0;
  storage::Term term = 0;
  net::NodeId leader_hint = net::kInvalidNode;

  size_t WireSize() const { return 64; }
  obs::JournalRpc rpc() const { return obs::JournalRpc::kClientResponse; }
};

/// Leader -> chosen successor: leadership transfer (graceful drain). The
/// target skips the election timeout (and any PreVote canvass) and
/// campaigns immediately; with an up-to-date target the handoff completes
/// in one round trip of vote traffic.
struct TimeoutNowRequest {
  storage::Term term = 0;
  net::NodeId leader = net::kInvalidNode;

  size_t WireSize() const { return 48; }
  obs::JournalRpc rpc() const { return obs::JournalRpc::kTimeoutNow; }
};

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_MESSAGES_H_
