#ifndef NBRAFT_STORAGE_LOG_ENTRY_H_
#define NBRAFT_STORAGE_LOG_ENTRY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/buffer.h"
#include "common/result.h"
#include "common/status.h"
#include "net/network.h"

namespace nbraft::storage {

/// Monotone log position; index 0 is the sentinel "before the log".
using LogIndex = int64_t;
/// Raft term; term 0 is the sentinel for the empty-log position.
using Term = int64_t;

/// One replicated log entry.
///
/// Besides the classic Raft fields (index, term), NB-Raft entries carry
/// `prev_term` — the term of the immediately preceding entry — which the
/// follower's sliding window uses for its continuity checks (paper
/// Sec. III-A: an entry (i, j, k) where k is the previous entry's term).
struct LogEntry {
  LogIndex index = 0;
  Term term = 0;
  Term prev_term = 0;

  /// Originating client connection and its per-client sequence number;
  /// used for response routing and the data-loss accounting of Sec. V-G.
  net::NodeId client_id = net::kInvalidNode;
  uint64_t request_id = 0;

  /// Opaque command bytes applied to the state machine. For CRaft
  /// replicas this is one Reed–Solomon shard of the original command.
  /// Ref-counted and immutable: copying an entry (per-peer RPC fan-out,
  /// batches, retries, the follower's sliding window) shares the bytes.
  nbraft::Buffer payload;

  /// CRaft fragment metadata: shard id (-1 = not a fragment), the number of
  /// data shards `k` needed for reconstruction, and the original command
  /// size.
  int32_t frag_shard = -1;
  uint32_t frag_k = 0;
  uint64_t full_size = 0;

  /// When long benchmark runs release applied payload bytes to bound
  /// memory, this keeps the modelled size so re-sends stay realistic.
  uint64_t payload_size_hint = 0;

  bool IsFragment() const { return frag_shard >= 0; }

  /// Modelled wire size: payload plus header overhead. Drives the network
  /// bandwidth simulation.
  size_t WireSize() const {
    const size_t bytes =
        payload.size() > payload_size_hint ? payload.size()
                                           : payload_size_hint;
    return bytes + kHeaderOverhead;
  }

  /// Releases this entry's payload reference while keeping the modelled
  /// size (the bytes are freed once every sharing copy has released too).
  void ReleasePayload() {
    if (payload.size() > payload_size_hint) payload_size_hint = payload.size();
    payload.clear();
  }

  /// Serializes to a self-delimiting binary record with a CRC32C trailer.
  void EncodeTo(std::string* out) const;

  /// Exact byte size of EncodeTo's output, computed without encoding. The
  /// simulated disk counts bytes written and sizes torn tails from this.
  size_t EncodedSize() const;

  /// Decodes one record from the front of `*in`, advancing it.
  static Result<LogEntry> DecodeFrom(std::string_view* in);

  /// Entry identity as the paper draws it: "(index, term, prev_term)".
  std::string ToString() const;

  friend bool operator==(const LogEntry& a, const LogEntry& b) {
    return a.index == b.index && a.term == b.term &&
           a.prev_term == b.prev_term && a.client_id == b.client_id &&
           a.request_id == b.request_id && a.payload == b.payload &&
           a.frag_shard == b.frag_shard && a.frag_k == b.frag_k &&
           a.full_size == b.full_size;
  }

  static constexpr size_t kHeaderOverhead = 48;
};

/// Convenience factory used widely in tests: an entry whose identity is
/// the paper's (index, term, prev_term) triple.
LogEntry MakeEntry(LogIndex index, Term term, Term prev_term,
                   std::string payload = "");

}  // namespace nbraft::storage

#endif  // NBRAFT_STORAGE_LOG_ENTRY_H_
