#ifndef NBRAFT_STORAGE_RAFT_LOG_H_
#define NBRAFT_STORAGE_RAFT_LOG_H_

#include <cstdint>
#include <deque>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/log_entry.h"

namespace nbraft::storage {

/// The continuous Raft log of one replica: a dense sequence of entries with
/// 1-based indices and a compactable prefix. Enforces the Raft invariants a
/// log must uphold locally:
///
///  * indices are contiguous (no holes — holes live only in NB-Raft's
///    sliding window, never in the log);
///  * terms are non-decreasing;
///  * each entry's prev_term matches its predecessor's term.
///
/// Violations are programming errors and abort via NBRAFT_CHECK; recoverable
/// conditions (e.g. out-of-range lookups) return Status.
class RaftLog {
 public:
  RaftLog() = default;

  /// Index of the last entry; 0 when empty (after compaction this is the
  /// snapshot's last included index if nothing follows).
  LogIndex LastIndex() const { return first_index_ + Size() - 1; }

  /// Term of the last entry; snapshot term / 0 when empty.
  Term LastTerm() const;

  /// First index still present (compacted logs start later than 1).
  LogIndex FirstIndex() const { return first_index_; }

  /// Number of entries physically present.
  int64_t Size() const { return static_cast<int64_t>(entries_.size()); }
  bool Empty() const { return entries_.empty(); }

  /// Term at `index`; supports index 0 (returns 0) and the last compacted
  /// index. Fails with OutOfRange otherwise.
  Result<Term> TermAt(LogIndex index) const;

  /// Whether `index` is physically present (neither compacted nor past the
  /// end): exactly when At succeeds and AtUnchecked is safe.
  bool Contains(LogIndex index) const {
    return index >= first_index_ && index <= LastIndex();
  }

  /// Entry lookup; fails with OutOfRange for compacted or future indices.
  Result<LogEntry> At(LogIndex index) const;
  const LogEntry& AtUnchecked(LogIndex index) const;

  /// Appends `entry`, which must be exactly LastIndex()+1 and satisfy the
  /// continuity invariants above.
  void Append(LogEntry entry);

  /// Removes all entries with index >= `from_index` (leader-change
  /// truncation). No-op if `from_index` > LastIndex().
  Status TruncateSuffix(LogIndex from_index);

  /// Drops entries with index <= `upto` after a snapshot. `upto` must be
  /// <= commit point (enforced by the caller); remembers the boundary term.
  Status CompactPrefix(LogIndex upto);

  /// Discards the whole log and restarts it right after an installed
  /// snapshot at (`index`, `term`) — the receiving side of
  /// InstallSnapshot.
  void ResetToSnapshot(LogIndex index, Term term);

  /// Checks whether an entry at (index, term) is present (or covered by the
  /// compacted prefix with a matching boundary term).
  bool Matches(LogIndex index, Term term) const;

  /// Releases the payload bytes of an applied entry to bound memory in
  /// long runs (the modelled wire size is preserved). No-op out of range.
  void ReleasePayloadAt(LogIndex index);

  /// Total payload bytes held (for memory accounting).
  size_t PayloadBytes() const { return payload_bytes_; }

 private:
  std::deque<LogEntry> entries_;
  LogIndex first_index_ = 1;      // Index of entries_.front() when non-empty.
  Term compacted_term_ = 0;       // Term at first_index_ - 1.
  size_t payload_bytes_ = 0;
};

}  // namespace nbraft::storage

#endif  // NBRAFT_STORAGE_RAFT_LOG_H_
