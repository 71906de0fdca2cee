#ifndef NBRAFT_STORAGE_DURABLE_LOG_H_
#define NBRAFT_STORAGE_DURABLE_LOG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/buffer.h"
#include "common/result.h"
#include "common/status.h"
#include "net/network.h"
#include "storage/log_backend.h"
#include "storage/raft_log.h"

namespace nbraft::storage {

class SimDisk;

/// The durable face of a Raft replica: a typed write-ahead log holding
/// everything Raft requires to survive a crash — the entry log (with
/// truncations), the current term, the vote, and snapshot/compaction
/// boundaries. Recovery folds the record stream back into a RaftLog + hard
/// state + snapshot.
///
/// Record stream format (each record is one LogEntry, sized by its codec's
/// EncodedSize; the store behind it is a LogBackend — the simulated
/// disk):
///   * append:     the LogEntry itself;
///   * truncate:   a marker entry (sentinel index scheme) naming the first
///     removed index;
///   * hard state: a marker entry carrying (term, voted_for);
///   * compact:    a marker naming the last compacted index (follows a
///     snapshot record);
///   * snapshot:   a marker carrying (last included index, term) plus the
///     state-machine image, flagged local (taken here) or installed
///     (received from the leader).
///
/// Appends stage records; durability is the covering Sync's business (the
/// raft layer's DurabilityCoordinator drives it, batching records per
/// fsync under group commit).
class DurableLog {
 public:
  // Marker records use impossible indices to distinguish record kinds:
  // real entries always have index >= 1.
  static constexpr LogIndex kTruncateMarker = -1;
  static constexpr LogIndex kHardStateMarker = -2;
  static constexpr LogIndex kCompactMarker = -3;
  static constexpr LogIndex kSnapshotMarker = -4;
  static constexpr LogIndex kConfigMarker = -5;

  struct HardState {
    Term term = 0;
    net::NodeId voted_for = net::kInvalidNode;
  };

  struct RecoveredState {
    RaftLog log;
    HardState hard_state;
    size_t records = 0;
    size_t truncated_tail_bytes = 0;  ///< Torn tail dropped, if any.
    /// Latest snapshot in the stream (local or installed); when present the
    /// state machine restores from it and apply resumes past it.
    bool has_snapshot = false;
    LogIndex snapshot_index = 0;
    Term snapshot_term = 0;
    nbraft::Buffer snapshot_data;
    /// Records dropped because a CRC-detected corrupt record cut the
    /// stream (the corrupt record and everything after it). Non-zero means
    /// the node lost durable suffix state and must heal from the leader
    /// before participating in elections again.
    size_t corrupt_dropped_records = 0;
    /// Latest cluster configuration marker (dynamic membership): the
    /// encoded roster and the log index at which it took effect. Empty
    /// when the stream carries no config records (fixed-roster clusters).
    std::string config;
    LogIndex config_index = 0;
  };

  DurableLog() = default;

  /// Adopts the backend that stores the records.
  void OpenWith(std::unique_ptr<LogBackend> backend) {
    backend_ = std::move(backend);
  }

  // Every Append* stages one record, durable after a covering Sync, and
  // returns the record's encoded size (the bytes it occupies on the disk).

  /// Stages an appended entry.
  Result<size_t> AppendEntry(const LogEntry& entry);

  /// Stages a suffix truncation starting at `from_index`.
  Result<size_t> AppendTruncate(LogIndex from_index);

  /// Stages a term/vote change.
  Result<size_t> AppendHardState(const HardState& state);

  /// Stages a prefix compaction up to and including `upto`.
  Result<size_t> AppendCompact(LogIndex upto);

  /// Stages a snapshot boundary: `installed` distinguishes a snapshot
  /// received via InstallSnapshot (which resets the log) from one taken
  /// locally (which leaves the log to a following compact record).
  Result<size_t> AppendSnapshot(LogIndex index, Term term,
                                const nbraft::Buffer& data, bool installed);

  /// Stages a cluster-configuration change: the canonical encoded roster
  /// plus the log index at which it took effect. Recovery keeps the last
  /// one in the stream (rollbacks re-stage the supplanted roster).
  Result<size_t> AppendConfig(const std::string& encoded, LogIndex at);

  /// Forwards a durability barrier to the backend.
  void Sync(std::function<void(Status)> done);

  /// Folds a simulated disk's durable record stream into a recovered log
  /// + hard state + snapshot. Never fails: a crash's torn tail is reported
  /// (`truncated_tail_bytes`) and a corrupt record cuts the stream there
  /// (`corrupt_dropped_records`).
  static RecoveredState RecoverFromDisk(const SimDisk& disk);

 private:
  /// Hands `record` to the backend; on success returns its encoded size.
  Result<size_t> Stage(const LogEntry& record);
  static void FoldRecord(LogEntry entry, RecoveredState* out);

  std::unique_ptr<LogBackend> backend_;
};

}  // namespace nbraft::storage

#endif  // NBRAFT_STORAGE_DURABLE_LOG_H_
