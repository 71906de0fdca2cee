#ifndef NBRAFT_STORAGE_WAL_H_
#define NBRAFT_STORAGE_WAL_H_

#include <cstdio>
#include <functional>
#include <string>

#include "common/status.h"
#include "storage/log_entry.h"

namespace nbraft::storage {

/// File-backed write-ahead log of encoded `LogEntry` records.
///
/// The simulator models persistence *cost* instead of doing real I/O (to
/// stay deterministic), but the WAL is a real durable implementation: the
/// `wal_dir` durability backend (`WalFileBackend`) writes through it, and it is
/// tested for crash-tail tolerance: a torn final record is detected by its
/// CRC and discarded on replay, as Raft's durable-log assumption (paper
/// Sec. IV) requires.
class Wal {
 public:
  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating if necessary) the log file for appending.
  Status Open(const std::string& path);

  /// Appends one entry. Not durable until Sync().
  Status Append(const LogEntry& entry);

  /// Flushes and fsyncs.
  Status Sync();

  /// Closes the file (syncing first).
  Status Close();

  /// Reads `path` from the beginning, invoking `fn` per decoded entry.
  /// Stops cleanly at a torn tail (returns Ok, reporting via
  /// `truncated_tail_bytes` if non-null).
  static Status Replay(const std::string& path,
                       const std::function<void(LogEntry)>& fn,
                       size_t* truncated_tail_bytes = nullptr);

  bool is_open() const { return file_ != nullptr; }
  uint64_t appended_entries() const { return appended_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  uint64_t appended_ = 0;
};

}  // namespace nbraft::storage

#endif  // NBRAFT_STORAGE_WAL_H_
