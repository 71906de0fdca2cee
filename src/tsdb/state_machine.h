#ifndef NBRAFT_TSDB_STATE_MACHINE_H_
#define NBRAFT_TSDB_STATE_MACHINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "storage/log_entry.h"
#include "tsdb/encoding.h"
#include "tsdb/ingest_record.h"
#include "tsdb/memtable.h"

namespace nbraft::tsdb {

/// The replicated state machine a Raft node drives. Apply() both *really
/// executes* the command (so tests can query the resulting state) and
/// returns the modelled CPU cost the simulator charges for it — this is the
/// t_apply(L) phase of the paper's cost model.
class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Applies a committed entry. Returns the modelled CPU cost.
  virtual SimDuration Apply(const storage::LogEntry& entry) = 0;

  /// Modelled CPU cost of parsing a request of `bytes` into a command
  /// (t_prs(L)); depends on the command format, hence lives here.
  virtual SimDuration ParseCost(size_t bytes) const = 0;

  virtual uint64_t applied_entries() const = 0;
  virtual std::string name() const = 0;

  /// Number of points stored for a series (replica agreement checks).
  /// State machines without series semantics return 0.
  virtual uint64_t PointCount(uint64_t series_id) const {
    (void)series_id;
    return 0;
  }

  /// Serializes the full state for snapshot transfer / compaction.
  virtual std::string Snapshot() const = 0;

  /// Replaces the state with a previously serialized snapshot.
  virtual Status Restore(std::string_view snapshot) = 0;

  /// Drops all state (crash recovery rebuilds by re-applying the log).
  virtual void Reset() = 0;
};

/// IoTDB-profile state machine: parses ingestion batches into a memtable
/// and flushes encoded chunks when the buffer fills. Because writes are
/// batched in memory and flushed later, per-entry apply cost is small —
/// the profile the paper measures for IoTDB in Fig. 4.
class TsdbStateMachine : public StateMachine {
 public:
  struct Options {
    /// Flush when the memtable holds this many points.
    size_t flush_threshold_points = 64 * 1024;
    /// Modelled cost to parse 1 KiB of request (memory allocation bound).
    SimDuration parse_cost_per_kib = Micros(2);
    /// Modelled cost to buffer one point.
    SimDuration insert_cost_per_point = Nanos(150);
    /// Modelled cost to encode + hand off 1 KiB at flush.
    SimDuration flush_cost_per_kib = Micros(4);
  };

  TsdbStateMachine() : TsdbStateMachine(Options()) {}
  explicit TsdbStateMachine(Options options);

  SimDuration Apply(const storage::LogEntry& entry) override;
  SimDuration ParseCost(size_t bytes) const override;
  uint64_t applied_entries() const override { return applied_; }
  std::string name() const override { return "tsdb"; }

  /// All points of a series across flushed chunks and the memtable.
  /// Fails only if a flushed chunk is corrupt.
  Result<std::vector<Point>> Query(uint64_t series_id) const;

  uint64_t PointCount(uint64_t series_id) const override;

  /// Serializes chunks + buffered points + counters into a self-described
  /// binary snapshot (CRC-protected), and restores from one.
  std::string Snapshot() const override;
  Status Restore(std::string_view snapshot) override;
  void Reset() override;

  size_t flushed_chunks() const { return chunks_.size(); }
  uint64_t ingested_points() const { return ingested_points_; }
  uint64_t corrupt_batches() const { return corrupt_batches_; }
  const Memtable& memtable() const { return memtable_; }

 private:
  Options options_;
  Memtable memtable_;
  std::vector<Chunk> chunks_;
  /// Apply's parse target, reused so parsing an entry allocates nothing
  /// once its capacity covers the largest batch seen.
  std::vector<Measurement> parsed_;
  uint64_t applied_ = 0;
  uint64_t ingested_points_ = 0;
  uint64_t corrupt_batches_ = 0;
};

/// Ratis-FileStore-profile state machine: every request pays a synchronous
/// I/O cost, so t_apply is large — the contrasting profile of Fig. 4.
class FileStoreStateMachine : public StateMachine {
 public:
  struct Options {
    SimDuration io_latency = Micros(120);    ///< Per-request sync write.
    double disk_bandwidth_bps = 2e9;         ///< Streaming write bandwidth.
    SimDuration parse_cost_per_kib = Micros(3);
  };

  FileStoreStateMachine() : FileStoreStateMachine(Options()) {}
  explicit FileStoreStateMachine(Options options);

  SimDuration Apply(const storage::LogEntry& entry) override;
  SimDuration ParseCost(size_t bytes) const override;
  uint64_t applied_entries() const override { return applied_; }
  std::string name() const override { return "filestore"; }

  std::string Snapshot() const override;
  Status Restore(std::string_view snapshot) override;
  void Reset() override;

  uint64_t bytes_written() const { return bytes_written_; }

 private:
  Options options_;
  uint64_t applied_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace nbraft::tsdb

#endif  // NBRAFT_TSDB_STATE_MACHINE_H_
