#ifndef NBRAFT_STORAGE_SIM_DISK_H_
#define NBRAFT_STORAGE_SIM_DISK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "sim/cpu_executor.h"
#include "storage/log_backend.h"
#include "storage/log_entry.h"

namespace nbraft::storage {

/// A deterministic simulated disk: one node's durable record store with
/// write/fsync latency modeled on a dedicated single-lane I/O executor, a
/// durable/volatile frontier (records staged but not yet covered by a
/// completed fsync vanish on crash), and a seeded fault injector for torn
/// tails, CRC-detected bit rot, transient write errors and fsync stalls.
///
/// The disk stores *typed* records (the same LogEntry record stream
/// DurableLog writes) rather than encoded bytes: payload Buffers are shared
/// with the in-memory log, and byte counts come from the analytic
/// LogEntry::EncodedSize(), so the steady state stays zero-copy and
/// allocation-free on the data path.
///
/// Cost model: each Append accumulates `write_latency`; the accumulated
/// cost is paid by the next fsync barrier (writes are buffered until the
/// barrier, as on a real volatile-write-cache disk). Concurrent fsyncs
/// serialize on the single I/O lane.
///
/// The disk itself survives RaftNode::Crash(): the node's memory is wiped,
/// the disk image persists, and Restart() recovers from it (see
/// DurableLog::RecoverFromDisk).
class SimDisk {
 public:
  struct Options {
    SimDuration write_latency = 0;  ///< Media write cost per record.
    SimDuration fsync_latency = 0;  ///< Barrier cost per fsync.
    /// Fault-injector rng stream; combined with the node id so each
    /// node's disk draws independently. Never touches the simulator rng.
    uint64_t fault_seed = 1;
    /// When set, the disk submits its I/O costs to this externally owned
    /// single-lane executor instead of creating its own. Several disks on
    /// one physical host share the lane, so co-resident consensus groups
    /// contend for the host's media time and fsync serialization.
    sim::CpuExecutor* shared_io_lane = nullptr;
  };

  /// One durable-stream record: the typed entry, its exact on-media size,
  /// and the bit-rot flag (CRC mismatch detected at recovery).
  struct Record {
    LogEntry entry;
    size_t encoded_size = 0;
    bool corrupt = false;
  };

  SimDisk(sim::Simulator* sim, const Options& opts, int64_t node_id);

  // ---- Write path ----
  /// Stages one record in the volatile region. Fails with IoError while
  /// transient write errors are armed.
  Status Append(const LogEntry& record);

  /// Schedules an fsync barrier covering everything staged so far; `done`
  /// fires after the modeled latency (fsync + stall + buffered writes).
  /// Fails with IoError while sync errors are armed. Never fires for syncs
  /// in flight at a crash.
  void Sync(std::function<void(Status)> done);

  // ---- Crash surface ----
  /// Power loss: un-fsynced records vanish, and when any were lost a
  /// deterministic draw decides how many bytes of the first lost record
  /// linger as a torn tail for recovery to report. In-flight syncs and
  /// buffered write costs are discarded.
  void Crash();

  // ---- Recovery surface ----
  const std::vector<Record>& records() const { return records_; }
  size_t durable_records() const { return durable_records_; }
  /// Torn-tail bytes left by the most recent crash.
  size_t torn_tail_bytes() const { return torn_tail_bytes_; }

  // ---- Fault hooks (chaos nemesis) ----
  /// Extra latency added to every fsync until reset (stalled-disk fault).
  void set_fsync_stall(SimDuration extra) { fsync_stall_ = extra; }
  SimDuration fsync_stall() const { return fsync_stall_; }

  /// The next `count` Appends fail with IoError (transient write errors).
  void ArmWriteErrors(int count) { write_errors_armed_ = count; }

  /// The next `count` syncs to complete fail: each still pays its latency,
  /// then completes with IoError and leaves the records it covered
  /// volatile, so a crash still tears them off.
  void ArmSyncErrors(int count) { sync_errors_armed_ = count; }

  /// Bit rot: flips the corrupt flag on one durable entry record chosen
  /// from the stream tail — past the last durable hard-state record, where
  /// the byte mass of a real WAL lives (payload records dwarf the ~20-byte
  /// vote records), and where dropping the suffix at recovery can never
  /// resurrect a forgotten vote. Returns false when no record is eligible.
  bool CorruptTailRecord();

  /// Recovery repair (fsck): cuts the image at its first corrupt record so
  /// post-heal appends land on a clean stream, and leaves a scar that
  /// survives further crashes. The node stays quarantined — granting no
  /// votes, starting no elections — until it has healed from the leader
  /// and clears the scar.
  void RepairCorruptTail();
  bool heal_scar() const { return heal_scar_; }
  void ClearHealScar() {
    heal_scar_ = false;
    scar_frontier_ = 0;
  }
  /// Highest entry index the node could have acknowledged before the
  /// repair cut (the durable frontier at repair time). The quarantine
  /// lifts once the node's committed prefix covers it. Survives crashes,
  /// like the scar itself.
  LogIndex scar_frontier() const { return scar_frontier_; }

  // ---- Telemetry ----
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t fsyncs_completed() const { return fsyncs_completed_; }
  uint64_t write_errors_injected() const { return write_errors_injected_; }
  sim::CpuExecutor* io_lane() { return io_lane_; }

 private:
  /// Drops the payloads of entries covered by a compact marker among
  /// records [from, to), which have just become durable.
  void ReleaseCompactedPayloads(size_t from, size_t to);

  Options opts_;
  /// Owned lane when the disk is the host's only one; empty when
  /// Options::shared_io_lane injected the host-wide lane.
  std::unique_ptr<sim::CpuExecutor> owned_io_lane_;
  sim::CpuExecutor* io_lane_ = nullptr;
  nbraft::Rng fault_rng_;

  std::vector<Record> records_;
  size_t durable_records_ = 0;
  size_t torn_tail_bytes_ = 0;
  /// Buffered write cost charged at the next fsync barrier.
  SimDuration pending_write_cost_ = 0;
  /// Bumped on Crash so in-flight sync completions become no-ops.
  uint64_t generation_ = 0;

  SimDuration fsync_stall_ = 0;
  int write_errors_armed_ = 0;
  int sync_errors_armed_ = 0;
  bool heal_scar_ = false;
  LogIndex scar_frontier_ = 0;

  uint64_t bytes_written_ = 0;
  uint64_t fsyncs_completed_ = 0;
  uint64_t write_errors_injected_ = 0;
};

/// LogBackend adapter over a SimDisk the node owns elsewhere (the disk
/// outlives crash/restart cycles; the backend is recreated per lifetime).
class SimDiskBackend : public LogBackend {
 public:
  explicit SimDiskBackend(SimDisk* disk) : disk_(disk) {}

  Status Append(const LogEntry& record) override {
    return disk_->Append(record);
  }
  void Sync(std::function<void(Status)> done) override {
    disk_->Sync(std::move(done));
  }

 private:
  SimDisk* disk_;
};

}  // namespace nbraft::storage

#endif  // NBRAFT_STORAGE_SIM_DISK_H_
