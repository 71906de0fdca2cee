#include "storage/durable_log.h"

#include "common/logging.h"
#include "storage/sim_disk.h"

namespace nbraft::storage {

Result<size_t> DurableLog::Stage(const LogEntry& record) {
  Status appended = backend_->Append(record);
  if (!appended.ok()) return appended;
  return record.EncodedSize();
}

Result<size_t> DurableLog::AppendEntry(const LogEntry& entry) {
  NBRAFT_CHECK_GE(entry.index, 1) << "marker indices are reserved";
  return Stage(entry);
}

Result<size_t> DurableLog::AppendTruncate(LogIndex from_index) {
  LogEntry marker;
  marker.index = kTruncateMarker;
  marker.term = from_index;  // Payload slot for the truncation point.
  return Stage(marker);
}

Result<size_t> DurableLog::AppendHardState(const HardState& state) {
  LogEntry marker;
  marker.index = kHardStateMarker;
  marker.term = state.term;
  marker.client_id = state.voted_for;
  return Stage(marker);
}

Result<size_t> DurableLog::AppendCompact(LogIndex upto) {
  LogEntry marker;
  marker.index = kCompactMarker;
  marker.term = upto;  // Payload slot for the compaction point.
  return Stage(marker);
}

Result<size_t> DurableLog::AppendSnapshot(LogIndex index, Term term,
                                          const nbraft::Buffer& data,
                                          bool installed) {
  LogEntry marker;
  marker.index = kSnapshotMarker;
  marker.term = index;       // Last included index.
  marker.prev_term = term;   // Last included term.
  marker.client_id = installed ? 1 : 0;
  marker.payload = data;
  return Stage(marker);
}

Result<size_t> DurableLog::AppendConfig(const std::string& encoded,
                                        LogIndex at) {
  LogEntry marker;
  marker.index = kConfigMarker;
  marker.term = at;  // Payload slot for the effective index.
  marker.payload = nbraft::Buffer(encoded);
  return Stage(marker);
}

void DurableLog::Sync(std::function<void(Status)> done) {
  backend_->Sync(std::move(done));
}

void DurableLog::FoldRecord(LogEntry entry, RecoveredState* out) {
  ++out->records;
  switch (entry.index) {
    case kTruncateMarker: {
      // Truncations in the stream always refer to live suffixes.
      const LogIndex from = entry.term;
      if (from <= out->log.LastIndex()) {
        NBRAFT_CHECK(out->log.TruncateSuffix(from).ok());
      }
      return;
    }
    case kHardStateMarker:
      out->hard_state.term = entry.term;
      out->hard_state.voted_for = entry.client_id;
      return;
    case kCompactMarker: {
      const LogIndex upto = entry.term;
      if (upto >= out->log.FirstIndex() && upto <= out->log.LastIndex()) {
        NBRAFT_CHECK(out->log.CompactPrefix(upto).ok());
      }
      return;
    }
    case kSnapshotMarker: {
      out->has_snapshot = true;
      out->snapshot_index = entry.term;
      out->snapshot_term = entry.prev_term;
      out->snapshot_data = entry.payload;
      if (entry.client_id == 1) {
        // Installed from the leader: the log restarts past the snapshot.
        out->log.ResetToSnapshot(out->snapshot_index, out->snapshot_term);
      }
      return;
    }
    case kConfigMarker:
      // Last-writer-wins: rollbacks re-stage the supplanted roster, so the
      // final marker in the stream is the configuration in effect.
      out->config = entry.payload.str();
      out->config_index = entry.term;
      return;
    default:
      out->log.Append(std::move(entry));
      return;
  }
}

DurableLog::RecoveredState DurableLog::RecoverFromDisk(const SimDisk& disk) {
  RecoveredState out;
  const auto& records = disk.records();
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].corrupt) {
      // Bit rot cuts the stream: the corrupt record and everything after
      // it are gone, exactly as if the node had crashed before writing
      // them. The caller quarantines the node until it heals.
      out.corrupt_dropped_records = records.size() - i;
      break;
    }
    FoldRecord(records[i].entry, &out);
  }
  out.truncated_tail_bytes = disk.torn_tail_bytes();
  return out;
}

}  // namespace nbraft::storage
