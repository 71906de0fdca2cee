#include "storage/sim_disk.h"

#include <algorithm>
#include <string>

#include "storage/durable_log.h"

namespace nbraft::storage {

SimDisk::SimDisk(sim::Simulator* sim, const Options& opts, int64_t node_id)
    : opts_(opts),
      owned_io_lane_(opts.shared_io_lane != nullptr
                         ? nullptr
                         : std::make_unique<sim::CpuExecutor>(
                               sim, 1,
                               "node" + std::to_string(node_id) + ".io")),
      io_lane_(opts.shared_io_lane != nullptr ? opts.shared_io_lane
                                              : owned_io_lane_.get()),
      // Seeded independently of the simulator rng: creating or using a disk
      // must never shift the draws of the protocol layer.
      fault_rng_(opts.fault_seed +
                 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(node_id + 1)) {}

Status SimDisk::Append(const LogEntry& record) {
  if (write_errors_armed_ > 0) {
    --write_errors_armed_;
    ++write_errors_injected_;
    return Status::IoError("sim disk: transient write error");
  }
  Record r;
  r.encoded_size = record.EncodedSize();
  r.entry = record;
  bytes_written_ += r.encoded_size;
  pending_write_cost_ += opts_.write_latency;
  records_.push_back(std::move(r));
  return Status::Ok();
}

void SimDisk::ReleaseCompactedPayloads(size_t from, size_t to) {
  // Entries a durable compact marker covers can never be read again: every
  // recovery folds the marker (a crash keeps it, and the fault injector
  // only rots records past the last durable marker). Their payload
  // references are dropped to bound the disk image's memory. A marker that
  // is only staged releases nothing, since a crash may still tear it off
  // and recovery would then replay the entries it covers.
  for (size_t m = from; m < to; ++m) {
    if (records_[m].entry.index != DurableLog::kCompactMarker) continue;
    const LogIndex upto = records_[m].entry.term;
    for (size_t i = 0; i < m; ++i) {
      LogEntry& covered = records_[i].entry;
      if (covered.index >= 1 && covered.index <= upto) covered.payload.clear();
    }
  }
}

void SimDisk::Sync(std::function<void(Status)> done) {
  const size_t cover = records_.size();
  const uint64_t gen = generation_;
  const SimDuration cost =
      opts_.fsync_latency + fsync_stall_ + pending_write_cost_;
  pending_write_cost_ = 0;
  io_lane_->Submit(cost, [this, cover, gen, done = std::move(done)]() mutable {
    if (gen != generation_) return;  // Crashed while the sync was in flight.
    if (sync_errors_armed_ > 0) {
      --sync_errors_armed_;
      done(Status::IoError("sim disk: fsync failed"));
      return;
    }
    if (cover > durable_records_) {
      ReleaseCompactedPayloads(durable_records_, cover);
      durable_records_ = cover;
    }
    ++fsyncs_completed_;
    done(Status::Ok());
  });
}

void SimDisk::Crash() {
  ++generation_;
  torn_tail_bytes_ = 0;
  if (records_.size() > durable_records_) {
    const size_t first_lost = records_[durable_records_].encoded_size;
    torn_tail_bytes_ =
        first_lost > 1
            ? static_cast<size_t>(fault_rng_.NextBounded(first_lost))
            : 0;
    records_.resize(durable_records_);
  }
  pending_write_cost_ = 0;
}

bool SimDisk::CorruptTailRecord() {
  // Only records past the last durable *marker* record are eligible: bit
  // rot that cuts the recovered stream there can drop entry appends (the
  // node heals from the leader) but can never resurrect a truncated tail,
  // forget a vote, or strand a half-released compaction.
  size_t begin = 0;
  for (size_t i = 0; i < durable_records_; ++i) {
    if (records_[i].entry.index < 1) begin = i + 1;
  }
  std::vector<size_t> eligible;
  for (size_t i = begin; i < durable_records_; ++i) {
    if (records_[i].entry.index >= 1 && !records_[i].corrupt) {
      eligible.push_back(i);
    }
  }
  if (eligible.empty()) return false;
  const size_t pick = eligible[static_cast<size_t>(
      fault_rng_.NextBounded(eligible.size()))];
  records_[pick].corrupt = true;
  return true;
}

void SimDisk::RepairCorruptTail() {
  for (size_t i = 0; i < records_.size(); ++i) {
    if (!records_[i].corrupt) continue;
    // Everything the node may ever have acknowledged is bounded by the
    // durable image at repair time: acks are fsync-gated, so the highest
    // durable entry index is the frontier the node must see re-committed
    // before its quarantine can lift.
    for (size_t j = 0; j < durable_records_; ++j) {
      if (records_[j].entry.index >= 1) {
        scar_frontier_ = std::max(scar_frontier_, records_[j].entry.index);
      }
    }
    records_.resize(i);
    durable_records_ = std::min(durable_records_, i);
    heal_scar_ = true;
    return;
  }
}

}  // namespace nbraft::storage
