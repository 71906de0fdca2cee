#include "tsdb/state_machine.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/varint.h"

namespace nbraft::tsdb {

TsdbStateMachine::TsdbStateMachine(Options options) : options_(options) {}

SimDuration TsdbStateMachine::ParseCost(size_t bytes) const {
  return options_.parse_cost_per_kib * static_cast<SimDuration>(bytes) / 1024;
}

SimDuration TsdbStateMachine::Apply(const storage::LogEntry& entry) {
  ++applied_;
  // A corrupt batch inserts nothing, even though parsed_ may hold a prefix.
  if (!ParseIngestBatch(entry.payload, &parsed_).ok()) {
    ++corrupt_batches_;
    return ParseCost(entry.payload.size());
  }
  SimDuration cost =
      options_.insert_cost_per_point * static_cast<SimDuration>(parsed_.size());
  for (const Measurement& m : parsed_) {
    memtable_.Insert(m.series_id, m.point);
  }
  ingested_points_ += parsed_.size();

  if (memtable_.point_count() >= options_.flush_threshold_points) {
    const size_t bytes_before = memtable_.ApproximateBytes();
    std::vector<Chunk> flushed = memtable_.FlushAll();
    chunks_.insert(chunks_.end(), std::make_move_iterator(flushed.begin()),
                   std::make_move_iterator(flushed.end()));
    cost += options_.flush_cost_per_kib *
            static_cast<SimDuration>(bytes_before) / 1024;
  }
  return cost;
}

Result<std::vector<Point>> TsdbStateMachine::Query(uint64_t series_id) const {
  std::vector<Point> out;
  for (const Chunk& chunk : chunks_) {
    if (chunk.series_id != series_id) continue;
    auto points = chunk.Decode();
    if (!points.ok()) return points.status();
    out.insert(out.end(), points->begin(), points->end());
  }
  std::vector<Point> buffered = memtable_.Scan(series_id);
  out.insert(out.end(), buffered.begin(), buffered.end());
  std::stable_sort(out.begin(), out.end(), [](const Point& a, const Point& b) {
    return a.timestamp < b.timestamp;
  });
  return out;
}

uint64_t TsdbStateMachine::PointCount(uint64_t series_id) const {
  uint64_t count = 0;
  for (const Chunk& chunk : chunks_) {
    if (chunk.series_id == series_id) count += chunk.point_count;
  }
  count += memtable_.Scan(series_id).size();
  return count;
}

namespace {

// Snapshot wire format: varint version, counters, chunk records, buffered
// memtable points, CRC32C trailer over everything before it.
constexpr uint64_t kTsdbSnapshotVersion = 1;

void PutChunk(const Chunk& chunk, std::string* out) {
  PutVarint64(out, chunk.series_id);
  PutVarint64(out, chunk.point_count);
  PutVarintSigned64(out, chunk.min_timestamp);
  PutVarintSigned64(out, chunk.max_timestamp);
  PutVarint64(out, chunk.encoded_timestamps.size());
  *out += chunk.encoded_timestamps;
  PutVarint64(out, chunk.encoded_values.size());
  *out += chunk.encoded_values;
}

bool GetChunk(std::string_view* in, Chunk* chunk) {
  uint64_t ts_len = 0;
  uint64_t v_len = 0;
  uint64_t point_count = 0;
  if (!GetVarint64(in, &chunk->series_id) ||
      !GetVarint64(in, &point_count) ||
      !GetVarintSigned64(in, &chunk->min_timestamp) ||
      !GetVarintSigned64(in, &chunk->max_timestamp) ||
      !GetVarint64(in, &ts_len) || in->size() < ts_len) {
    return false;
  }
  chunk->point_count = point_count;
  chunk->encoded_timestamps.assign(in->data(), ts_len);
  in->remove_prefix(ts_len);
  if (!GetVarint64(in, &v_len) || in->size() < v_len) return false;
  chunk->encoded_values.assign(in->data(), v_len);
  in->remove_prefix(v_len);
  return true;
}

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double BitsDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

}  // namespace

std::string TsdbStateMachine::Snapshot() const {
  std::string out;
  PutVarint64(&out, kTsdbSnapshotVersion);
  PutVarint64(&out, applied_);
  PutVarint64(&out, ingested_points_);
  PutVarint64(&out, corrupt_batches_);
  PutVarint64(&out, chunks_.size());
  for (const Chunk& chunk : chunks_) PutChunk(chunk, &out);

  // Buffered (unflushed) memtable points.
  const std::vector<std::pair<uint64_t, Point>> points =
      memtable_.AllPoints();
  PutVarint64(&out, points.size());
  for (const auto& [series, point] : points) {
    PutVarint64(&out, series);
    PutVarintSigned64(&out, point.timestamp);
    PutFixed64(&out, DoubleBits(point.value));
  }

  PutFixed32(&out, Crc32c(out));
  return out;
}

Status TsdbStateMachine::Restore(std::string_view snapshot) {
  if (snapshot.size() < 4) {
    return Status::Corruption("tsdb snapshot: too short");
  }
  std::string_view body = snapshot.substr(0, snapshot.size() - 4);
  std::string_view crc_part = snapshot.substr(snapshot.size() - 4);
  uint32_t stored_crc = 0;
  if (!GetFixed32(&crc_part, &stored_crc) || Crc32c(body) != stored_crc) {
    return Status::Corruption("tsdb snapshot: crc mismatch");
  }

  uint64_t version = 0;
  uint64_t applied = 0;
  uint64_t ingested = 0;
  uint64_t corrupt = 0;
  uint64_t chunk_count = 0;
  if (!GetVarint64(&body, &version) || version != kTsdbSnapshotVersion ||
      !GetVarint64(&body, &applied) || !GetVarint64(&body, &ingested) ||
      !GetVarint64(&body, &corrupt) || !GetVarint64(&body, &chunk_count)) {
    return Status::Corruption("tsdb snapshot: bad header");
  }
  std::vector<Chunk> chunks;
  chunks.reserve(chunk_count);
  for (uint64_t i = 0; i < chunk_count; ++i) {
    Chunk chunk;
    if (!GetChunk(&body, &chunk)) {
      return Status::Corruption("tsdb snapshot: bad chunk");
    }
    chunks.push_back(std::move(chunk));
  }
  uint64_t buffered_count = 0;
  if (!GetVarint64(&body, &buffered_count)) {
    return Status::Corruption("tsdb snapshot: bad buffered count");
  }
  Memtable memtable;
  for (uint64_t i = 0; i < buffered_count; ++i) {
    uint64_t series = 0;
    int64_t ts = 0;
    uint64_t bits = 0;
    if (!GetVarint64(&body, &series) || !GetVarintSigned64(&body, &ts) ||
        !GetFixed64(&body, &bits)) {
      return Status::Corruption("tsdb snapshot: bad buffered point");
    }
    memtable.Insert(series, Point{ts, BitsDouble(bits)});
  }
  if (!body.empty()) {
    return Status::Corruption("tsdb snapshot: trailing bytes");
  }

  applied_ = applied;
  ingested_points_ = ingested;
  corrupt_batches_ = corrupt;
  chunks_ = std::move(chunks);
  memtable_ = std::move(memtable);
  return Status::Ok();
}

void TsdbStateMachine::Reset() {
  memtable_ = Memtable();
  chunks_.clear();
  applied_ = 0;
  ingested_points_ = 0;
  corrupt_batches_ = 0;
}

FileStoreStateMachine::FileStoreStateMachine(Options options)
    : options_(options) {}

void FileStoreStateMachine::Reset() {
  applied_ = 0;
  bytes_written_ = 0;
}

std::string FileStoreStateMachine::Snapshot() const {
  std::string out;
  PutVarint64(&out, applied_);
  PutVarint64(&out, bytes_written_);
  PutFixed32(&out, Crc32c(out));
  return out;
}

Status FileStoreStateMachine::Restore(std::string_view snapshot) {
  if (snapshot.size() < 4) {
    return Status::Corruption("filestore snapshot: too short");
  }
  std::string_view body = snapshot.substr(0, snapshot.size() - 4);
  std::string_view crc_part = snapshot.substr(snapshot.size() - 4);
  uint32_t stored_crc = 0;
  if (!GetFixed32(&crc_part, &stored_crc) || Crc32c(body) != stored_crc) {
    return Status::Corruption("filestore snapshot: crc mismatch");
  }
  uint64_t applied = 0;
  uint64_t bytes = 0;
  if (!GetVarint64(&body, &applied) || !GetVarint64(&body, &bytes) ||
      !body.empty()) {
    return Status::Corruption("filestore snapshot: malformed");
  }
  applied_ = applied;
  bytes_written_ = bytes;
  return Status::Ok();
}

SimDuration FileStoreStateMachine::ParseCost(size_t bytes) const {
  return options_.parse_cost_per_kib * static_cast<SimDuration>(bytes) / 1024;
}

SimDuration FileStoreStateMachine::Apply(const storage::LogEntry& entry) {
  ++applied_;
  bytes_written_ += entry.payload.size();
  const double stream_seconds = static_cast<double>(entry.payload.size()) *
                                8.0 / options_.disk_bandwidth_bps;
  return options_.io_latency +
         static_cast<SimDuration>(stream_seconds *
                                  static_cast<double>(kSecond));
}

}  // namespace nbraft::tsdb
