#ifndef NBRAFT_TSDB_MEMTABLE_H_
#define NBRAFT_TSDB_MEMTABLE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tsdb/encoding.h"

namespace nbraft::tsdb {

/// In-memory write buffer: per-series sorted point lists. Like IoTDB's
/// memtable, it absorbs random-ish arrivals cheaply and produces ordered,
/// encodable runs at flush.
class Memtable {
 public:
  /// Inserts one point. Out-of-order timestamps within a series are
  /// tolerated (common with IoT sources) and sorted at flush.
  void Insert(uint64_t series_id, Point point);

  size_t point_count() const { return point_count_; }
  /// Series holding at least one buffered point.
  size_t series_count() const { return buffered_series_; }

  /// Approximate resident bytes (16B per point + per-series overhead).
  size_t ApproximateBytes() const {
    return point_count_ * sizeof(Point) + buffered_series_ * 64;
  }

  /// Points currently buffered for a series (sorted copy).
  std::vector<Point> Scan(uint64_t series_id) const;

  /// Every buffered (series, point) pair in series order, insertion order
  /// within a series (snapshot serialization).
  std::vector<std::pair<uint64_t, Point>> AllPoints() const;

  /// Encodes every series into a chunk (sorted by timestamp, then clears
  /// the table). Returns chunks ordered by series id. Flushed lists keep
  /// their capacity for the next run; lists that received no point since
  /// the previous flush are dropped, so the table tracks only the working
  /// set.
  std::vector<Chunk> FlushAll();

  bool Empty() const { return point_count_ == 0; }

 private:
  /// Per-series point lists sorted by series id (flush/snapshot order).
  std::vector<std::pair<uint64_t, std::vector<Point>*>> Ordered();

  // Hash map on the ingest hot path (one lookup per point); everything that
  // iterates (FlushAll, AllPoints) sorts by series id first so output order
  // is identical to the ordered-map layout this replaced.
  std::unordered_map<uint64_t, std::vector<Point>> series_;
  size_t point_count_ = 0;
  size_t buffered_series_ = 0;

  // FlushAll's buffers, reused across flushes: the (timestamp, arrival
  // position) sort keys of an out-of-order run, the run in sorted order,
  // and the chunk encoder's scratch.
  std::vector<std::pair<int64_t, uint32_t>> sort_keys_;
  std::vector<Point> sorted_;
  ChunkScratch scratch_;
};

}  // namespace nbraft::tsdb

#endif  // NBRAFT_TSDB_MEMTABLE_H_
