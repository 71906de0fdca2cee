#ifndef NBRAFT_TSDB_ENCODING_H_
#define NBRAFT_TSDB_ENCODING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace nbraft::tsdb {

/// One time-series sample.
struct Point {
  int64_t timestamp = 0;  ///< Milliseconds since epoch (by convention).
  double value = 0.0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.timestamp == b.timestamp && a.value == b.value;
  }
};

/// Delta-of-delta timestamp compression in the style of Facebook Gorilla:
/// regular sampling intervals (the common IoT case) collapse to one bit per
/// timestamp. Appends the encoded block to `out`.
void EncodeTimestamps(const std::vector<int64_t>& timestamps,
                      std::string* out);

/// Decodes `count` timestamps from `data`.
Result<std::vector<int64_t>> DecodeTimestamps(std::string_view data,
                                              size_t count);

/// Gorilla XOR compression for doubles: repeated or slowly-varying values
/// (sensor plateaus) compress to ~1 bit per sample.
void EncodeValues(const std::vector<double>& values, std::string* out);

/// Decodes `count` doubles from `data`.
Result<std::vector<double>> DecodeValues(std::string_view data, size_t count);

/// An immutable encoded chunk of one series (what a flushed memtable
/// produces), with O(1) metadata for pruning.
struct Chunk {
  uint64_t series_id = 0;
  size_t point_count = 0;
  int64_t min_timestamp = 0;
  int64_t max_timestamp = 0;
  std::string encoded_timestamps;
  std::string encoded_values;

  size_t EncodedBytes() const {
    return encoded_timestamps.size() + encoded_values.size();
  }

  /// Decodes all points back (queries and tests).
  Result<std::vector<Point>> Decode() const;
};

/// Reusable buffers for BuildChunk. Encoding into them and copying the
/// result out sizes each chunk's strings exactly, where encoding straight
/// into the chunk would keep the string's doubling slack in every
/// retained chunk.
struct ChunkScratch {
  std::vector<int64_t> timestamps;
  std::vector<double> values;
  std::string encoded;
};

/// Builds a chunk from points (which must be timestamp-ordered).
Chunk BuildChunk(uint64_t series_id, const std::vector<Point>& points,
                 ChunkScratch* scratch);
Chunk BuildChunk(uint64_t series_id, const std::vector<Point>& points);

}  // namespace nbraft::tsdb

#endif  // NBRAFT_TSDB_ENCODING_H_
