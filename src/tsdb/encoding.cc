#include "tsdb/encoding.h"

#include <bit>
#include <cstring>

#include "common/logging.h"
#include "tsdb/bitstream.h"

namespace nbraft::tsdb {

namespace {

uint64_t DoubleToBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double BitsToDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

}  // namespace

void EncodeTimestamps(const std::vector<int64_t>& timestamps,
                      std::string* out) {
  BitWriter w(out);
  if (timestamps.empty()) {
    w.Finish();
    return;
  }
  w.Write(static_cast<uint64_t>(timestamps[0]), 64);
  int64_t prev = timestamps[0];
  int64_t prev_delta = 0;
  for (size_t i = 1; i < timestamps.size(); ++i) {
    const int64_t delta = timestamps[i] - prev;
    const int64_t dod = delta - prev_delta;
    if (dod == 0) {
      w.WriteBit(false);
    } else if (dod >= -63 && dod <= 64) {
      w.Write(0b10, 2);
      w.Write(static_cast<uint64_t>(dod + 63), 7);
    } else if (dod >= -255 && dod <= 256) {
      w.Write(0b110, 3);
      w.Write(static_cast<uint64_t>(dod + 255), 9);
    } else if (dod >= -2047 && dod <= 2048) {
      w.Write(0b1110, 4);
      w.Write(static_cast<uint64_t>(dod + 2047), 12);
    } else {
      w.Write(0b1111, 4);
      w.Write(static_cast<uint64_t>(dod), 64);
    }
    prev = timestamps[i];
    prev_delta = delta;
  }
  w.Finish();
}

Result<std::vector<int64_t>> DecodeTimestamps(std::string_view data,
                                              size_t count) {
  std::vector<int64_t> out;
  if (count == 0) return out;
  out.reserve(count);
  BitReader r(data);
  uint64_t first = 0;
  if (!r.Read(&first, 64)) {
    return Status::Corruption("timestamps: truncated header");
  }
  out.push_back(static_cast<int64_t>(first));
  int64_t prev = out[0];
  int64_t prev_delta = 0;
  while (out.size() < count) {
    bool bit = false;
    if (!r.ReadBit(&bit)) return Status::Corruption("timestamps: truncated");
    int64_t dod = 0;
    if (bit) {
      bool b2 = false;
      if (!r.ReadBit(&b2)) return Status::Corruption("timestamps: truncated");
      if (!b2) {  // '10' + 7 bits
        uint64_t raw = 0;
        if (!r.Read(&raw, 7)) return Status::Corruption("timestamps: short");
        dod = static_cast<int64_t>(raw) - 63;
      } else {
        bool b3 = false;
        if (!r.ReadBit(&b3)) {
          return Status::Corruption("timestamps: truncated");
        }
        if (!b3) {  // '110' + 9 bits
          uint64_t raw = 0;
          if (!r.Read(&raw, 9)) return Status::Corruption("timestamps: short");
          dod = static_cast<int64_t>(raw) - 255;
        } else {
          bool b4 = false;
          if (!r.ReadBit(&b4)) {
            return Status::Corruption("timestamps: truncated");
          }
          if (!b4) {  // '1110' + 12 bits
            uint64_t raw = 0;
            if (!r.Read(&raw, 12)) {
              return Status::Corruption("timestamps: short");
            }
            dod = static_cast<int64_t>(raw) - 2047;
          } else {  // '1111' + 64 bits
            uint64_t raw = 0;
            if (!r.Read(&raw, 64)) {
              return Status::Corruption("timestamps: short");
            }
            dod = static_cast<int64_t>(raw);
          }
        }
      }
    }
    const int64_t delta = prev_delta + dod;
    prev += delta;
    prev_delta = delta;
    out.push_back(prev);
  }
  return out;
}

void EncodeValues(const std::vector<double>& values, std::string* out) {
  BitWriter w(out);
  if (values.empty()) {
    w.Finish();
    return;
  }
  uint64_t prev = DoubleToBits(values[0]);
  w.Write(prev, 64);
  int prev_leading = -1;  // -1: no previous meaningful window.
  int prev_trailing = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    const uint64_t cur = DoubleToBits(values[i]);
    const uint64_t x = cur ^ prev;
    if (x == 0) {
      w.WriteBit(false);
    } else {
      w.WriteBit(true);
      int leading = std::countl_zero(x);
      const int trailing = std::countr_zero(x);
      if (leading > 31) leading = 31;  // Fit in the 5-bit field.
      if (prev_leading >= 0 && leading >= prev_leading &&
          trailing >= prev_trailing) {
        // Reuse previous window: '0' + meaningful bits.
        w.WriteBit(false);
        const int meaningful = 64 - prev_leading - prev_trailing;
        w.Write(x >> prev_trailing, meaningful);
      } else {
        // New window: '1' + 5-bit leading + 6-bit length + bits.
        w.WriteBit(true);
        const int meaningful = 64 - leading - trailing;
        w.Write(static_cast<uint64_t>(leading), 5);
        w.Write(static_cast<uint64_t>(meaningful), 6);
        w.Write(x >> trailing, meaningful);
        prev_leading = leading;
        prev_trailing = trailing;
      }
    }
    prev = cur;
  }
  w.Finish();
}

Result<std::vector<double>> DecodeValues(std::string_view data, size_t count) {
  std::vector<double> out;
  if (count == 0) return out;
  out.reserve(count);
  BitReader r(data);
  uint64_t prev = 0;
  if (!r.Read(&prev, 64)) return Status::Corruption("values: truncated header");
  out.push_back(BitsToDouble(prev));
  int leading = 0;
  int trailing = 0;
  bool have_window = false;
  while (out.size() < count) {
    bool changed = false;
    if (!r.ReadBit(&changed)) return Status::Corruption("values: truncated");
    if (changed) {
      bool new_window = false;
      if (!r.ReadBit(&new_window)) {
        return Status::Corruption("values: truncated");
      }
      if (new_window) {
        uint64_t lead_raw = 0;
        uint64_t len_raw = 0;
        if (!r.Read(&lead_raw, 5) || !r.Read(&len_raw, 6)) {
          return Status::Corruption("values: short window header");
        }
        leading = static_cast<int>(lead_raw);
        int meaningful = static_cast<int>(len_raw);
        if (meaningful == 0) meaningful = 64;  // 6-bit field wraps at 64.
        trailing = 64 - leading - meaningful;
        if (trailing < 0) return Status::Corruption("values: bad window");
        have_window = true;
        uint64_t bits = 0;
        if (!r.Read(&bits, meaningful)) {
          return Status::Corruption("values: short bits");
        }
        prev ^= bits << trailing;
      } else {
        if (!have_window) return Status::Corruption("values: missing window");
        const int meaningful = 64 - leading - trailing;
        uint64_t bits = 0;
        if (!r.Read(&bits, meaningful)) {
          return Status::Corruption("values: short bits");
        }
        prev ^= bits << trailing;
      }
    }
    out.push_back(BitsToDouble(prev));
  }
  return out;
}

Chunk BuildChunk(uint64_t series_id, const std::vector<Point>& points,
                 ChunkScratch* scratch) {
  Chunk chunk;
  chunk.series_id = series_id;
  chunk.point_count = points.size();
  if (!points.empty()) {
    chunk.min_timestamp = points.front().timestamp;
    chunk.max_timestamp = points.back().timestamp;
  }
  scratch->timestamps.clear();
  scratch->values.clear();
  for (const Point& p : points) {
    scratch->timestamps.push_back(p.timestamp);
    scratch->values.push_back(p.value);
  }
  // Copy-constructing allocates exactly the encoded size.
  scratch->encoded.clear();
  EncodeTimestamps(scratch->timestamps, &scratch->encoded);
  chunk.encoded_timestamps = std::string(scratch->encoded);
  scratch->encoded.clear();
  EncodeValues(scratch->values, &scratch->encoded);
  chunk.encoded_values = std::string(scratch->encoded);
  return chunk;
}

Chunk BuildChunk(uint64_t series_id, const std::vector<Point>& points) {
  ChunkScratch scratch;
  return BuildChunk(series_id, points, &scratch);
}

Result<std::vector<Point>> Chunk::Decode() const {
  auto timestamps = DecodeTimestamps(encoded_timestamps, point_count);
  if (!timestamps.ok()) return timestamps.status();
  auto values = DecodeValues(encoded_values, point_count);
  if (!values.ok()) return values.status();
  std::vector<Point> out;
  out.reserve(point_count);
  for (size_t i = 0; i < point_count; ++i) {
    out.push_back(Point{(*timestamps)[i], (*values)[i]});
  }
  return out;
}

}  // namespace nbraft::tsdb
