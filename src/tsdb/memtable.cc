#include "tsdb/memtable.h"

#include <algorithm>

namespace nbraft::tsdb {

void Memtable::Insert(uint64_t series_id, Point point) {
  if (series_.empty()) series_.reserve(64);
  std::vector<Point>& points = series_[series_id];
  // Skip the 1/2/4/8 doubling steps; per-series runs between flushes are
  // almost always longer than a handful of points.
  if (points.capacity() == 0) points.reserve(16);
  if (points.empty()) ++buffered_series_;
  points.push_back(point);
  ++point_count_;
}

std::vector<std::pair<uint64_t, std::vector<Point>*>> Memtable::Ordered() {
  std::vector<std::pair<uint64_t, std::vector<Point>*>> ordered;
  ordered.reserve(series_.size());
  for (auto& [id, points] : series_) ordered.emplace_back(id, &points);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return ordered;
}

std::vector<Point> Memtable::Scan(uint64_t series_id) const {
  const auto it = series_.find(series_id);
  if (it == series_.end()) return {};
  std::vector<Point> out = it->second;
  std::stable_sort(out.begin(), out.end(),
                   [](const Point& a, const Point& b) {
                     return a.timestamp < b.timestamp;
                   });
  return out;
}

std::vector<std::pair<uint64_t, Point>> Memtable::AllPoints() const {
  std::vector<std::pair<uint64_t, Point>> out;
  out.reserve(point_count_);
  for (const auto& [id, points] : series_) {
    for (const Point& p : points) out.emplace_back(id, p);
  }
  // Series order with insertion order preserved within a series (each
  // series' points are contiguous and stable_sort keeps them that way).
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  return out;
}

std::vector<Chunk> Memtable::FlushAll() {
  std::erase_if(series_,
                [](const auto& entry) { return entry.second.empty(); });
  auto ordered = Ordered();
  std::vector<Chunk> chunks;
  chunks.reserve(ordered.size());
  for (auto& [id, points] : ordered) {
    // Sorting by (timestamp, arrival position) orders exactly as a stable
    // sort by timestamp, without its temporary buffer.
    sort_keys_.clear();
    for (size_t i = 0; i < points->size(); ++i) {
      sort_keys_.emplace_back((*points)[i].timestamp,
                              static_cast<uint32_t>(i));
    }
    std::sort(sort_keys_.begin(), sort_keys_.end());
    sorted_.clear();
    for (const auto& [timestamp, pos] : sort_keys_) {
      sorted_.push_back((*points)[pos]);
    }
    chunks.push_back(BuildChunk(id, sorted_, &scratch_));
    points->clear();
  }
  point_count_ = 0;
  buffered_series_ = 0;
  return chunks;
}

}  // namespace nbraft::tsdb
