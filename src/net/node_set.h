#ifndef NBRAFT_NET_NODE_SET_H_
#define NBRAFT_NET_NODE_SET_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "net/network.h"

namespace nbraft::net {

/// A sorted set of node ids for vote and accept tallies. Up to kInline ids
/// live in the object itself, so a tally over a cluster of at most that
/// many voters never touches the heap; larger sets spill to a vector.
/// Offers the std::set subset the tallies use: insert, count, size, empty,
/// clear and ascending iteration.
class NodeSet {
 public:
  static constexpr size_t kInline = 8;

  NodeSet() = default;
  NodeSet(std::initializer_list<NodeId> ids) {
    for (const NodeId id : ids) insert(id);
  }

  /// Returns false when `id` was already present.
  bool insert(NodeId id) {
    const NodeId* first = begin();
    const NodeId* last = end();
    const NodeId* pos = std::lower_bound(first, last, id);
    if (pos != last && *pos == id) return false;
    const size_t at = static_cast<size_t>(pos - first);
    if (size_ < kInline) {
      std::copy_backward(inline_.begin() + at, inline_.begin() + size_,
                         inline_.begin() + size_ + 1);
      inline_[at] = id;
    } else {
      if (size_ == kInline) heap_.assign(inline_.begin(), inline_.end());
      heap_.insert(heap_.begin() + static_cast<std::ptrdiff_t>(at), id);
    }
    ++size_;
    return true;
  }

  size_t count(NodeId id) const {
    return std::binary_search(begin(), end(), id) ? 1 : 0;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() {
    size_ = 0;
    heap_.clear();
  }

  const NodeId* begin() const {
    return size_ <= kInline ? inline_.data() : heap_.data();
  }
  const NodeId* end() const { return begin() + size_; }

  /// |this ∪ other|, without materialising the union.
  size_t UnionSize(const NodeSet& other) const {
    size_t common = 0;
    const NodeId* a = begin();
    const NodeId* b = other.begin();
    while (a != end() && b != other.end()) {
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        ++common;
        ++a;
        ++b;
      }
    }
    return size_ + other.size_ - common;
  }

 private:
  std::array<NodeId, kInline> inline_{};
  uint32_t size_ = 0;
  std::vector<NodeId> heap_;  ///< Holds every id once size_ > kInline.
};

}  // namespace nbraft::net

#endif  // NBRAFT_NET_NODE_SET_H_
