#ifndef NBRAFT_COMMON_INDEX_RING_H_
#define NBRAFT_COMMON_INDEX_RING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nbraft {

/// A map from an integer index to T for keys that live in a sliding range,
/// as log indices and RPC ids do on the replication hot path: one
/// power-of-two ring of slots addressed by `index - front`, in the spirit
/// of etcd's `inflights` ring. Lookup, insert and erase touch one slot and
/// iteration is ascending by index. Erasing the lowest or highest key trims
/// the dead slots next to it, so the ring always spans exactly
/// [front_index(), back_index()]. Slots are reused: once the ring has grown
/// to the working span, nothing allocates.
///
/// Memory follows the span, not the key count: a key left behind while the
/// front moves on keeps every slot above it. Dead slots hold a
/// value-initialised T, so erasing releases what the value owned.
template <typename T>
class IndexRing {
 public:
  using Index = int64_t;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Lowest and highest live index; require !empty().
  Index front_index() const { return front_; }
  Index back_index() const { return front_ + static_cast<Index>(span_) - 1; }

  T* Find(Index index) {
    if (index < front_ || index - front_ >= static_cast<Index>(span_)) {
      return nullptr;
    }
    Slot& slot = SlotAt(index);
    return slot.live ? &slot.value : nullptr;
  }
  const T* Find(Index index) const {
    return const_cast<IndexRing*>(this)->Find(index);
  }
  bool Contains(Index index) const { return Find(index) != nullptr; }

  /// The value at `index`, value-initialised when absent (std::map's
  /// operator[]). Invalidates pointers from Find when the ring grows.
  T& operator[](Index index) {
    if (size_ == 0) {
      Reserve(1);
      front_ = index;
      span_ = 1;
    } else if (index < front_) {
      const size_t extra = static_cast<size_t>(front_ - index);
      Reserve(span_ + extra);
      head_ = (head_ - extra) & Mask();
      front_ = index;
      span_ += extra;
    } else if (index - front_ >= static_cast<Index>(span_)) {
      const size_t span = static_cast<size_t>(index - front_) + 1;
      Reserve(span);
      span_ = span;
    }
    Slot& slot = SlotAt(index);
    if (!slot.live) {
      slot.live = true;
      ++size_;
    }
    return slot.value;
  }

  /// Removes `index`; returns false when it was absent.
  bool Erase(Index index) {
    if (Find(index) == nullptr) return false;
    Kill(SlotAt(index));
    if (size_ == 0) {
      span_ = 0;
      return true;
    }
    while (!SlotAt(front_).live) {
      head_ = (head_ + 1) & Mask();
      ++front_;
      --span_;
    }
    while (!SlotAt(back_index()).live) --span_;
    return true;
  }

  void PopFront() { Erase(front_); }

  /// Removes every key >= `index`.
  void EraseFrom(Index index) {
    while (size_ > 0 && back_index() >= index) Erase(back_index());
  }

  /// Removes everything; keeps the slots for reuse.
  void Clear() {
    for (size_t k = 0; k < span_ && size_ > 0; ++k) {
      Slot& slot = slots_[(head_ + k) & Mask()];
      if (slot.live) Kill(slot);
    }
    span_ = 0;
  }

  /// Visits every live (index, value) in ascending order. `fn` may modify
  /// the value but not insert or erase keys.
  template <typename F>
  void ForEach(F&& fn) {
    for (size_t k = 0; k < span_; ++k) {
      Slot& slot = slots_[(head_ + k) & Mask()];
      if (slot.live) fn(front_ + static_cast<Index>(k), slot.value);
    }
  }
  template <typename F>
  void ForEach(F&& fn) const {
    for (size_t k = 0; k < span_; ++k) {
      const Slot& slot = slots_[(head_ + k) & Mask()];
      if (slot.live) fn(front_ + static_cast<Index>(k), slot.value);
    }
  }

 private:
  struct Slot {
    T value{};
    bool live = false;
  };

  size_t Mask() const { return slots_.size() - 1; }
  Slot& SlotAt(Index index) {
    return slots_[(head_ + static_cast<size_t>(index - front_)) & Mask()];
  }

  void Kill(Slot& slot) {
    slot.value = T{};
    slot.live = false;
    --size_;
  }

  /// Grows to a power of two holding `span` slots, laying the live span
  /// out from slot 0.
  void Reserve(size_t span) {
    if (span <= slots_.size()) return;
    size_t capacity = slots_.empty() ? 8 : slots_.size() * 2;
    while (capacity < span) capacity *= 2;
    std::vector<Slot> grown(capacity);
    for (size_t k = 0; k < span_; ++k) {
      grown[k] = std::move(slots_[(head_ + k) & Mask()]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<Slot> slots_;
  size_t head_ = 0;  ///< Slot of front_.
  size_t span_ = 0;  ///< Slots from front_ through the highest live key.
  size_t size_ = 0;  ///< Live keys.
  Index front_ = 0;
};

}  // namespace nbraft

#endif  // NBRAFT_COMMON_INDEX_RING_H_
