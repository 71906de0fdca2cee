#include "nbraft/sliding_window.h"

#include <utility>

#include "common/logging.h"

namespace nbraft::raft {

SlidingWindow::SlidingWindow(int capacity) : capacity_(capacity) {
  NBRAFT_CHECK_GE(capacity, 0);
}

SlidingWindow::Slot* SlidingWindow::Find(storage::LogIndex index) {
  if (index > floor_) return ahead_.Find(index);
  if (passed_.empty()) return nullptr;
  const auto it = passed_.find(index);
  return it == passed_.end() ? nullptr : &it->second;
}

void SlidingWindow::Erase(storage::LogIndex index) {
  if (index > floor_) {
    ahead_.Erase(index);
  } else {
    passed_.erase(index);
  }
}

void SlidingWindow::MoveFloor(storage::LogIndex last_index) {
  if (last_index > floor_) {
    while (!ahead_.empty() && ahead_.front_index() <= last_index) {
      const storage::LogIndex index = ahead_.front_index();
      passed_.emplace(index, Slot{std::move(ahead_.Find(index)->entry),
                                  kNoReceiveTime});
      ahead_.PopFront();
    }
  } else if (last_index < floor_) {
    // A truncation moved the log end back: passed entries above it are
    // ahead of the log again.
    for (auto it = passed_.upper_bound(last_index); it != passed_.end();
         it = passed_.erase(it)) {
      ahead_[it->first] = std::move(it->second);
    }
  }
  floor_ = last_index;
}

const storage::LogEntry& SlidingWindow::At(storage::LogIndex index) const {
  const Slot* slot = Find(index);
  NBRAFT_CHECK(slot != nullptr) << "window miss at " << index;
  return slot->entry;
}

void SlidingWindow::Insert(const storage::LogEntry& entry,
                           SimTime received_at) {
  // Predecessor continuity (Sec. III-A2a): remove a predecessor the new
  // entry does not chain to.
  if (const Slot* pred = Find(entry.index - 1);
      pred != nullptr && pred->entry.term != entry.prev_term) {
    Erase(entry.index - 1);
    if (observer_ != nullptr) observer_->OnEvict(entry.index - 1, size());
  }
  // Successor continuity: if the new entry is not the successor's previous
  // entry, the successor and everything after it are stale (Fig. 8).
  if (const Slot* succ = Find(entry.index + 1);
      succ != nullptr && succ->entry.prev_term != entry.term) {
    ahead_.EraseFrom(entry.index + 1);
    passed_.erase(passed_.lower_bound(entry.index + 1), passed_.end());
    if (observer_ != nullptr) observer_->OnEvict(entry.index + 1, size());
  }
  Slot& slot = entry.index > floor_ ? ahead_[entry.index]
                                    : passed_[entry.index];
  slot.entry = entry;
  slot.received_at = received_at;
  if (observer_ != nullptr) observer_->OnInsert(entry.index, size());
}

template <typename Emit>
size_t SlidingWindow::FlushPrefix(storage::LogIndex last_index,
                                  storage::Term last_term, Emit&& emit) {
  MoveFloor(last_index);
  // Everything above the floor is in the ring.
  storage::LogIndex next = last_index + 1;
  storage::Term prev_term = last_term;
  for (Slot* slot = ahead_.Find(next);
       slot != nullptr && slot->entry.prev_term == prev_term;
       slot = ahead_.Find(next)) {
    prev_term = slot->entry.term;
    emit(std::move(*slot));
    ahead_.Erase(next);
    ++next;
  }
  const auto count = static_cast<size_t>(next - last_index - 1);
  if (observer_ != nullptr && count > 0) {
    observer_->OnFlush(last_index + 1, count, size());
  }
  return count;
}

std::vector<storage::LogEntry> SlidingWindow::TakeFlushablePrefix(
    storage::LogIndex last_index, storage::Term last_term) {
  std::vector<storage::LogEntry> out;
  FlushPrefix(last_index, last_term,
              [&out](Slot&& slot) { out.push_back(std::move(slot.entry)); });
  return out;
}

void SlidingWindow::TakeFlushablePrefix(storage::LogIndex last_index,
                                        storage::Term last_term,
                                        std::vector<Flushed>* out) {
  out->clear();
  FlushPrefix(last_index, last_term,
              [out](Slot&& slot) { out->push_back(std::move(slot)); });
}

void SlidingWindow::OnLogReshaped(storage::LogIndex new_last,
                                  storage::Term min_term) {
  const storage::LogIndex window_end = new_last + capacity_;
  const auto stale = [&](const storage::LogEntry& e) {
    return e.index <= new_last || e.index > window_end || e.term < min_term;
  };
  // Ascending: every passed entry lies below every ring entry.
  for (auto it = passed_.begin(); it != passed_.end();) {
    if (stale(it->second.entry)) {
      const storage::LogIndex evicted = it->first;
      it = passed_.erase(it);
      if (observer_ != nullptr) observer_->OnEvict(evicted, size());
    } else {
      ++it;
    }
  }
  if (!ahead_.empty()) {
    const storage::LogIndex back = ahead_.back_index();
    for (storage::LogIndex index = ahead_.front_index(); index <= back;
         ++index) {
      const Slot* slot = ahead_.Find(index);
      if (slot == nullptr || !stale(slot->entry)) continue;
      ahead_.Erase(index);
      if (observer_ != nullptr) observer_->OnEvict(index, size());
    }
  }
  MoveFloor(new_last);
}

void SlidingWindow::Clear() {
  ahead_.Clear();
  passed_.clear();
  floor_ = std::numeric_limits<storage::LogIndex>::min();
}

std::vector<storage::LogIndex> SlidingWindow::Indices() const {
  std::vector<storage::LogIndex> out;
  out.reserve(size());
  for (const auto& [index, slot] : passed_) out.push_back(index);
  ahead_.ForEach(
      [&out](storage::LogIndex index, const Slot&) { out.push_back(index); });
  return out;
}

}  // namespace nbraft::raft
