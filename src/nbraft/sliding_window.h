#ifndef NBRAFT_NBRAFT_SLIDING_WINDOW_H_
#define NBRAFT_NBRAFT_SLIDING_WINDOW_H_

#include <limits>
#include <map>
#include <vector>

#include "common/index_ring.h"
#include "common/sim_time.h"
#include "storage/log_entry.h"

namespace nbraft::raft {

/// The follower-side cache of NB-Raft (paper Sec. III-A): out-of-order
/// entries that are received but not yet appendable are held here, in a
/// window covering indices (last_appended, last_appended + capacity].
///
/// Entries are keyed by absolute log index — the paper's "position j holds
/// index i + j" with i the last appended index. The window enforces the
/// continuity rules of Sec. III-A2a on insertion and hands back flushable
/// prefixes (Sec. III-A2b) when the head of the window becomes continuous
/// with the log.
///
/// The class is pure data structure (no I/O, no clock) so the unit tests can
/// replay the paper's Figs. 7, 8 and 9 literally. Each cached entry may
/// carry the time it was received, which comes back when it flushes.
///
/// The window proper is an IndexRing over (log end, log end + capacity],
/// so caching and flushing allocate nothing once the ring has grown to w.
class SlidingWindow {
 public:
  /// Observability hook: the tracing layer subscribes to the window's
  /// state transitions (insert / continuity eviction / flush) without the
  /// window needing a clock or a tracer of its own. Callbacks fire after
  /// the mutation, with the resulting occupancy.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void OnInsert(storage::LogIndex index, size_t occupancy) = 0;
    virtual void OnEvict(storage::LogIndex index, size_t occupancy) = 0;
    virtual void OnFlush(storage::LogIndex first, size_t count,
                         size_t occupancy) = 0;
  };

  /// Receive time of an entry cached without one.
  static constexpr SimTime kNoReceiveTime = -1;

  /// A flushed entry and the receive time it was cached with.
  struct Flushed {
    storage::LogEntry entry;
    SimTime received_at = kNoReceiveTime;
  };

  /// `capacity` is the paper's window size w; 0 degenerates to original
  /// Raft (nothing can ever be cached).
  explicit SlidingWindow(int capacity);

  /// nullptr detaches. The window does not own the observer.
  void set_observer(Observer* observer) { observer_ = observer; }

  int capacity() const { return capacity_; }
  size_t size() const { return ahead_.size() + passed_.size(); }
  bool empty() const { return size() == 0; }

  /// True if an index is currently cached.
  bool Contains(storage::LogIndex index) const {
    return Find(index) != nullptr;
  }

  /// Cached entry at `index`; requires Contains(index).
  const storage::LogEntry& At(storage::LogIndex index) const;

  /// Inserts `entry` (which the caller has checked to fall inside the
  /// window: last_appended + 1 < entry.index <= last_appended + capacity),
  /// applying the continuity rules:
  ///   * a predecessor at index-1 that is not the entry's previous entry
  ///     (term != entry.prev_term) is removed;
  ///   * a successor at index+1 for which the entry is not the previous
  ///     entry (successor.prev_term != entry.term) is removed together with
  ///     every entry after it.
  /// Re-inserting an index replaces the old entry (after the same checks).
  /// `received_at` is kept with the entry until it flushes.
  void Insert(const storage::LogEntry& entry,
              SimTime received_at = kNoReceiveTime);

  /// Pops the continuous prefix starting at `last_index + 1` whose
  /// prev_term chain extends (last_index, last_term); the caller appends
  /// the returned entries to the log (the paper's "flush", Fig. 9).
  ///
  /// `last_index` is the log end: an entry cached at or below it was
  /// passed by a different entry the log appended at its index, so it can
  /// no longer flush there and forgets its receive time. It stays cached
  /// (and counted) until evicted, and flushes again only if a truncation
  /// moves the log end back below it.
  std::vector<storage::LogEntry> TakeFlushablePrefix(
      storage::LogIndex last_index, storage::Term last_term);
  /// The same into a caller-owned buffer (cleared first), with each
  /// entry's receive time: a caller flushing on every append reuses one
  /// allocation.
  void TakeFlushablePrefix(storage::LogIndex last_index,
                           storage::Term last_term,
                           std::vector<Flushed>* out);

  /// Reacts to the appended log changing shape after a truncation /
  /// replacement (Sec. III-A1, Fig. 7): the window "moves leftwards".
  /// Drops every cached entry that
  ///   * now falls at or before the new last appended index, or
  ///   * exceeds the new window end (new_last + capacity), or
  ///   * has a term lower than `min_term` (stale entries from old leaders).
  void OnLogReshaped(storage::LogIndex new_last, storage::Term min_term);

  /// Removes everything (leader change cleanup).
  void Clear();

  /// Cached indices in ascending order (for tests and introspection).
  std::vector<storage::LogIndex> Indices() const;

 private:
  using Slot = Flushed;

  Slot* Find(storage::LogIndex index);
  const Slot* Find(storage::LogIndex index) const {
    return const_cast<SlidingWindow*>(this)->Find(index);
  }
  void Erase(storage::LogIndex index);
  /// Moves the ahead_/passed_ boundary to the log end `last_index`.
  void MoveFloor(storage::LogIndex last_index);
  /// Pops the flushable prefix above `last_index`, handing each slot to
  /// `emit` in order; returns the count.
  template <typename Emit>
  size_t FlushPrefix(storage::LogIndex last_index, storage::Term last_term,
                     Emit&& emit);

  int capacity_;
  /// The log end the window last heard of (TakeFlushablePrefix,
  /// OnLogReshaped); lowest possible value until the first.
  storage::LogIndex floor_ = std::numeric_limits<storage::LogIndex>::min();
  /// Cached entries above floor_: the window proper.
  IndexRing<Slot> ahead_;
  /// Cached entries at or below floor_, which the log has passed. Rare
  /// (a leader change while a stale chain is cached), so a map: in the
  /// ring they would stretch its span as the log moves on.
  std::map<storage::LogIndex, Slot> passed_;
  Observer* observer_ = nullptr;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_NBRAFT_SLIDING_WINDOW_H_
