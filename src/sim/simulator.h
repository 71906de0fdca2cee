#ifndef NBRAFT_SIM_SIMULATOR_H_
#define NBRAFT_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/sim_time.h"
#include "sim/event_fn.h"

namespace nbraft::sim {

/// Handle for a scheduled event; used to cancel timers (e.g. election
/// timeouts that are reset by heartbeats). Generation-tagged: the high
/// 32 bits are the owning slot's generation at scheduling time, the low
/// 32 bits are slot index + 1 (so 0 stays the invalid id). A fired or
/// cancelled event bumps its slot's generation, which invalidates every
/// outstanding handle to it in O(1).
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

/// Deterministic single-threaded discrete-event simulator.
///
/// All cluster activity — network delivery, CPU completion, protocol timers,
/// client think time — is expressed as events on one queue ordered by
/// (virtual time, insertion sequence). Runs with the same seed replay
/// bit-identically, which the integration tests rely on.
///
/// Internally the queue is a slab-pooled event arena: callbacks live in
/// recycled slots (no per-event heap allocation once the pool is warm —
/// EventFn keeps small captures inline), the heap holds plain
/// (when, seq, slot, generation) records, and Cancel is a generation bump
/// that leaves a stale record behind. The heap is bounded to the live set:
/// it never holds more than 2 * pending_events() + kHeapSlack records.
/// Once stale records outnumber live ones by more than the slack, they are
/// filtered out and the heap is rebuilt — amortized O(1) per cancel, so
/// timer churn (election, RPC and client timeouts re-armed per request)
/// cannot grow the heap past the events that can still fire.
class Simulator {
 public:
  explicit Simulator(uint64_t seed);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `when` (clamped to >= Now()).
  EventId At(SimTime when, EventFn fn);

  /// Schedules `fn` after `delay` (clamped to >= 0).
  EventId After(SimDuration delay, EventFn fn);

  /// Cancels a scheduled event. Cancelling an already-fired, already-
  /// cancelled, or invalid id is a no-op.
  void Cancel(EventId id);

  /// Runs one event; returns false when the queue is empty.
  bool Step();

  /// Runs events until the queue is empty or `max_events` fired.
  void Run(uint64_t max_events = UINT64_MAX);

  /// Runs all events scheduled at times <= `t`, then advances Now() to `t`.
  void RunUntil(SimTime t);

  /// Root deterministic random stream for this run.
  nbraft::Rng* rng() { return &rng_; }

  uint64_t events_processed() const { return events_processed_; }
  size_t pending_events() const { return live_; }

  /// Records in the event heap, live and cancelled; at most
  /// 2 * pending_events() + kHeapSlack after every operation.
  size_t heap_records() const { return heap_.size(); }

  static constexpr size_t kHeapSlack = 1024;

 private:
  struct Slot {
    uint32_t generation = 1;
    EventFn fn;
  };

  /// Heap records are value-only; the callback stays in its slot so heap
  /// sifts move 24 bytes, not a type-erased callable. `seq` increments
  /// once per At() — the same tiebreaker sequence the pre-arena kernel
  /// used as its EventId — so replay ordering is bit-identical.
  struct HeapItem {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };

  /// Min-heap comparator (std::push_heap builds a max-heap by `comp`). A
  /// function object, so the heap algorithms inline it into their sifts.
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  uint32_t AcquireSlot();

  /// Drops cancelled records once they outnumber live ones by more than
  /// kHeapSlack. Pops follow the total order on (when, seq), so rebuilding
  /// the heap never changes which event fires next.
  void BoundHeap();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  size_t live_ = 0;
  std::vector<HeapItem> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  nbraft::Rng rng_;
};

}  // namespace nbraft::sim

#endif  // NBRAFT_SIM_SIMULATOR_H_
