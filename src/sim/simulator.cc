#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace nbraft::sim {

namespace {

EventId MakeId(uint32_t slot, uint32_t generation) {
  return (static_cast<EventId>(generation) << 32) |
         (static_cast<EventId>(slot) + 1);
}

}  // namespace

Simulator::Simulator(uint64_t seed) : rng_(seed) {
  heap_.reserve(1024);
  slots_.reserve(1024);
  free_slots_.reserve(1024);
}

uint32_t Simulator::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

EventId Simulator::At(SimTime when, EventFn fn) {
  if (when < now_) when = now_;
  const uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(HeapItem{when, next_seq_++, slot, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return MakeId(slot, s.generation);
}

EventId Simulator::After(SimDuration delay, EventFn fn) {
  if (delay < 0) delay = 0;
  return At(now_ + delay, std::move(fn));
}

void Simulator::Cancel(EventId id) {
  const uint64_t low = id & 0xFFFFFFFFull;
  if (low == 0) return;  // kInvalidEventId.
  const auto slot = static_cast<size_t>(low - 1);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.generation != static_cast<uint32_t>(id >> 32)) return;  // Stale id.
  s.fn = EventFn();
  ++s.generation;  // Invalidates the heap record.
  free_slots_.push_back(static_cast<uint32_t>(slot));
  --live_;
  BoundHeap();
}

void Simulator::BoundHeap() {
  if (heap_.size() <= 2 * live_ + kHeapSlack) return;
  std::erase_if(heap_, [this](const HeapItem& item) {
    return slots_[item.slot].generation != item.generation;
  });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulator::Step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const HeapItem item = heap_.back();
    heap_.pop_back();
    Slot& s = slots_[item.slot];
    if (s.generation != item.generation) continue;  // Cancelled.
    NBRAFT_CHECK_GE(item.when, now_);
    now_ = item.when;
    EventFn fn = std::move(s.fn);
    // Retire the slot before firing so the callback can reuse it and a
    // self-Cancel of the now-stale id is a no-op.
    ++s.generation;
    free_slots_.push_back(item.slot);
    --live_;
    ++events_processed_;
    BoundHeap();
    if (fn) fn();
    return true;
  }
  return false;
}

void Simulator::Run(uint64_t max_events) {
  for (uint64_t i = 0; i < max_events; ++i) {
    if (!Step()) return;
  }
}

void Simulator::RunUntil(SimTime t) {
  while (!heap_.empty()) {
    // Reap cancelled heads so heap_.front().when is a live event time.
    const HeapItem& top = heap_.front();
    if (slots_[top.slot].generation != top.generation) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      continue;
    }
    if (top.when > t) break;
    Step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace nbraft::sim
