#include "obs/tracer.h"

#include "common/logging.h"

namespace nbraft::obs {

Tracer::Tracer(size_t span_capacity) {
  NBRAFT_CHECK_GT(span_capacity, 0u);
  span_ring_.resize(span_capacity);
}

void Tracer::RecordSpan(metrics::Phase phase, int32_t node, int64_t term,
                        int64_t index, uint64_t request_id, SimTime start,
                        SimTime end) {
  if (spans_recorded_ >= span_ring_.size()) ++spans_dropped_;
  span_ring_[span_head_] =
      SpanEvent{phase, node, term, index, request_id, start, end};
  span_head_ = (span_head_ + 1) % span_ring_.size();
  ++spans_recorded_;
}

size_t Tracer::span_count() const {
  return spans_recorded_ < span_ring_.size()
             ? static_cast<size_t>(spans_recorded_)
             : span_ring_.size();
}

std::vector<SpanEvent> Tracer::spans() const {
  std::vector<SpanEvent> out;
  const size_t n = span_count();
  out.reserve(n);
  // Oldest element sits at the head once the ring has wrapped.
  const size_t start =
      spans_recorded_ < span_ring_.size() ? 0 : span_head_;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(span_ring_[(start + i) % span_ring_.size()]);
  }
  return out;
}

void Tracer::Clear() {
  span_head_ = 0;
  spans_recorded_ = 0;
  spans_dropped_ = 0;
}

}  // namespace nbraft::obs
