#ifndef NBRAFT_OBS_TRACER_H_
#define NBRAFT_OBS_TRACER_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "metrics/breakdown.h"

namespace nbraft::obs {

/// One completed lifecycle phase of a replicated entry: the paper's Table I
/// taxonomy stamped with virtual time. Spans on the client path (before the
/// leader assigns a slot) carry only `request_id`; replication spans carry
/// (term, index), and those that handle the entry itself (t_trans(LF),
/// t_wait(F), t_append(F), t_apply(L)) carry the request id as well, which
/// joins the two key spaces.
struct SpanEvent {
  metrics::Phase phase = metrics::Phase::kNumPhases;
  int32_t node = -1;        ///< Replica id or client endpoint id.
  int64_t term = 0;         ///< 0 when not yet assigned.
  int64_t index = 0;        ///< 0 when not yet assigned.
  uint64_t request_id = 0;  ///< 0 for entries without a client (no-ops).
  SimTime start = 0;
  SimTime end = 0;

  SimDuration duration() const { return end - start; }
};

/// Records per-entry lifecycle spans into a fixed-capacity ring buffer.
/// Recording is O(1) with no allocation after construction; when the
/// buffer is full the oldest span is overwritten (a dropped counter tracks
/// the loss). The rest of the codebase holds a `Tracer*` that is simply
/// nullptr when tracing is off — zero cost on the hot paths. Point events
/// (elections, RPCs, window transitions, nemesis actions) are not spans:
/// they go to the obs::Journal.
class Tracer {
 public:
  explicit Tracer(size_t span_capacity = 1 << 20);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void RecordSpan(metrics::Phase phase, int32_t node, int64_t term,
                  int64_t index, uint64_t request_id, SimTime start,
                  SimTime end);

  /// Retained spans, oldest first.
  std::vector<SpanEvent> spans() const;

  size_t span_count() const;  ///< Retained (<= capacity).
  uint64_t spans_recorded() const { return spans_recorded_; }
  uint64_t spans_dropped() const { return spans_dropped_; }

  void Clear();

 private:
  std::vector<SpanEvent> span_ring_;
  size_t span_head_ = 0;  ///< Next write position.
  uint64_t spans_recorded_ = 0;
  uint64_t spans_dropped_ = 0;
};

}  // namespace nbraft::obs

#endif  // NBRAFT_OBS_TRACER_H_
