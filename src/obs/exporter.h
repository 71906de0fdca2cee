#ifndef NBRAFT_OBS_EXPORTER_H_
#define NBRAFT_OBS_EXPORTER_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "obs/journal.h"
#include "obs/sampler.h"
#include "obs/tracer.h"

namespace nbraft::obs {

/// What to export. Any member may be nullptr; the exporters skip it.
struct ExportInputs {
  const Tracer* tracer = nullptr;    ///< Lifecycle spans.
  const Journal* journal = nullptr;  ///< Point events.
  const Sampler* sampler = nullptr;  ///< Sampled series, read from its store.

  /// Maps an endpoint id to a display name ("node 2", "client 17"). The
  /// default labels everything "endpoint N".
  std::function<std::string(int32_t)> endpoint_name;
};

/// Writes a Chrome `trace_event` JSON file loadable in chrome://tracing or
/// https://ui.perfetto.dev. Spans become "X" (complete) events — one track
/// per (endpoint, phase) — journal events become "i" instants named by
/// their Journal::KindName, and sampler series become "C" counter tracks.
/// Virtual-time nanoseconds map to trace microseconds. Like every writer
/// here, it returns IoError when the file cannot be opened or written.
Status WriteChromeTrace(const std::string& path, const ExportInputs& inputs);

/// Writes a flat JSONL dump (one JSON object per line, `type` field keyed)
/// for scripts: a meta line with the span and journal ring counters, then
/// spans, instants (journal events), samples.
Status WriteJsonl(const std::string& path, const ExportInputs& inputs);

/// Writes a Prometheus text-format (v0.0.4) snapshot: the latest value of
/// every sampled series, as a gauge. Names are sanitized to the Prometheus
/// charset (`raft.window_occupancy.node2` becomes
/// `raft_window_occupancy{node="2"}`).
Status WritePrometheusText(const std::string& path,
                           const ExportInputs& inputs);

/// Writes a single-document JSON metrics snapshot (schema
/// `nbraft-obs-metrics-v2`): the sample interval and every sampled series
/// decoded back to full resolution from the sampler's store, plus its
/// compression accounting. This is the file tools/obs_report.py renders
/// the dashboard from.
Status WriteMetricsJson(const std::string& path, const ExportInputs& inputs);

}  // namespace nbraft::obs

#endif  // NBRAFT_OBS_EXPORTER_H_
