#include "obs/exporter.h"

#include <cinttypes>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "obs/output_file.h"

namespace nbraft::obs {

namespace {

constexpr int kInstantTid = 99;  ///< Shared track for point events per pid.

double ToTraceUs(SimTime t) { return static_cast<double>(t) / 1000.0; }

std::string DefaultEndpointName(int32_t id) {
  return "endpoint " + std::to_string(id);
}

std::function<std::string(int32_t)> Namer(const ExportInputs& inputs) {
  return inputs.endpoint_name ? inputs.endpoint_name : DefaultEndpointName;
}

/// Decodes every series of the sampler's store and calls `emit(name,
/// point)` tick-major: each tick's series in source order, the order the
/// sampler read them. No-op when `sampler` is nullptr.
template <typename Emit>
Status ForEachSample(const Sampler* sampler, const Emit& emit) {
  if (sampler == nullptr) return Status::Ok();
  const SeriesStore& store = sampler->store();
  std::vector<std::vector<tsdb::Point>> series;
  series.reserve(store.series_count());
  for (size_t i = 0; i < store.series_count(); ++i) {
    auto points = store.Decode(i);
    if (!points.ok()) return points.status();
    series.push_back(std::move(*points));
  }
  const size_t ticks = series.empty() ? 0 : series.front().size();
  for (size_t t = 0; t < ticks; ++t) {
    for (size_t i = 0; i < series.size(); ++i) {
      emit(store.name(i), series[i][t]);
    }
  }
  return Status::Ok();
}

}  // namespace

Status WriteChromeTrace(const std::string& path,
                        const ExportInputs& inputs) {
  OutputFile f(path);
  if (f.get() == nullptr) {
    return Status::IoError("cannot open trace file " + path);
  }
  const auto name_of = Namer(inputs);

  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f.get());
  bool first = true;
  const auto sep = [&first, &f]() {
    if (!first) std::fputs(",\n", f.get());
    first = false;
  };

  std::set<int32_t> pids;
  std::set<std::pair<int32_t, int>> phase_tracks;
  if (inputs.tracer != nullptr) {
    for (const SpanEvent& s : inputs.tracer->spans()) {
      pids.insert(s.node);
      phase_tracks.emplace(s.node, static_cast<int>(s.phase));
      sep();
      std::fprintf(
          f.get(),
          "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"term\":%" PRId64
          ",\"index\":%" PRId64 ",\"request_id\":%" PRIu64 "}}",
          std::string(metrics::PhaseNotation(s.phase)).c_str(),
          ToTraceUs(s.start), ToTraceUs(s.end - s.start), s.node,
          static_cast<int>(s.phase), s.term, s.index, s.request_id);
    }
  }
  if (inputs.journal != nullptr) {
    for (const JournalEvent& e : inputs.journal->MergedEvents()) {
      pids.insert(e.node);
      sep();
      std::fprintf(f.get(),
                   "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\","
                   "\"s\":\"p\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
                   "\"args\":{\"peer\":%d,\"a\":%" PRId64 ",\"b\":%" PRId64
                   "}}",
                   Journal::KindName(e.kind), ToTraceUs(e.at), e.node,
                   kInstantTid, e.peer, e.a, e.b);
    }
  }

  const Status sampled = ForEachSample(
      inputs.sampler, [&](const std::string& name, const tsdb::Point& p) {
        sep();
        std::fprintf(f.get(),
                     "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":0,"
                     "\"args\":{\"value\":%.6g}}",
                     name.c_str(), ToTraceUs(p.timestamp), p.value);
      });
  if (!sampled.ok()) return sampled;

  // Metadata: human-readable process and track names.
  for (const int32_t pid : pids) {
    sep();
    std::fprintf(f.get(),
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"args\":{\"name\":\"%s\"}}",
                 pid, name_of(pid).c_str());
    sep();
    std::fprintf(f.get(),
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"name\":\"events\"}}",
                 pid, kInstantTid);
  }
  for (const auto& [pid, phase] : phase_tracks) {
    sep();
    std::fprintf(
        f.get(),
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        pid, phase,
        std::string(metrics::PhaseNotation(static_cast<metrics::Phase>(phase)))
            .c_str());
  }

  std::fputs("\n]}\n", f.get());
  return f.Close();
}

Status WriteMetricsJson(const std::string& path, const ExportInputs& inputs) {
  OutputFile f(path);
  if (f.get() == nullptr) {
    return Status::IoError("cannot open metrics file " + path);
  }
  std::fputs("{\"schema\":\"nbraft-obs-metrics-v2\"", f.get());
  if (inputs.tracer != nullptr) {
    std::fprintf(f.get(),
                 ",\"spans_recorded\":%" PRIu64 ",\"spans_dropped\":%" PRIu64,
                 inputs.tracer->spans_recorded(),
                 inputs.tracer->spans_dropped());
  }
  if (inputs.sampler != nullptr) {
    std::fprintf(f.get(), ",\"sample_interval_ns\":%" PRId64,
                 inputs.sampler->interval());
  }

  // One entry per sampled series, decoded back from the Gorilla chunks
  // (proving the compressed stream holds the full-resolution data).
  std::fputs(",\"series\":[", f.get());
  if (inputs.sampler != nullptr) {
    const SeriesStore& store = inputs.sampler->store();
    for (size_t i = 0; i < store.series_count(); ++i) {
      auto points = store.Decode(i);
      if (!points.ok()) return points.status();
      std::fprintf(f.get(), "%s{\"name\":\"%s\",\"points\":[",
                   i == 0 ? "" : ",", store.name(i).c_str());
      for (size_t p = 0; p < points->size(); ++p) {
        std::fprintf(f.get(), "%s[%" PRId64 ",%.17g]", p == 0 ? "" : ",",
                     (*points)[p].timestamp, (*points)[p].value);
      }
      std::fprintf(f.get(),
                   "],\"encoded_bytes\":%zu,\"raw_bytes\":%zu,"
                   "\"sealed_chunks\":%zu}",
                   store.encoded_bytes(i), store.raw_bytes(i),
                   store.chunks(i).size());
    }
  }
  std::fputs("]}\n", f.get());
  return f.Close();
}

}  // namespace nbraft::obs
