#include "obs/exporter.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <set>
#include <utility>

#include "obs/series_store.h"

namespace nbraft::obs {

namespace {

constexpr int kInstantTid = 99;  ///< Shared track for point events per pid.

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

double ToTraceUs(SimTime t) { return static_cast<double>(t) / 1000.0; }

std::string DefaultEndpointName(int32_t id) {
  return "endpoint " + std::to_string(id);
}

std::function<std::string(int32_t)> Namer(const ExportInputs& inputs) {
  return inputs.endpoint_name ? inputs.endpoint_name : DefaultEndpointName;
}

/// Splits a canonical `subsystem.noun_verb[.nodeN]` name into a Prometheus
/// metric name (dots become underscores) and an optional node label.
struct PromName {
  std::string metric;
  std::string node;  ///< Empty when the series is cluster-wide.
};

PromName ToPromName(const std::string& name) {
  PromName out;
  std::string base = name;
  const size_t last_dot = name.rfind('.');
  if (last_dot != std::string::npos &&
      name.compare(last_dot + 1, 4, "node") == 0 &&
      last_dot + 5 < name.size()) {
    out.node = name.substr(last_dot + 5);
    base = name.substr(0, last_dot);
  }
  out.metric.reserve(base.size());
  for (const char c : base) {
    const bool ok = (std::isalnum(static_cast<unsigned char>(c)) != 0) ||
                    c == '_' || c == ':';
    out.metric.push_back(ok ? c : '_');
  }
  return out;
}

/// Emits one sample line, prefixing the family's `# TYPE` header the first
/// time the family appears (families repeat across `.nodeN` series).
void PromLine(std::FILE* f, std::set<std::string>* typed,
              const std::string& name, const char* type, double value) {
  const PromName p = ToPromName(name);
  if (typed->insert(p.metric).second) {
    std::fprintf(f, "# TYPE %s %s\n", p.metric.c_str(), type);
  }
  if (p.node.empty()) {
    std::fprintf(f, "%s %.17g\n", p.metric.c_str(), value);
  } else {
    std::fprintf(f, "%s{node=\"%s\"} %.17g\n", p.metric.c_str(),
                 p.node.c_str(), value);
  }
}

}  // namespace

Status WriteChromeTrace(const std::string& path,
                        const ExportInputs& inputs) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
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

  if (inputs.sampler != nullptr) {
    const auto& names = inputs.sampler->series_names();
    for (const Sampler::Sample& sample : inputs.sampler->samples()) {
      for (size_t i = 0; i < names.size() && i < sample.values.size(); ++i) {
        sep();
        std::fprintf(f.get(),
                     "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":0,"
                     "\"args\":{\"value\":%.6g}}",
                     names[i].c_str(), ToTraceUs(sample.at),
                     sample.values[i]);
      }
    }
  }

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
  if (std::ferror(f.get()) != 0) {
    return Status::IoError("write failed for " + path);
  }
  return Status::Ok();
}

Status WriteJsonl(const std::string& path, const ExportInputs& inputs) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    return Status::IoError("cannot open trace file " + path);
  }

  if (inputs.tracer != nullptr || inputs.journal != nullptr) {
    std::fputs("{\"type\":\"meta\"", f.get());
    if (inputs.tracer != nullptr) {
      std::fprintf(f.get(),
                   ",\"spans_recorded\":%" PRIu64 ",\"spans_dropped\":%" PRIu64,
                   inputs.tracer->spans_recorded(),
                   inputs.tracer->spans_dropped());
    }
    if (inputs.journal != nullptr) {
      std::fprintf(f.get(),
                   ",\"events_recorded\":%" PRIu64
                   ",\"events_dropped\":%" PRIu64,
                   inputs.journal->events_recorded(),
                   inputs.journal->events_dropped());
    }
    std::fputs("}\n", f.get());
  }
  if (inputs.tracer != nullptr) {
    for (const SpanEvent& s : inputs.tracer->spans()) {
      std::fprintf(f.get(),
                   "{\"type\":\"span\",\"phase\":\"%s\",\"node\":%d,"
                   "\"term\":%" PRId64 ",\"index\":%" PRId64
                   ",\"request_id\":%" PRIu64 ",\"start_ns\":%" PRId64
                   ",\"end_ns\":%" PRId64 "}\n",
                   std::string(metrics::PhaseNotation(s.phase)).c_str(),
                   s.node, s.term, s.index, s.request_id, s.start, s.end);
    }
  }
  if (inputs.journal != nullptr) {
    for (const JournalEvent& e : inputs.journal->MergedEvents()) {
      std::fprintf(f.get(),
                   "{\"type\":\"instant\",\"name\":\"%s\",\"node\":%d,"
                   "\"peer\":%d,\"at_ns\":%" PRId64 ",\"a\":%" PRId64
                   ",\"b\":%" PRId64 "}\n",
                   Journal::KindName(e.kind), e.node, e.peer, e.at, e.a, e.b);
    }
  }

  if (inputs.sampler != nullptr) {
    const auto& names = inputs.sampler->series_names();
    for (const Sampler::Sample& sample : inputs.sampler->samples()) {
      for (size_t i = 0; i < names.size() && i < sample.values.size(); ++i) {
        std::fprintf(f.get(),
                     "{\"type\":\"sample\",\"series\":\"%s\",\"at_ns\":%" PRId64
                     ",\"value\":%.6g}\n",
                     names[i].c_str(), sample.at, sample.values[i]);
      }
    }
  }

  if (inputs.registry != nullptr) {
    for (const auto& [name, value] : inputs.registry->CounterValues()) {
      std::fprintf(f.get(),
                   "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%" PRId64
                   "}\n",
                   name.c_str(), value);
    }
    for (const auto& [name, value] : inputs.registry->GaugeValues()) {
      std::fprintf(f.get(),
                   "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%.6g}\n",
                   name.c_str(), value);
    }
  }

  if (std::ferror(f.get()) != 0) {
    return Status::IoError("write failed for " + path);
  }
  return Status::Ok();
}

Status WritePrometheusText(const std::string& path,
                           const ExportInputs& inputs) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    return Status::IoError("cannot open metrics file " + path);
  }
  std::set<std::string> typed;
  if (inputs.registry != nullptr) {
    for (const auto& [name, value] : inputs.registry->CounterValues()) {
      PromLine(f.get(), &typed, name, "counter",
               static_cast<double>(value));
    }
    for (const auto& [name, value] : inputs.registry->GaugeValues()) {
      PromLine(f.get(), &typed, name, "gauge", value);
    }
  }
  if (inputs.sampler != nullptr && !inputs.sampler->samples().empty()) {
    const Sampler::Sample& last = inputs.sampler->samples().back();
    const auto& names = inputs.sampler->series_names();
    for (size_t i = 0; i < names.size() && i < last.values.size(); ++i) {
      PromLine(f.get(), &typed, names[i], "gauge", last.values[i]);
    }
  }
  if (std::ferror(f.get()) != 0) {
    return Status::IoError("write failed for " + path);
  }
  return Status::Ok();
}

Status WriteMetricsJson(const std::string& path, const ExportInputs& inputs) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    return Status::IoError("cannot open metrics file " + path);
  }
  std::fputs("{\"schema\":\"nbraft-obs-metrics-v1\"", f.get());
  if (inputs.sampler != nullptr) {
    std::fprintf(f.get(), ",\"sample_interval_ns\":%" PRId64,
                 inputs.sampler->interval());
  }

  std::fputs(",\"counters\":{", f.get());
  bool first = true;
  if (inputs.registry != nullptr) {
    for (const auto& [name, value] : inputs.registry->CounterValues()) {
      std::fprintf(f.get(), "%s\"%s\":%" PRId64, first ? "" : ",",
                   name.c_str(), value);
      first = false;
    }
  }
  std::fputs("},\"gauges\":{", f.get());
  first = true;
  if (inputs.registry != nullptr) {
    for (const auto& [name, value] : inputs.registry->GaugeValues()) {
      std::fprintf(f.get(), "%s\"%s\":%.17g", first ? "" : ",",
                   name.c_str(), value);
      first = false;
    }
  }
  std::fputs("},\"series\":[", f.get());

  // One entry per sampled series. With a SeriesStore attached the points
  // are decoded back from the Gorilla chunks (proving the compressed
  // stream holds the full-resolution data); otherwise the raw sample
  // stream is used and the compression accounting reads zero.
  first = true;
  if (inputs.sampler != nullptr) {
    const auto& names = inputs.sampler->series_names();
    const SeriesStore* store = inputs.sampler->series_store();
    for (size_t i = 0; i < names.size(); ++i) {
      if (!first) std::fputc(',', f.get());
      first = false;
      std::fprintf(f.get(), "{\"name\":\"%s\",\"points\":[",
                   names[i].c_str());
      bool first_point = true;
      size_t encoded_bytes = 0;
      size_t raw_bytes = 0;
      size_t sealed_chunks = 0;
      if (store != nullptr && i < store->series_count()) {
        auto points = store->Decode(i);
        if (!points.ok()) return points.status();
        for (const tsdb::Point& p : *points) {
          std::fprintf(f.get(), "%s[%" PRId64 ",%.17g]",
                       first_point ? "" : ",", p.timestamp, p.value);
          first_point = false;
        }
        encoded_bytes = store->encoded_bytes(i);
        raw_bytes = store->raw_bytes(i);
        sealed_chunks = store->chunks(i).size();
      } else {
        for (const Sampler::Sample& sample : inputs.sampler->samples()) {
          if (i >= sample.values.size()) continue;
          std::fprintf(f.get(), "%s[%" PRId64 ",%.17g]",
                       first_point ? "" : ",", sample.at, sample.values[i]);
          first_point = false;
        }
      }
      std::fprintf(f.get(),
                   "],\"encoded_bytes\":%zu,\"raw_bytes\":%zu,"
                   "\"sealed_chunks\":%zu}",
                   encoded_bytes, raw_bytes, sealed_chunks);
    }
  }
  std::fputs("]}\n", f.get());
  if (std::ferror(f.get()) != 0) {
    return Status::IoError("write failed for " + path);
  }
  return Status::Ok();
}

}  // namespace nbraft::obs
