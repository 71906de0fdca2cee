#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Host-time spans the benchmark records around each call it makes into a
/// layer (construction, RunFor slices, crashes, Collect, replay loops).
/// Kept in memory and written once at exit; a disabled recorder costs one
/// branch per call.
class Spans {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  Spans(bool enabled, std::string workload)
      : enabled_(enabled), workload_(std::move(workload)) {}

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// One JSON object per line: id, name, start/end (ns since process
  /// start), parent id and workload.
  bool WriteJsonl(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"workload\":\"%s\"}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   workload_.c_str());
    }
    return std::fclose(f) == 0;
  }

  static int64_t NowNs() {
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
  }

 private:
  bool enabled_;
  std::string workload_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span.
class SpanScope {
 public:
  SpanScope(Spans* spans, const std::string& name)
      : spans_(spans), id_(spans->Begin(name)) {}
  ~SpanScope() { spans_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
