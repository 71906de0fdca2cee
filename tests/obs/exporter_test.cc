#include "obs/exporter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/journal.h"
#include "obs/sampler.h"
#include "obs/tracer.h"
#include "sim/simulator.h"
#include "tests/common/temp_path.h"

namespace nbraft::obs {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ExporterTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& path : cleanup_) std::remove(path.c_str());
  }

  std::string TempPath(const std::string& name) {
    std::string path = test_util::TestTempPath(name).string();
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

TEST_F(ExporterTest, ChromeTraceContainsSpansInstantsAndCounters) {
  sim::Simulator sim(1);
  Tracer tracer;
  tracer.RecordSpan(metrics::Phase::kAppendFollower, 2, 5, 17, 99,
                    Micros(10), Micros(25));
  Journal journal(&sim, 3);
  journal.RecordAt(Micros(12), JournalEventKind::kWindowInsert, 2, -1, 17, 3);

  Sampler sampler(&sim, Millis(1));
  sampler.AddSource("depth", []() { return 7.0; });
  sampler.Start();
  sim.RunUntil(Millis(2));

  ExportInputs inputs;
  inputs.tracer = &tracer;
  inputs.journal = &journal;
  inputs.sampler = &sampler;
  inputs.endpoint_name = [](int32_t id) {
    return "node " + std::to_string(id);
  };

  const std::string path = TempPath("trace.json");
  ASSERT_TRUE(WriteChromeTrace(path, inputs).ok());
  const std::string body = Slurp(path);

  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  // The span: a complete event with duration 15us on pid 2.
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("t_append(F)"), std::string::npos);
  // The journal event: an instant named by its kind, at 12us on pid 2,
  // carrying its peer and arguments.
  EXPECT_NE(body.find("{\"name\":\"raft.window_insert\",\"cat\":\"event\","
                      "\"ph\":\"i\",\"s\":\"p\",\"ts\":12.000,\"pid\":2,"
                      "\"tid\":99,\"args\":{\"peer\":-1,\"a\":17,\"b\":3}}"),
            std::string::npos)
      << body;
  // Sampler series become counter tracks, one point per tick.
  EXPECT_NE(body.find("{\"name\":\"depth\",\"ph\":\"C\",\"ts\":2000.000,"
                      "\"pid\":0,\"args\":{\"value\":7}}"),
            std::string::npos)
      << body;
  // Endpoint naming made it into the metadata.
  EXPECT_NE(body.find("node 2"), std::string::npos);
  // Valid JSON shape at the extremes.
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.back(), '\n');
}

// The Chrome trace is the only serialization of spans, so its microsecond
// `ts`/`dur` text must give back every integer-nanosecond bound exactly,
// including sub-microsecond remainders and starts a day into a run.
TEST_F(ExporterTest, ChromeTraceKeepsIntegerNanosecondSpanBounds) {
  Tracer tracer;
  const std::vector<std::pair<SimTime, SimTime>> bounds = {
      {0, 1},
      {999, 1001},
      {Micros(10) + 7, Micros(25) + 993},
      {Seconds(3600) + 123456789, Seconds(3600) + 123456789 + 1},
      {Seconds(86400) - 1, Seconds(86400) + 999999999}};
  for (size_t i = 0; i < bounds.size(); ++i) {
    tracer.RecordSpan(metrics::Phase::kCommit, 0, 1,
                      static_cast<int64_t>(i + 1), 0, bounds[i].first,
                      bounds[i].second);
  }
  ExportInputs inputs;
  inputs.tracer = &tracer;
  const std::string path = TempPath("ns_bounds.json");
  ASSERT_TRUE(WriteChromeTrace(path, inputs).ok());
  const std::string body = Slurp(path);

  size_t pos = 0;
  size_t parsed = 0;
  while ((pos = body.find("\"ph\":\"X\",\"ts\":", pos)) !=
         std::string::npos) {
    double ts = 0;
    double dur = 0;
    long long index = 0;
    ASSERT_EQ(std::sscanf(body.c_str() + pos,
                          "\"ph\":\"X\",\"ts\":%lf,\"dur\":%lf,"
                          "\"pid\":%*d,\"tid\":%*d,\"args\":{\"term\":%*d,"
                          "\"index\":%lld",
                          &ts, &dur, &index),
              3)
        << body.substr(pos, 120);
    ASSERT_GE(index, 1);
    ASSERT_LE(index, static_cast<long long>(bounds.size()));
    const auto& [start, end] = bounds[static_cast<size_t>(index - 1)];
    const SimTime got_start = std::llround(ts * 1000.0);
    EXPECT_EQ(got_start, start) << "span " << index;
    EXPECT_EQ(got_start + std::llround(dur * 1000.0), end)
        << "span " << index;
    ++parsed;
    ++pos;
  }
  EXPECT_EQ(parsed, bounds.size());
}

TEST_F(ExporterTest, EmptyInputsProduceValidFiles) {
  // Every exporter must tolerate a cluster with all collectors off.
  ExportInputs inputs;

  const std::string trace = TempPath("empty_trace.json");
  ASSERT_TRUE(WriteChromeTrace(trace, inputs).ok());
  const std::string trace_body = Slurp(trace);
  EXPECT_NE(trace_body.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(trace_body.front(), '{');

  const std::string json = TempPath("empty_metrics.json");
  ASSERT_TRUE(WriteMetricsJson(json, inputs).ok());
  const std::string json_body = Slurp(json);
  EXPECT_EQ(json_body, "{\"schema\":\"nbraft-obs-metrics-v2\",\"series\":[]}\n");
}

TEST_F(ExporterTest, MetricsJsonEmitsDecodedCompressedSeries) {
  sim::Simulator sim(1);
  Sampler sampler(&sim, Millis(1));
  std::vector<double> raw;
  sampler.AddSource("raft.apply_lag", [&raw]() {
    raw.push_back(0.125 * static_cast<double>(raw.size()));
    return raw.back();
  });
  sampler.Start();
  // Past the store's 512-point chunk: one sealed chunk plus an open tail.
  sim.RunUntil(Millis(600));

  ExportInputs inputs;
  inputs.sampler = &sampler;
  const std::string path = TempPath("metrics.json");
  ASSERT_TRUE(WriteMetricsJson(path, inputs).ok());
  const std::string body = Slurp(path);

  EXPECT_EQ(body.find("{\"schema\":\"nbraft-obs-metrics-v2\","
                      "\"sample_interval_ns\":1000000,\"series\":[{\"name\":"
                      "\"raft.apply_lag\",\"points\":[[0,0],[1000000,0.125],"),
            0u)
      << body.substr(0, 200);
  // Every sample reappears, decoded from the Gorilla chunks. 0.125 steps
  // are exact in binary so the %.17g text is exact too.
  for (size_t i = 0; i < raw.size(); ++i) {
    char point[64];
    std::snprintf(point, sizeof(point), "[%lld,%.17g]",
                  static_cast<long long>(Millis(static_cast<int64_t>(i))),
                  raw[i]);
    EXPECT_NE(body.find(point), std::string::npos) << point;
  }
  char accounting[96];
  std::snprintf(accounting, sizeof(accounting),
                "],\"encoded_bytes\":%zu,\"raw_bytes\":%zu,"
                "\"sealed_chunks\":1}]}\n",
                sampler.store().encoded_bytes(0), raw.size() * 16);
  EXPECT_NE(body.find(accounting), std::string::npos) << accounting;
}

// trace.json keeps only the spans the ring retained, so metrics.json
// carries the ring's counters and a truncated span stream shows.
TEST_F(ExporterTest, MetricsJsonCarriesSpanRingCounters) {
  Tracer tracer(2);
  for (int i = 0; i < 5; ++i) {
    tracer.RecordSpan(metrics::Phase::kCommit, 0, 1, i + 1, 0, i, i + 1);
  }
  ExportInputs inputs;
  inputs.tracer = &tracer;
  const std::string path = TempPath("span_counters.json");
  ASSERT_TRUE(WriteMetricsJson(path, inputs).ok());
  EXPECT_EQ(Slurp(path),
            "{\"schema\":\"nbraft-obs-metrics-v2\",\"spans_recorded\":5,"
            "\"spans_dropped\":3,\"series\":[]}\n");
}

TEST_F(ExporterTest, UnwritablePathReturnsIoError) {
  Tracer tracer;
  ExportInputs inputs;
  inputs.tracer = &tracer;
  const Status s =
      WriteChromeTrace("/nonexistent-dir/never/trace.json", inputs);
  EXPECT_FALSE(s.ok());
}

// A full disk fails only when stdio flushes its buffer, after the last
// fprintf, so every writer must check the flush and the close.
TEST_F(ExporterTest, FullDeviceReturnsIoError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  sim::Simulator sim(1);
  Tracer tracer;
  tracer.RecordSpan(metrics::Phase::kCommit, 0, 1, 2, 3, 0, 100);
  Sampler sampler(&sim, Millis(1));
  sampler.AddSource("raft.apply_lag", []() { return 1.0; });
  sampler.Start();
  ExportInputs inputs;
  inputs.tracer = &tracer;
  inputs.sampler = &sampler;

  for (const auto writer : {&WriteChromeTrace, &WriteMetricsJson}) {
    const Status s = writer("/dev/full", inputs);
    EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  }
}

}  // namespace
}  // namespace nbraft::obs
