#include "obs/exporter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
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

TEST_F(ExporterTest, JsonlEmitsOneObjectPerLine) {
  Tracer tracer;
  tracer.RecordSpan(metrics::Phase::kCommit, 0, 1, 2, 3, 0, 100);
  Journal::Options options;
  options.per_node_capacity = 1;
  Journal journal(nullptr, 1, options);
  journal.RecordAt(40, JournalEventKind::kRpcSend, 0, 1,
                   static_cast<int64_t>(JournalRpc::kHeartbeat), 64);
  journal.RecordAt(50, JournalEventKind::kRpcSend, 0, 1,
                   static_cast<int64_t>(JournalRpc::kHeartbeat), 64);

  sim::Simulator sim(1);
  Sampler sampler(&sim, Millis(1));
  sampler.AddSource("a", []() { return 1.5; });
  sampler.AddSource("b", []() { return 2.0; });
  sampler.Start();
  sim.RunUntil(Millis(1));

  ExportInputs inputs;
  inputs.tracer = &tracer;
  inputs.journal = &journal;
  inputs.sampler = &sampler;

  const std::string path = TempPath("trace.jsonl");
  ASSERT_TRUE(WriteJsonl(path, inputs).ok());
  const std::string body = Slurp(path);

  std::istringstream lines(body);
  std::string line;
  int spans = 0, instants = 0, samples = 0, metas = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"type\":\"span\"") != std::string::npos) ++spans;
    if (line.find("\"type\":\"instant\"") != std::string::npos) ++instants;
    if (line.find("\"type\":\"sample\"") != std::string::npos) ++samples;
    if (line.find("\"type\":\"meta\"") != std::string::npos) ++metas;
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(instants, 1);  // The one-slot ring kept the newer send.
  EXPECT_EQ(samples, 4);  // Two sources at t=0 and t=1ms.
  EXPECT_EQ(metas, 1);
  // The meta line makes both rings' truncation visible.
  EXPECT_EQ(body.find("{\"type\":\"meta\",\"spans_recorded\":1,"
                      "\"spans_dropped\":0,\"events_recorded\":2,"
                      "\"events_dropped\":1}\n"),
            0u)
      << body;
  EXPECT_NE(body.find("{\"type\":\"instant\",\"name\":\"net.msg_send\","
                      "\"node\":0,\"peer\":1,\"at_ns\":50,\"a\":1,\"b\":64}"),
            std::string::npos)
      << body;
  // Samples come tick-major: both sources at t=0, then both at t=1ms.
  EXPECT_NE(body.find("{\"type\":\"sample\",\"series\":\"b\",\"at_ns\":0,"
                      "\"value\":2}\n{\"type\":\"sample\",\"series\":\"a\","
                      "\"at_ns\":1000000,\"value\":1.5}\n"),
            std::string::npos)
      << body;
}

TEST_F(ExporterTest, EmptyInputsProduceValidFiles) {
  // Every exporter must tolerate a cluster with all collectors off.
  ExportInputs inputs;

  const std::string trace = TempPath("empty_trace.json");
  ASSERT_TRUE(WriteChromeTrace(trace, inputs).ok());
  const std::string trace_body = Slurp(trace);
  EXPECT_NE(trace_body.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(trace_body.front(), '{');

  const std::string jsonl = TempPath("empty.jsonl");
  ASSERT_TRUE(WriteJsonl(jsonl, inputs).ok());
  EXPECT_TRUE(Slurp(jsonl).empty());

  const std::string prom = TempPath("empty.prom");
  ASSERT_TRUE(WritePrometheusText(prom, inputs).ok());
  EXPECT_TRUE(Slurp(prom).empty());

  const std::string json = TempPath("empty_metrics.json");
  ASSERT_TRUE(WriteMetricsJson(json, inputs).ok());
  const std::string json_body = Slurp(json);
  EXPECT_EQ(json_body, "{\"schema\":\"nbraft-obs-metrics-v2\",\"series\":[]}\n");
}

TEST_F(ExporterTest, PrometheusTurnsNodeSuffixIntoLabel) {
  sim::Simulator sim(1);
  Sampler sampler(&sim, Millis(1));
  int64_t occupancy = 30;
  sampler.AddSource("raft.window_occupancy.node2", [&occupancy]() {
    return static_cast<double>(occupancy);
  });
  sampler.AddSource("raft.window_occupancy.node11", []() { return 4.0; });
  sampler.AddSource("net.bytes_sent", []() { return 3.0; });
  sampler.Start();
  sim.After(Micros(500), [&occupancy]() { occupancy = 37; });
  sim.RunUntil(Millis(1));

  ExportInputs inputs;
  inputs.sampler = &sampler;
  const std::string path = TempPath("labels.prom");
  ASSERT_TRUE(WritePrometheusText(path, inputs).ok());
  const std::string body = Slurp(path);

  // Each series exports its last sample.
  EXPECT_NE(body.find("raft_window_occupancy{node=\"2\"} 37\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("raft_window_occupancy{node=\"11\"} 4\n"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE net_bytes_sent gauge\nnet_bytes_sent 3\n"),
            std::string::npos);
  // One TYPE header per family, even with two labeled series.
  size_t headers = 0;
  size_t pos = 0;
  while ((pos = body.find("# TYPE raft_window_occupancy", pos)) !=
         std::string::npos) {
    ++headers;
    pos += 1;
  }
  EXPECT_EQ(headers, 1u);
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

  for (const auto writer : {&WriteChromeTrace, &WriteJsonl,
                            &WritePrometheusText, &WriteMetricsJson}) {
    const Status s = writer("/dev/full", inputs);
    EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  }
}

}  // namespace
}  // namespace nbraft::obs
