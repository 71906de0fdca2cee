// Per-entry lifecycle tracing, side by side for Raft and NB-Raft: runs
// both protocols with the tracer, journal and telemetry sampler attached,
// writes one observability bundle per protocol (its trace.json is Chrome
// trace_event JSON: open it in chrome://tracing or
// https://ui.perfetto.dev), and then validates the traces themselves:
//
//   1. nothing was evicted: every span and every journal event is in the
//      export,
//   2. per-phase span totals agree with the end-of-run Breakdown the
//      cluster collects from its nodes and clients (within 1%), and
//   3. at least one entry's spans cover the full Table I lifecycle,
//      t_gen(C) through t_apply(L).
//
// Exits non-zero if any check fails, so it doubles as an acceptance test
// for the observability layer.
//
//   ./build/examples/trace_explorer [output_dir]
//
// The bundles land in <output_dir>/Raft/ and <output_dir>/NB-Raft/.

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/cluster.h"
#include "metrics/breakdown.h"
#include "obs/tracer.h"
#include "raft/types.h"

using namespace nbraft;

namespace {

struct TraceReport {
  bool complete = true;  ///< No span or journal event was evicted.
  bool parity_ok = true;
  bool coverage_ok = false;
  int covered_entries = 0;  ///< Entries whose spans span all 11 phases.
};

// Joins client-keyed spans (request_id) with replication-keyed spans (log
// index) through the spans that carry both keys (t_trans(LF), t_wait(F),
// t_append(F), t_apply(L)) and counts entries whose union covers every
// phase.
// Fsync spans only exist when a simulated disk is configured (this run has
// none), so "fully covered" means the lifecycle phases before kFsync.
constexpr int kLifecyclePhases = static_cast<int>(metrics::Phase::kFsync);

int CountFullyCoveredEntries(const std::vector<obs::SpanEvent>& spans) {
  std::map<uint64_t, std::set<int>> by_request;
  std::map<int64_t, std::set<int>> by_index;
  std::set<std::pair<int64_t, uint64_t>> entries;  // (index, request id)
  for (const obs::SpanEvent& s : spans) {
    const int phase = static_cast<int>(s.phase);
    if (s.request_id != 0) by_request[s.request_id].insert(phase);
    if (s.index != 0) by_index[s.index].insert(phase);
    if (s.request_id != 0 && s.index != 0) {
      entries.emplace(s.index, s.request_id);
    }
  }
  int covered = 0;
  for (const auto& [index, request_id] : entries) {
    std::set<int> phases = by_request[request_id];
    phases.insert(by_index[index].begin(), by_index[index].end());
    if (static_cast<int>(phases.size()) >= kLifecyclePhases) ++covered;
  }
  return covered;
}

TraceReport Explore(raft::Protocol protocol, const std::string& out_dir) {
  const std::string tag(raft::ProtocolName(protocol));
  harness::ClusterConfig config;
  config.num_nodes = 3;
  config.num_clients = 8;
  config.protocol = protocol;
  config.payload_size = 1024;
  config.client_think = Micros(50);
  config.seed = 4242;
  config.trace = true;
  config.sample_interval = Millis(1);
  // Deep enough that the leader's ring keeps every RPC of the run.
  config.journal_capacity = 1 << 17;

  harness::Cluster cluster(config);
  cluster.Start();
  if (!cluster.AwaitLeader()) {
    std::fprintf(stderr, "%s: no leader elected\n", tag.c_str());
    return TraceReport{.parity_ok = false};
  }
  cluster.StartClients();
  cluster.RunFor(Millis(400));
  cluster.StopAllClients();
  cluster.RunFor(Millis(300));

  const std::string bundle = out_dir + "/" + tag;
  const Status written = cluster.WriteObsBundle(bundle);
  if (!written.ok()) {
    std::fprintf(stderr, "%s: %s\n", tag.c_str(),
                 written.ToString().c_str());
    return TraceReport{.parity_ok = false};
  }

  const obs::Tracer& tracer = *cluster.tracer();
  const obs::Journal& journal = *cluster.journal();
  const std::vector<obs::SpanEvent> spans = tracer.spans();
  const harness::ClusterStats stats = cluster.Collect();

  std::printf("== %s ==\n", tag.c_str());
  std::printf("  wrote %s/trace.json (%zu spans, %llu instants, %zu "
              "samples)\n",
              bundle.c_str(), spans.size(),
              static_cast<unsigned long long>(journal.events_recorded()),
              cluster.sampler()->store().point_count(0));
  TraceReport report;
  if (tracer.spans_dropped() != 0 || journal.events_dropped() != 0) {
    std::printf("  rings evicted %llu spans and %llu journal events\n",
                static_cast<unsigned long long>(tracer.spans_dropped()),
                static_cast<unsigned long long>(journal.events_dropped()));
    report.complete = false;
  }
  std::printf("  committed=%llu completed=%llu\n",
              static_cast<unsigned long long>(stats.entries_committed_leader),
              static_cast<unsigned long long>(stats.requests_completed));

  // Check 2: the trace's per-phase totals reproduce the collected
  // breakdown within 1%.
  metrics::Breakdown traced;
  for (const obs::SpanEvent& s : spans) traced.Add(s.phase, s.duration());
  std::printf("  %-12s %14s %14s\n", "phase", "trace total", "breakdown");
  for (int i = 0; i < metrics::kNumPhases; ++i) {
    const auto phase = static_cast<metrics::Phase>(i);
    const double a = static_cast<double>(traced.total(phase));
    const double b = static_cast<double>(stats.breakdown.total(phase));
    const double denom = std::max(b, 1.0);
    const bool ok = std::fabs(a - b) / denom <= 0.01;
    if (!ok) report.parity_ok = false;
    std::printf("  %-12s %14.0f %14.0f%s\n",
                std::string(metrics::PhaseNotation(phase)).c_str(), a, b,
                ok ? "" : "  <-- MISMATCH");
  }

  // Check 3: at least one entry is traced across the entire lifecycle.
  report.covered_entries = CountFullyCoveredEntries(spans);
  report.coverage_ok = report.covered_entries > 0;
  std::printf("  entries covering all %d phases: %d\n\n", kLifecyclePhases,
              report.covered_entries);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  bool ok = true;
  for (const raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    const TraceReport report = Explore(protocol, out_dir);
    if (!report.complete) {
      std::fprintf(stderr, "FAIL: trace rings evicted events\n");
      ok = false;
    }
    if (!report.parity_ok) {
      std::fprintf(stderr, "FAIL: trace/breakdown totals diverge >1%%\n");
      ok = false;
    }
    if (!report.coverage_ok) {
      std::fprintf(stderr,
                   "FAIL: no entry traced across the full lifecycle\n");
      ok = false;
    }
  }
  if (ok) {
    std::printf("all trace checks passed; load the bundles' trace.json "
                "files in https://ui.perfetto.dev to explore.\n");
  }
  return ok ? 0 : 1;
}
