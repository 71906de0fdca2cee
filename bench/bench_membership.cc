// Elastic-membership bench: the WEAK_ACCEPT x learner-lag study.
//
// A 3-voter cluster (of 5 provisioned hosts) ingests under load while two
// extra hosts join as learners back-to-back; each join runs the full
// pipeline — joint-consensus add, throttled catch-up through the recovery
// STM, bounded-lag promotion, joint-consensus voter seat. The grid crosses
// the replication mode against the promotion-lag bound:
//
//   - protocol/window: original Raft (STRONG, window 0) vs NB-Raft at
//     WEAK_ACCEPT window {32, 1024}. The window governs how far the
//     leader's log runs ahead with unacknowledged holes; catch-up reads
//     only the learner's *contiguous* durable prefix, so a wide window
//     stretches the tail the learner must chase while it keeps moving.
//   - promotion_lag {4, 64}: how close (in entries) the contiguous prefix
//     must get before the leader proposes promotion. Tight lag means more
//     catch-up rounds before the seat; loose lag hands the final stretch
//     to the ordinary replication path after promotion.
//
// Reported per cell: virtual ms from each AddNode to the voter seat
// (promote1/2_ms — the elasticity latency the study is about), kernel
// events/sec (the perf-smoke metric), and aggregate requests completed
// (the load the cluster sustained while reconfiguring).
//
// Usage: bench_membership [--quick] [--out PATH]
//
// Writes a JSON report (default BENCH_membership.json in the CWD) in the
// same schema as BENCH_durability.json, so tools/check_perf_smoke.py can
// compare events/sec per cell against the committed baseline.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "raft/membership.h"
#include "raft/raft_node.h"
#include "sim/simulator.h"

using namespace nbraft;

namespace {

struct CellSpec {
  std::string name;
  raft::Protocol protocol = raft::Protocol::kRaft;
  int window = 0;
  int64_t promotion_lag = 16;
};

struct CellResult {
  std::string name;
  uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double virtual_ms = 0.0;
  double promote1_ms = -1.0;  ///< AddNode(host 3) -> voter seat; -1 = never.
  double promote2_ms = -1.0;  ///< AddNode(host 4) -> voter seat; -1 = never.
  uint64_t requests_completed = 0;
  uint64_t learners_promoted = 0;
};

double WallMs(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

// Proposes AddNode(host) and runs the cluster in small slices until the
// leader seats the host as a voter (retrying the proposal while an earlier
// change is still in flight). Returns virtual ms to the seat, -1 on cap.
double JoinAndAwaitSeat(harness::Cluster* cluster, int host,
                        SimDuration slice, int max_slices) {
  const SimTime t0 = cluster->sim()->Now();
  bool proposed = cluster->AddNode(0, host);
  for (int i = 0; i < max_slices; ++i) {
    cluster->RunFor(slice);
    raft::RaftNode* lead = cluster->leader(0);
    if (lead == nullptr) continue;
    if (!proposed) proposed = cluster->AddNode(0, host);
    if (lead->membership()->active() &&
        !lead->membership()->ChangeInFlight() &&
        lead->membership()->IsVoter(host)) {
      return static_cast<double>(cluster->sim()->Now() - t0) / kMillisecond;
    }
  }
  return -1.0;
}

CellResult RunCell(const CellSpec& spec, SimDuration warmup,
                   SimDuration measure) {
  harness::ClusterConfig config;
  config.num_nodes = 5;
  config.initial_voters = 3;
  config.promotion_lag = spec.promotion_lag;
  // Catch-up bandwidth must exceed the ingest rate or the learner chases
  // the tail forever (the default 32/round throttle is sized for chaos
  // cells, not a saturating closed loop): 512 entries per 10 ms round.
  config.recovery_batch = 512;
  config.num_clients = 4;
  config.workload.series_count = 64;
  config.protocol = spec.protocol;
  config.window_size = spec.window;
  config.payload_size = 1024;
  config.client_think = Micros(5);
  config.seed = 271828;
  config.release_payloads = true;
  // The mitigation stack every elastic deployment runs (a removed or
  // stale-config server must not depose the leader mid-reconfiguration).
  config.pre_vote = true;
  config.check_quorum_lease = true;

  harness::Cluster cluster(config);
  cluster.Start();
  if (!cluster.AwaitLeader()) {
    std::fprintf(stderr, "%s: no leader\n", spec.name.c_str());
    return CellResult{spec.name};
  }
  cluster.StartClients();

  const auto start = std::chrono::steady_clock::now();
  const uint64_t events_before = cluster.sim()->events_processed();
  const SimTime virt_before = cluster.sim()->Now();

  // Warmup builds the log tail the learners will have to chase.
  cluster.RunFor(warmup);
  CellResult r;
  r.name = spec.name;
  r.promote1_ms = JoinAndAwaitSeat(&cluster, 3, Millis(5), 2000);
  r.promote2_ms = JoinAndAwaitSeat(&cluster, 4, Millis(5), 2000);
  cluster.RunFor(measure);

  r.wall_ms = WallMs(start);
  r.events = cluster.sim()->events_processed() - events_before;
  r.virtual_ms =
      static_cast<double>(cluster.sim()->Now() - virt_before) / kMillisecond;
  r.events_per_sec =
      r.wall_ms > 0 ? static_cast<double>(r.events) / (r.wall_ms / 1000.0)
                    : 0.0;
  r.requests_completed = cluster.Collect().requests_completed;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    r.learners_promoted += cluster.node(i)->stats().learners_promoted;
  }
  return r;
}

void WriteJson(const std::string& path,
               const std::vector<CellResult>& results) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"membership\",\n  \"workloads\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"wall_ms\": %.1f, \"events_per_sec\": %.0f, "
                 "\"virtual_ms\": %.1f, \"promote1_ms\": %.1f, "
                 "\"promote2_ms\": %.1f, \"requests_completed\": %llu, "
                 "\"learners_promoted\": %llu}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.events),
                 r.wall_ms, r.events_per_sec, r.virtual_ms, r.promote1_ms,
                 r.promote2_ms,
                 static_cast<unsigned long long>(r.requests_completed),
                 static_cast<unsigned long long>(r.learners_promoted),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_membership.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }
  const SimDuration warmup = quick ? Millis(100) : Millis(400);
  const SimDuration measure = quick ? Millis(100) : Millis(400);

  std::vector<CellSpec> specs;
  for (const int64_t lag : {int64_t{4}, int64_t{64}}) {
    CellSpec raft;
    raft.name = "raft_lag" + std::to_string(lag);
    raft.protocol = raft::Protocol::kRaft;
    raft.window = 0;
    raft.promotion_lag = lag;
    specs.push_back(raft);
    for (const int window : {32, 1024}) {
      CellSpec nb;
      nb.name =
          "nbraft_w" + std::to_string(window) + "_lag" + std::to_string(lag);
      nb.protocol = raft::Protocol::kNbRaft;
      nb.window = window;
      nb.promotion_lag = lag;
      specs.push_back(nb);
    }
  }

  std::vector<CellResult> results;
  bool promotions_ok = true;
  for (const CellSpec& spec : specs) {
    results.push_back(RunCell(spec, warmup, measure));
    const CellResult& r = results.back();
    // Acceptance: every cell must actually seat both joiners — a bench
    // that silently measured a cluster stuck at 3 voters would gate
    // nothing.
    if (r.promote1_ms < 0 || r.promote2_ms < 0 || r.learners_promoted < 2) {
      std::fprintf(stderr, "%s: join never seated (p1=%.1f p2=%.1f)\n",
                   r.name.c_str(), r.promote1_ms, r.promote2_ms);
      promotions_ok = false;
    }
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");

  std::printf("%-20s %12s %10s %14s %12s %12s %10s %9s\n", "cell", "events",
              "wall_ms", "events/sec", "promote1_ms", "promote2_ms", "reqs",
              "promoted");
  for (const CellResult& r : results) {
    std::printf("%-20s %12llu %10.1f %14.0f %12.1f %12.1f %10llu %9llu\n",
                r.name.c_str(), static_cast<unsigned long long>(r.events),
                r.wall_ms, r.events_per_sec, r.promote1_ms, r.promote2_ms,
                static_cast<unsigned long long>(r.requests_completed),
                static_cast<unsigned long long>(r.learners_promoted));
  }
  WriteJson(out, results);
  std::printf("\nwrote %s\n", out.c_str());
  return promotions_ok ? 0 : 1;
}
