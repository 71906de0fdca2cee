// Deterministic chaos demo: run one seeded nemesis campaign against a
// Raft and an NB-Raft cluster, print the fault schedule and the safety
// oracle's verdict, then replay the same seed and show the run is
// bit-identical. Optionally export the traced timeline for Perfetto.
//
//   ./build/examples/chaos_demo [seed] [trace_dir]
//   ./build/examples/chaos_demo --sweep N [--workers W]
//
// The --sweep mode fans N seeds x {Raft, NB-Raft} of a lightweight chaos
// scenario out through the parallel sweep scheduler (W workers; 0 or
// omitted = every core) and exits non-zero if any cell trips a safety
// oracle — cheap enough that CI runs N=1000 per protocol on every push.
//
// With a trace_dir, chaos_demo writes the traced NB-Raft run's
// observability bundle to <trace_dir>/obs_<seed>/: metric series,
// flight-recorder journal, per-node stats, and trace.json — open it in
// https://ui.perfetto.dev to see chaos.* fault instants lined up with
// per-entry lifecycle spans. tools/obs_report.py renders the bundle.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/chaos_plan.h"
#include "chaos/chaos_runner.h"
#include "chaos/chaos_sweep.h"
#include "harness/cluster.h"
#include "raft/types.h"
#include "sweep/scheduler.h"

using namespace nbraft;

namespace {

harness::ClusterConfig DemoConfig(raft::Protocol protocol, uint64_t seed) {
  harness::ClusterConfig config;
  config.num_nodes = 5;
  config.num_clients = 4;
  config.protocol = protocol;
  config.window_size = 64;
  config.payload_size = 512;
  config.client_think = Millis(1);
  config.election_timeout = Millis(150);
  config.seed = seed * 7919 + 13;
  config.client_backoff_base = Millis(150);
  config.client_backoff_cap = Millis(1200);
  config.client_max_requests = 400;
  return config;
}

chaos::ChaosPlan DemoPlan(uint64_t seed) {
  chaos::ChaosPlan plan;
  plan.seed = seed;
  plan.min_gap = Millis(30);
  plan.max_gap = Millis(120);
  plan.min_duration = Millis(50);
  plan.max_duration = Millis(200);
  return plan;
}

chaos::ChaosReport RunOne(raft::Protocol protocol, uint64_t seed,
                          const std::string& obs_dir, bool verbose) {
  harness::ClusterConfig config = DemoConfig(protocol, seed);
  if (!obs_dir.empty()) {
    // Full pipeline for the exported run: lifecycle spans, the flight
    // recorder and sampled + Gorilla-compressed telemetry.
    config.trace = true;
    config.sample_interval = Millis(1);
  }
  chaos::ChaosRunner::Options options;
  options.rounds = 6;
  options.round_length = Millis(200);
  chaos::ChaosRunner runner(config, DemoPlan(seed), options);
  chaos::ChaosReport report = runner.Run();
  if (verbose) {
    std::printf("  fault schedule (%zu actions):\n", report.faults.size());
    for (const chaos::FaultRecord& r : report.faults) {
      std::printf("    %s\n", chaos::FaultRecordToString(r).c_str());
    }
  }
  std::printf("  %s\n", report.Summary().c_str());
  if (!obs_dir.empty()) {
    if (runner.cluster()->WriteObsBundle(obs_dir).ok()) {
      std::printf("  obs bundle written to %s "
                  "(render: tools/obs_report.py %s)\n",
                  obs_dir.c_str(), obs_dir.c_str());
    }
  }
  return report;
}

/// One cell of the --sweep mode: a trimmed-down scenario (3 nodes, 2
/// clients, 3 rounds) so a 1000-seed matrix stays CI-cheap while still
/// exercising every fault kind in the default mix.
chaos::ChaosCell SweepModeCell(raft::Protocol protocol, uint64_t seed) {
  chaos::ChaosCell cell;
  cell.name = std::string(protocol == raft::Protocol::kRaft ? "raft"
                                                            : "nbraft") +
              "_seed" + std::to_string(seed);
  cell.config = DemoConfig(protocol, seed);
  cell.config.num_nodes = 3;
  cell.config.num_clients = 2;
  cell.config.client_max_requests = 120;
  cell.config.snapshot_threshold = 0;
  cell.plan = DemoPlan(seed);
  cell.options.rounds = 3;
  cell.options.round_length = Millis(200);
  cell.options.drain = Millis(1200);
  if (const char* dir = std::getenv("NBRAFT_POSTMORTEM_DIR")) {
    cell.options.postmortem_dir =
        std::string(dir) + "/ChaosDemoSweep." + cell.name;
  }
  return cell;
}

int RunSweepMode(uint64_t num_seeds, int workers) {
  std::vector<chaos::ChaosCell> cells;
  for (const raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (uint64_t seed = 1; seed <= num_seeds; ++seed) {
      cells.push_back(SweepModeCell(protocol, seed));
    }
  }
  std::printf("== chaos sweep: %llu seeds x {Raft, NB-Raft} = %zu cells, "
              "%d workers ==\n",
              static_cast<unsigned long long>(num_seeds), cells.size(),
              workers == 0 ? sweep::ResolveWorkers(0) : workers);
  const chaos::ChaosSweepOutcome outcome =
      chaos::RunChaosSweep(cells, workers);
  std::printf("%s\n", outcome.sweep.Summary().c_str());
  for (size_t i = 0; i < outcome.sweep.results.size(); ++i) {
    if (!outcome.sweep.results[i].ok()) {
      std::printf("FAIL %s: %s%s\n", outcome.sweep.results[i].name.c_str(),
                  outcome.sweep.results[i].error.c_str(),
                  outcome.sweep.results[i].output.detail.c_str());
    }
  }
  std::printf("merged report hash: %016llx\n",
              static_cast<unsigned long long>(outcome.sweep.merged_hash));
  return outcome.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t sweep_seeds = 0;
  int workers = 0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      sweep_seeds = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (sweep_seeds > 0) return RunSweepMode(sweep_seeds, workers);

  const uint64_t seed =
      !positional.empty()
          ? static_cast<uint64_t>(std::atoll(positional[0].c_str()))
          : 7;
  const std::string trace_dir =
      positional.size() > 1 ? positional[1] : "";

  std::printf("== chaos demo: seeded nemesis vs Raft and NB-Raft, seed "
              "%llu ==\n\n",
              static_cast<unsigned long long>(seed));

  std::printf("[Raft x5]\n");
  chaos::ChaosReport raft_report =
      RunOne(raft::Protocol::kRaft, seed, "", /*verbose=*/true);

  std::printf("\n[NB-Raft x5, window 64]\n");
  const std::string obs_dir =
      trace_dir.empty() ? ""
                        : trace_dir + "/obs_" + std::to_string(seed);
  chaos::ChaosReport nb_report =
      RunOne(raft::Protocol::kNbRaft, seed, obs_dir, /*verbose=*/false);

  std::printf("\n[NB-Raft replay of seed %llu]\n",
              static_cast<unsigned long long>(seed));
  chaos::ChaosReport replay =
      RunOne(raft::Protocol::kNbRaft, seed, "", /*verbose=*/false);

  const bool identical =
      replay.fault_fingerprint == nb_report.fault_fingerprint &&
      replay.committed_prefix_hash == nb_report.committed_prefix_hash &&
      replay.requests_completed == nb_report.requests_completed;
  std::printf("\nreplay identical: %s\n", identical ? "yes" : "NO");

  return (raft_report.ok() && nb_report.ok() && replay.ok() && identical)
             ? 0
             : 1;
}
