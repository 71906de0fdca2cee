// Sweep-scheduler scaling bench: the same fixed chaos-cell grid (2
// protocols x 16 seeds of the light sweep scenario) pushed through the
// sweep scheduler at worker counts {1, 2, 4, 8, 16}, reporting
// the *aggregate* simulator event rate — total events across all cells
// divided by the sweep's wall time. The simulated work is byte-identical
// at every worker count (the bench hard-fails if any merged report hash
// diverges from the workers=1 oracle), so the only thing that changes
// between rows is how many cores the fan-out saturates.
//
// Usage: bench_sweep_scale [--quick] [--out PATH]
//
// Writes sweep_scale_w<N> entries in the bench_sim_kernel JSON schema so
// tools/check_perf_smoke.py can gate the aggregate rate per worker count
// against the entries appended to the committed BENCH_sim_kernel.json.
//
// Exit code doubles as the acceptance self-check: on hosts with >= 8
// hardware threads the 8-worker aggregate rate must be >= 3x the
// single-worker rate. On smaller hosts (CI runners, the 1-core container
// this repo grows in) the gate is skipped with a note — parallel speedup
// cannot materialize without cores — but the determinism cross-check
// always runs.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos_plan.h"
#include "chaos/chaos_runner.h"
#include "chaos/chaos_sweep.h"
#include "harness/cluster.h"
#include "sweep/scheduler.h"

using namespace nbraft;

namespace {

struct ScaleResult {
  std::string name;
  int workers = 0;
  uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  uint64_t merged_hash = 0;
};

chaos::ChaosCell ScaleCell(raft::Protocol protocol, uint64_t seed,
                           int rounds) {
  chaos::ChaosCell cell;
  cell.name = std::string(protocol == raft::Protocol::kRaft ? "raft"
                                                            : "nbraft") +
              "_seed" + std::to_string(seed);
  cell.config.num_nodes = 3;
  cell.config.num_clients = 2;
  cell.config.protocol = protocol;
  cell.config.window_size = 64;
  cell.config.payload_size = 256;
  cell.config.client_think = Millis(1);
  cell.config.election_timeout = Millis(150);
  cell.config.seed = seed * 7919 + 13;
  cell.config.client_backoff_base = Millis(150);
  cell.config.client_backoff_cap = Millis(1200);
  cell.config.client_max_requests = 150;
  cell.config.snapshot_threshold = 0;
  cell.plan.seed = seed;
  cell.plan.min_gap = Millis(30);
  cell.plan.max_gap = Millis(120);
  cell.plan.min_duration = Millis(50);
  cell.plan.max_duration = Millis(200);
  cell.options.rounds = rounds;
  cell.options.round_length = Millis(200);
  cell.options.drain = Millis(1200);
  return cell;
}

double WallMs(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

void WriteJson(const std::string& path,
               const std::vector<ScaleResult>& results) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"sweep_scale\",\n  \"workloads\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"wall_ms\": %.1f, \"events_per_sec\": %.0f, "
                 "\"workers\": %d}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.events),
                 r.wall_ms, r.events_per_sec, r.workers,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_sweep_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }
  const uint64_t seeds = quick ? 6 : 16;
  const int rounds = quick ? 2 : 3;

  std::vector<chaos::ChaosCell> cells;
  for (const raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      cells.push_back(ScaleCell(protocol, seed, rounds));
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(stderr,
               "sweep_scale: %zu cells, hardware_concurrency=%u\n",
               cells.size(), hw);

  const int kWorkerCounts[] = {1, 2, 4, 8, 16};
  std::vector<ScaleResult> results;
  for (const int workers : kWorkerCounts) {
    const auto start = std::chrono::steady_clock::now();
    const chaos::ChaosSweepOutcome outcome =
        chaos::RunChaosSweep(cells, workers);
    ScaleResult r;
    r.name = "sweep_scale_w" + std::to_string(workers);
    r.workers = workers;
    r.wall_ms = WallMs(start);
    r.events = outcome.sweep.total_events;
    r.events_per_sec =
        r.wall_ms > 0 ? static_cast<double>(r.events) / (r.wall_ms / 1000.0)
                      : 0.0;
    r.merged_hash = outcome.sweep.merged_hash;
    if (!outcome.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", r.name.c_str(),
                   outcome.sweep.Summary().c_str());
      return 1;
    }
    results.push_back(r);
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");

  std::printf("%-18s %8s %12s %10s %14s %8s\n", "cell", "workers", "events",
              "wall_ms", "agg ev/sec", "speedup");
  for (const ScaleResult& r : results) {
    std::printf("%-18s %8d %12llu %10.1f %14.0f %7.2fx\n", r.name.c_str(),
                r.workers, static_cast<unsigned long long>(r.events),
                r.wall_ms, r.events_per_sec,
                results[0].events_per_sec > 0
                    ? r.events_per_sec / results[0].events_per_sec
                    : 0.0);
  }
  WriteJson(out, results);
  std::printf("\nwrote %s\n", out.c_str());

  int rc = 0;

  // Determinism cross-check: every worker count must merge to the exact
  // bytes of the workers=1 serial oracle.
  for (const ScaleResult& r : results) {
    if (r.merged_hash != results[0].merged_hash) {
      std::fprintf(stderr,
                   "FAIL %s: merged hash %016llx != serial %016llx "
                   "(scheduling leaked into results)\n",
                   r.name.c_str(),
                   static_cast<unsigned long long>(r.merged_hash),
                   static_cast<unsigned long long>(results[0].merged_hash));
      rc = 1;
    }
    if (r.events != results[0].events) {
      std::fprintf(stderr, "FAIL %s: event count diverged\n", r.name.c_str());
      rc = 1;
    }
  }

  // Scaling self-check, only meaningful when the cores exist: >= 3x
  // aggregate throughput at 8 workers vs 1.
  if (hw >= 8) {
    const double speedup =
        results[0].events_per_sec > 0
            ? results[3].events_per_sec / results[0].events_per_sec
            : 0.0;
    if (speedup < 3.0) {
      std::fprintf(stderr,
                   "FAIL sweep_scale_w8: %.2fx aggregate speedup < 3x over "
                   "w1 on a %u-thread host\n",
                   speedup, hw);
      rc = 1;
    } else {
      std::printf("scaling gate: w8 %.2fx over w1 (>= 3x required) ok\n",
                  speedup);
    }
  } else {
    std::printf("scaling gate: skipped (%u hardware threads < 8; speedup "
                "cannot materialize without cores)\n",
                hw);
  }
  return rc;
}
