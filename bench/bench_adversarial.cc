// Blast-radius study: what each protocol-level adversary costs the
// cluster, and how much of that cost each mitigation claws back. Sweeps
// attack {none, disruptive server, vote withholder, election storm} x
// mitigation {none, prevote, cq_lease, all} x protocol {Raft, NB-Raft}
// on fixed seeds and reports, per cell, the leaderless (unavailable)
// virtual time, healthy-leader depositions, term inflation and ingest
// throughput.
//
// The acceptance row pair this file exists for: under disruptive_server,
// the *_none cells must show depositions >= 1 (the attack lands) while
// the *_all cells show exactly 0 (the mitigations hold) — on both
// protocols. tools/check_perf_smoke.py additionally gates events/sec per
// cell against the committed BENCH_adversarial.json.
//
// The 32-cell grid fans out through the parallel sweep scheduler — each
// cell owns its Cluster and Simulator, so --workers N runs cells on N
// cores. Per-cell ev/s is only baseline-comparable at --workers 1 (the
// default); higher counts are for fast iteration on the attack matrix.
//
// Usage: bench_adversarial [--quick] [--workers N] [--out PATH]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/chaos_plan.h"
#include "chaos/nemesis.h"
#include "harness/cluster.h"
#include "sim/simulator.h"
#include "sweep/scheduler.h"

using namespace nbraft;

namespace {

enum class Attack { kNone, kDisruptive, kWithholder, kStorm };
enum class Mitigation { kNone, kPreVote, kCqLease, kAll };

const char* AttackName(Attack a) {
  switch (a) {
    case Attack::kNone: return "calm";
    case Attack::kDisruptive: return "disruptive";
    case Attack::kWithholder: return "withholder";
    case Attack::kStorm: return "storm";
  }
  return "?";
}

const char* MitigationName(Mitigation m) {
  switch (m) {
    case Mitigation::kNone: return "none";
    case Mitigation::kPreVote: return "prevote";
    case Mitigation::kCqLease: return "cq_lease";
    case Mitigation::kAll: return "all";
  }
  return "?";
}

struct CellResult {
  std::string name;
  uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double virtual_ms = 0.0;
  uint64_t requests_completed = 0;
  /// Virtual ms (5ms sampling) during the attack window with no live
  /// leader anywhere — the blast radius in availability terms.
  double unavailable_ms = 0.0;
  uint64_t leader_depositions = 0;
  uint64_t checkquorum_stepdowns = 0;
  uint64_t terms_started = 0;
  uint64_t prevotes_rejected = 0;
  uint64_t max_term = 0;
};

double WallMs(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

CellResult RunCell(raft::Protocol protocol, Attack attack, Mitigation m,
                   SimDuration span) {
  CellResult r;
  r.name = std::string(protocol == raft::Protocol::kRaft ? "raft" : "nbraft") +
           "_" + AttackName(attack) + "_" + MitigationName(m);

  harness::ClusterConfig config;
  config.num_nodes = 5;
  config.num_clients = 16;
  config.protocol = protocol;
  config.window_size = 64;
  config.payload_size = 512;
  config.client_think = Micros(50);
  config.election_timeout = Millis(150);
  config.seed = 20260808;  // Fixed: the sweep compares cells, not runs.
  config.release_payloads = true;
  config.pre_vote = m == Mitigation::kPreVote || m == Mitigation::kAll;
  config.check_quorum_lease =
      m == Mitigation::kCqLease || m == Mitigation::kAll;

  chaos::ChaosPlan plan;
  plan.seed = 99;
  plan.min_gap = Millis(40);
  plan.max_gap = Millis(150);
  // Isolations must outlive one election timeout or the disruptive
  // victim's timer never fires while it is cut off.
  plan.min_duration = Millis(250);
  plan.max_duration = Millis(450);
  switch (attack) {
    case Attack::kNone: break;
    case Attack::kDisruptive:
      plan.mix = {chaos::FaultKind::kDisruptiveServer};
      break;
    case Attack::kWithholder:
      plan.mix = {chaos::FaultKind::kVoteWithholder};
      break;
    case Attack::kStorm:
      plan.mix = {chaos::FaultKind::kElectionStorm};
      break;
  }

  harness::Cluster cluster(config);
  cluster.Start();
  if (!cluster.AwaitLeader()) {
    std::fprintf(stderr, "%s: no leader\n", r.name.c_str());
    return r;
  }
  cluster.StartClients();
  chaos::Nemesis nemesis(&cluster, plan);
  if (attack != Attack::kNone) nemesis.Start();

  const auto start = std::chrono::steady_clock::now();
  const uint64_t events_before = cluster.sim()->events_processed();
  const SimTime virt_before = cluster.sim()->Now();

  // Step the attack window in 5ms slices, sampling leader liveness: the
  // integral of the leaderless slices is the unavailability window.
  const SimDuration slice = Millis(5);
  for (SimTime t = virt_before + slice; t <= virt_before + span; t += slice) {
    cluster.RunFor(slice);
    if (cluster.leader() == nullptr) {
      r.unavailable_ms += static_cast<double>(slice) / kMillisecond;
    }
  }
  nemesis.Stop();
  nemesis.HealAll();
  cluster.RunFor(Millis(500));  // Drain: retries land, commits catch up.

  r.wall_ms = WallMs(start);
  r.events = cluster.sim()->events_processed() - events_before;
  r.virtual_ms =
      static_cast<double>(cluster.sim()->Now() - virt_before) / kMillisecond;
  r.events_per_sec =
      r.wall_ms > 0 ? static_cast<double>(r.events) / (r.wall_ms / 1000.0)
                    : 0.0;
  r.requests_completed = cluster.Collect().requests_completed;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    const raft::NodeStats& ns = cluster.node(i)->stats();
    r.leader_depositions += ns.leader_depositions;
    r.checkquorum_stepdowns += ns.checkquorum_stepdowns;
    r.terms_started += ns.terms_started;
    r.prevotes_rejected += ns.prevotes_rejected;
    if (!cluster.node(i)->crashed() &&
        static_cast<uint64_t>(cluster.node(i)->current_term()) > r.max_term) {
      r.max_term = static_cast<uint64_t>(cluster.node(i)->current_term());
    }
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
  std::fprintf(f, "{\n  \"bench\": \"adversarial\",\n  \"workloads\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"events\": %llu, \"wall_ms\": %.1f, "
        "\"events_per_sec\": %.0f, \"virtual_ms\": %.1f, "
        "\"requests_completed\": %llu, \"unavailable_ms\": %.1f, "
        "\"leader_depositions\": %llu, \"checkquorum_stepdowns\": %llu, "
        "\"terms_started\": %llu, \"prevotes_rejected\": %llu, "
        "\"max_term\": %llu}%s\n",
        r.name.c_str(), static_cast<unsigned long long>(r.events), r.wall_ms,
        r.events_per_sec, r.virtual_ms,
        static_cast<unsigned long long>(r.requests_completed),
        r.unavailable_ms,
        static_cast<unsigned long long>(r.leader_depositions),
        static_cast<unsigned long long>(r.checkquorum_stepdowns),
        static_cast<unsigned long long>(r.terms_started),
        static_cast<unsigned long long>(r.prevotes_rejected),
        static_cast<unsigned long long>(r.max_term),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int workers = 1;
  std::string out = "BENCH_adversarial.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }
  const SimDuration span = quick ? Seconds(2) : Seconds(5);

  // The attack x mitigation x protocol grid as independent sweep cells,
  // written to pre-sized slots so output order is grid order no matter
  // which worker ran what.
  struct CellSpec {
    raft::Protocol protocol;
    Attack attack;
    Mitigation m;
  };
  std::vector<CellSpec> specs;
  for (const raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (const Attack attack : {Attack::kNone, Attack::kDisruptive,
                                Attack::kWithholder, Attack::kStorm}) {
      for (const Mitigation m : {Mitigation::kNone, Mitigation::kPreVote,
                                 Mitigation::kCqLease, Mitigation::kAll}) {
        specs.push_back(CellSpec{protocol, attack, m});
      }
    }
  }
  std::vector<CellResult> results(specs.size());
  std::vector<sweep::SweepTask> tasks;
  tasks.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const CellSpec& spec = specs[i];
    CellResult* slot = &results[i];
    tasks.push_back(sweep::SweepTask{
        std::string(AttackName(spec.attack)) + "_" +
            MitigationName(spec.m),
        [spec, slot, span](uint64_t /*task_seed*/) {
          *slot = RunCell(spec.protocol, spec.attack, spec.m, span);
          sweep::TaskOutput out;
          out.fingerprint = slot->events;  // Deterministic per cell.
          out.events = slot->events;
          out.detail = slot->name;
          return out;
        }});
  }
  sweep::SweepOptions options;
  options.workers = workers;
  sweep::SweepScheduler scheduler(options);
  const sweep::SweepReport sweep = scheduler.Run(tasks);
  if (!sweep.ok()) {
    std::fprintf(stderr, "%s\n", sweep.Summary().c_str());
    return 1;
  }

  std::printf("%-28s %10s %12s %8s %7s %7s %7s %8s\n", "cell", "reqs",
              "events/sec", "unavail", "depose", "cqstep", "terms",
              "max_term");
  for (const CellResult& r : results) {
    std::printf("%-28s %10llu %12.0f %7.0fms %7llu %7llu %7llu %8llu\n",
                r.name.c_str(),
                static_cast<unsigned long long>(r.requests_completed),
                r.events_per_sec, r.unavailable_ms,
                static_cast<unsigned long long>(r.leader_depositions),
                static_cast<unsigned long long>(r.checkquorum_stepdowns),
                static_cast<unsigned long long>(r.terms_started),
                static_cast<unsigned long long>(r.max_term));
  }
  WriteJson(out, results);
  std::printf("\nwrote %s\n", out.c_str());

  // Self-check of the acceptance pair so a regression fails the bench
  // run itself, not only downstream JSON consumers.
  int rc = 0;
  for (const CellResult& r : results) {
    const bool disruptive = r.name.find("_disruptive_") != std::string::npos;
    if (disruptive && r.name.find("_none") != std::string::npos &&
        r.leader_depositions < 1) {
      std::fprintf(stderr, "FAIL %s: attack landed no deposition\n",
                   r.name.c_str());
      rc = 1;
    }
    if (disruptive && r.name.find("_all") != std::string::npos &&
        r.leader_depositions != 0) {
      std::fprintf(stderr, "FAIL %s: mitigations leaked a deposition\n",
                   r.name.c_str());
      rc = 1;
    }
  }
  return rc;
}
