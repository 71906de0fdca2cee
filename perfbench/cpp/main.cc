// Runs one benchmark workload on the deterministic simulator, in this one
// process, and prints a raw JSON report on stdout for perfbench/run.py.
//
//   perfbench_bin --workload <name> --seed <n> --seconds <s> --traced <0|1>
//                 [--cells <k>] [--spans <path>]
//
// The workload's scenario runs once per cell (seeds derived from --seed),
// then cells repeat until `--seconds` of wall time are used; every repeat
// must reproduce its cell's virtual-time outcome exactly. Host-time figures
// are reported per repetition. With --traced 1 repetitions alternate
// between the cluster's tracer and journal on (first) and off, so tracing
// overhead is read from paired runs; the layer replay loops run afterwards,
// and the benchmark's own host-time spans are written to --spans.
//
// The program only reads public stats and calls public functions of the
// layers it measures.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "harness/cluster.h"
#include "metrics/breakdown.h"
#include "metrics/histogram.h"
#include "replay.h"
#include "spans.h"
#include "tsdb/state_machine.h"

namespace perfbench {
namespace {

namespace nb = nbraft;
using nb::SimDuration;

constexpr SimDuration kSlice = nb::Millis(10);

/// One named workload. All share the paper's LAN model (the
/// NetworkConfig defaults: 10 Gb/s NICs, 120 us base latency, 160 us mean
/// exponential jitter), 3 replicas and closed-loop clients.
struct Workload {
  const char* name;
  nb::raft::Protocol protocol;
  int clients;
  size_t payload;
  bool disk;
  SimDuration warmup;
  SimDuration measure;  ///< Measurement window (virtual time).
  /// Cells per run: the scenario runs at this many seeds derived from the
  /// run's seed, and the virtual-time metrics pool them.
  int cells;
  /// When the leader's host crashes, into the window (0 = never), and how
  /// long it stays down.
  SimDuration crash_at = 0;
  SimDuration restart_after = 0;
};

const Workload kWorkloads[] = {
    // Fig. 14's headline point: host time goes to the sim kernel, payload
    // generation, tsdb apply and the window/VoteList.
    {"ingest_nbraft_4kb", nb::raft::Protocol::kNbRaft, 256, 4096, false,
     nb::Millis(300), nb::Millis(1500), 6},
    // Bypasses the nbraft layer; NIC-bound in virtual time, storage-heavy
    // on the host. The disk image keeps every payload, so the window is
    // short to bound memory.
    {"durable_raft_128kb", nb::raft::Protocol::kRaft, 64, 128 * 1024, true,
     nb::Millis(200), nb::Millis(300), 4},
    // Elections, client backoff, redirects and restart catch-up: each cell
    // crashes the leader's host once and restarts it a second later. The
    // crash comes late in the window, so most of each cell runs under the
    // bootstrap leader and throughput and latency medians stay comparable
    // across seeds, while 3 s remain for the outage and recovery.
    {"failover_nbraft_4kb", nb::raft::Protocol::kNbRaft, 64, 4096, false,
     nb::Millis(500), nb::Millis(5500), 8, nb::Millis(2500), nb::Millis(1000)},
};

const char* const kPhaseKeys[nb::metrics::kNumPhases] = {
    "t_gen",      "t_trans_cl", "t_prs",    "t_idx",
    "t_queue",    "t_trans_lf", "t_wait_f", "t_append_f",
    "t_ack",      "t_commit",   "t_apply",  "t_fsync"};

/// Minimal JSON object writer (keys are trusted identifiers).
class Obj {
 public:
  Obj& Raw(const char* key, const std::string& raw) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += raw;
    return *this;
  }
  Obj& Int(const char* key, int64_t v) { return Raw(key, std::to_string(v)); }
  Obj& Num(const char* key, double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Obj& Str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return Raw(key, quoted + '"');
  }
  Obj& Bool(const char* key, bool v) { return Raw(key, v ? "true" : "false"); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <typename T>
std::string Array(const std::vector<T>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out + "]";
}

/// The histogram's occupied buckets as [lower bound ns, cumulative count]
/// pairs, recovered through the public ValueAtQuantile: rank t (1-based) is
/// queried with q = (t - 0.5) / (n - 1), which the histogram maps back to
/// target rank t exactly.
std::string BucketCdf(const nb::metrics::Histogram& h) {
  const uint64_t n = h.count();
  std::string out = "[";
  if (n == 0) return out + "]";
  const auto at_rank = [&](uint64_t t) {
    const double q =
        (n == 1 || t >= n) ? (t >= n ? 1.0 : 0.0)
                           : (static_cast<double>(t) - 0.5) /
                                 static_cast<double>(n - 1);
    return h.ValueAtQuantile(q);
  };
  uint64_t t = 1;
  bool first = true;
  while (t <= n) {
    const int64_t v = at_rank(t);
    // Largest rank still in v's bucket: gallop, then bisect.
    uint64_t lo = t, step = 1;
    while (lo + step <= n && at_rank(lo + step) == v) {
      lo += step;
      step *= 2;
    }
    uint64_t hi = std::min(n, lo + step);  // at_rank(hi) != v unless hi == lo.
    while (hi > lo + 1) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (at_rank(mid) == v) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    if (hi == n && at_rank(n) == v) lo = n;
    if (!first) out += ',';
    first = false;
    out += "[" + std::to_string(v) + "," + std::to_string(lo) + "]";
    t = lo + 1;
  }
  return out + "]";
}

std::string HistJson(const nb::metrics::Histogram& h) {
  return Obj()
      .Int("count", static_cast<int64_t>(h.count()))
      .Int("max", h.max())
      .Num("sum", h.Sum())
      .Raw("cdf", BucketCdf(h))
      .str();
}

/// Cluster-wide counters snapshotted at the window's start and end.
struct Counters {
  uint64_t events = 0;
  nb::net::NetStats net;
  uint64_t appended = 0, weak_sent = 0, strong_sent = 0, window_inserts = 0,
           window_overflows = 0, elections = 0, rpc_timeouts = 0, fsyncs = 0,
           disk_bytes = 0, append_rpcs = 0, append_entries = 0, applied = 0,
           points = 0, disk_records = 0;
  std::array<SimDuration, nb::metrics::kNumPhases> phases{};
};

Counters Snapshot(nb::harness::Cluster& cluster) {
  Counters c;
  c.events = cluster.sim()->events_processed();
  c.net = cluster.network()->stats();
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    const nb::raft::RaftNode* node = cluster.node(i);
    const nb::raft::NodeStats& s = node->stats();
    c.appended += s.entries_appended;
    c.weak_sent += s.weak_accepts_sent;
    c.strong_sent += s.strong_accepts_sent;
    c.window_inserts += s.window_inserts;
    c.window_overflows += s.window_overflows;
    c.elections += s.elections_started;
    c.rpc_timeouts += s.rpc_timeouts;
    c.fsyncs += s.fsyncs_completed;
    c.disk_bytes += s.disk_bytes_written;
    c.append_rpcs += s.append_rpcs_sent;
    c.append_entries += s.append_entries_sent;
    c.applied += s.entries_applied;
    for (int p = 1; p < nb::metrics::kNumPhases; ++p) {
      c.phases[static_cast<size_t>(p)] +=
          s.breakdown.total(static_cast<nb::metrics::Phase>(p));
    }
    const auto* tsdb =
        dynamic_cast<const nb::tsdb::TsdbStateMachine*>(&node->state_machine());
    if (tsdb != nullptr) c.points += tsdb->ingested_points();
    if (node->disk() != nullptr) c.disk_records += node->disk()->records().size();
  }
  for (int i = 0; i < cluster.num_clients(); ++i) {
    c.phases[0] += cluster.client(i)->stats().gen_time_total;
  }
  return c;
}

uint64_t CompletedInWindow(nb::harness::Cluster& cluster) {
  uint64_t total = 0;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    total += cluster.client(i)->stats().requests_completed;
  }
  return total;
}

/// Payload bytes the disk images keep alive, each shared buffer once.
uint64_t RetainedDiskBytes(nb::harness::Cluster& cluster) {
  std::unordered_set<const char*> seen;
  uint64_t bytes = 0;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    const nb::storage::SimDisk* disk = cluster.node(i)->disk();
    if (disk == nullptr) continue;
    for (const auto& r : disk->records()) {
      const nb::Buffer& p = r.entry.payload;
      if (p.size() > 0 && seen.insert(p.data()).second) bytes += p.size();
    }
  }
  return bytes;
}

struct Rep {
  double setup_s = 0;
  double measure_wall_s = 0;
  uint64_t completed = 0;
  std::string virt;  ///< Virtual-time outcome; identical across repetitions.
  nb::metrics::Histogram ack, commit;
  RunShape shape;
};

nb::harness::ClusterConfig MakeConfig(const Workload& w, uint64_t seed,
                                      bool traced) {
  nb::harness::ClusterConfig config;
  config.num_nodes = 3;
  config.num_clients = w.clients;
  config.protocol = w.protocol;
  config.payload_size = w.payload;
  config.seed = seed;
  config.release_payloads = true;
  if (w.disk) {
    config.disk.enabled = true;
    config.disk.write_latency = nb::Micros(2);
    config.disk.fsync_latency = nb::Micros(100);
    config.disk.group_commit = true;
  }
  config.record_client_acks = w.crash_at > 0;
  config.trace = traced;
  config.journal = traced;
  return config;
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

/// Committed request ids, sorted: the current leader's log up to its
/// commit index.
std::vector<uint64_t> CommittedIds(nb::harness::Cluster& cluster) {
  std::vector<uint64_t> ids;
  const nb::raft::RaftNode* leader = cluster.leader();
  if (leader == nullptr) return ids;
  const auto& log = leader->log();
  const nb::storage::LogIndex upto =
      std::min(leader->commit_index(), log.LastIndex());
  for (nb::storage::LogIndex i = log.FirstIndex(); i <= upto; ++i) {
    const auto& e = log.AtUnchecked(i);
    if (nb::net::IsClientId(e.client_id)) ids.push_back(e.request_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Rep RunRep(const Workload& w, uint64_t seed, bool traced, Spans* spans) {
  SpanScope rep_span(spans, "rep");
  Rep rep;
  const auto t_setup = std::chrono::steady_clock::now();
  const nb::harness::ClusterConfig config = MakeConfig(w, seed, traced);

  int sid = spans->Begin("harness.construct");
  auto owned = std::make_unique<nb::harness::Cluster>(config);
  nb::harness::Cluster& cluster = *owned;
  spans->End(sid);
  sid = spans->Begin("harness.start_await_leader");
  cluster.Start();
  const bool bootstrapped = cluster.AwaitLeader();
  cluster.StartClients();
  spans->End(sid);
  sid = spans->Begin("harness.warmup");
  cluster.RunFor(w.warmup);
  cluster.ResetMeasurement();
  spans->End(sid);
  const Counters before = Snapshot(cluster);
  rep.setup_s = Seconds(t_setup);

  // The measurement window, in fixed slices so completions per slice (and
  // thus time without service after a crash) can be read from outside.
  const auto t_measure = std::chrono::steady_clock::now();
  const int64_t slices = w.measure / kSlice;
  std::vector<uint64_t> per_slice;
  per_slice.reserve(static_cast<size_t>(slices));
  const int64_t crash_slice = w.crash_at > 0 ? w.crash_at / kSlice : -1;
  std::vector<int64_t> crash_slices;
  int64_t restart_slice = -1;
  int crashed_host = -1;
  double pending_sum = 0;
  uint64_t done_before = 0;
  for (int64_t s = 0; s < slices; ++s) {
    if (s == crash_slice) {
      SpanScope crash_span(spans, "raft.crash_leader");
      crashed_host = cluster.CrashLeader();
      if (crashed_host >= 0) {
        crash_slices.push_back(s);
        restart_slice = s + w.restart_after / kSlice;
      }
    }
    if (s == restart_slice) {
      SpanScope restart_span(spans, "raft.restart_node");
      cluster.RestartNode(crashed_host);
    }
    {
      SpanScope slice_span(spans, "sim.run_slice");
      cluster.RunFor(kSlice);
    }
    const uint64_t done = CompletedInWindow(cluster);
    per_slice.push_back(done - done_before);
    done_before = done;
    pending_sum += static_cast<double>(cluster.sim()->pending_events());
  }
  rep.measure_wall_s = Seconds(t_measure);
  rep.completed = done_before;

  sid = spans->Begin("harness.collect");
  const Counters after = Snapshot(cluster);
  const nb::harness::ClusterStats stats = cluster.Collect();
  uint64_t timeouts = 0, leader_changes = 0;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    timeouts += cluster.client(i)->stats().timeouts;
    leader_changes += cluster.client(i)->stats().leader_changes_seen;
  }
  const uint64_t retained = RetainedDiskBytes(cluster);
  rep.ack = stats.unblock_latency;
  rep.commit = stats.completion_latency;
  spans->End(sid);

  // Correctness gate. After a crash, let a leader settle (outside the
  // window) so its committed prefix covers every strong ack.
  if (w.crash_at > 0) {
    SpanScope drain_span(spans, "harness.drain");
    for (int i = 0; i < 50 && cluster.leader() == nullptr; ++i) {
      cluster.RunFor(nb::Millis(100));
    }
    cluster.RunFor(nb::Millis(100));
  }
  sid = spans->Begin("harness.check_logs");
  const nb::Status matching = cluster.CheckLogMatching();
  const nb::Status prefixes = cluster.CheckCommittedPrefixes();
  const bool net_consistent = cluster.network()->stats().Consistent();
  spans->End(sid);
  uint64_t strong_acked = 0, strong_missing = 0, weak_acked = 0, weak_lost = 0;
  if (config.record_client_acks) {
    SpanScope acks_span(spans, "harness.check_acks");
    const std::vector<uint64_t> committed = CommittedIds(cluster);
    const auto missing = [&committed](uint64_t id) {
      return std::binary_search(committed.begin(), committed.end(), id) ? 0 : 1;
    };
    for (int i = 0; i < cluster.num_clients(); ++i) {
      for (const uint64_t id : cluster.client(i)->strong_acked_ids()) {
        ++strong_acked;
        strong_missing += missing(id);
      }
      for (const uint64_t id : cluster.client(i)->weak_acked_ids()) {
        ++weak_acked;
        weak_lost += missing(id);
      }
    }
  }

  const auto d = [&](uint64_t Counters::*field) {
    return static_cast<int64_t>(after.*field - before.*field);
  };
  Obj phases;
  for (int p = 0; p < nb::metrics::kNumPhases; ++p) {
    phases.Int(kPhaseKeys[p], after.phases[static_cast<size_t>(p)] -
                                  before.phases[static_cast<size_t>(p)]);
  }
  const int64_t msgs = static_cast<int64_t>(after.net.messages_sent -
                                            before.net.messages_sent);
  const int64_t bytes =
      static_cast<int64_t>(after.net.bytes_sent - before.net.bytes_sent);
  const int64_t dropped = static_cast<int64_t>(after.net.messages_dropped -
                                               before.net.messages_dropped);
  const int64_t events = static_cast<int64_t>(after.events - before.events);

  rep.virt =
      Obj()
          .Bool("bootstrapped", bootstrapped)
          .Int("window_ns", slices * kSlice)
          .Int("slice_ns", kSlice)
          .Int("issued", static_cast<int64_t>(stats.requests_issued))
          .Int("completed", static_cast<int64_t>(stats.requests_completed))
          .Int("weak_accepts", static_cast<int64_t>(stats.weak_accepts))
          .Int("retries", static_cast<int64_t>(stats.client_retries))
          .Int("timeouts", static_cast<int64_t>(timeouts))
          .Int("leader_changes_seen", static_cast<int64_t>(leader_changes))
          .Raw("ack", HistJson(stats.unblock_latency))
          .Raw("commit", HistJson(stats.completion_latency))
          .Raw("slices", Array(per_slice))
          .Raw("crash_slices", Array(crash_slices))
          .Int("crashed_host", crashed_host)
          .Int("events", events)
          .Num("pending_mean", slices > 0 ? pending_sum / slices : 0)
          .Int("msgs", msgs)
          .Int("bytes", bytes)
          .Int("dropped", dropped)
          .Int("appended", d(&Counters::appended))
          .Int("weak_sent", d(&Counters::weak_sent))
          .Int("strong_sent", d(&Counters::strong_sent))
          .Int("window_inserts", d(&Counters::window_inserts))
          .Int("window_overflows", d(&Counters::window_overflows))
          .Int("elections", d(&Counters::elections))
          .Int("rpc_timeouts", d(&Counters::rpc_timeouts))
          .Int("fsyncs", d(&Counters::fsyncs))
          .Int("disk_bytes", d(&Counters::disk_bytes))
          .Int("disk_records", d(&Counters::disk_records))
          .Int("append_rpcs", d(&Counters::append_rpcs))
          .Int("append_entries", d(&Counters::append_entries))
          .Int("applied", d(&Counters::applied))
          .Int("points", d(&Counters::points))
          .Int("retained_bytes", static_cast<int64_t>(retained))
          .Raw("phases", phases.str())
          .Raw("checks",
               Obj()
                   .Str("log_matching", matching.ok() ? "" : matching.ToString())
                   .Str("committed_prefixes",
                        prefixes.ok() ? "" : prefixes.ToString())
                   .Bool("net_consistent", net_consistent)
                   .Bool("acks_recorded", config.record_client_acks)
                   .Int("strong_acked", static_cast<int64_t>(strong_acked))
                   .Int("strong_missing", static_cast<int64_t>(strong_missing))
                   .Int("weak_acked", static_cast<int64_t>(weak_acked))
                   .Int("weak_lost", static_cast<int64_t>(weak_lost))
                   .str())
          .str();

  RunShape& shape = rep.shape;
  shape.seed = seed;
  shape.pending_mean = slices > 0 ? pending_sum / slices : 0;
  shape.event_gap_ns =
      events > 0 ? static_cast<double>(slices * kSlice) / events : 0;
  shape.network = config.network;
  shape.nodes = config.num_nodes;
  shape.clients = config.num_clients;
  shape.bytes_per_msg = msgs > 0 ? static_cast<double>(bytes) / msgs : 0;
  shape.payload_size = config.payload_size;
  shape.window_size = w.protocol == nb::raft::Protocol::kRaft ? 0 : config.window_size;
  shape.window_used = d(&Counters::window_inserts) > 0;
  const int64_t appended = d(&Counters::appended);
  const double entries = static_cast<double>(appended) / config.num_nodes;
  shape.entry_gap_ns =
      entries > 0 ? static_cast<double>(slices * kSlice) / entries : 0;
  shape.weak_per_entry =
      entries > 0 ? static_cast<double>(d(&Counters::weak_sent)) / entries : 0;
  shape.strong_per_entry =
      entries > 0 ? static_cast<double>(d(&Counters::strong_sent)) / entries
                  : 0;
  shape.tuples_in_flight =
      stats.completion_latency.Mean() / static_cast<double>(slices * kSlice) *
      static_cast<double>(stats.requests_completed);
  shape.disk = w.disk;
  shape.disk_write = config.disk.write_latency;
  shape.disk_fsync = config.disk.fsync_latency;
  shape.records_per_fsync =
      d(&Counters::fsyncs) > 0
          ? static_cast<double>(d(&Counters::disk_records)) /
                static_cast<double>(d(&Counters::fsyncs))
          : 1;
  shape.workload = config.workload;
  sid = spans->Begin("harness.destroy");
  owned.reset();
  spans->End(sid);
  return rep;
}

std::string LayersJson(const RunShape& shape, Spans* spans) {
  LayerCosts c;
  {
    SpanScope s(spans, "replay.sim_step");
    c.step_ns = ReplayStep(shape);
  }
  {
    SpanScope s(spans, "replay.net_send");
    ReplaySend(shape, &c);
  }
  {
    SpanScope s(spans, "replay.nbraft_window");
    c.window_ns = ReplayWindow(shape);
  }
  {
    SpanScope s(spans, "replay.nbraft_votelist");
    c.votelist_ns = ReplayVoteList(shape);
  }
  {
    SpanScope s(spans, "replay.storage_append");
    c.append_ns = ReplayAppend(shape);
  }
  {
    SpanScope s(spans, "replay.tsdb_apply");
    c.apply_ns = ReplayApply(shape);
  }
  {
    SpanScope s(spans, "replay.harness_make_payload");
    c.make_payload_ns = ReplayMakePayload(shape);
  }
  return Obj()
      .Num("step_ns", c.step_ns)
      .Num("send_ns", c.send_ns)
      .Num("net_events_per_msg", c.net_events_per_msg)
      .Num("window_ns", c.window_ns)
      .Num("votelist_ns", c.votelist_ns)
      .Num("append_ns", c.append_ns)
      .Num("apply_ns", c.apply_ns)
      .Num("make_payload_ns", c.make_payload_ns)
      .str();
}

int64_t PeakRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--traced <0|1> [--cells <k>] [--spans <path>]\n",
               argv0);
  return 2;
}

/// Seed of cell `c` of a run at `seed`; cell 0 runs at the seed itself.
uint64_t CellSeed(uint64_t seed, int c) {
  if (c == 0) return seed;
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(c);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Main(int argc, char** argv) {
  std::string workload_name, spans_path;
  uint64_t seed = 0;
  double seconds = -1;
  int traced = -1;
  int cells = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--traced") {
      traced = std::atoi(value);
    } else if (flag == "--cells") {
      cells = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || seconds <= 0 || (traced != 0 && traced != 1) ||
      cells < 0 || (traced == 1 && spans_path.empty())) {
    return Usage(argv[0]);
  }
  if (cells == 0) cells = workload->cells;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  // One pass over the cells gives the virtual-time outcome. Cells then
  // repeat, in order, until `seconds` of wall time are used (at least one
  // repeat), and every repeat must reproduce its cell's outcome exactly.
  Spans spans(traced == 1, workload->name);
  constexpr size_t kMaxReps = 100000;
  const auto start = std::chrono::steady_clock::now();
  std::vector<Rep> pass;
  std::string reps_json = "[";
  bool deterministic = true;
  double last_rep_s = 0;
  for (size_t i = 0;
       i <= static_cast<size_t>(cells) ||
       (i < kMaxReps && Seconds(start) + last_rep_s <= seconds);
       ++i) {
    const int c = static_cast<int>(i % static_cast<size_t>(cells));
    const bool rep_traced = traced == 1 && i % 2 == 0;
    const auto rep_start = std::chrono::steady_clock::now();
    Rep rep = RunRep(*workload, CellSeed(seed, c), rep_traced, &spans);
    last_rep_s = Seconds(rep_start);
    if (i > 0) reps_json += ',';
    reps_json += Obj()
                     .Int("cell", c)
                     .Bool("traced", rep_traced)
                     .Num("setup_s", rep.setup_s)
                     .Num("measure_wall_s", rep.measure_wall_s)
                     .Int("completed", static_cast<int64_t>(rep.completed))
                     .str();
    if (i < static_cast<size_t>(cells)) {
      pass.push_back(std::move(rep));
    } else {
      deterministic = deterministic && rep.virt == pass[static_cast<size_t>(c)].virt;
    }
  }
  reps_json += "]";

  nb::metrics::Histogram ack, commit;
  std::string cells_json = "[";
  for (size_t c = 0; c < pass.size(); ++c) {
    ack.Merge(pass[c].ack);
    commit.Merge(pass[c].commit);
    if (c > 0) cells_json += ',';
    cells_json += pass[c].virt;
  }
  cells_json += "]";

  Obj out;
  out.Str("workload", workload->name)
      .Int("seed", static_cast<int64_t>(seed))
      .Bool("traced", traced == 1)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Raw("reps", reps_json)
      .Bool("deterministic", deterministic)
      .Raw("cells", cells_json)
      .Raw("pooled", Obj()
                         .Raw("ack", HistJson(ack))
                         .Raw("commit", HistJson(commit))
                         .str());
  if (traced == 1) {
    out.Raw("layers", LayersJson(pass[0].shape, &spans));
    if (!spans.WriteJsonl(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  out.Int("peak_rss_kb", PeakRssKb());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
