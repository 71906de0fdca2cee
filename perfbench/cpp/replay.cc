#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "nbraft/sliding_window.h"
#include "nbraft/vote_list.h"
#include "sim/simulator.h"
#include "storage/durable_log.h"
#include "storage/log_entry.h"
#include "storage/sim_disk.h"
#include "tsdb/state_machine.h"

namespace perfbench {

namespace nb = nbraft;

namespace {

constexpr int kRounds = 5;

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Runs `round` kRounds times; each returns ns per operation.
template <typename Fn>
double MedianOfRounds(Fn round) {
  std::vector<double> per_op;
  for (int r = 0; r < kRounds; ++r) per_op.push_back(round(r));
  return Median(std::move(per_op));
}

/// A message body of the replayed size class (heap-held like the real RPC
/// structs behind PayloadRef).
struct Blob {
  nb::Buffer bytes;
};

nb::storage::LogEntry Entry(nb::storage::LogIndex index,
                            const nb::Buffer& payload) {
  nb::storage::LogEntry e;
  e.index = index;
  e.term = 1;
  e.prev_term = index == 1 ? 0 : 1;
  e.client_id = nb::net::kClientIdBase;
  e.request_id = static_cast<uint64_t>(index);
  e.payload = payload;
  return e;
}

}  // namespace

double ReplayStep(const RunShape& shape) {
  const size_t depth =
      std::max<size_t>(1, static_cast<size_t>(std::llround(shape.pending_mean)));
  const double mean_delay =
      std::max(1.0, shape.pending_mean * shape.event_gap_ns);
  constexpr int kOps = 200000;
  nb::Rng rng(shape.seed ^ 0x5157ULL);
  std::vector<nb::SimDuration> delays(kOps);
  for (auto& d : delays) {
    d = static_cast<nb::SimDuration>(rng.NextExponential(mean_delay));
  }
  return MedianOfRounds([&](int) {
    nb::sim::Simulator sim(shape.seed);
    uint64_t fired = 0;
    for (size_t i = 0; i < depth; ++i) {
      sim.After(delays[i % delays.size()], [&fired]() { ++fired; });
    }
    const double t0 = NowNs();
    for (int i = 0; i < kOps; ++i) {
      sim.After(delays[static_cast<size_t>(i)], [&fired]() { ++fired; });
      sim.Step();
    }
    const double ns = NowNs() - t0;
    return fired == 0 ? 0.0 : ns / kOps;
  });
}

void ReplaySend(const RunShape& shape, LayerCosts* out) {
  constexpr int kMsgs = 100000;
  constexpr int kBatch = 256;
  const size_t big = shape.payload_size + nb::storage::LogEntry::kHeaderOverhead;
  const size_t small = 64;
  // Share of payload-carrying messages that reproduces the run's mean
  // bytes per message.
  const double big_share = std::clamp(
      (shape.bytes_per_msg - static_cast<double>(small)) /
          static_cast<double>(big - small),
      0.0, 1.0);
  nb::Rng rng(shape.seed ^ 0x4e37ULL);
  struct Planned {
    nb::net::NodeId from, to;
    size_t bytes;
  };
  std::vector<Planned> plan(kMsgs);
  const int clients = std::max(1, shape.clients);
  for (auto& p : plan) {
    const bool to_client = rng.NextBounded(2) == 0;
    const auto client = static_cast<nb::net::NodeId>(
        nb::net::kClientIdBase + static_cast<int>(rng.NextBounded(
                                     static_cast<uint64_t>(clients))));
    const auto peer = static_cast<nb::net::NodeId>(
        1 + rng.NextBounded(static_cast<uint64_t>(shape.nodes - 1)));
    const bool client_pair = rng.NextBounded(2) == 0;
    const nb::net::NodeId other = client_pair ? client : peer;
    p.from = to_client ? 0 : other;
    p.to = to_client ? other : 0;
    p.bytes = rng.NextDouble() < big_share ? big : small;
  }
  const nb::Buffer body(std::string(shape.payload_size, 'x'));
  double events_per_msg = 0;
  out->send_ns = MedianOfRounds([&](int) {
    nb::sim::Simulator sim(shape.seed);
    nb::net::SimNetwork net(&sim, shape.network);
    uint64_t delivered = 0;
    auto handler = [&delivered](nb::net::Message&&) { ++delivered; };
    for (int n = 0; n < shape.nodes; ++n) net.RegisterEndpoint(n, handler);
    for (int c = 0; c < clients; ++c) {
      net.RegisterEndpoint(nb::net::kClientIdBase + c, handler);
    }
    const uint64_t events0 = sim.events_processed();
    const double t0 = NowNs();
    for (int i = 0; i < kMsgs; i += kBatch) {
      const int end = std::min(kMsgs, i + kBatch);
      for (int j = i; j < end; ++j) {
        const Planned& p = plan[static_cast<size_t>(j)];
        net.Send(p.from, p.to, p.bytes, Blob{body});
      }
      sim.Run();
    }
    const double ns = NowNs() - t0;
    events_per_msg =
        static_cast<double>(sim.events_processed() - events0) / kMsgs;
    return delivered == 0 ? 0.0 : ns / static_cast<double>(delivered);
  });
  out->net_events_per_msg = events_per_msg;
}

double ReplayWindow(const RunShape& shape) {
  if (!shape.window_used || shape.window_size <= 0) return 0.0;
  constexpr int kEntries = 100000;
  // Arrival order of the run's entry stream under the network's
  // exponential jitter: entry i is sent at i * gap and arrives jitter later.
  nb::Rng rng(shape.seed ^ 0x3a11ULL);
  std::vector<std::pair<double, nb::storage::LogIndex>> arrivals;
  arrivals.reserve(kEntries);
  const double jitter = static_cast<double>(shape.network.jitter_mean);
  for (int i = 1; i <= kEntries; ++i) {
    arrivals.emplace_back(
        static_cast<double>(i) * shape.entry_gap_ns +
            rng.NextExponential(std::max(1.0, jitter)),
        static_cast<nb::storage::LogIndex>(i));
  }
  std::sort(arrivals.begin(), arrivals.end());
  const nb::Buffer payload;
  std::vector<nb::storage::LogEntry> entries;
  entries.reserve(kEntries);
  for (const auto& a : arrivals) entries.push_back(Entry(a.second, payload));
  const nb::storage::LogIndex capacity = shape.window_size;
  return MedianOfRounds([&](int) {
    nb::raft::SlidingWindow window(shape.window_size);
    nb::storage::LogIndex last = 0;
    size_t flushed = 0;
    const double t0 = NowNs();
    for (const auto& e : entries) {
      if (e.index == last + 1) {
        last = e.index;
        const auto prefix = window.TakeFlushablePrefix(last, 1);
        last += static_cast<nb::storage::LogIndex>(prefix.size());
        flushed += prefix.size();
      } else if (e.index <= last + capacity) {
        window.Insert(e);
      }
    }
    const double ns = NowNs() - t0;
    return flushed == 0 ? 0.0 : ns / kEntries;
  });
}

double ReplayVoteList(const RunShape& shape) {
  constexpr int kEntries = 100000;
  const int followers = shape.nodes - 1;
  const auto lag = static_cast<nb::storage::LogIndex>(
      std::max(1.0, std::round(shape.tuples_in_flight)));
  const double weak_p =
      std::clamp(shape.weak_per_entry / followers, 0.0, 1.0);
  const double strong_rate = shape.strong_per_entry / followers;
  nb::Rng rng(shape.seed ^ 0x707eULL);
  std::vector<uint8_t> weak(static_cast<size_t>(kEntries) * followers);
  for (auto& w : weak) w = rng.NextDouble() < weak_p ? 1 : 0;
  return MedianOfRounds([&](int) {
    nb::raft::VoteList votes;
    std::vector<double> credit(static_cast<size_t>(followers), 0.0);
    size_t committed = 0;
    const double t0 = NowNs();
    for (nb::storage::LogIndex i = 1; i <= kEntries; ++i) {
      votes.AddTuple(i, 1, 0, shape.nodes / 2 + 1);
      for (int f = 0; f < followers; ++f) {
        if (weak[static_cast<size_t>((i - 1) * followers + f)] != 0) {
          votes.AddWeak(i, f + 1);
        }
        credit[static_cast<size_t>(f)] += strong_rate;
        if (credit[static_cast<size_t>(f)] >= 1.0 && i > lag) {
          credit[static_cast<size_t>(f)] -= 1.0;
          committed += votes.AddStrongUpTo(i - lag, f + 1, 1).size();
        }
      }
      if (i % 64 == 0) committed += votes.CollectCommittable(1).size();
    }
    const double ns = NowNs() - t0;
    return committed == 0 ? 0.0 : ns / kEntries;
  });
}

double ReplayAppend(const RunShape& shape) {
  if (!shape.disk) return 0.0;
  constexpr int kRecords = 20000;
  const int batch = std::max(
      1, static_cast<int>(std::llround(shape.records_per_fsync)));
  const nb::Buffer payload(std::string(shape.payload_size, 'd'));
  std::vector<nb::storage::LogEntry> entries;
  entries.reserve(kRecords);
  for (int i = 1; i <= kRecords; ++i) entries.push_back(Entry(i, payload));
  return MedianOfRounds([&](int) {
    nb::sim::Simulator sim(shape.seed);
    nb::storage::SimDisk::Options options;
    options.write_latency = shape.disk_write;
    options.fsync_latency = shape.disk_fsync;
    options.fault_seed = shape.seed;
    nb::storage::SimDisk disk(&sim, options, 0);
    nb::storage::DurableLog log;
    log.OpenWith(std::make_unique<nb::storage::SimDiskBackend>(&disk));
    uint64_t synced = 0;
    const double t0 = NowNs();
    for (int i = 0; i < kRecords; ++i) {
      if (!log.AppendEntry(entries[static_cast<size_t>(i)]).ok()) return 0.0;
      if ((i + 1) % batch == 0 || i + 1 == kRecords) {
        log.Sync([&synced](nb::Status s) { synced += s.ok() ? 1 : 0; });
        sim.Run();
      }
    }
    const double ns = NowNs() - t0;
    return synced == 0 ? 0.0 : ns / kRecords;
  });
}

double ReplayApply(const RunShape& shape) {
  // Enough entries for a steady per-entry cost while keeping the held
  // payload bytes near 16 MiB.
  const int entries_per_round = static_cast<int>(std::clamp<size_t>(
      (size_t{16} << 20) / std::max<size_t>(1, shape.payload_size), 64, 4000));
  nb::harness::IngestWorkload workload(shape.workload, shape.seed);
  nb::storage::LogIndex next = 1;
  return MedianOfRounds([&](int) {
    std::vector<nb::storage::LogEntry> entries;
    entries.reserve(static_cast<size_t>(entries_per_round));
    for (int i = 0; i < entries_per_round; ++i) {
      entries.push_back(
          Entry(next++, nb::Buffer(workload.MakePayload(shape.payload_size))));
    }
    nb::tsdb::TsdbStateMachine sm;
    int64_t modelled = 0;
    const double t0 = NowNs();
    for (const auto& e : entries) modelled += sm.Apply(e);
    const double ns = NowNs() - t0;
    return modelled == 0 ? 0.0 : ns / entries_per_round;
  });
}

double ReplayMakePayload(const RunShape& shape) {
  const int calls = static_cast<int>(std::clamp<size_t>(
      (size_t{64} << 20) / std::max<size_t>(1, shape.payload_size), 64, 20000));
  return MedianOfRounds([&](int round) {
    nb::harness::IngestWorkload workload(shape.workload,
                                         shape.seed + static_cast<uint64_t>(round));
    size_t bytes = 0;
    const double t0 = NowNs();
    for (int i = 0; i < calls; ++i) {
      bytes += workload.MakePayload(shape.payload_size).size();
    }
    const double ns = NowNs() - t0;
    return bytes == 0 ? 0.0 : ns / calls;
  });
}

}  // namespace perfbench
