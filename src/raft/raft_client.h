#ifndef NBRAFT_RAFT_RAFT_CLIENT_H_
#define NBRAFT_RAFT_RAFT_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "metrics/histogram.h"
#include "net/network.h"
#include "obs/journal.h"
#include "obs/tracer.h"
#include "raft/messages.h"
#include "raft/types.h"
#include "sim/simulator.h"
#include "storage/log_entry.h"

namespace nbraft::raft {

/// Per-client metrics aggregated by the harness.
struct ClientStats {
  uint64_t requests_issued = 0;    ///< Distinct request ids sent.
  uint64_t requests_completed = 0; ///< STRONG_ACCEPT received.
  uint64_t weak_accepts = 0;
  uint64_t retries = 0;
  uint64_t leader_changes_seen = 0;
  uint64_t timeouts = 0;
  /// Times the exponential resend backoff snapped back to its base after a
  /// response arrived mid-backoff (i.e. recoveries, not just timeouts).
  uint64_t backoff_resets = 0;
  metrics::Histogram completion_latency;  ///< Issue -> STRONG_ACCEPT.
  metrics::Histogram unblock_latency;     ///< Issue -> first response.
  SimDuration gen_time_total = 0;         ///< Accumulated t_gen(C).
};

/// One client connection of the paper's Sec. III-C: a closed loop that
/// keeps exactly one request awaiting its *first* response, plus — under
/// NB-Raft — an opList of weakly accepted requests awaiting commit.
///
/// With pipeline_window = 0 (original Raft) the connection blocks until the
/// current request is STRONG_ACCEPTed: Fig. 1(a). With a window, a
/// WEAK_ACCEPT unblocks the next request early: Fig. 1(b).
class RaftClient {
 public:
  struct Options {
    /// Modelled request generation time, t_gen(C) — bounded by the IoT
    /// device sampling frequency per Table I.
    SimDuration think_time = Micros(5);

    /// Request payload size in bytes (the paper's 4 KB default).
    size_t payload_size = 4096;

    /// Maximum weakly-accepted requests awaiting commit (the opList bound,
    /// tied to the follower window size). 0 = original Raft behaviour.
    int pipeline_window = 0;

    /// Resend timeout for the first attempt of a request. Consecutive
    /// timeouts of the same request back off exponentially:
    ///   wait(k) = min(backoff_cap, backoff_base * 2^k)
    /// plus a deterministic jitter drawn from the client's seeded RNG (up
    /// to wait/4), so a fleet of clients stranded by the same fault does
    /// not resend in lockstep. Any response resets the backoff to base.
    SimDuration backoff_base = Millis(1500);
    SimDuration backoff_cap = Millis(8000);

    /// Stop issuing after this many requests (0 = unlimited).
    uint64_t max_requests = 0;

    /// Retain the ids of weakly / strongly acknowledged requests (the
    /// chaos safety oracle audits them against the committed log). Off by
    /// default: long benchmark runs should not grow id sets.
    bool record_ack_ids = false;
  };

  /// Generates a request payload of (at least) `target` bytes.
  using PayloadFn = std::function<nbraft::Buffer(size_t target)>;

  RaftClient(sim::Simulator* sim, net::SimNetwork* network, net::NodeId id,
             std::vector<net::NodeId> servers, Options options,
             PayloadFn payload_fn);

  RaftClient(const RaftClient&) = delete;
  RaftClient& operator=(const RaftClient&) = delete;

  /// Registers the endpoint and issues the first request after think time.
  void Start();

  /// Crash-stops the client (no more requests; pending ones are lost) —
  /// used by the persistence-loss experiment, Sec. V-G.
  void Stop();

  /// Begins counting completions/latencies from now (end of warm-up).
  void ResetMeasurement();

  net::NodeId id() const { return id_; }
  const ClientStats& stats() const { return stats_; }
  uint64_t requests_issued_total() const { return next_seq_; }
  bool stopped() const { return stopped_; }

  /// Request ids acknowledged so far (empty unless
  /// Options::record_ack_ids). A strong ack promises durability; the
  /// safety oracle checks every id here against the committed log.
  const std::set<uint64_t>& strong_acked_ids() const {
    return strong_acked_ids_;
  }
  const std::set<uint64_t>& weak_acked_ids() const { return weak_acked_ids_; }

  /// Attaches the lifecycle tracer (nullptr = off, the default): one
  /// t_gen(C) span per request.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches the flight recorder (nullptr = off, the default): the
  /// client's request sends and response receipts, WEAK/STRONG accepts
  /// and opList retries.
  void set_journal(obs::Journal* journal) { journal_ = journal; }

 private:
  struct PendingRequest {
    uint64_t request_id = 0;
    storage::LogIndex index = 0;  ///< Known once weakly accepted.
    storage::Term term = 0;
    /// Shared with every (re)send's wire copy — resends bump a refcount
    /// instead of copying the 4 KB body.
    nbraft::Buffer payload;
    SimTime issued_at = 0;
    bool measured = false;  ///< Issued after ResetMeasurement().
  };

  void HandleMessage(net::Message&& msg);
  void HandleResponse(const ClientResponse& resp, net::NodeId from);
  /// A WEAK/STRONG accept from `from`: adopt it as the leader guess when
  /// it is news, resending a stranded in-flight request to it.
  void FollowAccepter(net::NodeId from, const ClientResponse& resp);
  void ScheduleNextRequest();
  void IssueRequest(PendingRequest req, bool is_retry);
  /// Sends `req` to the current leader guess and re-arms the timeout.
  void SendRequest(const PendingRequest& req);
  void RetryAll(const char* reason);
  void ArmTimeout();
  void RotateLeaderGuess();
  /// Current resend wait: capped exponential in the consecutive-timeout
  /// count, plus deterministic jitter.
  SimDuration CurrentTimeout();
  /// A response arrived: snap the backoff back to its base.
  void ResetBackoff();
  void RecordStrongAck(uint64_t request_id);

  sim::Simulator* sim_;
  net::SimNetwork* network_;
  const net::NodeId id_;
  std::vector<net::NodeId> servers_;
  Options options_;
  PayloadFn payload_fn_;

  net::NodeId leader_guess_;
  storage::Term list_term_ = 0;  ///< Newest leader term seen (Sec. III-C).
  /// True while leader_guess_ came from an unconfirmed leader hint: the
  /// next timeout re-tries the hinted node instead of rotating past it.
  bool guess_is_fresh_hint_ = false;
  int consecutive_timeouts_ = 0;

  /// The request awaiting its first response (at most one), plus the
  /// opList of weakly accepted requests awaiting STRONG_ACCEPT.
  bool has_inflight_ = false;
  PendingRequest inflight_;
  std::deque<PendingRequest> op_list_;
  std::deque<PendingRequest> retry_queue_;

  obs::Tracer* tracer_ = nullptr;
  obs::Journal* journal_ = nullptr;
  nbraft::Rng rng_;  ///< Deterministic per-client stream (backoff jitter).

  std::set<uint64_t> strong_acked_ids_;
  std::set<uint64_t> weak_acked_ids_;

  uint64_t next_seq_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  bool generate_scheduled_ = false;
  sim::EventId timeout_event_ = sim::kInvalidEventId;

  ClientStats stats_;
};

}  // namespace nbraft::raft

#endif  // NBRAFT_RAFT_RAFT_CLIENT_H_
