#include "raft/raft_client.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace nbraft::raft {

RaftClient::RaftClient(sim::Simulator* sim, net::SimNetwork* network,
                       net::NodeId id, std::vector<net::NodeId> servers,
                       Options options, PayloadFn payload_fn)
    : sim_(sim),
      network_(network),
      id_(id),
      servers_(std::move(servers)),
      options_(options),
      payload_fn_(std::move(payload_fn)),
      rng_(sim->rng()->Next()) {
  NBRAFT_CHECK(!servers_.empty());
  NBRAFT_CHECK(net::IsClientId(id));
  NBRAFT_CHECK_GT(options_.backoff_base, 0);
  NBRAFT_CHECK_GE(options_.backoff_cap, options_.backoff_base);
  leader_guess_ = servers_[0];
}

void RaftClient::Start() {
  NBRAFT_CHECK(!started_);
  started_ = true;
  network_->RegisterEndpoint(
      id_, [this](net::Message&& msg) { HandleMessage(std::move(msg)); });
  ScheduleNextRequest();
}

void RaftClient::Stop() {
  stopped_ = true;
  sim_->Cancel(timeout_event_);
  timeout_event_ = sim::kInvalidEventId;
  network_->SetNodeUp(id_, false);
}

void RaftClient::ResetMeasurement() {
  stats_ = ClientStats{};
}

void RaftClient::HandleMessage(net::Message&& msg) {
  if (stopped_) return;
  if (auto* resp = msg.payload.Get<ClientResponse>()) {
    if (journal_ != nullptr) {
      journal_->Record(obs::JournalEventKind::kRpcRecv, id_, msg.from,
                       static_cast<int64_t>(resp->rpc()),
                       static_cast<int64_t>(msg.bytes));
    }
    HandleResponse(*resp, msg.from);
  }
}

void RaftClient::ScheduleNextRequest() {
  if (stopped_ || has_inflight_ || generate_scheduled_) return;
  if (static_cast<int>(op_list_.size()) > options_.pipeline_window) return;
  if (options_.max_requests != 0 && retry_queue_.empty() &&
      next_seq_ >= options_.max_requests) {
    return;
  }
  generate_scheduled_ = true;
  sim_->After(options_.think_time, [this]() {
    generate_scheduled_ = false;
    if (stopped_ || has_inflight_) return;
    stats_.gen_time_total += options_.think_time;

    PendingRequest req;
    bool is_retry = false;
    if (!retry_queue_.empty()) {
      req = std::move(retry_queue_.front());
      retry_queue_.pop_front();
      req.index = 0;
      req.term = 0;
      is_retry = true;
    } else {
      req.request_id =
          (static_cast<uint64_t>(id_) << 32) | static_cast<uint64_t>(
                                                   ++next_seq_);
      req.payload = payload_fn_(options_.payload_size);
      req.measured = true;
      ++stats_.requests_issued;
    }
    req.issued_at = sim_->Now();
    if (tracer_ != nullptr) {
      // The generation span matches the t_gen(C) charge recorded above.
      tracer_->RecordSpan(metrics::Phase::kGenClient, id_, /*term=*/0,
                          /*index=*/0, req.request_id,
                          sim_->Now() - options_.think_time, sim_->Now());
    }
    IssueRequest(std::move(req), is_retry);
  });
}

void RaftClient::IssueRequest(PendingRequest req, bool is_retry) {
  (void)is_retry;
  inflight_ = std::move(req);
  has_inflight_ = true;
  SendRequest(inflight_);
}

void RaftClient::SendRequest(const PendingRequest& req) {
  ClientRequest wire;
  wire.client = id_;
  wire.request_id = req.request_id;
  wire.payload = req.payload;
  // Size and kind before the move, as NodeContext::SendTo reads them.
  const size_t bytes = wire.WireSize();
  if (journal_ != nullptr) {
    journal_->Record(obs::JournalEventKind::kRpcSend, id_, leader_guess_,
                     static_cast<int64_t>(wire.rpc()),
                     static_cast<int64_t>(bytes));
  }
  network_->Send(id_, leader_guess_, bytes, std::move(wire));
  ArmTimeout();
}

SimDuration RaftClient::CurrentTimeout() {
  double wait = static_cast<double>(options_.backoff_base);
  const double cap = static_cast<double>(options_.backoff_cap);
  for (int k = 0; k < consecutive_timeouts_ && wait < cap; ++k) {
    wait *= 2.0;
  }
  wait = std::min(wait, cap);
  auto timeout = static_cast<SimDuration>(wait);
  // Deterministic de-synchronisation: up to +25% drawn from the client's
  // own seeded stream, so stranded clients don't resend in lockstep.
  timeout += static_cast<SimDuration>(
      rng_.NextBounded(static_cast<uint64_t>(timeout / 4) + 1));
  return timeout;
}

void RaftClient::ResetBackoff() {
  if (consecutive_timeouts_ > 0) {
    ++stats_.backoff_resets;
    consecutive_timeouts_ = 0;
  }
}

void RaftClient::RecordStrongAck(uint64_t request_id) {
  if (options_.record_ack_ids) strong_acked_ids_.insert(request_id);
}

void RaftClient::ArmTimeout() {
  sim_->Cancel(timeout_event_);
  timeout_event_ = sim_->After(CurrentTimeout(), [this]() {
    // The resend target: the inflight request, or — when the opList bound
    // blocks the pipeline with nothing inflight — the oldest weakly
    // accepted request. Probing the opList is what keeps a client from
    // deadlocking when a leadership change silently wiped its window
    // entries: the probe's response carries the newer term and triggers
    // the Sec. III-C1 retry.
    const PendingRequest* target = nullptr;
    if (!stopped_ && has_inflight_) {
      target = &inflight_;
    } else if (!stopped_ && !op_list_.empty()) {
      target = &op_list_.front();
    }
    if (target == nullptr) return;
    ++stats_.timeouts;
    ++consecutive_timeouts_;
    if (guess_is_fresh_hint_) {
      // A server vouched for this leader and we haven't heard from it yet:
      // re-try it once before falling back to rotation (the hint usually
      // just lost a race with a partition heal or an in-flight election).
      guess_is_fresh_hint_ = false;
    } else {
      RotateLeaderGuess();
    }
    SendRequest(*target);  // Same id: at-least-once.
  });
}

void RaftClient::RotateLeaderGuess() {
  auto it = std::find(servers_.begin(), servers_.end(), leader_guess_);
  if (it == servers_.end() || ++it == servers_.end()) it = servers_.begin();
  leader_guess_ = *it;
}

void RaftClient::RetryAll(const char* reason) {
  if (op_list_.empty()) return;
  NBRAFT_LOG(Debug) << "client " << id_ << " retries " << op_list_.size()
                    << " weakly accepted requests (" << reason << ")";
  stats_.retries += op_list_.size();
  if (journal_ != nullptr) {
    journal_->Record(obs::JournalEventKind::kClientRetryAll, id_, -1,
                     static_cast<int64_t>(op_list_.size()));
  }
  // Preserve order: older requests retry first.
  while (!op_list_.empty()) {
    retry_queue_.push_back(std::move(op_list_.front()));
    op_list_.pop_front();
  }
}

void RaftClient::FollowAccepter(net::NodeId from, const ClientResponse& resp) {
  // Only a leader sends WEAK/STRONG accepts, so one from another server in
  // a term no older than ours names the new leader (an older term is a
  // deposed leader's late reply). A request stranded at the old guess is
  // resent to it now instead of after the resend timeout.
  if (from == leader_guess_ || resp.term < list_term_) return;
  leader_guess_ = from;
  guess_is_fresh_hint_ = false;
  if (has_inflight_ && resp.request_id != inflight_.request_id) {
    SendRequest(inflight_);  // Same id: at-least-once.
  }
}

void RaftClient::HandleResponse(const ClientResponse& resp,
                                net::NodeId from) {
  // Any response means the cluster is reachable again: snap the resend
  // backoff back to its base.
  ResetBackoff();
  switch (resp.state) {
    case AcceptState::kWeakAccept: {
      FollowAccepter(from, resp);
      // Sec. III-C1: a newer term means earlier WEAK_ACCEPTs may be lost.
      // Checked before the staleness filter so a re-accept of an opList
      // probe under a new leader still triggers the retry.
      if (resp.term > list_term_) {
        RetryAll("newer term on weak accept");
        list_term_ = resp.term;
      }
      if (!has_inflight_ || resp.request_id != inflight_.request_id) {
        break;  // Stale (e.g. the strong accept already arrived).
      }
      sim_->Cancel(timeout_event_);
      timeout_event_ = sim::kInvalidEventId;
      guess_is_fresh_hint_ = false;  // The guess answered: it's confirmed.
      ++stats_.weak_accepts;
      if (options_.record_ack_ids) weak_acked_ids_.insert(resp.request_id);
      if (journal_ != nullptr) {
        journal_->Record(obs::JournalEventKind::kClientWeakAccept, id_, -1,
                         resp.index, static_cast<int64_t>(resp.request_id));
      }
      if (inflight_.measured) {
        stats_.unblock_latency.Record(sim_->Now() - inflight_.issued_at);
      }
      inflight_.index = resp.index;
      inflight_.term = resp.term;
      op_list_.push_back(std::move(inflight_));
      has_inflight_ = false;
      ScheduleNextRequest();  // The early unblock of Fig. 1(b).
      break;
    }

    case AcceptState::kStrongAccept: {
      FollowAccepter(from, resp);
      if (resp.term > list_term_) {
        RetryAll("newer term on strong accept");
        list_term_ = resp.term;
      }
      if (journal_ != nullptr) {
        journal_->Record(obs::JournalEventKind::kClientStrongAccept, id_, -1,
                         resp.index, static_cast<int64_t>(resp.request_id));
      }
      guess_is_fresh_hint_ = false;  // The guess answered: it's confirmed.
      // Sec. III-C2: everything with index <= resp.index is committed.
      while (!op_list_.empty() && op_list_.front().index != 0 &&
             op_list_.front().index <= resp.index) {
        const PendingRequest& done = op_list_.front();
        ++stats_.requests_completed;
        RecordStrongAck(done.request_id);
        if (done.measured) {
          stats_.completion_latency.Record(sim_->Now() - done.issued_at);
        }
        op_list_.pop_front();
      }
      if (has_inflight_ && resp.request_id == inflight_.request_id) {
        sim_->Cancel(timeout_event_);
        timeout_event_ = sim::kInvalidEventId;
        ++stats_.requests_completed;
        RecordStrongAck(inflight_.request_id);
        if (inflight_.measured) {
          stats_.completion_latency.Record(sim_->Now() - inflight_.issued_at);
          stats_.unblock_latency.Record(sim_->Now() - inflight_.issued_at);
        }
        has_inflight_ = false;
      }
      ScheduleNextRequest();
      break;
    }

    case AcceptState::kLeaderChanged: {
      ++stats_.leader_changes_seen;
      if (resp.leader_hint != net::kInvalidNode) {
        leader_guess_ = resp.leader_hint;
        guess_is_fresh_hint_ = true;
      } else {
        RotateLeaderGuess();
        guess_is_fresh_hint_ = false;
      }
      if (resp.term > list_term_) list_term_ = resp.term;
      RetryAll("leader changed");
      if (has_inflight_) {
        sim_->Cancel(timeout_event_);
        timeout_event_ = sim::kInvalidEventId;
        retry_queue_.push_front(std::move(inflight_));
        has_inflight_ = false;
      }
      ScheduleNextRequest();
      break;
    }

    case AcceptState::kNotLeader: {
      if (!has_inflight_ || resp.request_id != inflight_.request_id) return;
      if (resp.leader_hint != net::kInvalidNode &&
          resp.leader_hint != leader_guess_) {
        leader_guess_ = resp.leader_hint;
        guess_is_fresh_hint_ = true;
      } else {
        RotateLeaderGuess();
        guess_is_fresh_hint_ = false;
      }
      SendRequest(inflight_);  // Re-send promptly to the new guess.
      break;
    }

    case AcceptState::kLogMismatch:
      break;  // Never client-facing.
  }

  // Whatever the branch did: make sure a blocked client (opList at its
  // bound, nothing inflight) keeps a probe timer armed, and that queued
  // retries get issued.
  ScheduleNextRequest();
  if (!stopped_ && !has_inflight_ && !op_list_.empty() &&
      timeout_event_ == sim::kInvalidEventId) {
    ArmTimeout();
  }
}

}  // namespace nbraft::raft
