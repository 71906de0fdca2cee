// Unit tests of the client-side protocol (Sec. III-C) against a scripted
// fake server endpoint — no real cluster involved, so each response path
// is exercised precisely.

#include "raft/raft_client.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "sim/simulator.h"

namespace nbraft::raft {
namespace {

constexpr net::NodeId kServerA = 0;
constexpr net::NodeId kServerB = 1;
constexpr net::NodeId kClient = net::kClientIdBase;

class RaftClientTest : public ::testing::Test {
 protected:
  RaftClientTest() : sim_(1) {
    net::NetworkConfig config;
    config.jitter_mean = 0;
    config.base_latency = Micros(50);
    network_ = std::make_unique<net::SimNetwork>(&sim_, config);
    network_->RegisterEndpoint(kServerA, [this](net::Message&& m) {
      requests_a_.push_back(*m.payload.Get<ClientRequest>());
    });
    network_->RegisterEndpoint(kServerB, [this](net::Message&& m) {
      requests_b_.push_back(*m.payload.Get<ClientRequest>());
    });
  }

  RaftClient::Options DefaultOptions(int window) {
    RaftClient::Options options;
    options.think_time = Micros(10);
    options.payload_size = 64;
    options.pipeline_window = window;
    options.backoff_base = Millis(100);
    options.backoff_cap = Millis(400);
    return options;
  }

  std::unique_ptr<RaftClient> MakeClient(int window) {
    return std::make_unique<RaftClient>(
        &sim_, network_.get(), kClient,
        std::vector<net::NodeId>{kServerA, kServerB}, DefaultOptions(window),
        [](size_t target) { return std::string(target, 'p'); });
  }

  void Respond(const ClientRequest& req, AcceptState state,
               storage::LogIndex index, storage::Term term,
               net::NodeId hint = net::kInvalidNode,
               net::NodeId from = kServerA) {
    ClientResponse resp;
    resp.state = state;
    resp.request_id = req.request_id;
    resp.index = index;
    resp.term = term;
    resp.leader_hint = hint;
    network_->Send(from, kClient, resp.WireSize(), resp);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::SimNetwork> network_;
  std::vector<ClientRequest> requests_a_;
  std::vector<ClientRequest> requests_b_;
};

TEST_F(RaftClientTest, IssuesFirstRequestAfterThinkTime) {
  auto client = MakeClient(0);
  client->Start();
  sim_.RunUntil(Millis(1));
  ASSERT_EQ(requests_a_.size(), 1u);
  EXPECT_EQ(requests_a_[0].client, kClient);
  EXPECT_EQ(requests_a_[0].payload.size(), 64u);
  EXPECT_EQ(client->stats().requests_issued, 1u);
}

TEST_F(RaftClientTest, RaftModeBlocksUntilStrongAccept) {
  auto client = MakeClient(0);
  client->Start();
  sim_.RunUntil(Millis(5));
  ASSERT_EQ(requests_a_.size(), 1u);
  // No response yet -> no second request (Fig. 1(a)).
  EXPECT_EQ(requests_a_.size(), 1u);

  Respond(requests_a_[0], AcceptState::kStrongAccept, 1, 1);
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(requests_a_.size(), 2u);
  EXPECT_EQ(client->stats().requests_completed, 1u);
}

TEST_F(RaftClientTest, WeakAcceptUnblocksNextRequest) {
  auto client = MakeClient(8);
  client->Start();
  sim_.RunUntil(Millis(5));
  ASSERT_EQ(requests_a_.size(), 1u);

  // WEAK_ACCEPT alone releases the next request (Fig. 1(b)) but completes
  // nothing.
  Respond(requests_a_[0], AcceptState::kWeakAccept, 1, 1);
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(requests_a_.size(), 2u);
  EXPECT_EQ(client->stats().weak_accepts, 1u);
  EXPECT_EQ(client->stats().requests_completed, 0u);

  // The covering STRONG_ACCEPT completes the weakly accepted request.
  Respond(requests_a_[1], AcceptState::kStrongAccept, 2, 1);
  sim_.RunUntil(Millis(15));
  EXPECT_EQ(client->stats().requests_completed, 2u)
      << "strong accept at index 2 covers the opList entry at index 1";
}

TEST_F(RaftClientTest, PipelineBoundedByWindow) {
  auto client = MakeClient(2);
  client->Start();
  sim_.RunUntil(Millis(5));
  // Weak-accept everything that shows up; the opList bound (w = 2) must
  // cap the pipeline at w + 1 outstanding requests.
  for (int round = 0; round < 10; ++round) {
    for (const auto& req : requests_a_) {
      bool already = false;
      // Only respond once per request id (track via index heuristic).
      static std::set<uint64_t> seen;
      already = !seen.insert(req.request_id).second;
      if (!already) {
        Respond(req, AcceptState::kWeakAccept,
                static_cast<storage::LogIndex>(seen.size()), 1);
      }
    }
    sim_.RunUntil(sim_.Now() + Millis(5));
  }
  EXPECT_LE(client->stats().requests_issued, 2u + 1u + 1u);
}

TEST_F(RaftClientTest, NewerTermTriggersRetryOfOpList) {
  auto client = MakeClient(8);
  client->Start();
  sim_.RunUntil(Millis(5));
  Respond(requests_a_[0], AcceptState::kWeakAccept, 1, /*term=*/1);
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(requests_a_.size(), 2u);

  // A weak accept with a HIGHER term: the old opList entry must be retried
  // (Sec. III-C1).
  Respond(requests_a_[1], AcceptState::kWeakAccept, 5, /*term=*/2);
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(client->stats().retries, 1u);
  // The retried request is re-sent with its original id.
  ASSERT_GE(requests_a_.size(), 3u);
  EXPECT_EQ(requests_a_[2].request_id, requests_a_[0].request_id);
}

TEST_F(RaftClientTest, LeaderChangedRedirectsAndRetries) {
  auto client = MakeClient(8);
  client->Start();
  sim_.RunUntil(Millis(5));
  ASSERT_EQ(requests_a_.size(), 1u);

  Respond(requests_a_[0], AcceptState::kLeaderChanged, 0, 2, kServerB);
  sim_.RunUntil(Millis(20));
  ASSERT_GE(requests_b_.size(), 1u) << "client must follow the hint";
  EXPECT_EQ(requests_b_[0].request_id, requests_a_[0].request_id);
  EXPECT_EQ(client->stats().leader_changes_seen, 1u);
}

TEST_F(RaftClientTest, NotLeaderResendsToHint) {
  auto client = MakeClient(0);
  client->Start();
  sim_.RunUntil(Millis(5));
  Respond(requests_a_[0], AcceptState::kNotLeader, 0, 0, kServerB);
  sim_.RunUntil(Millis(20));
  ASSERT_EQ(requests_b_.size(), 1u);
  EXPECT_EQ(requests_b_[0].request_id, requests_a_[0].request_id);
}

TEST_F(RaftClientTest, TimeoutRotatesServers) {
  auto client = MakeClient(0);
  client->Start();
  sim_.RunUntil(Millis(5));
  ASSERT_EQ(requests_a_.size(), 1u);
  // Never respond: after the first timeout (100 ms base + <=25% jitter)
  // the client tries server B.
  sim_.RunUntil(Millis(150));
  ASSERT_GE(requests_b_.size(), 1u);
  EXPECT_EQ(requests_b_[0].request_id, requests_a_[0].request_id);
  EXPECT_GE(client->stats().timeouts, 1u);
}

TEST_F(RaftClientTest, ResendBackoffIsCappedExponential) {
  auto client = MakeClient(0);
  client->Start();
  // Never respond. With base 100 ms, cap 400 ms, multiplier 2 and <=25%
  // jitter the waits are <=125, <=250, <=500, <=500... so by 1.4 s at
  // least 3 timeouts must have fired; a fixed 100 ms timer would have
  // fired 13+ times by then.
  sim_.RunUntil(Millis(1400));
  EXPECT_GE(client->stats().timeouts, 3u);
  EXPECT_LE(client->stats().timeouts, 13u - 1u);
  EXPECT_EQ(client->stats().backoff_resets, 0u);
}

TEST_F(RaftClientTest, ResponseAfterTimeoutResetsBackoff) {
  auto client = MakeClient(0);
  client->Start();
  sim_.RunUntil(Millis(5));
  ASSERT_EQ(requests_a_.size(), 1u);
  // Let at least one timeout fire, then answer: the backoff must snap
  // back to base and count a reset.
  sim_.RunUntil(Millis(150));
  ASSERT_GE(client->stats().timeouts, 1u);
  ClientRequest last = requests_a_.back();
  if (!requests_b_.empty()) last = requests_b_.back();
  Respond(last, AcceptState::kStrongAccept, 1, 1);
  sim_.RunUntil(Millis(200));
  EXPECT_EQ(client->stats().backoff_resets, 1u);
  EXPECT_EQ(client->stats().requests_completed, 1u);
}

TEST_F(RaftClientTest, FreshLeaderHintIsRetriedBeforeRotation) {
  auto client = MakeClient(0);
  client->Start();
  sim_.RunUntil(Millis(5));
  ASSERT_EQ(requests_a_.size(), 1u);
  // Server A redirects to B, which never answers. The first timeout must
  // re-try the hinted B (hints beat blind rotation), and only the next
  // one rotates back to A.
  Respond(requests_a_[0], AcceptState::kNotLeader, 0, 0, kServerB);
  sim_.RunUntil(Millis(150));
  ASSERT_GE(requests_b_.size(), 2u)
      << "first timeout must re-try the hinted leader";
  EXPECT_EQ(requests_b_[1].request_id, requests_a_[0].request_id);
  EXPECT_EQ(requests_a_.size(), 1u);
  sim_.RunUntil(Millis(400));
  EXPECT_GE(requests_a_.size(), 2u) << "second timeout falls back to rotation";
}

TEST_F(RaftClientTest, AcceptFromAnotherServerRedirectsStrandedRequest) {
  auto client = MakeClient(8);
  client->Start();
  sim_.RunUntil(Millis(5));
  ASSERT_EQ(requests_a_.size(), 1u);
  Respond(requests_a_[0], AcceptState::kWeakAccept, 1, 1);
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(requests_a_.size(), 2u);  // The second request waits on A.

  // A crashes silently; B, now leader, commits the first request. Only a
  // leader accepts, so the client must follow B and resend the stranded
  // request there at once, well before the 100 ms resend timeout.
  Respond(requests_a_[0], AcceptState::kStrongAccept, 1, 1, net::kInvalidNode,
          kServerB);
  sim_.RunUntil(Millis(15));
  ASSERT_EQ(requests_b_.size(), 1u);
  EXPECT_EQ(requests_b_[0].request_id, requests_a_[1].request_id);
  EXPECT_EQ(client->stats().timeouts, 0u);
  EXPECT_EQ(client->stats().requests_completed, 1u);

  // New requests go to B too.
  Respond(requests_b_[0], AcceptState::kWeakAccept, 2, 1, net::kInvalidNode,
          kServerB);
  sim_.RunUntil(Millis(20));
  ASSERT_EQ(requests_b_.size(), 2u);
  EXPECT_EQ(requests_a_.size(), 2u);
}

TEST_F(RaftClientTest, OlderTermAcceptDoesNotMoveLeaderGuess) {
  auto client = MakeClient(8);
  client->Start();
  sim_.RunUntil(Millis(5));
  ASSERT_EQ(requests_a_.size(), 1u);
  Respond(requests_a_[0], AcceptState::kWeakAccept, 1, /*term=*/2);
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(requests_a_.size(), 2u);

  // A deposed term-1 leader's late reply: B is not the leader of term 2.
  Respond(requests_a_[0], AcceptState::kStrongAccept, 1, /*term=*/1,
          net::kInvalidNode, kServerB);
  sim_.RunUntil(Millis(50));
  EXPECT_TRUE(requests_b_.empty());
  EXPECT_EQ(requests_a_.size(), 2u);
}

TEST_F(RaftClientTest, RecordsAckedRequestIds) {
  auto options = DefaultOptions(8);
  options.record_ack_ids = true;
  auto client = std::make_unique<RaftClient>(
      &sim_, network_.get(), kClient,
      std::vector<net::NodeId>{kServerA, kServerB}, options,
      [](size_t target) { return std::string(target, 'p'); });
  client->Start();
  sim_.RunUntil(Millis(5));
  ASSERT_EQ(requests_a_.size(), 1u);
  Respond(requests_a_[0], AcceptState::kWeakAccept, 1, 1);
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(requests_a_.size(), 2u);
  Respond(requests_a_[1], AcceptState::kStrongAccept, 2, 1);
  sim_.RunUntil(Millis(15));
  EXPECT_EQ(client->weak_acked_ids().count(requests_a_[0].request_id), 1u);
  // The strong accept at index 2 covers both the opList entry and the
  // directly answered request.
  EXPECT_EQ(client->strong_acked_ids().count(requests_a_[0].request_id), 1u);
  EXPECT_EQ(client->strong_acked_ids().count(requests_a_[1].request_id), 1u);
}

TEST_F(RaftClientTest, StopCeasesTraffic) {
  auto client = MakeClient(0);
  client->Start();
  sim_.RunUntil(Millis(5));
  client->Stop();
  const size_t sent = requests_a_.size();
  Respond(requests_a_[0], AcceptState::kStrongAccept, 1, 1);
  sim_.RunUntil(Millis(300));
  EXPECT_EQ(requests_a_.size(), sent);
  EXPECT_TRUE(client->stopped());
}

TEST_F(RaftClientTest, MeasurementResetZeroesCounters) {
  auto client = MakeClient(0);
  client->Start();
  sim_.RunUntil(Millis(5));
  Respond(requests_a_[0], AcceptState::kStrongAccept, 1, 1);
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(client->stats().requests_completed, 1u);
  client->ResetMeasurement();
  EXPECT_EQ(client->stats().requests_completed, 0u);
  EXPECT_EQ(client->stats().completion_latency.count(), 0u);
  // Total issued survives the reset (used by loss accounting).
  EXPECT_GE(client->requests_issued_total(), 1u);
}

}  // namespace
}  // namespace nbraft::raft
