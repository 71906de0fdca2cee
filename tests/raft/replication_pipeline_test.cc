#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/simulator.h"
#include "tests/raft/mock_node_context.h"

namespace nbraft::raft {
namespace {

using raft_test::MockNodeContext;

/// A MockNodeContext whose sends go through a real SimNetwork, so a test
/// can compare the bytes the network billed with the delivered messages.
class NetworkedContext : public MockNodeContext {
 public:
  NetworkedContext(sim::Simulator* sim, net::SimNetwork* network,
                   net::NodeId id, std::vector<net::NodeId> peers,
                   RaftOptions options)
      : MockNodeContext(sim, id, peers, options), network_(network) {
    for (const net::NodeId peer : peers) {
      network_->RegisterEndpoint(peer, [this](net::Message&& m) {
        delivered.push_back(std::move(m));
      });
    }
  }

  void Transmit(net::NodeId to, size_t bytes, obs::JournalRpc,
                net::PayloadRef payload) override {
    network_->Send(id(), to, bytes, std::move(payload));
  }

  std::vector<net::Message> delivered;

 private:
  net::SimNetwork* network_;
};

RaftOptions PipelineOptions(int dispatchers, int window) {
  RaftOptions options;
  options.dispatchers_per_follower = dispatchers;
  options.window_size = window;
  return options;
}

AppendEntriesResponse StrongResponse(uint64_t rpc_id,
                                     storage::LogIndex last_index,
                                     storage::Term last_term) {
  AppendEntriesResponse resp;
  resp.term = 1;
  resp.from = 2;
  resp.rpc_id = rpc_id;
  resp.state = AcceptState::kStrongAccept;
  resp.entry_index = last_index;
  resp.last_index = last_index;
  resp.last_term = last_term;
  return resp;
}

TEST(ReplicationPipelineTest, DispatcherCapHoldsQueueAndFreedSlotDrainsIt) {
  sim::Simulator sim(1);
  MockNodeContext ctx(&sim, /*id=*/1, {2}, PipelineOptions(2, 0));
  ctx.MakeLeader(1);
  ctx.FillLog(5, 1);

  for (storage::LogIndex i = 1; i <= 5; ++i) {
    ctx.pipeline()->EnqueueForPeer(2, i);
  }
  auto appends = ctx.SentOfType<AppendEntriesRequest>();
  ASSERT_EQ(appends.size(), 2u);  // Both dispatchers busy, rest queued.
  EXPECT_EQ(appends[0].entry.index, 1);
  EXPECT_EQ(appends[1].entry.index, 2);
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 3u);
  EXPECT_EQ(ctx.pipeline()->OutstandingRpcCount(), 2u);

  ctx.pipeline()->HandleAppendResponse(StrongResponse(appends[0].rpc_id, 1, 1));
  appends = ctx.SentOfType<AppendEntriesRequest>();
  ASSERT_EQ(appends.size(), 3u);  // The freed slot picked up the next index.
  EXPECT_EQ(appends[2].entry.index, 3);
}

TEST(ReplicationPipelineTest, TimeoutRecyclingDispatchesMinIndexFirst) {
  sim::Simulator sim(1);
  MockNodeContext ctx(&sim, /*id=*/1, {2}, PipelineOptions(1, 0));
  ctx.MakeLeader(1);
  ctx.FillLog(5, 1);

  // Index 5 grabs the only dispatcher; 2 and 3 queue behind it.
  ctx.pipeline()->EnqueueForPeer(2, 5);
  ctx.pipeline()->EnqueueForPeer(2, 2);
  ctx.pipeline()->EnqueueForPeer(2, 3);
  ASSERT_EQ(ctx.SentOfType<AppendEntriesRequest>().size(), 1u);

  // The RPC times out: 5 is requeued at the queue front, but the freed
  // slot must pick the minimum queued index (2), not the recycled 5 —
  // otherwise an out-of-window entry can starve the catch-up entries the
  // follower actually needs.
  sim.RunUntil(kRpcTimeout + Millis(50));
  auto appends = ctx.SentOfType<AppendEntriesRequest>();
  ASSERT_EQ(appends.size(), 2u);
  EXPECT_EQ(appends[1].entry.index, 2);
  EXPECT_EQ(ctx.stats().rpc_timeouts, 1u);

  ctx.pipeline()->HandleAppendResponse(StrongResponse(appends[1].rpc_id, 2, 1));
  appends = ctx.SentOfType<AppendEntriesRequest>();
  ASSERT_EQ(appends.size(), 3u);
  EXPECT_EQ(appends[2].entry.index, 3);

  ctx.pipeline()->HandleAppendResponse(StrongResponse(appends[2].rpc_id, 3, 1));
  appends = ctx.SentOfType<AppendEntriesRequest>();
  ASSERT_EQ(appends.size(), 4u);
  EXPECT_EQ(appends[3].entry.index, 5);
}

AppendEntriesResponse HeartbeatAck(storage::LogIndex last_index) {
  AppendEntriesResponse hb;
  hb.term = 2;
  hb.from = 2;
  hb.state = AcceptState::kStrongAccept;
  hb.is_heartbeat = true;
  hb.last_index = last_index;
  hb.last_term = 1;
  return hb;
}

TEST(ReplicationPipelineTest, LaggingPeerGetsThePreLeadershipGapOnce) {
  sim::Simulator sim(1);
  MockNodeContext ctx(&sim, /*id=*/1, {2},
                      PipelineOptions(/*dispatchers=*/64, /*window=*/64));
  ctx.FillLog(20, 1);  // The old leader's entries, 1..20.
  ctx.MakeLeader(2);
  ctx.FillLog(1, 2);   // This leadership's first entry (the no-op), 21.
  ctx.pipeline()->EnqueueForPeer(2, 21);
  ASSERT_EQ(ctx.SentOfType<AppendEntriesRequest>().size(), 1u);

  // The peer reports log end 5: entries 6..20 predate this leadership, so
  // no copy of them is queued or in flight. Exactly that gap is sent.
  ctx.pipeline()->HandleAppendResponse(HeartbeatAck(5));
  auto appends = ctx.SentOfType<AppendEntriesRequest>();
  ASSERT_EQ(appends.size(), 16u);
  for (storage::LogIndex i = 6; i <= 20; ++i) {
    EXPECT_EQ(appends[static_cast<size_t>(i - 5)].entry.index, i);
  }

  // Stale reports below the refilled range and reports at or above it
  // enqueue nothing new while those copies are on the wire.
  ctx.pipeline()->HandleAppendResponse(HeartbeatAck(5));
  ctx.pipeline()->HandleAppendResponse(HeartbeatAck(12));
  ctx.pipeline()->HandleAppendResponse(HeartbeatAck(20));
  EXPECT_EQ(ctx.SentOfType<AppendEntriesRequest>().size(), 16u);
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 0u);
}

TEST(ReplicationPipelineTest, ResetLeaderStateDropsEverything) {
  sim::Simulator sim(1);
  MockNodeContext ctx(&sim, /*id=*/1, {2, 3}, PipelineOptions(1, 0));
  ctx.MakeLeader(1);
  ctx.FillLog(4, 1);
  for (storage::LogIndex i = 1; i <= 4; ++i) {
    ctx.pipeline()->EnqueueForPeer(2, i);
    ctx.pipeline()->EnqueueForPeer(3, i);
  }
  ASSERT_GT(ctx.pipeline()->DispatcherQueueDepth(), 0u);
  ASSERT_GT(ctx.pipeline()->OutstandingRpcCount(), 0u);

  ctx.pipeline()->ResetLeaderState();
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 0u);
  EXPECT_EQ(ctx.pipeline()->OutstandingRpcCount(), 0u);
  EXPECT_TRUE(ctx.pipeline()->LeaderStateEmpty());

  // The cancelled RPC timeouts must not fire afterwards.
  const uint64_t timeouts_before = ctx.stats().rpc_timeouts;
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(ctx.stats().rpc_timeouts, timeouts_before);
}

// The wire size is taken from the request before it is moved into the
// network: a CRaft shard RPC is billed its shard bytes, not just headers.
TEST(ReplicationPipelineTest, ShardRpcIsBilledItsWireSize) {
  sim::Simulator sim(1);
  net::SimNetwork network(&sim, net::NetworkConfig{});
  RaftOptions options = PipelineOptions(1, 0);
  options.protocol = Protocol::kCRaft;
  NetworkedContext ctx(&sim, &network, /*id=*/1, {2, 3}, options);
  ctx.MakeLeader(1);

  ClientRequest req;
  req.client = net::kClientIdBase;
  req.request_id = 1;
  req.payload = std::string(512, 'x');
  ctx.pipeline()->HandleClientRequest(std::move(req), 0, 0);
  sim.RunUntil(Millis(50));

  ASSERT_EQ(ctx.delivered.size(), 2u);  // One shard RPC per peer.
  size_t built = 0;
  for (const net::Message& m : ctx.delivered) {
    const auto* rpc = m.payload.Get<AppendEntriesRequest>();
    ASSERT_NE(rpc, nullptr);
    ASSERT_TRUE(rpc->entry.IsFragment());
    EXPECT_EQ(rpc->entry.payload.size(), 256u);  // k = 2 shards of 512 B.
    EXPECT_EQ(m.bytes, rpc->WireSize());
    built += rpc->WireSize();
  }
  EXPECT_EQ(network.bytes_sent(), built);
}

TEST(ReplicationPipelineTest, InstallSnapshotIsBilledItsWireSize) {
  sim::Simulator sim(1);
  net::SimNetwork network(&sim, net::NetworkConfig{});
  NetworkedContext ctx(&sim, &network, /*id=*/1, {2},
                       PipelineOptions(1, 0));
  ctx.MakeLeader(1);
  ctx.core().snapshot_index = 10;
  ctx.core().snapshot_term = 1;
  ctx.core().snapshot_data = std::string(3000, 's');

  ctx.pipeline()->SendInstallSnapshot(2);
  sim.RunUntil(Millis(50));

  ASSERT_EQ(ctx.delivered.size(), 1u);
  const auto* rpc = ctx.delivered[0].payload.Get<InstallSnapshotRequest>();
  ASSERT_NE(rpc, nullptr);
  EXPECT_EQ(rpc->data.size(), 3000u);
  EXPECT_EQ(network.bytes_sent(), rpc->WireSize());
}

AppendEntriesResponse MismatchResponse(uint64_t rpc_id,
                                       storage::LogIndex entry_index,
                                       storage::LogIndex last_index) {
  AppendEntriesResponse resp = StrongResponse(rpc_id, last_index, 1);
  resp.state = AcceptState::kLogMismatch;
  resp.entry_index = entry_index;
  return resp;
}

// The first RPC is held open by the follower while later ones land behind
// it; its timeout re-queues index 1 below every queued index, and the
// freed slot must pick it first.
TEST(ReplicationPipelineTest, TimeoutRequeuesBelowTheDispatchFloor) {
  sim::Simulator sim(1);
  MockNodeContext ctx(&sim, /*id=*/1, {2}, PipelineOptions(2, 0));
  ctx.MakeLeader(1);
  ctx.FillLog(8, 1);
  for (storage::LogIndex i = 1; i <= 8; ++i) {
    ctx.pipeline()->EnqueueForPeer(2, i);
  }
  auto appends = ctx.SentOfType<AppendEntriesRequest>();
  ASSERT_EQ(appends.size(), 2u);
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 6u);

  // Index 2's RPC and its successors complete; index 1's stays open.
  for (storage::LogIndex i = 2; i <= 4; ++i) {
    ctx.pipeline()->HandleAppendResponse(
        StrongResponse(appends.back().rpc_id, i, 1));
    appends = ctx.SentOfType<AppendEntriesRequest>();
    EXPECT_EQ(appends.back().entry.index, i + 1);
  }
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 3u);  // 6, 7, 8.
  EXPECT_EQ(ctx.pipeline()->OutstandingRpcCount(), 2u);   // 1 and 5.

  sim.RunUntil(kRpcTimeout + Millis(50));  // Both time out and re-queue.
  appends = ctx.SentOfType<AppendEntriesRequest>();
  ASSERT_EQ(appends.size(), 7u);
  EXPECT_EQ(appends[5].entry.index, 1);
  EXPECT_EQ(appends[6].entry.index, 5);
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 3u);
}

// Each rejection walks the resend start one index further down, below the
// lowest index still queued, and dispatch always takes the lowest.
TEST(ReplicationPipelineTest, MismatchBacktrackingQueuesBelowTheRingFront) {
  sim::Simulator sim(1);
  MockNodeContext ctx(&sim, /*id=*/1, {2}, PipelineOptions(1, 0));
  ctx.MakeLeader(1);
  ctx.FillLog(10, 1);
  ctx.pipeline()->EnqueueForPeer(2, 8);
  auto appends = ctx.SentOfType<AppendEntriesRequest>();
  ASSERT_EQ(appends.size(), 1u);

  ctx.pipeline()->HandleAppendResponse(
      MismatchResponse(appends[0].rpc_id, /*entry_index=*/8,
                       /*last_index=*/6));
  appends = ctx.SentOfType<AppendEntriesRequest>();
  ASSERT_EQ(appends.size(), 2u);
  EXPECT_EQ(appends[1].entry.index, 7);
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 3u);  // 8, 9, 10.

  ctx.pipeline()->HandleAppendResponse(
      MismatchResponse(appends[1].rpc_id, /*entry_index=*/7,
                       /*last_index=*/6));
  appends = ctx.SentOfType<AppendEntriesRequest>();
  ASSERT_EQ(appends.size(), 3u);
  EXPECT_EQ(appends[2].entry.index, 6);
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 4u);  // 7 .. 10.

  for (storage::LogIndex i = 6; i <= 9; ++i) {
    ctx.pipeline()->HandleAppendResponse(
        StrongResponse(appends.back().rpc_id, i, 1));
    appends = ctx.SentOfType<AppendEntriesRequest>();
    EXPECT_EQ(appends.back().entry.index, i + 1);
  }
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 0u);
}

TEST(ReplicationPipelineTest, CatchUpFillsOnlyIndicesNotInThePipeline) {
  sim::Simulator sim(1);
  MockNodeContext ctx(&sim, /*id=*/1, {2}, PipelineOptions(1, 0));
  ctx.MakeLeader(1);
  ctx.FillLog(12, 1);
  ctx.pipeline()->EnqueueForPeer(2, 1);  // In flight.
  ctx.pipeline()->EnqueueForPeer(2, 2);  // Queued.
  ctx.pipeline()->EnqueueForPeer(2, 4);  // Queued, leaving a hole at 3.
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 2u);

  // The peer reports log end 0: catch-up fills above the highest index
  // ever enqueued (4), a burst of 4 * dispatchers + 1 = 5..9.
  ctx.pipeline()->MaybeCatchUpPeer(2, 0);
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 7u);
  // The same report again adds the next burst only.
  ctx.pipeline()->MaybeCatchUpPeer(2, 0);
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 10u);  // .. 12.

  // The hole is never filled by catch-up; the rest drains in order.
  auto appends = ctx.SentOfType<AppendEntriesRequest>();
  std::vector<storage::LogIndex> order;
  while (ctx.pipeline()->OutstandingRpcCount() > 0) {
    const size_t sent = appends.size();
    ctx.pipeline()->HandleAppendResponse(
        StrongResponse(appends.back().rpc_id, appends.back().entry.index, 1));
    appends = ctx.SentOfType<AppendEntriesRequest>();
    if (appends.size() > sent) order.push_back(appends.back().entry.index);
  }
  EXPECT_EQ(order,
            (std::vector<storage::LogIndex>{2, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  EXPECT_EQ(ctx.pipeline()->DispatcherQueueDepth(), 0u);
}

}  // namespace
}  // namespace nbraft::raft
