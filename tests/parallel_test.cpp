// Parallel engine: channel FIFO semantics, endpoint routing, lockstep
// round execution, the run_until contract, and — the load-bearing
// property — digest equality between serial and sharded runs of every
// corpus scenario.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "check/fuzzer.hpp"
#include "check/scenario.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

#ifndef SPEEDLIGHT_CORPUS_DIR
#error "SPEEDLIGHT_CORPUS_DIR must point at tests/corpus"
#endif

namespace speedlight {
namespace {

TEST(ShardChannel, DrainPreservesPostOrder) {
  sim::Simulator sim(1);
  sim::ShardChannel ch;
  std::vector<int> ran;
  for (int i = 0; i < 10; ++i) {
    ch.post(100 + i, 1, [&ran, i]() { ran.push_back(i); });
  }
  EXPECT_EQ(ch.posted(), 10u);

  EXPECT_EQ(ch.drain_into(sim), 10u);
  EXPECT_EQ(ch.drain_into(sim), 0u);  // Idempotent once empty.
  sim.run_until(1000);
  ASSERT_EQ(ran.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ran[i], i);
}

TEST(ShardChannel, SameTimestampMessagesKeepPostOrder) {
  sim::Simulator sim(1);
  sim::ShardChannel ch;
  std::vector<int> ran;
  for (int i = 0; i < 5; ++i) {
    ch.post(50, 3, [&ran, i]() { ran.push_back(i); });
  }
  ch.drain_into(sim);
  sim.run_until(100);
  ASSERT_EQ(ran.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ran[i], i);
}

TEST(Endpoint, LocalAndRemoteRouting) {
  sim::Simulator sim(1);
  sim::Endpoint unwired;
  EXPECT_FALSE(unwired.wired());

  bool local_ran = false;
  sim::Endpoint loc = sim::Endpoint::local(sim, 7);
  EXPECT_TRUE(loc.wired());
  EXPECT_EQ(loc.key(), 7u);
  loc.post(10, [&local_ran]() { local_ran = true; });
  sim.run_until(10);
  EXPECT_TRUE(local_ran);

  sim::ShardChannel ch;
  sim::Endpoint rem = sim::Endpoint::remote(ch, 9);
  EXPECT_TRUE(rem.wired());
  rem.post(20, []() {});
  EXPECT_EQ(ch.posted(), 1u);
}

TEST(ParallelEngine, CrossShardPingPongRunsInTimestampOrder) {
  sim::Simulator a(1);
  sim::Simulator b(1);
  sim::ParallelEngine eng({&a, &b});
  sim::ShardChannel& ab = eng.channel(0, 1);
  sim::ShardChannel& ba = eng.channel(1, 0);
  eng.note_channel_latency(0, 1, 10);
  eng.note_channel_latency(1, 0, 10);
  EXPECT_EQ(eng.lookahead(), 10);

  // a(t) -> b(t+10) -> a(t+20) -> ... : each hop records (side, time).
  std::vector<std::pair<char, sim::SimTime>> hops;
  struct Bouncer {
    sim::Simulator* self;
    sim::ShardChannel* out;
    std::vector<std::pair<char, sim::SimTime>>* hops;
    char side;
    Bouncer* peer = nullptr;
    void bounce(int remaining) {
      hops->emplace_back(side, self->now());
      if (remaining == 0) return;
      Bouncer* p = peer;
      out->post(self->now() + 10, 1,
                [p, remaining]() { p->bounce(remaining - 1); });
    }
  };
  Bouncer ba_side{&a, &ab, &hops, 'a'};
  Bouncer bb_side{&b, &ba, &hops, 'b'};
  ba_side.peer = &bb_side;
  bb_side.peer = &ba_side;
  a.at(0, [&ba_side]() { ba_side.bounce(6); });

  const std::size_t executed = eng.run_until(1000);
  EXPECT_EQ(executed, 7u);
  ASSERT_EQ(hops.size(), 7u);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i].first, i % 2 == 0 ? 'a' : 'b');
    EXPECT_EQ(hops[i].second, static_cast<sim::SimTime>(10 * i));
  }
  // run_until's contract: both shards end at `until`, even the idle one.
  EXPECT_EQ(a.now(), 1000);
  EXPECT_EQ(b.now(), 1000);
  EXPECT_GE(eng.last_run().rounds, 1u);
  EXPECT_EQ(eng.last_run().executed, 7u);
}

TEST(ParallelEngine, IdleShardsAdvanceToUntil) {
  sim::Simulator a(1);
  sim::Simulator b(1);
  sim::ParallelEngine eng({&a, &b});
  eng.note_channel_latency(0, 1, 5);
  eng.note_channel_latency(1, 0, 5);
  EXPECT_EQ(eng.run_until(123), 0u);
  EXPECT_EQ(a.now(), 123);
  EXPECT_EQ(b.now(), 123);
}

TEST(ParallelEngine, AsymmetricChannelLatenciesDeliverInOrder) {
  // Fast channel 0->1 (10 ticks), slow channel 1->0 (1000 ticks): shard 1
  // must follow shard 0 closely, while shard 0 may run far ahead of 1.
  sim::Simulator a(1);
  sim::Simulator b(1);
  sim::ParallelEngine eng({&a, &b});
  eng.note_channel_latency(0, 1, 10);
  eng.note_channel_latency(1, 0, 1000);
  EXPECT_EQ(eng.lookahead(), 10);  // Tightest channel.

  // Shard 0 posts into the fast channel every 50 ticks; shard 1 records
  // the times at which the deliveries execute.
  sim::ShardChannel& ab = eng.channel(0, 1);
  std::vector<sim::SimTime> deliveries;
  struct Sender {
    sim::Simulator* self;
    sim::ShardChannel* out;
    std::vector<sim::SimTime>* log;
    sim::Simulator* peer;
    void fire(int remaining) {
      auto* lg = log;
      auto* p = peer;
      out->post(self->now() + 10, 1, [lg, p]() { lg->push_back(p->now()); });
      if (remaining == 0) return;
      self->at(self->now() + 50, [this, remaining]() { fire(remaining - 1); });
    }
  };
  Sender s{&a, &ab, &deliveries, &b};
  a.at(0, [&s]() { s.fire(9); });

  eng.run_until(2000);
  ASSERT_EQ(deliveries.size(), 10u);
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    EXPECT_EQ(deliveries[i], static_cast<sim::SimTime>(50 * i + 10));
  }
  EXPECT_EQ(a.now(), 2000);
  EXPECT_EQ(b.now(), 2000);
}

// The batched-window property: with wide lookahead, one sync round covers
// many events. Rounds are deterministic, so the bound is exact-ish.
TEST(ParallelEngine, WideLookaheadBatchesManyEventsPerRound) {
  sim::Simulator a(1);
  sim::Simulator b(1);
  sim::ParallelEngine eng({&a, &b});
  eng.note_channel_latency(0, 1, 1000);
  eng.note_channel_latency(1, 0, 1000);

  std::uint64_t count = 0;
  struct Ticker {
    sim::Simulator* self;
    std::uint64_t* count;
    void tick() {
      ++*count;
      if (self->now() < 10'000) self->at(self->now() + 10, [this]() { tick(); });
    }
  };
  Ticker ta{&a, &count};
  Ticker tb{&b, &count};
  a.at(0, [&ta]() { ta.tick(); });
  b.at(5, [&tb]() { tb.tick(); });

  eng.run_until(10'000);
  EXPECT_GE(count, 2000u);
  // ~10 windows of width ~1000 cover the run; allow generous slack, but
  // far below one round per event (the global-window regime).
  EXPECT_LE(eng.last_run().rounds, 40u);
  EXPECT_GE(eng.last_run().avg_window_span(), 250.0);
}

// The acceptance property: a sharded network produces the exact snapshot
// campaign of the serial one. Exercised through the real Network facade.
TEST(ParallelNetwork, CampaignBitIdenticalAcrossShardCounts) {
  std::vector<std::uint64_t> totals;
  std::vector<std::size_t> completed;
  for (const std::size_t shards : {1, 2, 4}) {
    core::NetworkOptions opt;
    opt.seed = 77;
    opt.shards = shards;
    core::Network net(net::make_ring(4), opt);
    EXPECT_EQ(net.num_shards(), shards);
    const auto campaign = core::run_snapshot_campaign(net, 3, sim::msec(2));
    std::uint64_t total = 0;
    std::size_t done = 0;
    for (const auto* snap : campaign.results(net)) {
      ++done;
      total += snap->total_value(false);
      for (const auto& [unit, r] : snap->reports) {
        total ^= (r.local_value * 0x9E3779B97F4A7C15ULL) ^ unit.port;
      }
    }
    totals.push_back(total);
    completed.push_back(done);
  }
  for (std::size_t i = 1; i < totals.size(); ++i) {
    EXPECT_EQ(totals[i], totals[0]) << "config " << i;
    EXPECT_EQ(completed[i], completed[0]) << "config " << i;
  }
  EXPECT_GT(completed[0], 0u);
}

// Deliberately skewed link latencies: one WAN-slow trunk and one merely
// sluggish one among fast 500ns trunks, so the lookahead matrix rows are
// genuinely asymmetric at every shard count. The campaign must still be
// bit-identical across {1,2,4,8} shards.
TEST(ParallelNetwork, SkewedTrunkLatenciesCampaignBitIdentical) {
  net::TopologySpec spec = net::make_ring(8);
  ASSERT_GE(spec.trunks.size(), 8u);
  spec.trunks[3].propagation = sim::usec(50);  // Cut at every shard count.
  spec.trunks[7].propagation = sim::usec(5);

  std::vector<std::uint64_t> totals;
  std::vector<std::size_t> completed;
  for (const std::size_t shards : {1, 2, 4, 8}) {
    core::NetworkOptions opt;
    opt.seed = 501;
    opt.shards = shards;
    core::Network net(spec, opt);
    EXPECT_EQ(net.num_shards(), shards);
    const auto campaign = core::run_snapshot_campaign(net, 3, sim::msec(2));
    std::uint64_t total = 0;
    std::size_t done = 0;
    for (const auto* snap : campaign.results(net)) {
      ++done;
      total += snap->total_value(false);
      for (const auto& [unit, r] : snap->reports) {
        total ^= (r.local_value * 0x9E3779B97F4A7C15ULL) ^ unit.port;
      }
    }
    totals.push_back(total);
    completed.push_back(done);
  }
  for (std::size_t i = 1; i < totals.size(); ++i) {
    EXPECT_EQ(totals[i], totals[0]) << "config " << i;
    EXPECT_EQ(completed[i], completed[0]) << "config " << i;
  }
  EXPECT_GT(completed[0], 0u);
}

// Every corpus scenario must produce the serial digest at 2 and 4 shards —
// the same oracle speedlight_fuzz --digest --shards N applies to random
// scenarios, pinned to the committed reproducers.
TEST(ParallelNetwork, CorpusDigestsMatchSerialAtTwoAndFourShards) {
  std::vector<std::filesystem::path> files;
  for (const auto& e :
       std::filesystem::directory_iterator(SPEEDLIGHT_CORPUS_DIR)) {
    if (e.path().extension() == ".scenario") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  for (const auto& f : files) {
    const check::Scenario s = check::load_scenario(f.string());
    check::RunOptions opts;
    opts.with_oracle = false;
    opts.shards = 1;
    const check::RunResult serial = check::run_scenario(s, opts);
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      opts.shards = shards;
      const check::RunResult sharded = check::run_scenario(s, opts);
      EXPECT_EQ(sharded.digest, serial.digest)
          << f.filename() << " at " << shards << " shards";
      EXPECT_EQ(sharded.completed, serial.completed) << f.filename();
    }
  }
}

}  // namespace
}  // namespace speedlight
