// Partitioner invariants: co-sharding of hosts with their switch, shard
// contiguity and balance, zero-latency trunk contraction, strictly
// positive cross-shard lookahead, and full determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace speedlight::net {
namespace {

/// Every structural invariant a Partition must satisfy against its spec.
void expect_valid(const TopologySpec& spec, const Partition& p,
                  std::size_t requested) {
  ASSERT_EQ(p.switch_shard.size(), spec.switches.size());
  ASSERT_EQ(p.host_shard.size(), spec.hosts.size());
  ASSERT_GE(p.num_shards, 1u);
  EXPECT_LE(p.num_shards, std::max<std::size_t>(1, requested));
  EXPECT_LE(p.num_shards, std::max<std::size_t>(1, spec.switches.size()));

  // Shards are contiguous 0..num_shards-1 and all non-empty.
  std::set<std::uint32_t> used;
  for (const auto sh : p.switch_shard) {
    EXPECT_LT(sh, p.num_shards);
    used.insert(sh);
  }
  EXPECT_EQ(used.size(), p.num_shards);

  // Hosts ride with their attached switch.
  for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
    EXPECT_EQ(p.host_shard[h], p.switch_shard[spec.hosts[h].attached_switch])
        << "host " << h;
  }

  // Cross-trunk accounting and lookahead.
  std::size_t crossing = 0;
  sim::Duration min_lat = 0;
  for (const auto& t : spec.trunks) {
    if (p.switch_shard[t.switch_a] == p.switch_shard[t.switch_b]) continue;
    ++crossing;
    EXPECT_GT(t.propagation, 0) << "zero-latency trunk crosses shards";
    if (min_lat == 0 || t.propagation < min_lat) min_lat = t.propagation;
  }
  EXPECT_EQ(p.cross_trunks, crossing);
  if (crossing > 0) {
    EXPECT_EQ(p.min_cross_latency, min_lat);
    EXPECT_GT(p.min_cross_latency, 0);
  }
}

TEST(Partition, TrivialWhenOneShardRequested) {
  const TopologySpec spec = make_leaf_spine(4, 4, 3);
  for (const std::size_t req : {std::size_t{0}, std::size_t{1}}) {
    const Partition p = partition_topology(spec, req);
    EXPECT_EQ(p.num_shards, 1u);
    EXPECT_EQ(p.cross_trunks, 0u);
    expect_valid(spec, p, req);
    for (const auto sh : p.switch_shard) EXPECT_EQ(sh, 0u);
  }
}

TEST(Partition, StandardTopologiesAllShardCounts) {
  const TopologySpec specs[] = {
      make_line(2),          make_line(7),    make_ring(5),
      make_leaf_spine(4, 2, 3), make_fat_tree(4), make_figure1(),
      make_star(4),
  };
  for (const auto& spec : specs) {
    for (std::size_t req = 1; req <= 9; ++req) {
      expect_valid(spec, partition_topology(spec, req), req);
    }
  }
}

TEST(Partition, RequestBeyondSwitchCountIsClamped) {
  const TopologySpec spec = make_ring(3);
  const Partition p = partition_topology(spec, 64);
  EXPECT_EQ(p.num_shards, 3u);
  expect_valid(spec, p, 64);
}

TEST(Partition, ZeroLatencyTrunksAreContracted) {
  // line of 4 switches where the middle trunk has zero propagation: the
  // two middle switches must land together no matter the shard count.
  TopologySpec spec = make_line(4);
  ASSERT_EQ(spec.trunks.size(), 3u);
  spec.trunks[1].propagation = 0;
  for (std::size_t req = 2; req <= 4; ++req) {
    const Partition p = partition_topology(spec, req);
    expect_valid(spec, p, req);
    EXPECT_EQ(p.switch_shard[1], p.switch_shard[2]) << "req=" << req;
    EXPECT_LE(p.num_shards, 3u);  // Only 3 components exist.
  }
}

TEST(Partition, AllZeroLatencyCollapsesToOneShard) {
  TopologySpec spec = make_ring(6);
  for (auto& t : spec.trunks) t.propagation = 0;
  const Partition p = partition_topology(spec, 4);
  EXPECT_EQ(p.num_shards, 1u);
  EXPECT_EQ(p.cross_trunks, 0u);
}

TEST(Partition, BalancedPacking) {
  // 8 independent switches (star topologies have no trunks) spread over 4
  // shards must land 2 per shard — greedy least-loaded with equal sizes.
  TopologySpec spec;
  for (int i = 0; i < 8; ++i) {
    spec.switches.push_back({"s" + std::to_string(i), 4, true});
  }
  const Partition p = partition_topology(spec, 4);
  EXPECT_EQ(p.num_shards, 4u);
  std::vector<int> load(4, 0);
  for (const auto sh : p.switch_shard) ++load[sh];
  for (const int l : load) EXPECT_EQ(l, 2);
}

TEST(Partition, FatTree16AtFourShardsIsPinned) {
  // Pins the packing + refinement result on a production-sized fabric, so
  // any change to the packing loop's bookkeeping that alters a placement
  // shows up here, not only as a round-count drift in the benches.
  const Partition p = partition_topology(make_fat_tree(16), 4);
  ASSERT_EQ(p.num_shards, 4u);
  EXPECT_EQ(p.stats.cut_weight, 759u);
  EXPECT_EQ(p.stats.refine_moves, 4u);
  std::vector<std::size_t> switches(4, 0);
  for (const auto sh : p.switch_shard) ++switches[sh];
  EXPECT_EQ(switches, (std::vector<std::size_t>{100, 100, 20, 100}));
}

TEST(Partition, Deterministic) {
  const TopologySpec spec = make_fat_tree(4);
  const Partition a = partition_topology(spec, 5);
  const Partition b = partition_topology(spec, 5);
  EXPECT_EQ(a.switch_shard, b.switch_shard);
  EXPECT_EQ(a.host_shard, b.host_shard);
  EXPECT_EQ(a.num_shards, b.num_shards);
  EXPECT_EQ(a.min_cross_latency, b.min_cross_latency);
  EXPECT_EQ(a.cross_trunks, b.cross_trunks);
}

}  // namespace
}  // namespace speedlight::net
