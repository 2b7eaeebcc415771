// Engine round profiler (obs/prof.hpp): ring semantics, exact blame
// attribution against the engine's own counters, and report folding. Suite
// names start with ParallelProfiler so the CI parallel job's
// -R '(...|Parallel)' filter picks them up.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"
#include "obs/prof.hpp"
#include "sim/parallel.hpp"
#include "sim/time.hpp"

namespace speedlight {
namespace {

obs::RoundRecord window(sim::SimTime m, sim::SimTime h, std::uint64_t exec) {
  obs::RoundRecord r;
  r.m = m;
  r.horizon = h;
  r.executed = exec;
  r.binding = obs::Binding::Until;
  r.ran = true;
  return r;
}

obs::RoundRecord stall(sim::SimTime m, sim::SimTime h, std::uint32_t producer,
                       obs::Binding b = obs::Binding::Peer) {
  obs::RoundRecord r;
  r.m = m;
  r.horizon = h;
  r.binding_shard = producer;
  r.binding = b;
  r.ran = false;
  return r;
}

TEST(ParallelProfilerRing, CoalescesRepeatedStallEpisodes) {
  obs::ShardProfiler p;
  p.configure(0, 4, 16);
  // One episode: same pending event (m = 100), same binding — the horizon
  // closes in as the producer advances. Retained as ONE record keeping the
  // earliest horizon, while aggregates count every round.
  p.record_round(stall(100, 40, 2));
  p.record_round(stall(100, 60, 2));
  p.record_round(stall(100, 90, 2));
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.stalls(), 3u);
  EXPECT_EQ(p.stalls_by_producer()[2], 3u);
  EXPECT_EQ(p.gap_by_producer()[2], (100u - 40) + (100 - 60) + (100 - 90));
  std::vector<obs::RoundRecord> got;
  p.for_each([&](const obs::RoundRecord& r) { got.push_back(r); });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].repeats, 3u);
  EXPECT_EQ(got[0].horizon, 40u);  // Widest (earliest) horizon retained.

  // A different pending event or binding producer starts a new episode.
  p.record_round(stall(200, 150, 2));
  p.record_round(stall(200, 160, 1));
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.stalls(), 5u);

  // Windows never coalesce and break the episode chain.
  p.record_round(window(210, 300, 7));
  p.record_round(stall(400, 350, 1));
  p.record_round(stall(400, 360, 1));
  EXPECT_EQ(p.size(), 5u);
  EXPECT_EQ(p.windows(), 1u);
  EXPECT_EQ(p.executed(), 7u);
}

TEST(ParallelProfilerRing, SelfCycleStallsLandOnTheDiagonal) {
  obs::ShardProfiler p;
  p.configure(1, 2, 8);
  p.record_round(stall(100, 80, 1, obs::Binding::SelfCycle));
  p.record_round(stall(100, 90, 1, obs::Binding::SelfCycle));
  EXPECT_EQ(p.stalls(), 2u);
  EXPECT_EQ(p.self_stalls(), 2u);
  EXPECT_EQ(p.stalls_by_producer()[1], 2u);  // Own index, not a peer's.
  EXPECT_EQ(p.size(), 1u);                   // Coalesced like any episode.
}

TEST(ParallelProfilerRing, BoundedRingKeepsNewestAndExactAggregates) {
  obs::ShardProfiler p;
  p.configure(0, 2, 4);
  const std::size_t kRounds = 100;
  for (std::size_t i = 0; i < kRounds; ++i) {
    p.record_round(window(10 * i, 10 * i + 5, /*exec=*/i));
  }
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.overwritten(), kRounds - 4);
  EXPECT_EQ(p.windows(), kRounds);  // Aggregates survive the wrap.
  std::uint64_t expected_exec = 0;
  for (std::size_t i = 0; i < kRounds; ++i) expected_exec += i;
  EXPECT_EQ(p.executed(), expected_exec);
  // Oldest-to-newest visitation over the retained suffix.
  std::vector<std::uint64_t> kept;
  p.for_each([&](const obs::RoundRecord& r) { kept.push_back(r.executed); });
  EXPECT_EQ(kept, (std::vector<std::uint64_t>{96, 97, 98, 99}));
}

TEST(ParallelProfilerReport, AnalyzeFoldsShardsAndRanksChannels) {
  obs::EngineProfiler prof;
  prof.enable(/*num_shards=*/3, /*capacity_per_shard=*/8);
  if (!prof.enabled()) GTEST_SKIP() << "trace layer compiled out";
  // Shard 0: 2 windows of 5 events; stalled twice on shard 2, once on 1.
  prof.shard(0).record_round(window(0, 10, 5));
  prof.shard(0).record_round(window(20, 30, 5));
  prof.shard(0).record_round(stall(40, 35, 2));
  prof.shard(0).record_round(stall(50, 45, 2));
  prof.shard(0).record_round(stall(60, 55, 1));
  // Shard 1: one window; one self-cycle stall.
  prof.shard(1).record_round(window(0, 10, 3));
  prof.shard(1).record_round(stall(20, 15, 1, obs::Binding::SelfCycle));
  // Two aligned sweeps with per-round maxima 5 and 3.
  prof.note_inline_round(5);
  prof.note_inline_round(3);

  const obs::CriticalPathReport rep = obs::analyze(prof);
  EXPECT_EQ(rep.shards, 3u);
  EXPECT_EQ(rep.windows, 3u);
  EXPECT_EQ(rep.stalls, 4u);
  EXPECT_EQ(rep.executed, 13u);
  EXPECT_EQ(rep.critical_path_events, 8u);
  EXPECT_NEAR(rep.parallelism_bound(), 13.0 / 8.0, 1e-12);
  EXPECT_EQ(rep.stall(0, 2), 2u);
  EXPECT_EQ(rep.stall(0, 1), 1u);
  EXPECT_EQ(rep.stall(1, 1), 1u);  // Self-cycle on the diagonal.

  const auto top = rep.top_channels(8);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].from, 2u);  // Most-blamed producer first.
  EXPECT_EQ(top[0].to, 0u);
  EXPECT_EQ(top[0].stalls, 2u);

  std::ostringstream os;
  rep.write_json(os, 2);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"stall_matrix\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path_events\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"top_channels\""), std::string::npos);
}

/// Two leaf-spine sites joined by one slow WAN trunk — the same shape the
/// perf_parallel bench partitions into one shard per site.
net::TopologySpec make_two_site_spec() {
  const net::TopologySpec site = net::make_leaf_spine(2, 2, 2);
  net::TopologySpec spec = site;
  const std::size_t off = site.switches.size();
  for (auto sw : site.switches) {
    sw.name = "b_" + sw.name;
    spec.switches.push_back(sw);
  }
  for (auto h : site.hosts) {
    h.name = "b_" + h.name;
    h.attached_switch += off;
    spec.hosts.push_back(h);
  }
  for (auto t : site.trunks) {
    t.switch_a += off;
    t.switch_b += off;
    spec.trunks.push_back(t);
  }
  const std::size_t spine_a = 2;
  const std::size_t spine_b = off + 2;
  const auto pa = spec.switches[spine_a].num_ports++;
  const auto pb = spec.switches[spine_b].num_ports++;
  spec.trunks.push_back({spine_a, static_cast<net::PortId>(pa), spine_b,
                         static_cast<net::PortId>(pb), 100e9, sim::usec(50)});
  return spec;
}

/// Golden attribution test: on the two-site topology at two shards, the
/// profiler's blame matrix must agree ROUND-FOR-ROUND with the engine's
/// own stall accounting, and every cross-shard stall is by construction
/// the WAN trunk (the only inter-site coupling) binding one site on the
/// other — the matrix' off-diagonal IS the WAN channel.
TEST(ParallelProfilerGolden, TwoSiteInlineAttributionMatchesEngineStats) {
  if (!obs::EngineProfiler::compiled_in()) {
    GTEST_SKIP() << "trace layer compiled out";
  }
  core::NetworkOptions opt;
  opt.seed = 901;
  opt.shards = 2;
  core::Network net(make_two_site_spec(), opt);
  ASSERT_EQ(net.num_shards(), 2u);
  net.enable_engine_profiling();
  const auto campaign = core::run_snapshot_campaign(net, 3, sim::msec(2));
  EXPECT_FALSE(campaign.results(net).empty());

  const sim::ParallelEngine* eng = net.engine();
  ASSERT_NE(eng, nullptr);
  const obs::EngineProfiler* prof = net.engine_profiler();
  ASSERT_NE(prof, nullptr);
  ASSERT_TRUE(prof->enabled());
  const sim::EngineRunStats& er = eng->last_run();

  std::uint64_t total_executed = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const obs::ShardProfiler& sp = prof->shard(i);
    const sim::ShardRunStats& st = er.shards[i];
    EXPECT_EQ(sp.windows(), st.windows) << "shard " << i;
    EXPECT_EQ(sp.stalls(), st.horizon_stalls) << "shard " << i;
    EXPECT_EQ(sp.executed(), st.executed) << "shard " << i;
    // Peer attribution matches the engine's per-producer counters exactly;
    // the diagonal holds the profiler-only self-cycle split.
    const std::size_t peer = 1 - i;
    EXPECT_EQ(sp.stalls_by_producer()[peer], st.stalls_by_producer[peer])
        << "shard " << i;
    EXPECT_EQ(sp.stalls_by_producer()[i], sp.self_stalls()) << "shard " << i;
    total_executed += st.executed;
  }

  const obs::CriticalPathReport rep = obs::analyze(*prof);
  EXPECT_EQ(rep.executed, total_executed);
  EXPECT_EQ(rep.stalls, er.horizon_stalls());
  // The lockstep sweeps' per-round maxima sum to at least the busiest
  // shard's events and at most the whole run.
  EXPECT_GE(rep.critical_path_events,
            std::max(er.shards[0].executed, er.shards[1].executed));
  EXPECT_LE(rep.critical_path_events, rep.executed);

  // WAN dominance: with one shard per site, every peer stall crosses the
  // WAN trunk, so the top binding channel is an off-diagonal entry and
  // carries every cross-shard stall round.
  const auto top = rep.top_channels(1);
  ASSERT_FALSE(top.empty());
  EXPECT_NE(top[0].from, top[0].to);
  EXPECT_EQ(top[0].stalls,
            std::max(rep.stall(0, 1), rep.stall(1, 0)));
  EXPECT_GT(top[0].stalls, 0u);
}

/// Profiled runs must replay the exact event schedule of
/// unprofiled ones: recording is observation, never perturbation.
TEST(ParallelProfilerGolden, ProfiledRunIsBitIdenticalToUnprofiled) {
  if (!obs::EngineProfiler::compiled_in()) {
    GTEST_SKIP() << "trace layer compiled out";
  }
  std::vector<std::uint64_t> totals;
  for (const bool profiled : {false, true}) {
    core::NetworkOptions opt;
    opt.seed = 902;
    opt.shards = 2;
    core::Network net(make_two_site_spec(), opt);
    if (profiled) net.enable_engine_profiling();
    const auto campaign = core::run_snapshot_campaign(net, 3, sim::msec(2));
    std::uint64_t total = 0;
    for (const auto* snap : campaign.results(net)) {
      total += snap->total_value(false);
      for (const auto& [unit, r] : snap->reports) {
        total ^= (r.local_value * 0x9E3779B97F4A7C15ULL) ^ unit.port;
      }
    }
    totals.push_back(total);
  }
  EXPECT_EQ(totals[0], totals[1]);
}

}  // namespace
}  // namespace speedlight
