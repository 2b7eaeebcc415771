// Workload generators: each must reproduce the temporal structure the
// paper's evaluation depends on.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/network.hpp"
#include "net/topology.hpp"
#include "workload/apps.hpp"
#include "workload/basic.hpp"
#include "workload/flow.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

TEST(FlowDriver, DeliversExactBytes) {
  Network net(net::make_star(2), NetworkOptions{});
  wl::FlowSpec spec;
  spec.dst = net.host_id(1);
  spec.flow = 5;
  spec.bytes = 10 * 1500 + 700;  // 11 packets, last one short.
  spec.rate_bps = 10e9;
  bool done = false;
  wl::launch_flow(net.simulator(), net.host(0), spec, net.now(),
                  [&]() { done = true; });
  net.run_for(sim::msec(5));
  EXPECT_TRUE(done);
  EXPECT_EQ(net.host(1).packets_received(), 11u);
  EXPECT_EQ(net.host(1).bytes_received(), spec.bytes);
}

TEST(FlowDriver, PacesAtConfiguredRate) {
  Network net(net::make_star(2), NetworkOptions{});
  wl::FlowSpec spec;
  spec.dst = net.host_id(1);
  spec.bytes = 100 * 1500;
  spec.rate_bps = 1.2e9;  // 1500B @ 1.2G = 10us/pkt -> 1ms total.
  sim::SimTime done_at = 0;
  wl::launch_flow(net.simulator(), net.host(0), spec, net.now(),
                  [&]() { done_at = net.simulator().now(); });
  net.run_for(sim::msec(10));
  EXPECT_NEAR(static_cast<double>(done_at), 1e6, 5e4);  // ~1ms in ns.
}

TEST(FlowDriver, ZeroByteFlowCompletesImmediately) {
  Network net(net::make_star(2), NetworkOptions{});
  bool done = false;
  wl::launch_flow(net.simulator(), net.host(0), {}, net.now(),
                  [&]() { done = true; });
  net.run_for(sim::msec(1));
  EXPECT_TRUE(done);
  EXPECT_EQ(net.host(1).packets_received(), 0u);
}

TEST(Cbr, SteadyRate) {
  Network net(net::make_star(2), NetworkOptions{});
  wl::CbrGenerator gen(net.simulator(), net.host(0), net.host_id(1), 1,
                       1.2e9, 1500);  // 100k pps
  gen.start(net.now());
  net.run_for(sim::msec(10));
  gen.stop();
  EXPECT_NEAR(static_cast<double>(net.host(1).packets_received()), 1000.0,
              20.0);
}

TEST(Poisson, MeanRateRespected) {
  Network net(net::make_star(3), NetworkOptions{});
  wl::PoissonGenerator gen(net.simulator(), net.host(0),
                           {net.host_id(1), net.host_id(2)}, 50000, 800,
                           sim::Rng(5));
  gen.start(net.now());
  net.run_for(sim::msec(100));
  gen.stop();
  const double received = static_cast<double>(net.host(1).packets_received() +
                                              net.host(2).packets_received());
  EXPECT_NEAR(received, 5000.0, 400.0);
  // Both destinations get a share.
  EXPECT_GT(net.host(1).packets_received(), 1500u);
  EXPECT_GT(net.host(2).packets_received(), 1500u);
}

TEST(Hadoop, MappersShuffleToAllReducers) {
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  std::vector<net::Host*> mappers{&net.host(0), &net.host(1), &net.host(2)};
  std::vector<net::Host*> reducers{&net.host(3), &net.host(4), &net.host(5)};
  wl::HadoopGenerator::Options opts;
  opts.shuffle_bytes_per_reducer = 100000;
  opts.compute_mean = sim::msec(10);
  wl::HadoopGenerator gen(net.simulator(), mappers, reducers, opts,
                          sim::Rng(3));
  gen.start(net.now());
  net.run_for(sim::msec(100));
  gen.stop();
  for (std::size_t r = 3; r <= 5; ++r) {
    EXPECT_GT(net.host(r).bytes_received(), 100000u) << r;
  }
}

TEST(GraphX, SuperstepsAreSynchronizedBursts) {
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  std::vector<net::Host*> workers;
  for (std::size_t h = 0; h < 4; ++h) workers.push_back(&net.host(h));
  wl::GraphXGenerator::Options opts;
  opts.superstep_interval = sim::msec(20);
  opts.bytes_per_pair_mean = 150000;
  wl::GraphXGenerator gen(net.simulator(), workers, opts, sim::Rng(3));
  gen.start(net.now());

  // Sample per-ms arrival counts at one worker: supersteps every 20ms must
  // make the arrival process strongly bimodal (bursts vs near-silence).
  std::vector<std::uint64_t> per_ms(100, 0);
  net.host(0).set_receive_callback([&](const net::Packet&, sim::SimTime t) {
    const auto bucket = static_cast<std::size_t>(t / sim::msec(1));
    if (bucket < per_ms.size()) ++per_ms[bucket];
  });
  net.run_for(sim::msec(100));
  gen.stop();
  std::size_t silent = 0;
  std::size_t busy = 0;
  for (const auto count : per_ms) {
    if (count == 0) ++silent;
    if (count > 50) ++busy;
  }
  EXPECT_GT(silent, 20u);
  EXPECT_GE(busy, 5u);  // One burst bucket per superstep (5 in 100ms).
  // Host 5 is not a worker: no traffic at all.
  EXPECT_EQ(net.host(5).packets_received(), 0u);
}

TEST(Memcache, RequestsFanOutAndServersRespond) {
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  std::vector<net::Host*> clients{&net.host(0)};
  std::vector<net::Host*> servers;
  for (std::size_t h = 1; h < 6; ++h) servers.push_back(&net.host(h));
  wl::MemcacheGenerator::Options opts;
  opts.requests_per_second = 5000;
  opts.keys_per_multiget = 5;
  wl::MemcacheGenerator gen(net.simulator(), clients, servers, opts,
                            sim::Rng(3));
  gen.start(net.now());
  net.run_for(sim::msec(50));
  gen.stop();
  net.run_for(sim::msec(5));
  EXPECT_NEAR(static_cast<double>(gen.requests_issued()), 250.0, 60.0);
  // Every request hits all 5 servers; every server responds.
  EXPECT_NEAR(static_cast<double>(gen.responses_sent()),
              static_cast<double>(gen.requests_issued()) * 5.0,
              gen.requests_issued() * 0.2 + 30.0);
  // Responses (1200B) arrive back at the client.
  EXPECT_GT(net.host(0).packets_received(), 500u);
}

TEST(Memcache, SteadyMicrosecondScaleTraffic) {
  // The Fig.12c regime: memcache interarrivals are microsecond-scale and
  // much smoother than Hadoop/GraphX.
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  std::vector<net::Host*> clients{&net.host(0), &net.host(3)};
  std::vector<net::Host*> servers;
  for (std::size_t h = 0; h < 6; ++h) servers.push_back(&net.host(h));
  wl::MemcacheGenerator::Options opts;
  opts.requests_per_second = 20000;
  wl::MemcacheGenerator gen(net.simulator(), clients, servers, opts,
                            sim::Rng(3));
  gen.start(net.now());
  net.run_for(sim::msec(50));
  gen.stop();
  // The uplink EWMA of interarrival sits in the microsecond range.
  const auto& c = net.switch_at(0).counters(3, net::Direction::Egress);
  EXPECT_GT(c.packets(), 100u);
  EXPECT_LT(c.ewma_interarrival_ns(), 1e6);  // < 1ms
}

}  // namespace
}  // namespace speedlight
