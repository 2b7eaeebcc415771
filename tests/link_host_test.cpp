// Packets, links (FIFO, serialization, propagation, loss) and hosts.
#include <gtest/gtest.h>

#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"

namespace speedlight::net {
namespace {

class SinkNode : public Node {
 public:
  SinkNode(NodeId id) : Node(id, "sink") {}
  void receive(PooledPacket pkt, PortId port) override {
    received.push_back({*pkt, port});
  }
  [[nodiscard]] bool is_host() const override { return false; }
  std::vector<std::pair<Packet, PortId>> received;
};

/// A sink with a switch-like pipeline between the wire and receive().
class PipelinedSink final : public SinkNode {
 public:
  using SinkNode::SinkNode;
  [[nodiscard]] sim::Duration pipeline_latency() const override {
    return sim::nsec(400);
  }
};

Packet make_packet(std::uint32_t size) {
  Packet p;
  p.size_bytes = size;
  return p;
}

TEST(Link, SerializationPlusPropagation) {
  sim::Simulator sim;
  SinkNode sink(1);
  Link link(sim, /*bandwidth=*/1e9, /*propagation=*/sim::usec(1), sim::Rng(1));
  link.connect(&sink, 3);
  link.send(make_packet(1250));  // 1250B at 1Gbps = 10us serialization.
  sim.run_until(sim::sec(1));
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].second, 3);
  EXPECT_EQ(sim.now(), sim::sec(1));
}

TEST(Link, ArrivalTimeExact) {
  sim::Simulator sim;
  SinkNode sink(1);
  Link link(sim, 1e9, sim::usec(1), sim::Rng(1));
  link.connect(&sink, 0);
  sim::SimTime arrival = -1;
  link.set_arrive_tap([&](const Packet&, sim::SimTime t) { arrival = t; });
  link.send(make_packet(1250));
  sim.run_until(sim::sec(1));
  EXPECT_EQ(arrival, sim::usec(11));  // 10us serialize + 1us propagate.
}

TEST(Link, ArrivalChargesTheReceiversPipelineLatency) {
  sim::Simulator sim;
  PipelinedSink sink(1);
  Link link(sim, 1e9, sim::usec(1), sim::Rng(1));
  link.connect(&sink, 0);
  sim::SimTime arrival = -1;
  sim::SimTime received = -1;
  link.set_arrive_tap([&](const Packet&, sim::SimTime t) {
    arrival = t;
    received = sim.now();
  });
  link.send(make_packet(1250));
  sim.run_until(sim::sec(1));
  ASSERT_EQ(sink.received.size(), 1u);
  // 10us serialize + 1us propagate + 400ns pipeline, in one event.
  EXPECT_EQ(arrival, sim::usec(11) + sim::nsec(400));
  EXPECT_EQ(received, arrival);
}

TEST(Link, BackToBackPacketsQueueOnSerialization) {
  sim::Simulator sim;
  SinkNode sink(1);
  Link link(sim, 1e9, 0, sim::Rng(1));
  link.connect(&sink, 0);
  std::vector<sim::SimTime> arrivals;
  link.set_arrive_tap([&](const Packet&, sim::SimTime t) { arrivals.push_back(t); });
  link.send(make_packet(1250));
  link.send(make_packet(1250));
  link.send(make_packet(1250));
  sim.run_until(sim::sec(1));
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::usec(10));
  EXPECT_EQ(arrivals[1], sim::usec(20));
  EXPECT_EQ(arrivals[2], sim::usec(30));
}

TEST(Link, FifoDeliveryOrder) {
  sim::Simulator sim;
  SinkNode sink(1);
  Link link(sim, 100e9, sim::nsec(500), sim::Rng(1));
  link.connect(&sink, 0);
  for (std::uint64_t i = 0; i < 50; ++i) {
    Packet p = make_packet(100 + static_cast<std::uint32_t>(i));
    p.id = i;
    link.send(std::move(p));
  }
  sim.run_until(sim::sec(1));
  ASSERT_EQ(sink.received.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sink.received[i].first.id, i);
  }
}

TEST(Link, ForcedDropsDeterministic) {
  sim::Simulator sim;
  SinkNode sink(1);
  Link link(sim, 1e9, 0, sim::Rng(1));
  link.connect(&sink, 0);
  link.drop_next(2);
  for (int i = 0; i < 5; ++i) link.send(make_packet(100));
  sim.run_until(sim::sec(1));
  EXPECT_EQ(sink.received.size(), 3u);
  EXPECT_EQ(link.packets_dropped(), 2u);
  EXPECT_EQ(link.packets_sent(), 3u);
}

TEST(Link, RandomLossRate) {
  sim::Simulator sim;
  SinkNode sink(1);
  Link link(sim, 100e9, 0, sim::Rng(7));
  link.connect(&sink, 0);
  link.set_loss_probability(0.2);
  for (int i = 0; i < 5000; ++i) link.send(make_packet(100));
  sim.run_until(sim::sec(10));
  EXPECT_NEAR(static_cast<double>(link.packets_dropped()), 1000.0, 120.0);
}

TEST(Link, DeliverSkipsSerialization) {
  sim::Simulator sim;
  SinkNode sink(1);
  Link link(sim, 1e9, sim::usec(3), sim::Rng(1));
  link.connect(&sink, 0);
  sim.at(sim::usec(10), [&]() { link.deliver(make_packet(1500), sim.now()); });
  sim.run_until(sim::sec(1));
  ASSERT_EQ(sink.received.size(), 1u);
  // Arrival = departed + propagation only.
  EXPECT_EQ(sink.received[0].first.size_bytes, 1500u);
}

TEST(Host, SendStampsIdentity) {
  sim::Simulator sim;
  SinkNode sink(9);
  Host host(sim, 5, "h5");
  Link link(sim, 25e9, sim::nsec(500), sim::Rng(1));
  link.connect(&sink, 2);
  host.attach_uplink(&link);
  host.send(9, 77, 1500);
  host.send(9, 77, 1500);
  sim.run_until(sim::sec(1));
  ASSERT_EQ(sink.received.size(), 2u);
  const Packet& p = sink.received[0].first;
  EXPECT_EQ(p.src_host, 5u);
  EXPECT_EQ(p.dst_host, 9u);
  EXPECT_EQ(p.flow, 77u);
  EXPECT_FALSE(p.snap.present);
  EXPECT_NE(sink.received[0].first.id, sink.received[1].first.id);
  EXPECT_EQ(host.packets_sent(), 2u);
}

TEST(Host, ReceiveCountsAndCallbacks) {
  sim::Simulator sim;
  Host host(sim, 5, "h5");
  int callbacks = 0;
  host.set_receive_callback([&](const Packet&, sim::SimTime) { ++callbacks; });
  Packet p = make_packet(1000);
  host.receive(std::move(p), 0);
  EXPECT_EQ(host.packets_received(), 1u);
  EXPECT_EQ(host.bytes_received(), 1000u);
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(host.header_leaks(), 0u);
}

TEST(Host, DetectsHeaderLeaks) {
  sim::Simulator sim;
  Host host(sim, 5, "h5");
  Packet p = make_packet(100);
  p.snap.present = true;
  host.receive(std::move(p), 0);
  EXPECT_EQ(host.header_leaks(), 1u);
}

TEST(Host, IgnoresProbes) {
  sim::Simulator sim;
  Host host(sim, 5, "h5");
  int callbacks = 0;
  host.set_receive_callback([&](const Packet&, sim::SimTime) { ++callbacks; });
  Packet p = make_packet(64);
  p.snap.present = true;
  p.snap.kind = PacketKind::Probe;
  host.receive(std::move(p), 0);
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(host.packets_received(), 0u);
}

TEST(Packet, KindPredicates) {
  Packet p;
  EXPECT_TRUE(p.is_data());
  EXPECT_TRUE(p.counts_for_metrics());
  p.snap.present = true;
  p.snap.kind = PacketKind::Initiation;
  EXPECT_TRUE(p.is_initiation());
  EXPECT_FALSE(p.is_data());
  EXPECT_FALSE(p.counts_for_metrics());
  p.snap.kind = PacketKind::Probe;
  EXPECT_TRUE(p.is_probe());
  EXPECT_FALSE(p.counts_for_metrics());
}

}  // namespace
}  // namespace speedlight::net
