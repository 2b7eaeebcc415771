// Switch model behavior: forwarding, counters, queues, CoS, load balancing,
// and snapshot header handling — exercised through the core Network
// builder on small topologies.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/network.hpp"
#include "net/faults.hpp"
#include "net/topology.hpp"
#include "switchlib/load_balancer.hpp"
#include "switchlib/queue.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

TEST(SwitchWiring, AttachAfterFinalizeThrows) {
  // finalize() built the completion masks from the links attached then; a
  // later link would leave them stale, so it is refused and changes nothing.
  Network net(net::make_star(2), NetworkOptions{});
  net::Link extra(net.simulator(), 1e9, 0, sim::Rng(1));
  const net::PortId port = net.spec().hosts[1].switch_port;
  EXPECT_THROW(net.switch_at(0).attach_link(port, &extra, /*to_host=*/true),
               std::logic_error);
  net.host(0).send(net.host_id(1), 1, 100);
  net.run_for(sim::msec(1));
  EXPECT_EQ(net.host(1).packets_received(), 1u);
  EXPECT_EQ(extra.packets_sent(), 0u);
}

TEST(SwitchWiring, NeighborOverrideAfterFinalizeThrows) {
  Network net(net::make_line(2), NetworkOptions{});
  EXPECT_THROW(net.switch_at(0).set_ingress_neighbor_enabled(0, false),
               std::logic_error);
}

TEST(SwitchWiring, FinalizeTwiceThrows) {
  // A second finalize() would replace the control plane the observer holds.
  Network net(net::make_star(2), NetworkOptions{});
  const snap::ControlPlane* cp = &net.switch_at(0).control_plane();
  EXPECT_THROW(net.switch_at(0).finalize(), std::logic_error);
  EXPECT_EQ(&net.switch_at(0).control_plane(), cp);
  EXPECT_NE(net.take_snapshot(), nullptr);
}

TEST(SwitchForwarding, StarDeliversBetweenHosts) {
  Network net(net::make_star(3), NetworkOptions{});
  net.host(0).send(net.host_id(1), 1, 1500);
  net.host(0).send(net.host_id(2), 2, 1500);
  net.run_for(sim::msec(1));
  EXPECT_EQ(net.host(1).packets_received(), 1u);
  EXPECT_EQ(net.host(2).packets_received(), 1u);
  EXPECT_EQ(net.host(1).header_leaks(), 0u);  // Stripped at egress.
}

TEST(SwitchForwarding, LeafSpineCrossRackDelivery) {
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  // Host 0 (leaf0) -> host 5 (leaf1): exactly 3 switch hops.
  for (int i = 0; i < 20; ++i) net.host(0).send(net.host_id(5), 1, 1500);
  net.run_for(sim::msec(2));
  EXPECT_EQ(net.host(5).packets_received(), 20u);
  EXPECT_EQ(net.host(5).header_leaks(), 0u);
}

TEST(SwitchForwarding, UnroutableDropsCounted) {
  Network net(net::make_star(2), NetworkOptions{});
  net.host(0).send(9999, 1, 100);  // No such destination.
  net.run_for(sim::msec(1));
  EXPECT_EQ(net.switch_at(0).forwarding_drops(), 1u);
}

TEST(SwitchCounters, IngressEgressPacketCounts) {
  Network net(net::make_star(2), NetworkOptions{});
  for (int i = 0; i < 7; ++i) net.host(0).send(net.host_id(1), 1, 1000);
  net.run_for(sim::msec(1));
  const auto& in = net.switch_at(0).counters(0, net::Direction::Ingress);
  const auto& out = net.switch_at(0).counters(1, net::Direction::Egress);
  EXPECT_EQ(in.packets(), 7u);
  EXPECT_EQ(in.bytes(), 7000u);
  EXPECT_EQ(out.packets(), 7u);
}

TEST(SwitchCounters, EwmaInterarrivalTracksRate) {
  NetworkOptions opt;
  opt.metric = sw::MetricKind::EwmaInterarrival;
  Network net(net::make_star(2), opt);
  // 1000 packets, 10us apart.
  for (int i = 0; i < 1000; ++i) {
    net.simulator().at(i * sim::usec(10),
                       [&net]() { net.host(0).send(net.host_id(1), 1, 500); });
  }
  net.run_for(sim::msec(20));
  const auto& c = net.switch_at(0).counters(0, net::Direction::Ingress);
  EXPECT_NEAR(c.ewma_interarrival_ns(), 10000.0, 500.0);
}

TEST(SwitchQueues, FifoQueueDropsWhenFull) {
  sw::FifoQueue q(3);
  for (int i = 0; i < 5; ++i) q.push(net::Packet{});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.drops(), 2u);
  EXPECT_EQ(q.max_depth(), 3u);
}

TEST(SwitchQueues, CosStrictPriority) {
  sw::CosQueueSet q(2, 10);
  net::Packet low;
  low.id = 1;
  net::Packet high;
  high.id = 2;
  ASSERT_TRUE(q.push(low, 1));
  ASSERT_TRUE(q.push(high, 0));
  auto first = q.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first->id, 2u);  // Class 0 drains first.
  EXPECT_EQ(first->second, 0u);
  auto second = q.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->first->id, 1u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(SwitchQueues, OversubscriptionDropsAtEgress) {
  // Two hosts blast one destination at full host-link rate: the shared
  // egress link saturates and the bounded queue eventually drops.
  net::TopologySpec spec = net::make_star(3);
  spec.host_link_bandwidth_bps = 25e9;
  NetworkOptions opt;
  opt.queue_capacity = 16;
  Network net(spec, opt);
  for (int i = 0; i < 3000; ++i) {
    net.simulator().at(i * sim::nsec(480), [&net]() {
      net.host(0).send(net.host_id(2), 1, 1500);
      net.host(1).send(net.host_id(2), 2, 1500);
    });
  }
  net.run_for(sim::msec(10));
  EXPECT_GT(net.switch_at(0).queue_drops(), 0u);
  EXPECT_GT(net.host(2).packets_received(), 1000u);
}

TEST(LoadBalancer, EcmpPinsFlows) {
  sw::EcmpBalancer lb(42);
  net::Packet p;
  p.flow = 7;
  p.src_host = 1;
  p.dst_host = 2;
  const std::vector<net::PortId> candidates{3, 4, 5};
  const net::PortId first = lb.choose(p, candidates, 0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(lb.choose(p, candidates, i * 1000), first);
  }
}

TEST(LoadBalancer, EcmpSpreadsFlows) {
  sw::EcmpBalancer lb(42);
  const std::vector<net::PortId> candidates{0, 1};
  std::set<net::PortId> used;
  for (net::FlowId f = 0; f < 64; ++f) {
    net::Packet p;
    p.flow = f;
    used.insert(lb.choose(p, candidates, 0));
  }
  EXPECT_EQ(used.size(), 2u);
}

TEST(LoadBalancer, FlowletSticksWithinGap) {
  sw::FlowletBalancer lb(sim::usec(100), sim::Rng(1));
  net::Packet p;
  p.flow = 9;
  const std::vector<net::PortId> candidates{0, 1, 2};
  const net::PortId first = lb.choose(p, candidates, 0);
  // Packets 10us apart never exceed the gap: same path.
  for (int i = 1; i <= 20; ++i) {
    EXPECT_EQ(lb.choose(p, candidates, i * sim::usec(10)), first);
  }
  EXPECT_EQ(lb.flowlets_started(), 1u);
}

TEST(LoadBalancer, FlowletRepicksAfterGap) {
  sw::FlowletBalancer lb(sim::usec(100), sim::Rng(1));
  net::Packet p;
  p.flow = 9;
  const std::vector<net::PortId> candidates{0, 1};
  sim::SimTime t = 0;
  for (int i = 0; i < 200; ++i) {
    lb.choose(p, candidates, t);
    t += sim::usec(500);  // Every packet starts a new flowlet.
  }
  EXPECT_EQ(lb.flowlets_started(), 200u);
}

// The flowlet table laid out densely, one entry per index as the hardware
// holds it: the reference FlowletBalancer's live-only table must match
// decision for decision, RNG draw for RNG draw.
class DenseFlowletTable {
 public:
  DenseFlowletTable(sim::Duration gap, sim::Rng rng)
      : gap_(gap), rng_(rng), table_(sw::FlowletBalancer::kTableSize) {}

  net::PortId choose(net::FlowId flow, std::span<const net::PortId> candidates,
                     sim::SimTime now) {
    Entry& e = table_[(static_cast<std::size_t>(flow) * 0x9E3779B97f4A7C15ULL) &
                      (table_.size() - 1)];
    if (!e.valid || now - e.last_seen > gap_ ||
        e.port_index >= candidates.size()) {
      e.port_index = rng_.uniform_int(0, candidates.size() - 1);
      e.valid = true;
      ++flowlets_started;
    }
    e.last_seen = now;
    return candidates[e.port_index];
  }

  std::uint64_t flowlets_started = 0;

 private:
  struct Entry {
    sim::SimTime last_seen = 0;
    std::uint64_t port_index = 0;
    bool valid = false;
  };
  sim::Duration gap_;
  sim::Rng rng_;
  std::vector<Entry> table_;
};

// Both tables fed the same packets; counts every decision that differs.
struct FlowletTwins {
  explicit FlowletTwins(sim::Duration gap)
      : live(gap, sim::Rng(5)), dense(gap, sim::Rng(5)) {}

  void send(net::FlowId flow, std::span<const net::PortId> candidates,
            sim::SimTime now) {
    net::Packet p;
    p.flow = flow;
    if (live.choose(p, candidates, now) != dense.choose(flow, candidates, now) ||
        live.flowlets_started() != dense.flowlets_started) {
      ++mismatches;
    }
  }

  sw::FlowletBalancer live;
  DenseFlowletTable dense;
  std::size_t mismatches = 0;
};

TEST(LoadBalancer, LiveFlowletTableMatchesDenseTable) {
  const sim::Duration gap = sim::usec(50);
  const std::vector<net::PortId> four{10, 11, 12, 13};
  const std::vector<net::PortId> two{10, 11};

  // Random flows, candidate sets and spacing, with idle spells past the gap.
  FlowletTwins random(gap);
  sim::Rng stream(11);
  sim::SimTime t = 0;
  for (int i = 0; i < 50000; ++i) {
    t += static_cast<sim::Duration>(stream.uniform_int(0, 2000));
    if (stream.chance(0.002)) t += gap;
    random.send(stream.uniform_int(0, 499), stream.chance(0.7) ? four : two, t);
  }
  EXPECT_EQ(random.mismatches, 0u);
  EXPECT_GT(random.live.flowlets_started(), 10000u);
  // Only flows seen within the last gap are held: far below the dense 64 KB.
  EXPECT_LE(random.live.table_bytes(), 64u * 1024 / 8);

  // Exactly at last_seen + gap the flowlet continues; one tick later it is
  // over. Each boundary lands on a rebuild, where 40 fresh flows overflow
  // the initial table and the survivors are sorted live from expired.
  FlowletTwins edge(gap);
  edge.send(1, four, 0);
  edge.send(2, four, 0);
  for (net::FlowId f = 100; f < 140; ++f) edge.send(f, four, gap);
  edge.send(1, four, gap);  // Same flowlet: idle exactly gap.
  for (net::FlowId f = 200; f < 240; ++f) edge.send(f, four, gap + 1);
  edge.send(2, four, gap + 1);  // New flowlet: idle gap + 1.
  edge.send(1, four, 2 * gap);
  edge.send(1, four, 3 * gap + 1);
  EXPECT_EQ(edge.mismatches, 0u);
  EXPECT_EQ(edge.live.flowlets_started(), 2u + 40u + 40u + 1u + 1u);

  // A candidate set that shrinks under live entries: those pinned past its
  // end start new flowlets, the rest keep their paths.
  FlowletTwins shrink(gap);
  for (net::FlowId f = 0; f < 64; ++f) shrink.send(f, four, 0);
  for (net::FlowId f = 0; f < 64; ++f) shrink.send(f, two, 10);
  for (net::FlowId f = 0; f < 64; ++f) shrink.send(f, four, 20);
  EXPECT_EQ(shrink.mismatches, 0u);
  EXPECT_GT(shrink.live.flowlets_started(), 64u);
  EXPECT_LT(shrink.live.flowlets_started(), 128u);

  // A gap long enough that every index is live at once (flows 0..4095 hit
  // each of the 4096 indices): the table goes dense and costs no more than
  // the dense table.
  FlowletTwins full(sim::sec(1));
  for (net::FlowId f = 0; f < 4096; ++f) full.send(f, four, f);
  for (net::FlowId f = 0; f < 4096; ++f) full.send(f, four, 5000 + f);
  EXPECT_EQ(full.mismatches, 0u);
  EXPECT_EQ(full.live.flowlets_started(), 4096u);
  EXPECT_LE(full.live.table_bytes(), 64u * 1024);
}

TEST(SwitchSnapshot, HeadersAddedInsideStrippedAtEdge) {
  // On a 2-switch line, verify headers traverse the trunk but never reach
  // hosts.
  Network net(net::make_line(2), NetworkOptions{});
  for (int i = 0; i < 10; ++i) net.host(0).send(net.host_id(1), 1, 1000);
  net.run_for(sim::msec(2));
  EXPECT_EQ(net.host(1).packets_received(), 10u);
  EXPECT_EQ(net.host(1).header_leaks(), 0u);
}

TEST(SwitchSnapshot, FibVersionStamped) {
  NetworkOptions opt;
  opt.metric = sw::MetricKind::ForwardingVersion;
  Network net(net::make_star(2), opt);
  const std::uint64_t v0 = net.switch_at(0).routing().version();
  net.host(0).send(net.host_id(1), 1, 100);
  net.run_for(sim::msec(1));
  EXPECT_EQ(net.switch_at(0)
                .counters(0, net::Direction::Ingress)
                .read(sw::MetricKind::ForwardingVersion),
            v0);
  // A route change bumps the version; the next packet stamps it.
  net.switch_at(0).set_route(net.host_id(1), {1});
  net.host(0).send(net.host_id(1), 1, 100);
  net.run_for(sim::msec(1));
  EXPECT_EQ(net.switch_at(0)
                .counters(0, net::Direction::Ingress)
                .read(sw::MetricKind::ForwardingVersion),
            v0 + 1);
}

TEST(SwitchSnapshot, QueueDepthGaugeReadable) {
  NetworkOptions opt;
  opt.metric = sw::MetricKind::QueueDepth;
  Network net(net::make_star(2), opt);
  EXPECT_EQ(net.switch_at(0)
                .counters(1, net::Direction::Egress)
                .read(sw::MetricKind::QueueDepth),
            0u);
}

TEST(SwitchCos, ClassifierSeparatesTraffic) {
  NetworkOptions opt;
  opt.cos_classes = 2;
  net::TopologySpec spec = net::make_star(2);
  // Flow 1 -> class 1 (low priority), flow 0 -> class 0.
  // Classifier set through switch options is applied per switch; configure
  // via NetworkOptions is not exposed, so verify the queue layer directly
  // plus end-to-end default behavior here.
  Network net(spec, opt);
  net.host(0).send(net.host_id(1), 0, 800);
  net.run_for(sim::msec(1));
  EXPECT_EQ(net.host(1).packets_received(), 1u);
}

// --- Egress: hand-over at dequeue ------------------------------------------
// A switch port hands each packet to its link as it leaves the queue, with
// the serialization-complete time, and is woken at that time only when
// another packet is waiting.

/// When a 1500 B packet sent by a host at time 0 reaches the egress queue
/// of the host's switch: uplink serialization, propagation and the
/// switch's pipeline latency, after which one event runs the ingress unit
/// and enqueues it.
sim::SimTime first_enqueue(Network& net) {
  return net.host_uplink(0).serialization_delay(1500) +
         net.spec().host_link_propagation + net.options().timing.fabric_delay;
}

TEST(SwitchEgress, IdleHopSchedulesOneEventAtTheSwitch) {
  // One packet across an idle switch costs one event: the uplink's
  // arrival, which runs the ingress unit, the queue, the egress unit and
  // the hand-off to the downlink. Serialization completes without an event
  // of its own, and the destination host books the delivery, so the
  // downlink schedules nothing.
  auto executed = [](bool send) {
    Network net(net::make_star(2), NetworkOptions{});
    if (send) net.host(0).send(net.host_id(1), 1, 1500);
    net.run_for(sim::msec(1));
    EXPECT_EQ(net.host(1).packets_received(), send ? 1u : 0u);
    return net.simulator().stats().executed;
  };
  EXPECT_EQ(executed(true) - executed(false), 1u);
}

TEST(SwitchEgress, BurstStillDequeuesAtEachDeparture) {
  // Two hosts blast four packets each at one host: the egress queue backs
  // up, and each packet leaves the queue exactly when the one before it
  // finishes serializing, alternating between the two senders.
  Network net(net::make_star(3), NetworkOptions{});
  struct Hop {
    net::FlowId flow;
    sim::SimTime dequeued;
    sim::SimTime departed;
  };
  std::vector<Hop> hops;
  std::vector<sim::SimTime> arrivals;
  sim::Simulator& sim = net.simulator();
  net.host_downlink(2).set_depart_tap(
      [&hops, &sim](const net::Packet& p, sim::SimTime departed) {
        hops.push_back({p.flow, sim.now(), departed});
      });
  net.host_downlink(2).set_arrive_tap(
      [&arrivals](const net::Packet&, sim::SimTime t) {
        arrivals.push_back(t);
      });
  for (int i = 0; i < 4; ++i) {
    net.host(0).send(net.host_id(2), 1, 1500);
    net.host(1).send(net.host_id(2), 2, 1500);
  }
  net.run_for(sim::msec(1));
  ASSERT_EQ(hops.size(), 8u);
  ASSERT_EQ(arrivals.size(), 8u);
  const sim::Duration ser = net.host_downlink(2).serialization_delay(1500);
  const sim::SimTime first = first_enqueue(net);
  for (std::size_t k = 0; k < hops.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(hops[k].flow, k % 2 == 0 ? 1u : 2u);
    EXPECT_EQ(hops[k].dequeued, first + static_cast<sim::SimTime>(k) * ser);
    EXPECT_EQ(hops[k].departed, hops[k].dequeued + ser);
    EXPECT_EQ(arrivals[k],
              hops[k].departed + net.spec().host_link_propagation);
  }
}

TEST(SwitchEgress, FlapperGoingDownMidSerializationDropsThatPacket) {
  // h0 -> s0 -> s1 -> h1. The packet leaves s0's queue and serializes onto
  // the trunk for ~120 ns. A flapper taking the trunk down inside that
  // window drops it, as a wire failing mid-frame would; one going down
  // right after departure does not.
  enum class Down { MidFrame, AfterDeparture };
  auto delivered = [](Down when) {
    Network net(net::make_line(2), NetworkOptions{});
    net::Link& trunk = net.trunk_link(0, /*a_to_b=*/true);
    const sim::SimTime dequeued = first_enqueue(net);
    const sim::Duration ser = trunk.serialization_delay(1500);
    net::LinkFlapper flapper(net.simulator(), trunk, sim::sec(1),
                             sim::sec(1), sim::Rng(3));
    flapper.start(when == Down::MidFrame ? dequeued + ser / 2
                                         : dequeued + ser + 1);
    net.host(0).send(net.host_id(1), 1, 1500);
    net.run_for(sim::msec(1));
    EXPECT_EQ(trunk.packets_dropped() + trunk.packets_sent(), 1u);
    return net.host(1).packets_received();
  };
  EXPECT_EQ(delivered(Down::MidFrame), 0u);
  EXPECT_EQ(delivered(Down::AfterDeparture), 1u);
}

/// Hosts 0 and 1 send low-priority flows 1 and 2, host 2 sends flow 7 in
/// the high class, all to host 3 and all 1500 B. Flow 1 is sent at 0 and
/// leaves the egress queue first. Flow 7 is sent one serialization time
/// later, so it reaches the switch's queue exactly when flow 1 finishes
/// serializing, the instant the port stops being busy. Flow 2 is sent at
/// `flow2_at`, a number of serialization times. Returns the flows in
/// arrival order.
std::vector<net::FlowId> cos_arrival_order(double flow2_at) {
  NetworkOptions opt;
  opt.cos_classes = 2;
  opt.classifier = [](const net::Packet& p) -> std::size_t {
    return p.flow == 7 ? 0 : 1;
  };
  Network net(net::make_star(4), opt);
  std::vector<net::FlowId> order;
  net.host_downlink(3).set_arrive_tap(
      [&order](const net::Packet& p, sim::SimTime) {
        order.push_back(p.flow);
      });
  const sim::Duration ser = net.host_uplink(0).serialization_delay(1500);
  net.host(0).send(net.host_id(3), 1, 1500);
  net.simulator().at(static_cast<sim::SimTime>(flow2_at * ser), [&net] {
    net.host(1).send(net.host_id(3), 2, 1500);
  });
  net.simulator().at(ser, [&net] {
    net.host(2).send(net.host_id(3), 7, 1500);
  });
  net.run_for(sim::msec(1));
  return order;
}

TEST(SwitchEgress, ProbeAtTheDepartureInstantLeavesAtOnce) {
  // h0 -> s0 -> s1 -> h1. A packet leaves s0's idle trunk port at D and
  // finishes serializing at D + ser, so the port is busy until then. A
  // probe injected before D floods at exactly D + ser, in an event ranked
  // before any wake-up scheduled at D would be: the port is idle at that
  // instant whatever the event's place, so its copy departs in the flood
  // event, and a check ranked after the flood finds the queue empty.
  Network net(net::make_line(2), NetworkOptions{});
  sw::Switch& s0 = net.switch_at(0);
  const net::PortId trunk_port = net.spec().trunks[0].port_a;
  net::Link& trunk = net.trunk_link(0, /*a_to_b=*/true);
  const sim::SimTime sent = sim::usec(10);
  const sim::SimTime dequeued = sent + first_enqueue(net);
  const sim::SimTime departure = dequeued + trunk.serialization_delay(1500);
  const sim::SimTime inject = departure -
                              net.options().timing.cpu_to_dataplane_latency -
                              net.options().timing.fabric_delay;
  ASSERT_GT(inject, 0);
  ASSERT_LT(inject, dequeued);
  sim::Simulator& sim = net.simulator();
  std::size_t waiting = ~std::size_t{0};  // Set by the check.
  sim.at(inject, [&] {
    s0.unit(0, net::Direction::Ingress)->inject_probe();
    sim.at(departure, [&] { waiting = s0.queue_depth(trunk_port); });
  });
  sim.at(sent, [&net] { net.host(0).send(net.host_id(1), 1, 1500); });
  std::vector<std::pair<bool, sim::SimTime>> handed_over;  // (probe, when)
  trunk.set_depart_tap([&](const net::Packet& p, sim::SimTime) {
    handed_over.emplace_back(p.is_probe(), sim.now());
  });
  net.run_for(sim::msec(1));
  EXPECT_EQ(waiting, 0u);
  ASSERT_EQ(handed_over.size(), 2u);
  EXPECT_EQ(handed_over[0], std::make_pair(false, dequeued));
  EXPECT_EQ(handed_over[1], std::make_pair(true, departure));
}

TEST(SwitchEgress, EnqueueAtTheDepartureInstantLeavesAtOnce) {
  // Flows 2 and 7 reach the queue in their arrival events at the instant
  // flow 1 finishes serializing. The port is busy only until that instant,
  // so it is idle: flow 2 leaves in the event that enqueued it, and flow 7
  // waits behind it despite its higher class.
  EXPECT_EQ(cos_arrival_order(1.0), (std::vector<net::FlowId>{1, 2, 7}));
}

TEST(SwitchEgress, WaitingPacketLeavesWhenThePortStopsBeingBusy) {
  // Flow 2 reaches the queue while flow 1 is still serializing, so it
  // waits, and a wake-up is scheduled at flow 1's serialization-complete
  // instant. Flow 7 arrives at that same instant, but its arrival is keyed
  // by its link and a wake-up has key 0, so the wake-up runs first and
  // sends flow 2 before flow 7 enqueues.
  EXPECT_EQ(cos_arrival_order(0.5), (std::vector<net::FlowId>{1, 2, 7}));
}

TEST(SwitchEgress, ProbeAndDataLeaveInIngressOrder) {
  // A probe shares its ingress port's sub-channels with data, so the
  // egress must see them in the order the ingress unit stamped them. With
  // channel state, an id lower than the channel's last seen reads as a
  // wraparound of the 16-id wire space, so an overtaken probe would push
  // the egress past the initiations below. h0 -> s0 -> s1 -> h1; all of
  // it at s0, whose ingress unit on port 0 runs at wire arrival plus
  // pipeline latency:
  //   T - 200 ns  initiation 1 reaches the ingress unit (id 1);
  //   T - 100 ns  data packet 1 reaches the ingress unit (stamped 1);
  //   T           the probe reaches the ingress unit;
  //   T + 50 ns   initiation 2 reaches the ingress unit (id 2);
  //   T + 100 ns  data packet 2 reaches the ingress unit (stamped 2).
  // A probe stamped before its pipeline latency carries id 0 behind data
  // packet 1; one flooded in a later event leaves behind data packet 2.
  NetworkOptions opt;
  opt.snapshot.channel_state = true;
  opt.snapshot.wire_id_modulus = 16;
  Network net(net::make_line(2), opt);
  sw::Switch& s0 = net.switch_at(0);
  snap::UnitHandle* ingress = s0.unit(0, net::Direction::Ingress);
  const sim::Duration cpu = opt.timing.cpu_to_dataplane_latency;
  const sim::Duration pipeline = opt.timing.fabric_delay;
  const sim::SimTime T = sim::usec(20);
  const sim::Duration to_ingress = net.host_uplink(0).serialization_delay(64) +
                                   net.spec().host_link_propagation +
                                   pipeline;
  sim::Simulator& sim = net.simulator();
  sim.at(T - 200 - cpu, [ingress] { ingress->inject_initiation(1); });
  sim.at(T - 100 - to_ingress,
         [&net] { net.host(0).send(net.host_id(1), 1, 64); });
  sim.at(T - cpu - pipeline, [ingress] { ingress->inject_probe(); });
  sim.at(T + 50 - cpu, [ingress] { ingress->inject_initiation(2); });
  sim.at(T + 100 - to_ingress,
         [&net] { net.host(0).send(net.host_id(1), 2, 64); });

  std::vector<sim::SimTime> ingress_at;
  net.host_uplink(0).set_arrive_tap(
      [&ingress_at](const net::Packet&, sim::SimTime t) {
        ingress_at.push_back(t);
      });
  struct Departure {
    net::FlowId flow;  ///< 0 for the probe.
    std::uint64_t vsid;
  };
  std::vector<Departure> departures;
  net.trunk_link(0, /*a_to_b=*/true)
      .set_depart_tap([&departures](const net::Packet& p, sim::SimTime) {
        departures.push_back({p.is_probe() ? 0 : p.flow, p.audit_virtual_sid});
      });
  net.run_for(sim::msec(1));

  EXPECT_EQ(ingress_at, (std::vector<sim::SimTime>{T - 100, T + 100}));
  ASSERT_EQ(departures.size(), 3u);
  EXPECT_EQ(departures[0].flow, 1u);
  EXPECT_EQ(departures[1].flow, 0u);
  EXPECT_EQ(departures[2].flow, 2u);
  EXPECT_EQ(departures[0].vsid, 1u);
  EXPECT_EQ(departures[1].vsid, 1u);
  EXPECT_EQ(departures[2].vsid, 2u);
  EXPECT_EQ(net.host(1).packets_received(), 2u);
}

// --- Egress: idle ports pass packets straight through ----------------------
// A packet that reaches an idle port with an empty queue departs without
// entering the queue. Admission, drop counting, the class's depth
// high-water mark and ring materialization read exactly as if it had been
// pushed and popped back out.

/// Counts queue drops and wire hand-overs at one switch.
struct DropAudit final : sw::SwitchAudit {
  int queue_drops = 0;
  int external_sends = 0;
  void on_queue_drop(net::NodeId, net::PortId) override { ++queue_drops; }
  void on_external_send(net::NodeId, net::PortId, std::uint64_t,
                        bool) override {
    ++external_sends;
  }
};

TEST(SwitchPassThrough, ZeroCapacityDropsAtAnIdlePort) {
  // A class with no room at all cannot admit the packet, idle port or not:
  // it is dropped, the drop hook fires once, and the link sees nothing.
  NetworkOptions opt;
  opt.queue_capacity = 0;
  Network net(net::make_star(2), opt);
  DropAudit audit;
  net.switch_at(0).set_audit(&audit);
  int handed_over = 0;
  net.host_downlink(1).set_depart_tap(
      [&handed_over](const net::Packet&, sim::SimTime) { ++handed_over; });
  net.host(0).send(net.host_id(1), 1, 1500);
  net.run_for(sim::msec(1));
  EXPECT_EQ(audit.queue_drops, 1);
  EXPECT_EQ(audit.external_sends, 0);
  EXPECT_EQ(handed_over, 0);
  EXPECT_EQ(net.switch_at(0).queue_drops(), 1u);
  EXPECT_EQ(net.host_downlink(1).packets_sent(), 0u);
  EXPECT_EQ(net.host(1).packets_received(), 0u);
}

TEST(SwitchPassThrough, IdleHopCountsAsPushedAndPopped) {
  // On a snapshot-disabled switch nothing but the queue ring can
  // materialize a port, so the one hop's bookkeeping shows alone: the
  // queue is empty, its class saw a depth of one, and the port counts as
  // materialized.
  net::TopologySpec spec = net::make_star(2);
  spec.switches[0].snapshot_enabled = false;
  Network net(spec, NetworkOptions{});
  const net::PortId out = spec.hosts[1].switch_port;
  const sw::Switch& s0 = net.switch_at(0);
  EXPECT_EQ(net.materialized_ports(), 0u);
  net.host(0).send(net.host_id(1), 1, 1500);
  net.run_for(sim::msec(1));
  EXPECT_EQ(net.host(1).packets_received(), 1u);
  EXPECT_EQ(s0.queue_depth(out), 0u);
  EXPECT_EQ(s0.egress_queue(out).class_queue(0).max_depth(), 1u);
  EXPECT_EQ(s0.egress_queue(out).max_depth(), 1u);
  EXPECT_EQ(net.materialized_ports(), 1u);
}

TEST(SwitchPassThrough, ProbeFloodClassOneWaitsForTheWakeUp) {
  // h0 -> s0 -> s1 -> h1 with two classes. A probe flood reaches s0's idle
  // trunk port with one copy per class: the class-0 copy leaves in the
  // flood's own event, and the class-1 copy waits for the wake-up at the
  // instant the first one finishes serializing. Each copy is processed on
  // its own egress sub-channel, egress_channel(ingress port, class).
  NetworkOptions opt;
  opt.cos_classes = 2;
  opt.snapshot.channel_state = true;
  Network net(net::make_line(2), opt);
  sw::Switch& s0 = net.switch_at(0);
  const net::PortId trunk_port = net.spec().trunks[0].port_a;
  net::Link& trunk = net.trunk_link(0, /*a_to_b=*/true);
  snap::UnitHandle* ingress = s0.unit(0, net::Direction::Ingress);
  sim::Simulator& sim = net.simulator();
  const sim::SimTime inject = sim::usec(10);
  const sim::SimTime flood =
      inject + opt.timing.cpu_to_dataplane_latency + opt.timing.fabric_delay;
  const sim::Duration ser = trunk.serialization_delay(64);
  // Snapshot 1 first, so the probe carries id 1 onto the sub-channels.
  sim.at(sim::usec(1), [ingress] { ingress->inject_initiation(1); });
  sim.at(inject, [ingress] { ingress->inject_probe(); });
  std::vector<std::pair<sim::SimTime, sim::SimTime>> handed_over;
  trunk.set_depart_tap([&](const net::Packet& p, sim::SimTime departed) {
    if (p.is_probe()) handed_over.emplace_back(sim.now(), departed);
  });
  net.run_for(sim::msec(1));
  ASSERT_EQ(handed_over.size(), 2u);
  EXPECT_EQ(handed_over[0], std::make_pair(flood, flood + ser));
  EXPECT_EQ(handed_over[1], std::make_pair(flood + ser, flood + 2 * ser));
  snap::UnitHandle* egress = s0.unit(trunk_port, net::Direction::Egress);
  EXPECT_EQ(s0.egress_channel(0, 0), 0u);
  EXPECT_EQ(s0.egress_channel(0, 1), 1u);
  EXPECT_EQ(egress->read_last_seen_register(s0.egress_channel(0, 0)), 1u);
  EXPECT_EQ(egress->read_last_seen_register(s0.egress_channel(0, 1)), 1u);
  EXPECT_EQ(egress->read_last_seen_register(s0.egress_channel(1, 0)), 0u);
  EXPECT_EQ(egress->read_last_seen_register(s0.egress_channel(1, 1)), 0u);
}

TEST(SwitchPassThrough, OutOfRangeClassJoinsTheLastClassOnBothPaths) {
  // Hosts 0 and 1 send one packet each to host 2 in the same instant, and
  // the classifier answers class 5 of 2. The first packet passes through
  // the idle port and the second waits in the queue; both travel as class
  // 1, on their ingress port's class-1 sub-channel.
  NetworkOptions opt;
  opt.cos_classes = 2;
  opt.classifier = [](const net::Packet&) -> std::size_t { return 5; };
  opt.snapshot.channel_state = true;
  Network net(net::make_star(3), opt);
  sw::Switch& s0 = net.switch_at(0);
  const net::PortId out = net.spec().hosts[2].switch_port;
  sim::Simulator& sim = net.simulator();
  for (net::PortId in : {net.spec().hosts[0].switch_port,
                         net.spec().hosts[1].switch_port}) {
    snap::UnitHandle* ingress = s0.unit(in, net::Direction::Ingress);
    sim.at(sim::usec(1), [ingress] { ingress->inject_initiation(1); });
  }
  sim.at(sim::usec(10), [&net] {
    net.host(0).send(net.host_id(2), 1, 1500);
    net.host(1).send(net.host_id(2), 2, 1500);
  });
  std::vector<sim::SimTime> handed_over;
  net.host_downlink(2).set_depart_tap([&](const net::Packet&, sim::SimTime) {
    handed_over.push_back(sim.now());
  });
  net.run_for(sim::msec(1));
  EXPECT_EQ(net.host(2).packets_received(), 2u);
  ASSERT_EQ(handed_over.size(), 2u);
  EXPECT_EQ(handed_over[1] - handed_over[0],
            net.host_downlink(2).serialization_delay(1500));
  const sw::CosQueueSet& queue = s0.egress_queue(out);
  EXPECT_EQ(queue.class_queue(0).max_depth(), 0u);
  EXPECT_EQ(queue.class_queue(1).max_depth(), 1u);
  snap::UnitHandle* egress = s0.unit(out, net::Direction::Egress);
  for (net::PortId in : {net.spec().hosts[0].switch_port,
                         net.spec().hosts[1].switch_port}) {
    SCOPED_TRACE(in);
    EXPECT_EQ(egress->read_last_seen_register(s0.egress_channel(in, 1)), 1u);
    EXPECT_EQ(egress->read_last_seen_register(s0.egress_channel(in, 0)), 0u);
  }
}

}  // namespace
}  // namespace speedlight
