// Abstract network device: anything that can terminate a link.
//
// speedlight-lint: allow-file(virtual-in-datapath) the one sanctioned
// data-path interface: links dispatch to host-or-switch exactly once per
// delivery, and both overriders are final classes the optimizer can
// devirtualize at the call sites that matter.
#pragma once

#include <string>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"

namespace speedlight::net {

class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// A packet has finished propagating over a link attached to `port`.
  /// The handle owns a pool slot; dropping it recycles the packet.
  virtual void receive(PooledPacket pkt, PortId port) = 0;

  /// Hosts never participate in the snapshot protocol.
  [[nodiscard]] virtual bool is_host() const = 0;

  /// Latency between a frame's arrival on the wire and receive(). A link
  /// reads it once, at connect(), and charges it on every frame it carries
  /// into this node.
  [[nodiscard]] virtual sim::Duration pipeline_latency() const { return 0; }

 private:
  NodeId id_;
  std::string name_;
};

}  // namespace speedlight::net
