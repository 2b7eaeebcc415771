// Interface through which the control plane reaches a data-plane processing
// unit: initiation injection and register reads. Implemented by the switch
// model (switchlib); keeps the snapshot library free of switch internals.
#pragma once

#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "snapshot/dataplane.hpp"

namespace speedlight::snap {

class UnitHandle {
 public:
  virtual ~UnitHandle() = default;

  [[nodiscard]] virtual net::UnitId unit_id() const = 0;
  [[nodiscard]] virtual bool is_ingress() const = 0;
  [[nodiscard]] virtual std::uint16_t num_channels() const = 0;
  [[nodiscard]] virtual std::uint16_t cpu_channel() const = 0;

  /// Inject a control-plane initiation (Figure 6 path 3). Asynchronous: the
  /// implementation models the CPU->ASIC latency and, for ingress units,
  /// the forwarding of the initiation to the same port's egress unit.
  virtual void inject_initiation(WireSid sid) = 0;

  /// Inject a probe at this unit (ingress units only): a marker-carrying
  /// single-hop broadcast that is flooded to every egress port and then to
  /// the directly attached neighbors, forcing snapshot id propagation along
  /// every channel when no regular traffic flows (Section 6, liveness).
  virtual void inject_probe() = 0;

  // Register reads. The control plane accounts for PCIe read latency; these
  // return the register contents at call time.
  [[nodiscard]] virtual SlotValue read_value_slot(std::size_t index) const = 0;
  /// The same slot of the unit's Figure 3 oracle array
  /// (SnapshotConfig::oracle); not a hardware register.
  [[nodiscard]] virtual SlotValue read_oracle_slot(std::size_t index) const = 0;
  [[nodiscard]] virtual WireSid read_sid_register() const = 0;
  [[nodiscard]] virtual WireSid read_last_seen_register(
      std::uint16_t channel) const = 0;

  /// Read the *live* metric value (used by the polling baseline, which has
  /// no snapshot machinery at all).
  [[nodiscard]] virtual std::uint64_t read_live_counter() const = 0;
};

}  // namespace speedlight::snap
