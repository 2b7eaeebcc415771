// What a control plane ships to the snapshot observer for one (unit,
// snapshot id) pair.
#pragma once

#include <cstdint>

#include "net/types.hpp"
#include "sim/time.hpp"
#include "snapshot/ids.hpp"

namespace speedlight::snap {

struct UnitReport {
  net::NodeId device = net::kInvalidNode;
  net::UnitId unit;
  VirtualSid sid = 0;

  /// False when the hardware constraints invalidated this (unit, id) pair
  /// (Figure 7, channel-state case); `local_value`/`channel_value` are then
  /// meaningless.
  bool consistent = true;

  /// True when the value was not directly recorded but inferred by the
  /// control plane from a later snapshot (Figure 7 lines 19-21, no-CS case).
  bool inferred = false;

  std::uint64_t local_value = 0;
  std::uint64_t channel_value = 0;

  /// Audit: true time at which the unit advanced to `sid` (its local
  /// snapshot instant). The spread of this across units is the paper's
  /// "synchronization" metric (Figure 9, "Switch State").
  sim::SimTime advance_time = 0;
  /// Audit: true time at which the unit finished the snapshot (with channel
  /// state: all upstream neighbors caught up — Figure 9's longer tail).
  sim::SimTime finalize_time = 0;
};

}  // namespace speedlight::snap
