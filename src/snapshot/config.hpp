// Configuration of the snapshot protocol variant, mirroring the three
// data-plane builds the paper evaluates in Table 1: plain packet count,
// + wraparound, + channel state.
#pragma once

#include <cstddef>
#include <cstdint>

#include "snapshot/ids.hpp"

namespace speedlight::snap {

struct SnapshotConfig {
  /// Record channel (in-flight) state. Requires Last Seen arrays and the
  /// Figure 7 "with channel state" control plane.
  bool channel_state = false;

  /// Wire id space. 0 = full 32-bit space (wraparound practically never
  /// exercised); small values (e.g. 8, 16) exercise rollover, as in the
  /// paper's "+ Wrap Around" variant.
  std::uint32_t wire_id_modulus = 0;

  /// Every unit runs the Speedlight data plane: an id jump > 1 cannot
  /// back-fill intermediate snapshot slots (Section 5.3), and the control
  /// plane marks or infers them. When true, each unit also keeps the
  /// idealized Figure 3 algorithm's Snapshot Value array beside its own,
  /// and each control plane builds the reports that array yields at the
  /// same reads (ControlPlane::oracle_reports(), the fuzzer's oracle). The
  /// oracle moves no event, counter or shipped byte.
  bool oracle = false;

  /// Snapshot Value register array length per unit in the full 2^32 id
  /// space. A bounded wire space has one slot per live id instead (the
  /// modulus), the layout the paper uses.
  static constexpr std::size_t kValueSlots = 64;

  /// Throws std::invalid_argument unless the modulus is 0 or a power of
  /// two >= 2 (SidSpace).
  [[nodiscard]] SidSpace sid_space() const {
    return SidSpace(wire_id_modulus);
  }

  [[nodiscard]] std::size_t slots() const {
    return wire_id_modulus != 0 ? wire_id_modulus : kValueSlots;
  }
};

}  // namespace speedlight::snap
