// Snapshot-id arithmetic.
//
// Conceptually snapshot ids grow without bound ("virtual" ids). On the wire
// and in data-plane registers they are stored modulo a small id space
// (Section 5.3, "rollover of the snapshot ID"). The paper's key assumption
// is that no id is ever 'lapped'; under that assumption a receiver can
// reconstruct the virtual id from a wire id plus a local reference:
//
//  * per-channel, ids are non-decreasing (FIFO channels), so the Last Seen
//    entry is a monotonic reference: the incoming virtual id is the
//    smallest id >= reference congruent to the wire id (supports an
//    in-system spread of up to modulus-1, as the paper claims for the
//    channel-state variant);
//  * without a Last Seen array (the no-channel-state variant) the only
//    reference is the local sid, which can be ahead of or behind the
//    incoming id, so RFC-1982 serial arithmetic is used instead (spread
//    bounded by modulus/2 - 1, enforced by the observer out-of-band).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace speedlight::snap {

/// Unbounded snapshot id used by all protocol state machines.
using VirtualSid = std::uint64_t;

/// Id as carried in packet headers and data-plane registers.
using WireSid = std::uint32_t;

class SidSpace {
 public:
  /// Whether `modulus` can size a wire id space: 0 (the full 2^32 space) or
  /// a power of two >= 2. Wire ids are then the low bits of the virtual id,
  /// so every pass through a unit masks instead of dividing.
  [[nodiscard]] static constexpr bool valid_modulus(
      std::uint32_t modulus) noexcept {
    return modulus == 0 || (modulus >= 2 && (modulus & (modulus - 1)) == 0);
  }

  /// `modulus` = size of the wire id space; 0 means the full 2^32 space.
  /// Any modulus valid_modulus() rejects throws std::invalid_argument in
  /// every build type: masking with it would alias ids. Every data-plane
  /// unit, control plane and observer builds one, once.
  explicit constexpr SidSpace(std::uint32_t modulus = 0)
      : mask_(modulus == 0 ? std::uint64_t{0xffffffffu} : modulus - 1u) {
    if (!valid_modulus(modulus)) {
      throw std::invalid_argument("wire_id_modulus " + std::to_string(modulus) +
                                  " is not 0 or a power of two >= 2");
    }
  }

  [[nodiscard]] constexpr std::uint64_t modulus() const noexcept {
    return mask_ + 1;
  }

  [[nodiscard]] constexpr WireSid to_wire(VirtualSid v) const noexcept {
    return static_cast<WireSid>(v & mask_);
  }

  /// Smallest virtual id >= `reference` whose wire form is `w`.
  /// Correct whenever the sender's ids on this channel are non-decreasing
  /// and have advanced by < modulus since `reference` was recorded.
  [[nodiscard]] constexpr VirtualSid unroll_monotonic(VirtualSid reference,
                                                      WireSid w) const noexcept {
    return reference + ((w - reference) & mask_);
  }

  /// Virtual id congruent to `w` nearest to `reference` (serial number
  /// arithmetic). Correct whenever |actual - reference| < modulus/2.
  /// Results never go below zero (early in a run, "behind" ids resolve to
  /// their small absolute values).
  [[nodiscard]] constexpr VirtualSid unroll_serial(VirtualSid reference,
                                                   WireSid w) const noexcept {
    const std::uint64_t ahead = (w - reference) & mask_;
    if (ahead <= modulus() / 2) return reference + ahead;
    const std::uint64_t behind = modulus() - ahead;
    return reference >= behind ? reference - behind : reference + ahead;
  }

  /// Largest in-system id spread the variant tolerates (used by the
  /// observer's out-of-band rollover enforcement).
  [[nodiscard]] constexpr std::uint64_t max_spread(bool channel_state) const noexcept {
    return channel_state ? mask_ : modulus() / 2 - 1;
  }

 private:
  std::uint64_t mask_;  ///< modulus - 1.
};

}  // namespace speedlight::snap
