// Byte-level primitives of the control-plane wire format v2 (DESIGN.md
// section 16): LEB128 varints, the zigzag signed mapping, and
// truncated-timestamp recovery. They are the building blocks of the compact
// notification and report framing in snapshot/wire.hpp, kept here so the
// encodings stay a well-defined external format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace speedlight::net {

/// Bytes a varint of `v` occupies (1..10).
[[nodiscard]] constexpr std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// LEB128-encode `v` into `out` (which must hold varint_len(v) bytes).
/// Returns the number of bytes written.
inline std::size_t put_varint(std::uint64_t v, std::uint8_t* out) {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

/// Decode a varint from `in` into `*out`. Returns bytes consumed, or 0 on
/// truncated/over-long input.
inline std::size_t get_varint(std::span<const std::uint8_t> in,
                              std::uint64_t* out) {
  std::uint64_t v = 0;
  for (std::size_t n = 0; n < in.size() && n < 10; ++n) {
    v |= static_cast<std::uint64_t>(in[n] & 0x7F) << (7 * n);
    if ((in[n] & 0x80) == 0) {
      *out = v;
      return n + 1;
    }
  }
  return 0;
}

/// Zigzag mapping: small-magnitude signed values become small varints.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Recover a value truncated to its low `bits` bits, given a reference the
/// true value is known to be within half the 2^bits window of (serial-number
/// arithmetic, the TimeSync epoch-recovery scheme). Exact whenever
/// |true - ref| < 2^(bits-1).
[[nodiscard]] constexpr std::int64_t recover_truncated(std::int64_t ref,
                                                       std::uint64_t low,
                                                       unsigned bits) {
  const std::uint64_t mod = std::uint64_t{1} << bits;
  const std::uint64_t diff = (low - static_cast<std::uint64_t>(ref)) & (mod - 1);
  if (diff < (mod >> 1)) {
    return ref + static_cast<std::int64_t>(diff);
  }
  return ref + static_cast<std::int64_t>(diff) - static_cast<std::int64_t>(mod);
}

}  // namespace speedlight::net
