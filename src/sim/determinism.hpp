// Determinism race detector (compiled in behind SPEEDLIGHT_CHECK_DETERMINISM).
//
// The simulation must be bit-deterministic: the fuzzer's shrink/replay loop
// and the golden traces assume that re-running a seed reproduces the run
// byte for byte. The two ways that silently breaks:
//
//  1. Tie-breaks. Events at the same timestamp run in schedule order. That
//     is deterministic per run, but if two same-timestamp events touch the
//     same processing unit, their relative order is load-bearing — and any
//     nondeterminism in who scheduled first (iteration over a pointer-keyed
//     map, an uninitialized read) reorders them silently. The Auditor
//     records, per same-timestamp cohort, every pair of events whose
//     callbacks touched a common scope (processing unit), folding
//     (time, scope, seq_a, seq_b) into a fingerprint. Twin runs of the same
//     seed must produce identical fingerprints; a mismatch is a tie-break
//     race (speedlight_fuzz --digest performs the comparison).
//
//  2. Hidden allocations. The data path is allocation-free by design (PR 1);
//     an allocation sneaking back in is both a perf and a determinism hazard
//     (allocator state feeds pointer-keyed containers). DataPathScope marks
//     data-path extents; the global operator-new override (alloc_guard.cpp)
//     counts any allocation inside one. DetAllow exempts the amortized
//     infrastructure paths (event-slab growth, packet-pool refill, audit
//     instrumentation) — each exemption site carries a justifying comment.
//
// With the macro off every hook in this header is an empty inline function
// and both guards are empty structs: zero overhead in release builds.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace speedlight::sim::det {

#ifdef SPEEDLIGHT_CHECK_DETERMINISM
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

// ---------------------------------------------------------------------------
// Allocation accounting (backed by alloc_guard.cpp when enabled).
// ---------------------------------------------------------------------------

/// Allocations observed inside a DataPathScope without a DetAllow exemption,
/// since the last reset. Always 0 when the detector is compiled out.
[[nodiscard]] std::uint64_t datapath_allocs();
/// Bytes requested by those allocations (diagnostic detail).
[[nodiscard]] std::uint64_t datapath_alloc_bytes();
void reset_datapath_allocs();

/// Called by the operator-new override for every allocation.
void note_allocation(std::size_t size) noexcept;

#ifdef SPEEDLIGHT_CHECK_DETERMINISM
namespace internal {
// Thread-local depths; plain ints so the override can consult them before
// any dynamic initialization runs.
extern thread_local int datapath_depth;
extern thread_local int allow_depth;
}  // namespace internal
#endif

/// RAII marker: the enclosed extent is per-packet data-path code and must
/// not allocate.
class DataPathScope {
 public:
#ifdef SPEEDLIGHT_CHECK_DETERMINISM
  DataPathScope() noexcept { ++internal::datapath_depth; }
  ~DataPathScope() { --internal::datapath_depth; }
#else
  // User-provided (not defaulted) so guard variables don't trip
  // -Wunused-variable in release builds.
  DataPathScope() noexcept {}  // NOLINT(modernize-use-equals-default)
#endif
  DataPathScope(const DataPathScope&) = delete;
  DataPathScope& operator=(const DataPathScope&) = delete;
};

/// RAII exemption: the enclosed allocation is amortized infrastructure
/// (slab/pool growth) or audit instrumentation, not per-packet work. Every
/// use site must say which in a comment.
class DetAllow {
 public:
#ifdef SPEEDLIGHT_CHECK_DETERMINISM
  DetAllow() noexcept { ++internal::allow_depth; }
  ~DetAllow() { --internal::allow_depth; }
#else
  // User-provided for the same -Wunused-variable reason as DataPathScope.
  DetAllow() noexcept {}  // NOLINT(modernize-use-equals-default)
#endif
  DetAllow(const DetAllow&) = delete;
  DetAllow& operator=(const DetAllow&) = delete;
};

// ---------------------------------------------------------------------------
// Tie-break auditing.
// ---------------------------------------------------------------------------

/// Collects same-timestamp event cohorts and fingerprints the pairs that
/// touched a common scope. Installation is per thread (the pointer is
/// thread-local): one auditor audits the thread it was installed on,
/// which is the whole simulation of every Network that thread runs.
/// install() also resets the statistics.
class Auditor {
 public:
  Auditor() = default;
  ~Auditor();
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Route event hooks to this auditor (replacing any previous one) and
  /// reset all statistics.
  void install();
  /// Stop auditing; flushes the pending cohort into the fingerprint.
  void uninstall();

  void begin_event(SimTime time, std::uint64_t seq);
  void touch(std::uint64_t scope);
  void end_event();

  /// Order-sensitive fold over every (time, scope, seq_a, seq_b) tie pair.
  /// Equal across twin runs of one seed unless a tie-break race exists.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  /// Same-timestamp pairs that touched a common scope. Nonzero is normal
  /// (fixed fabric delays produce legitimate ties); what must hold is that
  /// the *set* of pairs — the fingerprint — is reproducible.
  [[nodiscard]] std::uint64_t tie_pairs() const { return tie_pairs_; }
  [[nodiscard]] std::uint64_t events_seen() const { return events_seen_; }
  [[nodiscard]] std::uint64_t scope_touches() const { return scope_touches_; }

 private:
  struct EventRec {
    std::uint64_t seq = 0;
    std::size_t scopes_begin = 0;
    std::size_t scopes_end = 0;
  };

  void flush_cohort();

  SimTime cohort_time_ = 0;
  bool in_event_ = false;
  std::vector<EventRec> cohort_;
  std::vector<std::uint64_t> scopes_;  ///< Backing store for cohort ranges.
  std::uint64_t fingerprint_ = 14695981039346656037ull;  // FNV offset basis
  std::uint64_t tie_pairs_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t scope_touches_ = 0;
};

#ifdef SPEEDLIGHT_CHECK_DETERMINISM
namespace internal {
extern thread_local Auditor* current_auditor;
}  // namespace internal
#endif

/// The installed auditor, or nullptr (also nullptr when compiled out).
[[nodiscard]] inline Auditor* current_auditor() noexcept {
#ifdef SPEEDLIGHT_CHECK_DETERMINISM
  return internal::current_auditor;
#else
  return nullptr;
#endif
}

/// Mark the active event as touching `scope` (a packed processing-unit id).
/// Called from the per-packet path: a no-op unless the detector is compiled
/// in AND an auditor is installed.
inline void touch_scope(std::uint64_t scope) {
#ifdef SPEEDLIGHT_CHECK_DETERMINISM
  if (Auditor* a = internal::current_auditor) a->touch(scope);
#else
  (void)scope;
#endif
}

/// RAII wrapper the simulator puts around each event callback.
class EventScope {
 public:
#ifdef SPEEDLIGHT_CHECK_DETERMINISM
  EventScope(SimTime time, std::uint64_t seq) noexcept {
    if (Auditor* a = internal::current_auditor) {
      a->begin_event(time, seq);
      active_ = a;
    }
  }
  ~EventScope() {
    if (active_ != nullptr) active_->end_event();
  }

 private:
  Auditor* active_ = nullptr;
#else
  EventScope(SimTime time, std::uint64_t seq) noexcept {
    (void)time;
    (void)seq;
  }
#endif
 public:
  EventScope(const EventScope&) = delete;
  EventScope& operator=(const EventScope&) = delete;
};

}  // namespace speedlight::sim::det
