// Shard-aware profiler for the parallel engine (DESIGN.md section 13):
// every shard records one POD RoundRecord per planned window or stall into
// its own bounded ring — shard id, round, horizon, the *binding term* that
// capped the horizon (a peer clock pushed through the lookahead closure,
// the shard's own feedback cycle, or the run horizon `until`), the binding
// producer shard, events executed, and deliveries drained.
//
// The engine's aggregate counter (`horizon_stalls`) says *how much* the
// engine loses to synchronization; this module says *who takes it*: a
// merge pass renders one Perfetto track per shard (execute spans plus
// stall spans named by their binding constraint) through the existing
// chrome_trace exporter, and an offline CriticalPathReport folds the round
// log into a who-throttles-whom shard x shard blame matrix, the top
// binding channels, and a lower bound on achievable wall-clock (the
// critical-path event count).
//
// Design constraints, matching the rest of src/obs:
//  * recording never allocates — records are 64-byte PODs written into a
//    per-shard pre-sized ring, plus a handful of per-shard aggregate adds
//    (the aggregates make the blame matrix exact even when the ring
//    wraps);
//  * a disabled profiler costs one predictable branch at the engine call
//    site, and *nothing at all* when the trace layer is compiled out
//    (-DSPEEDLIGHT_TRACE_DISABLED / SPEEDLIGHT_TRACE=OFF): engine call
//    sites sit inside `#ifndef SPEEDLIGHT_TRACE_DISABLED` regions, a rule
//    tools/lint enforces (`unguarded-profiler`);
//  * analysis and export are cold paths run after the engine stops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace speedlight::obs {

class Tracer;

/// Which term of the horizon formula H_i = min(until + 1,
/// min_j(m_j + D[j][i]), m_i + C[i]) produced the recorded horizon.
enum class Binding : std::uint8_t {
  Until,      ///< The run horizon `until` (windows only; never stalls).
  Peer,       ///< A peer shard's clock/floor plus the closure D[j][i].
  SelfCycle,  ///< The shard's own cheapest feedback cycle m_i + C[i].
};

[[nodiscard]] const char* binding_name(Binding b);

/// One planning decision of the engine for one shard: either an executed
/// window ([m, horizon) ran `executed` events) or a stall (the horizon had
/// not passed the shard's next event, attributed to its binding term).
struct RoundRecord {
  sim::SimTime m = 0;          ///< Shard's next-event clock at planning time.
  sim::SimTime horizon = 0;    ///< H_i computed from the coherent snapshot.
  std::uint64_t round = 0;     ///< Lockstep sweep index.
  std::uint64_t executed = 0;  ///< Events run in this window (0 on a stall).
  std::uint64_t drained = 0;   ///< Cross-shard deliveries drained this round.
  std::uint32_t shard = 0;     ///< Recording shard.
  std::uint32_t binding_shard = 0;  ///< Producer shard when binding == Peer.
  /// Consecutive stall rounds this record stands for (ring-side
  /// coalescing: a shard waiting on the same pending event under the same
  /// binding replans every sweep; the retained record keeps the earliest
  /// horizon and counts the repeats). Always 1 for executed windows.
  std::uint32_t repeats = 1;
  Binding binding = Binding::Until;
  bool ran = false;  ///< Window executed (m < horizon) vs. stalled.
};
static_assert(sizeof(RoundRecord) <= 64, "round records must stay compact");

/// One shard's bounded round log plus exact aggregates. Written by the
/// engine while it runs; read after it stops.
class ShardProfiler {
 public:
  /// Pre-size the ring and the per-producer attribution arrays.
  void configure(std::uint32_t shard, std::size_t num_shards,
                 std::size_t capacity);

  /// Hot path: a few aggregate adds plus (usually) one ring write. Callers
  /// gate on EngineProfiler::enabled() — an unconfigured profiler must not
  /// be fed. Consecutive stalls of the same pending event under the same
  /// binding coalesce into the retained tail record (aggregates still
  /// count every round), keeping dense scenarios' ring traffic — and the
  /// profiling overhead — proportional to *episodes*, not sweeps.
  void record_round(const RoundRecord& r) {
    drained_ += r.drained;
    if (r.ran) {
      ++windows_;
      executed_ += r.executed;
      push(r);
      return;
    }
    ++stalls_;
    stall_rounds_by_producer_[r.binding_shard] += 1;
    // How far behind the binding bound sits: the sim-time gap the
    // producer must close before this shard's next event can run.
    stall_gap_by_producer_[r.binding_shard] +=
        static_cast<std::uint64_t>(r.m - r.horizon);
    if (r.binding == Binding::SelfCycle) ++self_stalls_;
    if (!ring_.empty()) {
      RoundRecord& tail = ring_[tail_index()];
      if (!tail.ran && tail.m == r.m && tail.binding == r.binding &&
          tail.binding_shard == r.binding_shard) {
        // Same stall episode: the producer only closes in, so the first
        // record already holds the widest (earliest) horizon.
        ++tail.repeats;
        tail.drained += r.drained;
        return;
      }
    }
    push(r);
  }

  [[nodiscard]] std::uint32_t shard() const { return shard_; }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }

  // --- Exact aggregates (independent of ring wrap) ---------------------------
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }
  [[nodiscard]] std::uint64_t self_stalls() const { return self_stalls_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::uint64_t drained() const { return drained_; }
  /// Stall rounds attributed to each producer shard (self index counts the
  /// SelfCycle stalls — i's own echo bound, not a peer).
  [[nodiscard]] const std::vector<std::uint64_t>& stalls_by_producer() const {
    return stall_rounds_by_producer_;
  }
  /// Sum of sim-time gaps (m - horizon) per binding producer.
  [[nodiscard]] const std::vector<std::uint64_t>& gap_by_producer() const {
    return stall_gap_by_producer_;
  }

  /// Visit retained records oldest-to-newest.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i) fn(ring_[(head_ + i) % n]);
  }

 private:
  /// Index of the newest retained record (ring_ must be non-empty).
  [[nodiscard]] std::size_t tail_index() const {
    if (ring_.size() < capacity_) return ring_.size() - 1;
    return head_ == 0 ? capacity_ - 1 : head_ - 1;
  }

  void push(const RoundRecord& r) {
    if (ring_.size() < capacity_) {
      ring_.push_back(r);
    } else {
      ring_[head_] = r;
      // Conditional wrap, not %: capacity is a runtime value, so the
      // modulo would be a real division on the hot path.
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
      ++overwritten_;
    }
  }

  std::uint32_t shard_ = 0;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::uint64_t overwritten_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t self_stalls_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t drained_ = 0;
  std::vector<RoundRecord> ring_;
  std::vector<std::uint64_t> stall_rounds_by_producer_;
  std::vector<std::uint64_t> stall_gap_by_producer_;
};

/// The engine-wide profiler: one ShardProfiler per shard plus the
/// cross-shard critical-path accumulator the lockstep sweep feeds. Enabled
/// once, before run_until.
class EngineProfiler {
 public:
  /// Default ring size per shard: 4096 records x 64 B = 256 KiB, small
  /// enough that steady-state overwrites stay cache-resident — a larger
  /// ring makes every push a cold miss and measurably slows dense
  /// scenarios (the aggregates keep the blame matrix exact regardless).
  static constexpr std::size_t kDefaultCapacity = 1 << 12;

  EngineProfiler() = default;
  EngineProfiler(const EngineProfiler&) = delete;
  EngineProfiler& operator=(const EngineProfiler&) = delete;

  /// Size one ring per shard and start recording. No-op (enabled() stays
  /// false) when the trace layer is compiled out.
  void enable(std::size_t num_shards,
              std::size_t capacity_per_shard = kDefaultCapacity);

  [[nodiscard]] bool enabled() const {
#ifdef SPEEDLIGHT_TRACE_DISABLED
    return false;
#else
    return enabled_;
#endif
  }
  /// False when the trace layer was compiled out entirely.
  [[nodiscard]] static constexpr bool compiled_in() {
#ifdef SPEEDLIGHT_TRACE_DISABLED
    return false;
#else
    return true;
#endif
  }

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] ShardProfiler& shard(std::size_t i) { return shards_[i]; }
  [[nodiscard]] const ShardProfiler& shard(std::size_t i) const {
    return shards_[i];
  }

  /// Called once per lockstep sweep with the largest per-shard executed
  /// count of that sweep. The sum over sweeps is an exact critical-path
  /// event count — no shard schedule can finish the run in fewer
  /// sequential events than its slowest shard per round.
  void note_inline_round(std::uint64_t max_executed) {
    crit_events_ += max_executed;
  }
  [[nodiscard]] std::uint64_t crit_events() const { return crit_events_; }

 private:
  bool enabled_ = false;
  std::uint64_t crit_events_ = 0;
  std::vector<ShardProfiler> shards_;
};

// --- Offline analysis --------------------------------------------------------

/// One (producer -> consumer) entry of the blame ranking.
struct BlameChannel {
  std::uint32_t from = 0;  ///< Binding producer shard.
  std::uint32_t to = 0;    ///< Stalled consumer shard.
  std::uint64_t stalls = 0;
  std::uint64_t gap_ns = 0;  ///< Sum of sim-time gaps (m - H) while bound.
};

/// The folded round log: who throttles whom, and how much intrinsic
/// serialism the window schedule exposed.
struct CriticalPathReport {
  std::size_t shards = 0;
  std::uint64_t windows = 0;
  std::uint64_t stalls = 0;
  std::uint64_t executed = 0;
  std::uint64_t drained = 0;
  /// Sum over sweeps of the busiest shard's events: a lower bound on the
  /// sequential event work any schedule must serialize (achievable
  /// wall-clock >= critical_path_events * per-event cost).
  std::uint64_t critical_path_events = 0;
  /// Row i, column j: rounds shard i stalled with shard j binding (the
  /// diagonal counts self-cycle stalls — i bound by its own echoes).
  std::vector<std::uint64_t> stall_matrix;
  /// Same shape; sum of sim-time gaps (m_i - H_i) in nanoseconds.
  std::vector<std::uint64_t> gap_matrix_ns;

  [[nodiscard]] std::uint64_t stall(std::size_t to, std::size_t from) const {
    return stall_matrix[to * shards + from];
  }
  /// Ideal-parallelism upper bound implied by the critical path.
  [[nodiscard]] double parallelism_bound() const {
    return critical_path_events == 0
               ? 0.0
               : static_cast<double>(executed) /
                     static_cast<double>(critical_path_events);
  }
  /// Off-diagonal (producer -> consumer) pairs, most blamed first
  /// (by stall rounds, then gap), truncated to `k`.
  [[nodiscard]] std::vector<BlameChannel> top_channels(std::size_t k) const;

  /// Render as one JSON object, `indent` spaces deep (bench v2 "profile").
  void write_json(std::ostream& os, int indent = 2) const;
};

/// Fold the profiler's aggregates into a report. Call after run_until
/// returns.
[[nodiscard]] CriticalPathReport analyze(const EngineProfiler& prof);

// --- Trace export ------------------------------------------------------------

/// Base pid for the per-shard engine tracks in exported traces (far above
/// topology NodeIds, below the observer/poller/tap reserved pids).
inline constexpr std::uint32_t kEngineShardPidBase = 0xFFF00000u;

/// Merge pass: render shard `i`'s round log into `out` as one process
/// ("engine/shard<i>") with an execute lane (eng.window spans) and a wait
/// lane (stall spans named by binding constraint, so Perfetto colors them
/// per constraint). Consecutive stalls of the same pending event under the
/// same binding coalesce into one span covering [horizon, m] — the
/// sim-time the binding producer still had to close.
void fill_profile_tracer(const ShardProfiler& prof, Tracer& out);

/// Export every shard's round log as Chrome trace-event JSON through the
/// existing chrome_trace exporter (records merged deterministically by
/// (time, shard)). Returns false on I/O failure.
bool export_profile_chrome_trace(const std::string& path,
                                 const EngineProfiler& prof);

}  // namespace speedlight::obs
