// Conservative parallel discrete-event engine.
//
// The topology is partitioned into shards (net/partition.hpp keeps a switch
// and its ports together); each shard owns a full Simulator (event queue,
// clock, RNG streams, flight recorder) plus a SimContext (packet pool). The
// engine advances shards in *windows* derived from link-latency lookahead —
// the classic conservative-synchronization argument, generalized from one
// global window to an asymmetric per-shard-pair lookahead matrix:
//
//   Let L[j][i] = min latency advertised by the channel j -> i (SimTime max
//   when the channel does not exist), and D = the min-plus closure of L
//   (all-pairs shortest path), so D[j][i] bounds the delay of *any* causal
//   chain that starts at shard j and ends with a delivery into shard i —
//   including multi-hop cascades through intermediate shards. With every
//   shard j's earliest possible future activity bounded below by a clock
//   m_j, every event with timestamp strictly before
//
//       H_i := min(until + 1,
//                  min over j != i of m_j + D[j][i],
//                  m_i + C[i])
//
//   is already in shard i's queue and can run without further coordination.
//   C[i] := min over j != i of D[i][j] + D[j][i] is the cheapest feedback
//   cycle through i: shard i's own execution from m_i onward emits messages
//   that can cascade back into i, and nothing i does at or after m_i can
//   return before m_i + C[i] — without this term a shard facing only idle
//   (or far-future) peers would run unboundedly ahead of its own echoes.
//   The closure is what makes per-pair horizons sound: a cheap channel
//   k -> j followed by a cheap channel j -> i can undercut an expensive
//   direct channel k -> i, and D accounts for exactly that. Shards with
//   slack (large m_j) let their neighbours run far ahead; only genuinely
//   coupled shards synchronize tightly.
//
// The engine advances all shards on the calling thread in lockstep sweeps:
// drain every channel, publish every m_i, compute every H_i from the same
// coherent snapshot, run every shard to its own horizon. Channels are
// drained once per sweep (batched windows), never per event, and are empty
// whenever horizons are computed, so the published m's alone bound all
// future traffic.
//
// Determinism: execution order within a shard is (time, merge key, seq) —
// the same canonical order the serial engine uses — and cross-shard
// messages carry their channel's intrinsic key, so the same-timestamp merge
// order at any destination is independent of how many shards exist or how
// events were batched into windows. A sharded run is digest-identical to
// the serial run of the same scenario (verified by speedlight_fuzz --digest
// --shards N; see DESIGN.md section 12 for the full argument).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/sim_context.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace speedlight::obs {
class EngineProfiler;
}  // namespace speedlight::obs

namespace speedlight::sim {

/// A cross-shard delivery: run `fn` on the destination shard at `time`,
/// merged into that shard's queue under the channel's `key`.
struct ShardMessage {
  SimTime time = 0;
  MergeKey key = 0;
  InplaceCallback fn;
};

/// One direction of cross-shard traffic between a fixed (producer shard,
/// consumer shard) pair: a plain FIFO the engine drains once per sweep. All
/// links and RPC paths from shard A to shard B share the channel; each
/// message still carries its own merge key. The channel also advertises the
/// minimum latency of the edges it multiplexes (trunk propagation, RPC
/// floors) — the engine's lookahead matrix entry.
class ShardChannel {
 public:
  ShardChannel() = default;
  // Endpoints hold the channel's address.
  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  /// Queue a delivery; drain order is post order.
  void post(SimTime time, MergeKey key, InplaceCallback fn);

  /// Move every queued message into `sim`'s queue, in FIFO post order, and
  /// empty the channel. Returns the number of messages drained.
  std::size_t drain_into(Simulator& sim);

  /// Advertise a minimum latency for an edge multiplexed onto this channel;
  /// the channel's lookahead is the minimum over all advertisements.
  /// Latency must be positive — zero-latency edges must be co-sharded.
  void note_latency(Duration latency) {
    assert(latency > 0 && "zero-latency edges must not cross shards");
    if (latency < latency_) latency_ = latency;
  }
  /// Min advertised latency (SimTime max when never advertised).
  [[nodiscard]] Duration latency() const { return latency_; }

  /// Lifetime count of posted messages.
  [[nodiscard]] std::uint64_t posted() const { return posted_; }

 private:
  std::vector<ShardMessage> pending_;
  Duration latency_ = std::numeric_limits<SimTime>::max();
  std::uint64_t posted_ = 0;
};

/// A keyed posting handle to a fixed destination shard: local (straight
/// into the destination's queue) or remote (through a ShardChannel).
/// Cheap value type wired during topology construction; components post
/// through it without knowing whether the peer shares their shard. A
/// default-constructed Endpoint is unwired — callers treat that as "use
/// the legacy local path" so standalone component tests are unaffected.
class Endpoint {
 public:
  Endpoint() = default;

  [[nodiscard]] static Endpoint local(Simulator& sim, MergeKey key) {
    Endpoint e;
    e.sim_ = &sim;
    e.key_ = key;
    return e;
  }

  [[nodiscard]] static Endpoint remote(ShardChannel& ch, MergeKey key) {
    Endpoint e;
    e.ch_ = &ch;
    e.key_ = key;
    return e;
  }

  [[nodiscard]] bool wired() const { return sim_ != nullptr || ch_ != nullptr; }
  [[nodiscard]] MergeKey key() const { return key_; }

  /// Schedule `fn` at absolute time `when` on the destination shard. A
  /// local post builds the callable directly in its event slot.
  template <typename F>
  void post(SimTime when, F&& fn) {
    if (sim_ != nullptr) {
      sim_->at_keyed(when, key_, std::forward<F>(fn));
    } else {
      assert(ch_ != nullptr && "posting through an unwired Endpoint");
      ch_->post(when, key_, std::forward<F>(fn));
    }
  }

 private:
  Simulator* sim_ = nullptr;
  ShardChannel* ch_ = nullptr;
  MergeKey key_ = 0;
};

/// Per-shard engine accounting. `executed`, `windows`, `window_span_sum`
/// and `horizon_stalls` cover the most recent run_until() call; `posted` is
/// an engine-lifetime channel total (runs are almost always one-shot).
struct ShardRunStats {
  std::uint64_t executed = 0;  ///< Events run on this shard.
  std::uint64_t posted = 0;    ///< Cross-shard messages sent.
  /// Execution windows this shard actually ran (had an event before its
  /// horizon) and the total simulated width `horizon - first_event` of
  /// those windows — avg_window_span = window_span_sum / windows.
  std::uint64_t windows = 0;
  std::uint64_t window_span_sum = 0;
  /// Times this shard had a pending event within the run but its pairwise
  /// horizon forbade running it (another shard's clock was binding).
  std::uint64_t horizon_stalls = 0;
  /// horizon_stalls attributed to the producer shard whose clock was the
  /// binding constraint (size = shard count; self-index unused).
  std::vector<std::uint64_t> stalls_by_producer;
};

struct EngineRunStats {
  /// Lockstep sweeps; fully deterministic for a given scenario.
  std::uint64_t rounds = 0;
  std::uint64_t executed = 0;  ///< Total events across shards.
  std::vector<ShardRunStats> shards;

  /// Sync granularity: rounds per 1000 executed events (0 when idle).
  [[nodiscard]] double rounds_per_1k_events() const {
    return executed == 0 ? 0.0
                         : 1000.0 * static_cast<double>(rounds) /
                               static_cast<double>(executed);
  }
  /// Mean simulated width of an execution window, over all shards.
  [[nodiscard]] double avg_window_span() const {
    std::uint64_t w = 0;
    std::uint64_t span = 0;
    for (const ShardRunStats& s : shards) {
      w += s.windows;
      span += s.window_span_sum;
    }
    return w == 0 ? 0.0
                  : static_cast<double>(span) / static_cast<double>(w);
  }
  /// Total horizon stalls across shards.
  [[nodiscard]] std::uint64_t horizon_stalls() const {
    std::uint64_t n = 0;
    for (const ShardRunStats& s : shards) n += s.horizon_stalls;
    return n;
  }
};

class ParallelEngine {
 public:
  /// `shards[i]` must outlive the engine. Shard count is fixed for life.
  explicit ParallelEngine(std::vector<Simulator*> shards);

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;
  ~ParallelEngine();

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }

  /// The channel carrying messages from shard `from` to shard `to`,
  /// created on first use.
  ShardChannel& channel(std::size_t from, std::size_t to);

  /// Advertise the min latency of one cross-shard edge on its own channel
  /// (creating the channel if needed) — one entry of the asymmetric
  /// lookahead matrix. The builder registers every cross-shard trunk and
  /// RPC path here; the matrix closure is recomputed lazily at run_until.
  void note_channel_latency(std::size_t from, std::size_t to,
                            Duration latency) {
    channel(from, to).note_latency(latency);
    closure_dirty_ = true;
  }

  /// The tightest single-hop lookahead over all channels. Sizing hint only
  /// — horizons use the full pairwise closure, not this scalar.
  [[nodiscard]] Duration lookahead() const;

  /// Run every shard up to and including `until` (same contract as
  /// Simulator::run_until, including leaving now() == until on every shard
  /// when `until` is finite). Returns total events executed.
  std::size_t run_until(SimTime until);

  /// Accounting for the most recent run_until() call.
  [[nodiscard]] const EngineRunStats& last_run() const { return last_run_; }

  /// Allocate the per-shard round profiler (obs/prof.hpp) and start
  /// recording: one RoundRecord per planned window or stall, per shard.
  /// Call before run_until; records accumulate across runs (call again to
  /// reset). No-op when the trace layer is compiled out (profiler() stays
  /// null), so run_until's hot loops stay untouched.
  /// `capacity_per_shard == 0` means EngineProfiler::kDefaultCapacity.
  void enable_profiling(std::size_t capacity_per_shard = 0);

  /// The round profiler, or nullptr when profiling was never enabled (or
  /// the trace layer is compiled out). Read after run_until returns.
  [[nodiscard]] const obs::EngineProfiler* profiler() const {
    return prof_.get();
  }

 private:
  /// Lockstep sweeps until nothing is left at or before `until`.
  void run_sweeps(SimTime until);
  /// Drain every channel inbound to shard `i`, in producer-index order.
  /// Returns the number of messages moved into the shard's queue.
  std::size_t drain_incoming(std::size_t i);
  /// Recompute the min-plus closure of the channel latency matrix.
  void refresh_closure();
  /// D[from * n + to] after refresh_closure().
  [[nodiscard]] SimTime closure(std::size_t from, std::size_t to) const {
    return closure_[from * shards_.size() + to];
  }

  std::vector<Simulator*> shards_;
  /// Dense [from * n + to] channel matrix; entries created on demand.
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  /// Per-destination drain lists (channel pointers in producer order).
  std::vector<std::vector<ShardChannel*>> incoming_;
  /// Min-plus closure of per-channel latencies (SimTime max = unreachable).
  std::vector<SimTime> closure_;
  /// C[i]: cheapest feedback cycle through shard i (min over j != i of
  /// D[i][j] + D[j][i]); SimTime max when nothing i emits can return.
  std::vector<SimTime> cycle_;
  bool closure_dirty_ = true;
  std::vector<std::unique_ptr<SimContext>> contexts_;
  EngineRunStats last_run_;
  /// Round profiler; null until enable_profiling.
  std::unique_ptr<obs::EngineProfiler> prof_;
};

}  // namespace speedlight::sim
