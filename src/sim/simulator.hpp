// The simulation driver: owns the event queue, the current virtual time,
// the master RNG from which every component forks its own stream, and the
// simulation-wide flight recorder (trace ring + metrics registry) every
// component reaches through its `sim::Simulator&`.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/determinism.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace speedlight::sim {

/// Event accounting, exposed so harnesses can surface silent behaviours
/// (e.g. past-time schedules being clamped to now) in their output.
struct SimulatorStats {
  std::uint64_t scheduled = 0;          ///< at()/after() calls.
  std::uint64_t executed = 0;           ///< Callbacks run.
  /// Always 0: events cannot be cancelled. Kept only because the frozen
  /// repository benchmark (perfbench/) reads it.
  std::uint64_t cancelled = 0;
  std::uint64_t clamped_schedules = 0;  ///< Past timestamps clamped to now.
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {
    // The simulator's own accounting joins the uniform metrics surface, so
    // a registry dump always includes the event-core counters.
    metrics_.register_reader("sim.events.scheduled", obs::MetricKind::Counter,
                             [this] { return stats_.scheduled; });
    metrics_.register_reader("sim.events.executed", obs::MetricKind::Counter,
                             [this] { return stats_.executed; });
    metrics_.register_reader("sim.events.clamped_schedules",
                             obs::MetricKind::Counter,
                             [this] { return stats_.clamped_schedules; });
    metrics_.register_reader("sim.events.pending", obs::MetricKind::Gauge,
                             [this] { return std::uint64_t{queue_.size()}; });
    metrics_.register_reader(
        "sim.events.peak_pending", obs::MetricKind::Gauge,
        [this] { return std::uint64_t{queue_.peak_size()}; });
    if constexpr (det::kEnabled) {
      // Determinism-audit surface (zero unless an auditor is installed /
      // a data-path scope ever allocated).
      metrics_.register_reader(
          "sim.determinism.datapath_allocs", obs::MetricKind::Counter,
          [] { return det::datapath_allocs(); });
      metrics_.register_reader(
          "sim.determinism.tie_pairs", obs::MetricKind::Counter, [] {
            const det::Auditor* a = det::current_auditor();
            return a != nullptr ? a->tie_pairs() : 0;
          });
    }
  }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Monotonically non-decreasing.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (clamped to now if in the past).
  /// The callable is constructed directly in its event slot.
  template <typename F>
  void at(SimTime when, F&& fn) {
    ++stats_.scheduled;
    if (when < now_) {
      ++stats_.clamped_schedules;
      when = now_;
    }
    queue_.schedule(when, std::forward<F>(fn));
  }

  /// Schedule `fn` after a relative delay. A negative delay is a past-time
  /// at(): it clamps to now and counts as clamped.
  template <typename F>
  void after(Duration delay, F&& fn) {
    at(now_ + delay, std::forward<F>(fn));
  }

  /// at() with an explicit same-timestamp merge key (see
  /// EventQueue::schedule_keyed). A channel (a link, an RPC path, a poll
  /// leg) stores its key and posts every delivery under it, so equal-time
  /// interleaving at the destination is a property of the channel, not of
  /// scheduling order. Key 0 is at()'s own place in the order.
  template <typename F>
  void at_keyed(SimTime when, MergeKey key, F&& fn) {
    ++stats_.scheduled;
    if (when < now_) {
      ++stats_.clamped_schedules;
      when = now_;
    }
    queue_.schedule_keyed(when, key, std::forward<F>(fn));
  }

  /// Note something that happens at `when` without an event of its own (a
  /// delivery a host books, net/host.hpp). A run that drains the queue then
  /// ends no earlier than `when`, as it would have after an event there.
  void book(SimTime when) {
    if (when > booked_until_) booked_until_ = when;
  }

  /// Run until the queue drains or virtual time would exceed `until`.
  /// Returns the number of events executed. With a horizon, now() ends at
  /// `until`; a drain ends at the last event or booking, whichever is later.
  std::size_t run_until(SimTime until = std::numeric_limits<SimTime>::max());

  /// Run exactly one event if available; returns whether one ran. A step
  /// that finds the queue empty advances now() to the last booking.
  bool step();

  /// Pending events.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Lifetime event accounting (scheduled/executed/clamped).
  [[nodiscard]] const SimulatorStats& stats() const { return stats_; }

  /// Read-only queue access (heap/slab introspection for benches).
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

  /// Master RNG; components should fork() their own streams.
  Rng& rng() { return rng_; }

  /// The simulation-wide flight recorder. Disabled (one predicted branch
  /// per record call) until a harness calls tracer().enable().
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return tracer_; }

  /// The unified metrics registry all components register into.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// Pop the next event if it is due at or before `last` and run its
  /// callback in place; returns whether one ran. The one pop path shared by
  /// run_until() and step().
  bool run_next(SimTime last);

  EventQueue queue_;
  SimTime now_ = 0;
  SimTime booked_until_ = 0;  ///< The latest book() time.
  Rng rng_;
  SimulatorStats stats_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
};

}  // namespace speedlight::sim
