// The simulation driver: owns the event queue, the current virtual time,
// the master RNG from which every component forks its own stream, and the
// simulation-wide flight recorder (trace ring + metrics registry) every
// component reaches through its `sim::Simulator&`.
#pragma once

#include <cassert>
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

/// A place in the canonical (time, merge key 0, seq) event order, taken
/// with Simulator::reserve(). The default value lies before every event.
struct Reservation {
  SimTime time = std::numeric_limits<SimTime>::min();
  std::uint64_t seq = 0;
};

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

  /// Schedule `fn` after a relative delay. Negative delays clamp to now and
  /// count as clamped_schedules, same as a past-time at().
  template <typename F>
  void after(Duration delay, F&& fn) {
    if (delay < 0) {
      ++stats_.scheduled;
      ++stats_.clamped_schedules;
      queue_.schedule(now_, std::forward<F>(fn));
      return;
    }
    at(now_ + delay, std::forward<F>(fn));
  }

  /// at() with an explicit same-timestamp merge key (see
  /// EventQueue::schedule_keyed). Cross-node channels schedule deliveries
  /// with their channel id so equal-time interleaving at the destination is
  /// a property of the channel, not of scheduling order.
  template <typename F>
  void at_keyed(SimTime when, MergeKey key, F&& fn) {
    ++stats_.scheduled;
    if (when < now_) {
      ++stats_.clamped_schedules;
      when = now_;
    }
    queue_.schedule_keyed(when, key, std::forward<F>(fn));
  }

  /// Take the place in the (time, key 0, seq) order that at(`when`, ...)
  /// would take right now, without scheduling anything. An event that may
  /// turn out to be unneeded (a switch port's wake-up) is then scheduled
  /// there only when needed, and runs exactly where it would have run.
  [[nodiscard]] Reservation reserve(SimTime when) {
    assert(when >= now_ && "reservations cannot be in the past");
    return Reservation{when, queue_.reserve_seq()};
  }

  /// Schedule `fn` at a reserved place. Precondition: !passed(r), and `r`
  /// is used at most once.
  template <typename F>
  void at_reserved(const Reservation& r, F&& fn) {
    assert(!passed(r) && "the reserved place has already gone by");
    ++stats_.scheduled;
    queue_.schedule_reserved(r.time, 0, r.seq, std::forward<F>(fn));
  }

  /// Whether execution has gone past reservation `r`: an event scheduled
  /// there would already have run. Inside an event this compares with the
  /// running event's place (a reservation the running event took itself is
  /// still ahead); between runs everything at or before now() has run.
  [[nodiscard]] bool passed(const Reservation& r) const {
    if (r.time != now_) return r.time < now_;
    if (r.seq >= running_.seq_floor) return false;
    return running_.key != 0 || r.seq < running_.seq;
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
  /// The running event's place in the order, for passed(). `seq_floor` is
  /// the first sequence number handed out after it started.
  struct Running {
    MergeKey key = 0;
    std::uint64_t seq = 0;
    std::uint64_t seq_floor = 0;
  };
  /// Between runs: after everything, so every place up to now() has passed.
  static constexpr Running kBetweenRuns{
      std::numeric_limits<MergeKey>::max(),
      std::numeric_limits<std::uint64_t>::max(),
      std::numeric_limits<std::uint64_t>::max()};

  /// Pop the next event if it is due at or before `last` and run its
  /// callback in place; returns whether one ran. The one pop path shared by
  /// run_until() and step().
  bool run_next(SimTime last);

  EventQueue queue_;
  SimTime now_ = 0;
  SimTime booked_until_ = 0;  ///< The latest book() time.
  Running running_ = kBetweenRuns;
  Rng rng_;
  SimulatorStats stats_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
};

}  // namespace speedlight::sim
