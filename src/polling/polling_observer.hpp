// The traditional counter-polling framework Speedlight is compared against
// (Section 8.1): "an observer polls the statistic for each port
// individually via a control plane agent that reads and returns the value
// on-demand." Polls are sequential; each costs a sampled round-trip, so a
// full network sweep spans milliseconds — the asynchronicity the paper's
// Figures 9, 12 and 13 quantify.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/types.hpp"
#include "sim/endpoint.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/unit_handle.hpp"

namespace speedlight::poll {

struct PollSample {
  net::UnitId unit;
  std::uint64_t value = 0;
  sim::SimTime time = 0;  ///< True time the value was read.
};

struct PollSweep {
  std::vector<PollSample> samples;
  sim::SimTime started = 0;  ///< True time the sweep began.

  /// First-to-last read time: the sweep's intrinsic asynchronicity.
  [[nodiscard]] sim::Duration span() const {
    if (samples.empty()) return 0;
    sim::SimTime lo = samples.front().time;
    sim::SimTime hi = samples.front().time;
    for (const auto& s : samples) {
      lo = s.time < lo ? s.time : lo;
      hi = s.time > hi ? s.time : hi;
    }
    return hi - lo;
  }
};

class PollingObserver {
 public:
  PollingObserver(sim::Simulator& sim, const sim::TimingModel& timing,
                  sim::Rng rng)
      : sim_(sim), timing_(timing), rng_(rng) {
    auto& reg = sim_.metrics();
    reg.register_reader("polling.sweeps", obs::MetricKind::Counter,
                        [this] { return sweeps_; });
    reg.register_reader("polling.samples", obs::MetricKind::Counter,
                        [this] { return samples_; });
    sweep_span_ = &reg.histogram("polling.sweep_span_ns");
  }

  PollingObserver(const PollingObserver&) = delete;
  PollingObserver& operator=(const PollingObserver&) = delete;

  /// Modelled floor of each leg of a poll round-trip: no request reaches
  /// the switch agent, and no response returns to the poller, faster than
  /// this. Sampled RTTs on wired units are clamped to at least twice this.
  static constexpr sim::Duration kMinPollHop = sim::usec(1);

  /// Add a unit to the poll schedule (sweeps read units in add order).
  /// `read` posts the register read at the unit; `record` posts the
  /// response back at the poller. Unwired endpoints (the default) poll as
  /// one unkeyed local event, where the read happens at the end of the
  /// round-trip. Wired endpoints split the RTT: read at the unit at
  /// t + rtt/2, record at the poller at t + rtt — the mid-flight read is
  /// what a real agent responding at the far end does.
  void add_unit(snap::UnitHandle* unit, sim::Endpoint read = {},
                sim::Endpoint record = {}) {
    units_.push_back(PolledUnit{unit, read, record});
  }

  [[nodiscard]] std::size_t num_units() const { return units_.size(); }

  /// Start a sweep at absolute time `when`; invokes `done` with the
  /// completed sweep. Multiple sweeps may be scheduled; each runs
  /// independently.
  void sweep_at(sim::SimTime when, std::function<void(PollSweep)> done);

 private:
  void poll_next(std::shared_ptr<PollSweep> sweep, std::size_t index,
                 std::shared_ptr<std::function<void(PollSweep)>> done);

  struct PolledUnit {
    snap::UnitHandle* unit;
    sim::Endpoint read;    ///< Poller -> unit request leg.
    sim::Endpoint record;  ///< Unit -> poller response leg.
  };

  sim::Simulator& sim_;
  const sim::TimingModel& timing_;
  sim::Rng rng_;
  std::vector<PolledUnit> units_;
  std::uint64_t sweeps_ = 0;
  std::uint64_t samples_ = 0;
  obs::Histogram* sweep_span_ = nullptr;  // registry-owned
};

}  // namespace speedlight::poll
