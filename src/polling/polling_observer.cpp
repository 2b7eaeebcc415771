#include "polling/polling_observer.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace speedlight::poll {

void PollingObserver::sweep_at(sim::SimTime when,
                               std::function<void(PollSweep)> done) {
  auto sweep = std::make_shared<PollSweep>();
  sweep->samples.reserve(units_.size());
  auto cb = std::make_shared<std::function<void(PollSweep)>>(std::move(done));
  sim_.at(when, [this, sweep, cb]() {
    sweep->started = sim_.now();
    poll_next(sweep, 0, cb);
  });
}

void PollingObserver::poll_next(
    std::shared_ptr<PollSweep> sweep, std::size_t index,
    std::shared_ptr<std::function<void(PollSweep)>> done) {
  if (index >= units_.size()) {
    ++sweeps_;
    if (sweep_span_) sweep_span_->record(sweep->span());
    sim_.tracer().complete(obs::Category::Observer, obs::EventName::PollSweep,
                           obs::poller_track(), sweep->started,
                           sim_.now() - sweep->started,
                           sweep->samples.size());
    if (*done) (*done)(std::move(*sweep));
    return;
  }
  PolledUnit& pu = units_[index];
  // The round-trip is split at the agent. The read executes at the unit
  // mid-flight, the sample is recorded back at the poller a half-RTT later.
  // Each leg takes at least the modelled floor kMinPollHop; the clamp is far
  // below the sampled latency's support, so the distribution is effectively
  // unchanged.
  const sim::Duration rtt =
      std::max(timing_.sample_poll_latency(rng_), 2 * kMinPollHop);
  const sim::SimTime t_read = sim_.now() + rtt / 2;
  const sim::SimTime t_record = sim_.now() + rtt;
  pu.read.post(t_read, [this, sweep, index, done, t_read, t_record]() {
    // At the unit; units_ is construction-time constant.
    PolledUnit& u = units_[index];
    const std::uint64_t value = u.unit->read_live_counter();
    const sim::SimTime read_at = t_read;
    u.record.post(t_record, [this, sweep, index, done, value, read_at]() {
      // Back at the poller.
      PolledUnit& pu2 = units_[index];
      sweep->samples.push_back({pu2.unit->unit_id(), value, read_at});
      ++samples_;
      sim_.tracer().instant(obs::Category::Observer, obs::EventName::PollRead,
                            obs::poller_track(), read_at,
                            obs::pack_unit(pu2.unit->unit_id()), value);
      poll_next(sweep, index + 1, done);
    });
  });
}

}  // namespace speedlight::poll
