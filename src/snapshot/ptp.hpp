// PTP-style clock synchronization service. The paper runs ptp4l/phc2sys on
// every switch CPU; here each managed clock is periodically re-aligned to
// within a sampled residual error, with a freshly sampled oscillator drift
// between corrections.
//
// Each clock gets its own correction loop and its own RNG stream (forked
// per managed clock, in manage order), so the draws a clock sees depend
// only on its own correction schedule — never on how many other clocks
// exist.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/clock.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"

namespace speedlight::snap {

class PtpService {
 public:
  PtpService(sim::Simulator& sim, const sim::TimingModel& timing, sim::Rng rng)
      : sim_(sim), timing_(timing), rng_(rng) {}

  PtpService(const PtpService&) = delete;
  PtpService& operator=(const PtpService&) = delete;

  /// Take over a clock: aligns it immediately and on every future round.
  void manage(sim::LocalClock* clock) {
    clocks_.push_back(std::make_unique<Managed>(
        Managed{clock, rng_.fork("clock" + std::to_string(clocks_.size()))}));
    Managed& m = *clocks_.back();
    m.clock->synchronize(sim_.now(), timing_.sample_ptp_residual(m.rng),
                         timing_.sample_drift_ppm(m.rng));
    if (running_) schedule_round(m);
  }

  /// Start the periodic correction loops (one per managed clock).
  void start() {
    if (running_) return;
    running_ = true;
    for (auto& m : clocks_) schedule_round(*m);
  }

 private:
  struct Managed {
    sim::LocalClock* clock;
    sim::Rng rng;
  };

  void schedule_round(Managed& m) {
    sim_.after(timing_.ptp_sync_interval, [this, &m]() {
      m.clock->synchronize(sim_.now(), timing_.sample_ptp_residual(m.rng),
                           timing_.sample_drift_ppm(m.rng));
      schedule_round(m);
    });
  }

  sim::Simulator& sim_;
  const sim::TimingModel& timing_;
  sim::Rng rng_;
  /// unique_ptr keeps each Managed at a stable address: the self-
  /// rescheduling correction events capture a reference to it.
  std::vector<std::unique_ptr<Managed>> clocks_;
  bool running_ = false;
};

}  // namespace speedlight::snap
