// Fault injection utilities: link flapping (alternating up/down periods).
// Used to exercise the snapshot protocol's liveness machinery under
// realistic failure patterns.
#pragma once

#include <cstdint>

#include "net/link.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace speedlight::net {

/// Alternates a link between up (the loss rate it had when the flapper was
/// built) and down (100% loss) with exponentially distributed period
/// lengths.
class LinkFlapper {
 public:
  LinkFlapper(sim::Simulator& sim, Link& link, sim::Duration up_mean,
              sim::Duration down_mean, sim::Rng rng)
      : sim_(sim),
        link_(link),
        up_mean_(static_cast<double>(up_mean)),
        down_mean_(static_cast<double>(down_mean)),
        rng_(rng),
        // The link may legitimately be lossy even when up. Captured here,
        // not at each go_down(): a second flapper on the same link would
        // otherwise save the first one's 100% and restore it for good.
        up_loss_(link.loss_probability()) {
    link_.mark_dynamic_loss();
  }

  LinkFlapper(const LinkFlapper&) = delete;
  LinkFlapper& operator=(const LinkFlapper&) = delete;

  /// Begin flapping at absolute time `at` (link starts up).
  void start(sim::SimTime at) {
    running_ = true;
    sim_.at(at, [this]() { go_down(); });
  }

  /// Stop injecting (the link is restored to up on the next transition).
  void stop() { running_ = false; }

  [[nodiscard]] std::uint64_t flaps() const { return flaps_; }
  [[nodiscard]] bool is_down() const { return down_; }

 private:
  void go_down() {
    if (!running_) return;
    down_ = true;
    ++flaps_;
    link_.set_loss_probability(1.0);
    sim_.after(static_cast<sim::Duration>(rng_.exponential(down_mean_)),
               [this]() { go_up(); });
  }
  void go_up() {
    down_ = false;
    link_.set_loss_probability(up_loss_);
    if (!running_) return;
    sim_.after(static_cast<sim::Duration>(rng_.exponential(up_mean_)),
               [this]() { go_down(); });
  }

  sim::Simulator& sim_;
  Link& link_;
  double up_mean_;
  double down_mean_;
  sim::Rng rng_;
  double up_loss_;  ///< Loss rate every go_up() restores.
  bool running_ = false;
  bool down_ = false;
  std::uint64_t flaps_ = 0;
};

}  // namespace speedlight::net
