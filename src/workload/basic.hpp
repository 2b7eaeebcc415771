// Elementary traffic generators: constant bit-rate and Poisson. Used
// directly in tests and composed by the application-level generators.
#pragma once

#include <cstdint>
#include <vector>

#include "net/host.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace speedlight::wl {

class Generator {
 public:
  virtual ~Generator() = default;
  /// Begin generating at absolute time `at`.
  virtual void start(sim::SimTime at) = 0;
  /// Stop after in-flight work drains (no new events are scheduled).
  void stop() { running_ = false; }
  [[nodiscard]] bool running() const { return running_; }

 protected:
  void mark_running() { running_ = true; }

 private:
  bool running_ = false;
};

/// Fixed-size packets at a fixed rate towards one destination.
class CbrGenerator final : public Generator {
 public:
  CbrGenerator(sim::Simulator& sim, net::Host& src, net::NodeId dst,
               net::FlowId flow, double rate_bps, std::uint32_t packet_size)
      : sim_(sim), src_(src), dst_(dst), flow_(flow),
        gap_(static_cast<sim::Duration>(static_cast<double>(packet_size) *
                                        8.0 / rate_bps * sim::kSecond)),
        packet_size_(packet_size) {}

  void start(sim::SimTime at) override {
    mark_running();
    sim_.at(at, [this]() { tick(); });
  }

 private:
  void tick() {
    if (!running()) return;
    src_.send(dst_, flow_, packet_size_);
    sim_.after(gap_, [this]() { tick(); });
  }

  sim::Simulator& sim_;
  net::Host& src_;
  net::NodeId dst_;
  net::FlowId flow_;
  sim::Duration gap_;
  std::uint32_t packet_size_;
};

/// Poisson arrivals, uniformly random destinations drawn from a set.
class PoissonGenerator final : public Generator {
 public:
  PoissonGenerator(sim::Simulator& sim, net::Host& src,
                   std::vector<net::NodeId> dsts, double mean_rate_pps,
                   std::uint32_t packet_size, sim::Rng rng)
      : sim_(sim), src_(src), dsts_(std::move(dsts)),
        mean_gap_ns_(1e9 / mean_rate_pps), packet_size_(packet_size),
        rng_(rng) {}

  void start(sim::SimTime at) override {
    mark_running();
    sim_.at(at, [this]() { tick(); });
  }

 private:
  void tick() {
    if (!running() || dsts_.empty()) return;
    const auto dst =
        dsts_[rng_.uniform_int(0, dsts_.size() - 1)];
    src_.send(dst, next_flow_++, packet_size_);
    sim_.after(static_cast<sim::Duration>(rng_.exponential(mean_gap_ns_)),
               [this]() { tick(); });
  }

  sim::Simulator& sim_;
  net::Host& src_;
  std::vector<net::NodeId> dsts_;
  double mean_gap_ns_;
  std::uint32_t packet_size_;
  sim::Rng rng_;
  net::FlowId next_flow_ = 1;
};

}  // namespace speedlight::wl
