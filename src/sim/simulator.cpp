#include "sim/simulator.hpp"

#include <limits>
#include <optional>

#include "sim/determinism.hpp"

namespace speedlight::sim {

bool Simulator::run_next(SimTime last) {
  const std::optional<EventQueue::Popped> ev = queue_.pop_until(last);
  if (!ev) return false;
  now_ = ev->time;
  running_ = Running{ev->key, ev->seq, queue_.next_seq()};
  det::EventScope audit(ev->time, ev->seq);
  ev->fn();
  return true;
}  // `ev` recycles the slot once the callback has returned.

std::size_t Simulator::run_until(SimTime until) {
  std::size_t executed = 0;
  while (run_next(until)) ++executed;
  running_ = kBetweenRuns;
  stats_.executed += executed;
  // Even when nothing remains to execute, time advances to the horizon so
  // back-to-back run_until() calls behave like one continuous run. A drain
  // has no horizon and ends where the last event or booking happened.
  const SimTime end =
      until != std::numeric_limits<SimTime>::max() ? until : booked_until_;
  if (now_ < end) now_ = end;
  return executed;
}

bool Simulator::step() {
  if (!run_next(std::numeric_limits<SimTime>::max())) {
    if (now_ < booked_until_) now_ = booked_until_;
    return false;
  }
  running_ = kBetweenRuns;
  ++stats_.executed;
  return true;
}

}  // namespace speedlight::sim
