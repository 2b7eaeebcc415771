#include "sim/simulator.hpp"

#include "sim/determinism.hpp"

namespace speedlight::sim {

void Simulator::run_next() {
  const EventQueue::Popped ev = queue_.pop();
  now_ = ev.time;
  running_ = Running{ev.key, ev.seq, queue_.next_seq()};
  det::EventScope audit(ev.time, ev.seq);
  ev.fn();
}  // `ev` recycles the slot once the callback has returned.

std::size_t Simulator::run_until(SimTime until) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    run_next();
    ++executed;
  }
  running_ = kBetweenRuns;
  stats_.executed += executed;
  // Even when nothing remains to execute, time advances to the horizon so
  // back-to-back run_until() calls behave like one continuous run.
  if (until != std::numeric_limits<SimTime>::max() && now_ < until) {
    now_ = until;
  }
  return executed;
}

std::size_t Simulator::run_before(SimTime horizon) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.next_time() < horizon) {
    run_next();
    ++executed;
  }
  running_ = kBetweenRuns;
  stats_.executed += executed;
  return executed;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  run_next();
  running_ = kBetweenRuns;
  ++stats_.executed;
  return true;
}

}  // namespace speedlight::sim
