#include "workload/flow.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace speedlight::wl {

namespace {

struct FlowState {
  sim::Simulator& sim;
  net::Host& src;
  FlowSpec spec;
  std::uint64_t remaining;
  sim::Duration gap;
  std::function<void()> on_done;
  std::uint32_t sent_in_window = 0;
};

// The pending event is the only owner of the flow state: each event moves
// it into the next, so the chain never touches the reference count, and
// when the chain finishes the state is released.
void send_next(std::shared_ptr<FlowState> st) {
  const auto size = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(st->remaining, st->spec.packet_size));
  st->src.send(st->spec.dst, st->spec.flow, size);
  st->remaining -= size;
  if (st->remaining == 0) {
    if (st->on_done) st->on_done();
    return;
  }
  sim::Duration gap = st->gap;
  if (st->spec.burst_packets > 0 &&
      ++st->sent_in_window >= st->spec.burst_packets) {
    st->sent_in_window = 0;
    gap += st->spec.burst_pause;
  }
  sim::Simulator& sim = st->sim;
  sim.after(gap, [st = std::move(st)]() mutable { send_next(std::move(st)); });
}

}  // namespace

void launch_flow(sim::Simulator& sim, net::Host& src, const FlowSpec& spec,
                 sim::SimTime start, std::function<void()> on_done) {
  if (spec.bytes == 0) {
    if (on_done) {
      sim.at(start, [cb = std::move(on_done)]() { cb(); });
    }
    return;
  }
  const double gap_ns =
      static_cast<double>(spec.packet_size) * 8.0 / spec.rate_bps * sim::kSecond;
  auto state = std::make_shared<FlowState>(
      FlowState{sim, src, spec, spec.bytes,
                std::max<sim::Duration>(1, static_cast<sim::Duration>(gap_ns)),
                std::move(on_done)});
  sim.at(start, [state = std::move(state)]() mutable {
    send_next(std::move(state));
  });
}

}  // namespace speedlight::wl
