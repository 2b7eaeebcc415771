#include "snapshot/notification_channel.hpp"

#include <algorithm>

namespace speedlight::snap {

void NotificationChannel::push(const Notification& n) {
  if (drop_at_random(n)) return;
  ++pending_;
  Frame f;
  f.len = wire_.encode(n, f.bytes.data());
  sim_.after(timing_.notification_pcie_latency, [this, f]() { arrive(f); });
}

void NotificationChannel::arrive(Frame f) {
  if (buffer_.size() >= timing_.notification_buffer_capacity) {
    --pending_;
    ++dropped_overflow_;
    // The drop record names the unit the lost frame carried.
    const auto n = wire_.decode({f.bytes.data(), f.len}, sim_.now());
    tracer_.instant(obs::Category::NotifChannel, obs::EventName::NotifDrop,
                    track_, sim_.now(), /*a0=*/0,
                    n ? obs::pack_unit(n->unit) : 0);
    return;
  }
  f.arrived = sim_.now();
  buffer_.push_back(f);
  max_backlog_ = std::max(max_backlog_, buffer_.size());
  if (!draining_) {
    draining_ = true;
    sim_.after(service_of(buffer_.front()), [this]() { drain(); });
  }
}

void NotificationChannel::drain() {
  // One notification finishes service now.
  if (!buffer_.empty()) {
    const Frame f = buffer_.front();
    buffer_.pop_front();
    --pending_;
    ++delivered_;
    const sim::SimTime now = sim_.now();
    const sim::Duration service = service_of(f);
    queue_delay_.record(static_cast<std::uint64_t>(now - f.arrived));
    // Decode against the socket arrival timestamp (the compact-timestamp
    // recovery reference; see snapshot/wire.hpp).
    const auto n = wire_.decode({f.bytes.data(), f.len}, f.arrived);
    // The span covers this notification's service slot.
    tracer_.complete(obs::Category::NotifChannel, obs::EventName::NotifService,
                     track_, now - service, service, n ? n->new_sid : 0,
                     n ? obs::pack_unit(n->unit) : 0);
    if (n) sink_(*n);
  }
  if (!buffer_.empty()) {
    sim_.after(service_of(buffer_.front()), [this]() { drain(); });
  } else {
    draining_ = false;
  }
}

}  // namespace speedlight::snap
