#include "snapshot/digest_channel.hpp"

#include <algorithm>
#include <utility>

#include "sim/determinism.hpp"

namespace speedlight::snap {

std::size_t DigestChannel::backlog() const {
  std::size_t total = accumulating_.size();
  for (const auto& d : cpu_queue_) total += d.size();
  return total;
}

sim::Duration DigestChannel::cost_of(const Digest& digest) const {
  sim::Duration cost = timing_.digest_batch_overhead;
  for (const auto& e : digest) {
    cost += wire_.service(timing_.digest_per_entry_cost, e.len);
  }
  return cost;
}

void DigestChannel::push(const Notification& n) {
  if (drop_at_random(n)) return;
  if (accumulating_.size() == accumulating_.capacity()) {
    // Amortized warm-up: the digest buffer grows to one batch once and is
    // then recycled through drain(), so steady-state pushes never allocate.
    sim::det::DetAllow allow;
    accumulating_.reserve(std::max<std::size_t>(
        accumulating_.capacity() * 2, timing_.digest_batch_size));
  }
  // Round-trip through the wire codec so what the control plane sees is
  // what the bytes carry (the digest stream batches frames that were
  // already stamped on accumulation, so recovery reference = now).
  std::uint8_t frame[kMaxNotificationFrameBytes];
  Entry e;
  e.len = wire_.encode(n, frame);
  const auto decoded = wire_.decode({frame, e.len}, sim_.now());
  if (!decoded) return;
  e.n = *decoded;
  accumulating_.push_back(e);
  ++pending_;
  max_backlog_ = std::max(max_backlog_, backlog());
  if (accumulating_.size() >= timing_.digest_batch_size) {
    flush();
  } else if (!flush_armed_) {
    flush_armed_ = true;
    sim_.after(timing_.digest_flush_timeout, [this, epoch = flush_epoch_]() {
      if (epoch == flush_epoch_) flush();
    });
  }
}

void DigestChannel::flush() {
  ++flush_epoch_;
  flush_armed_ = false;
  if (accumulating_.empty()) return;
  ++digests_;
  digest_batch_.record(accumulating_.size());
  Digest digest = std::move(accumulating_);
  accumulating_ = std::move(spare_);  // recycled storage keeps its capacity
  accumulating_.clear();
  sim_.after(timing_.notification_pcie_latency,
             [this, digest = std::move(digest)]() mutable {
               // Bounded digest queue at the driver.
               if (cpu_queue_.size() >= timing_.digest_queue_capacity) {
                 pending_ -= digest.size();
                 dropped_overflow_ += digest.size();
                 // One overflow instant per lost digest; a1 carries how
                 // many notifications went down with it.
                 tracer_.instant(obs::Category::NotifChannel,
                                 obs::EventName::NotifDrop, track_, sim_.now(),
                                 /*a0=*/0, digest.size());
                 return;
               }
               cpu_queue_.push_back(std::move(digest));
               max_backlog_ = std::max(max_backlog_, backlog());
               if (!draining_) {
                 draining_ = true;
                 sim_.after(cost_of(cpu_queue_.back()), [this]() { drain(); });
               }
             });
}

void DigestChannel::drain() {
  if (!cpu_queue_.empty()) {
    Digest digest = std::move(cpu_queue_.front());
    cpu_queue_.pop_front();
    pending_ -= digest.size();
    delivered_ += digest.size();
    // One span per serviced digest, covering its driver processing cost.
    const auto cost = cost_of(digest);
    tracer_.complete(obs::Category::NotifChannel, obs::EventName::NotifService,
                     track_, sim_.now() - cost, cost,
                     digest.empty() ? 0 : digest.front().n.new_sid,
                     digest.size());
    for (const auto& e : digest) sink_(e.n);
    if (digest.capacity() > spare_.capacity()) {
      digest.clear();
      spare_ = std::move(digest);
    }
  }
  if (!cpu_queue_.empty()) {
    sim_.after(cost_of(cpu_queue_.front()), [this]() { drain(); });
  } else {
    draining_ = false;
  }
}

}  // namespace speedlight::snap
