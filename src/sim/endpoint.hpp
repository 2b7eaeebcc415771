// Keyed posting handles.
//
// Cross-component deliveries (link arrivals, observer RPCs, poll legs) are
// scheduled under an intrinsic merge key handed out by the topology builder
// in construction order, so the same-timestamp order at the destination is
// a property of the channel, not of which component happened to schedule
// first (DESIGN.md section 8).
#pragma once

#include <cassert>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace speedlight::sim {

/// A keyed posting handle to a fixed simulator. Cheap value type wired
/// during topology construction. Components default to key 0 on their own
/// simulator, which is exactly Simulator::at()'s place in the (time, key,
/// seq) order, so standalone component tests keep their plain schedule
/// order. A default-constructed Endpoint is unwired and must not post.
class Endpoint {
 public:
  Endpoint() = default;

  [[nodiscard]] static Endpoint local(Simulator& sim, MergeKey key) {
    Endpoint e;
    e.sim_ = &sim;
    e.key_ = key;
    return e;
  }

  [[nodiscard]] bool wired() const { return sim_ != nullptr; }
  [[nodiscard]] MergeKey key() const { return key_; }

  /// Schedule `fn` at absolute time `when` under this endpoint's key. The
  /// callable is built directly in its event slot.
  template <typename F>
  void post(SimTime when, F&& fn) {
    assert(sim_ != nullptr && "posting through an unwired Endpoint");
    sim_->at_keyed(when, key_, std::forward<F>(fn));
  }

 private:
  Simulator* sim_ = nullptr;
  MergeKey key_ = 0;
};

}  // namespace speedlight::sim
