// Per-shard simulation context.
//
// The event core used to have one simulator per thread, so cross-cutting
// state — notably the packet pool freelist — lived in thread-local
// singletons reached from anywhere. The parallel engine (sim/parallel.hpp)
// multiplexes several shards onto one thread, so "per thread" is no longer
// the right ownership: each shard needs its own pool and counters. SimContext
// is that explicit home. Exactly one context is active per thread at a
// time; the engine installs a shard's context (Scoped) around every slice
// of that shard's execution, and threads that never install one (the serial
// simulator, unit tests) get a lazily created thread-local default,
// preserving the old behaviour.
//
// State lives in type-erased per-context slots so lower layers stay
// dependency-clean: net::PacketPool registers itself from src/net without
// src/sim ever naming it.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>

namespace speedlight::sim {

class SimContext {
 public:
  SimContext() noexcept = default;
  ~SimContext();

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  /// The calling thread's active context (the shard context installed by
  /// the engine, or this thread's default context).
  [[nodiscard]] static SimContext& current() noexcept;

  /// Per-context singleton of T, created on first use. O(1): each T is
  /// assigned a process-wide slot index once; lookups are an array access.
  template <typename T>
  [[nodiscard]] T& get() {
    Slot& s = slots_[slot_index<T>()];
    if (s.obj == nullptr) {
      // Type-erased slot storage: one-time context setup, not per-event
      // work; destroyed via the captured deleter in ~SimContext.
      // speedlight-lint: allow(raw-new-delete, datapath-alloc) slot setup
      s.obj = new T();
      // speedlight-lint: allow(raw-new-delete) slot teardown pair
      s.destroy = [](void* p) { delete static_cast<T*>(p); };
    }
    return *static_cast<T*>(s.obj);
  }

  /// RAII installer: makes `ctx` the calling thread's current context for
  /// the enclosed extent, restoring the previous one on exit. The engine
  /// swaps one per shard slice.
  class Scoped {
   public:
    explicit Scoped(SimContext& ctx) noexcept;
    ~Scoped();
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    SimContext* prev_;
  };

 private:
  struct Slot {
    void* obj = nullptr;
    void (*destroy)(void*) = nullptr;
  };
  static constexpr std::size_t kMaxSlots = 8;

  template <typename T>
  [[nodiscard]] static std::size_t slot_index() noexcept {
    // Unique-id allocation: the value is the payload, nothing else is
    // published through it, so the RMW's atomicity alone suffices.
    static const std::size_t idx =
        next_slot_.fetch_add(1, std::memory_order_relaxed);
    assert(idx < kMaxSlots && "raise SimContext::kMaxSlots");
    return idx;
  }

  static std::atomic<std::size_t> next_slot_;
  std::array<Slot, kMaxSlots> slots_{};
};

}  // namespace speedlight::sim
