// A small-buffer-optimized, move-only callable for the event hot path.
//
// std::function heap-allocates any capture list larger than (typically) two
// pointers and requires copyability; every packet hop paid that allocation.
// InplaceFunction<R(Args...)> stores up to kInlineBytes of capture state
// inline, supports move-only captures (e.g. a PooledPacket handle), and
// falls back to a single heap allocation only for oversized callables — hot
// call sites static_assert fits_inline so the fallback can never silently
// reappear there. InplaceCallback is the nullary void specialization the
// event queue stores.
//
// speedlight-lint: allow-file(raw-new-delete) this IS the sanctioned
// allocator shim: placement-new into the inline buffer, plus the owned
// heap-fallback pair for oversized callables.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace speedlight::sim {

template <typename Signature>
class InplaceFunction;

template <typename R, typename... Args>
class InplaceFunction<R(Args...)> {
 public:
  /// Inline capture budget. Sized so `[this, PooledPacket, SimTime, ...]`
  /// hot-path lambdas fit with room to spare, while an event slot stays
  /// within a cache line pair.
  static constexpr std::size_t kInlineBytes = 64;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when `F` is stored inline (no heap allocation on construction).
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InplaceFunction() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InplaceFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InplaceFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  InplaceFunction(InplaceFunction&& other) noexcept { steal(other); }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Drop the stored callable (used by the event queue on cancellation).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Build `fn` directly in this empty function's storage. The event queue
  /// constructs each callback in its slab slot this way, so scheduling
  /// never relocates a temporary; an InplaceFunction rvalue is moved in.
  template <typename F>
  void emplace(F&& fn) {
    assert(ops_ == nullptr && "emplace into a non-empty function");
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, InplaceFunction>) {
      static_assert(std::is_rvalue_reference_v<F&&>,
                    "move an InplaceFunction in; it is not copyable");
      steal(fn);
    } else {
      static_assert(std::is_invocable_r_v<R, D&, Args...>);
      if constexpr (fits_inline<D>) {
        ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
        ops_ = &kInlineOps<D>;
      } else {
        ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
        ops_ = &kHeapOps<D>;
      }
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    /// Move-construct the callable into `dst` from `src`, destroying `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static D* as(void* p) noexcept {
    return std::launder(reinterpret_cast<D*>(p));
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p, Args&&... args) -> R {
        return (*as<D>(p))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*as<D>(src)));
        as<D>(src)->~D();
      },
      [](void* p) noexcept { as<D>(p)->~D(); },
  };

  // The stored D* is trivially destructible; only the pointee needs care.
  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* p, Args&&... args) -> R {
        return (**as<D*>(p))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept { ::new (dst) D*(*as<D*>(src)); },
      [](void* p) noexcept { delete *as<D*>(p); },
  };

  void steal(InplaceFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// The event queue's callback slot: nullary, void-returning.
using InplaceCallback = InplaceFunction<void()>;

}  // namespace speedlight::sim
