// EventFn: the kernel's callback type.
//
// A move-only `void()` callable with inline storage for typical event
// captures (a `this` pointer plus a few ids fits comfortably), so scheduling
// an event does not heap-allocate. Closures larger than the inline buffer
// fall back to a single heap allocation, and — unlike `std::function` —
// move-only captures (e.g. a std::unique_ptr<Packet>) are supported, which
// is what lets the packet pipeline move packets into delivery events instead
// of copying them.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace rv::sim {

class EventFn {
 public:
  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  // In-place assignment from a callable: destroys the current target and
  // constructs the new one directly in the inline buffer — no temporary
  // EventFn, no move. This is the schedule fast path (Simulator forwards
  // the caller's lambda straight into its slot).
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn& operator=(F&& f) {
    destroy();
    construct(std::forward<F>(f));
    return *this;
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { destroy(); }

  void operator()() { ops_->invoke(target()); }

  // Fused invoke + clear for the kernel's fire path: one Ops fetch covers
  // both the call and the (usually no-op) destruction, and the EventFn is
  // empty afterwards without a second assignment. Equivalent to
  // `(*this)(); *this = EventFn();` — the target is destroyed only after it
  // returns, so self-referential captures stay valid during the call.
  void invoke_and_clear() {
    const Ops* o = ops_;
    void* t = o->inline_storage ? static_cast<void*>(buf_) : heap_;
    o->invoke(t);
    if (o->destroy != nullptr) o->destroy(t);
    ops_ = nullptr;
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const EventFn& f, std::nullptr_t) { return !f; }
  friend bool operator!=(const EventFn& f, std::nullptr_t) {
    return static_cast<bool>(f);
  }

  // Introspection for tests: true when the callable lives in the inline
  // buffer (no allocation happened).
  bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_storage;
  }
  static constexpr std::size_t inline_capacity() { return kInlineCapacity; }

 private:
  struct Ops {
    void (*invoke)(void* obj);
    // Null when destruction is a no-op (trivially destructible inline
    // capture) — the common `this` + ids closure skips the indirect call.
    void (*destroy)(void* obj);
    // Move-constructs *from into to and destroys *from. Null when the
    // capture is trivially copyable (moved with one fixed-size memcpy — the
    // hot schedule path never takes an indirect call) and for heap-held
    // callables (moving the EventFn just steals the pointer).
    void (*relocate)(void* from, void* to);
    bool inline_storage;
  };

  // Sized so an EventFn occupies one cache line (48 inline + ops + tag).
  static constexpr std::size_t kInlineCapacity = 48;

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineCapacity &&
      alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* obj) { (*static_cast<D*>(obj))(); },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* obj) { static_cast<D*>(obj)->~D(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* from, void* to) {
              ::new (to) D(std::move(*static_cast<D*>(from)));
              static_cast<D*>(from)->~D();
            },
      true};

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* obj) { (*static_cast<D*>(obj))(); },
      [](void* obj) { delete static_cast<D*>(obj); },
      nullptr, false};

  template <typename F, typename D = std::decay_t<F>>
  void construct(F&& f) {
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      heap_ = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  void* target() noexcept {
    return ops_ != nullptr && ops_->inline_storage ? static_cast<void*>(buf_)
                                                   : heap_;
  }

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (!ops_->inline_storage) {
      heap_ = other.heap_;
    } else if (ops_->relocate != nullptr) {
      ops_->relocate(other.buf_, buf_);
    } else {
      // Trivially copyable capture: whole-buffer copy beats a per-type
      // indirect call (the tail bytes are dead but in cache).
      std::memcpy(buf_, other.buf_, kInlineCapacity);
    }
    other.ops_ = nullptr;
  }

  void destroy() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(target());
      ops_ = nullptr;
    }
  }

  union {
    void* heap_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
  };
  const Ops* ops_ = nullptr;
};

}  // namespace rv::sim
