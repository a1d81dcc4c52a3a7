#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "interp/value.h"
#include "support/limits.h"

namespace jsceres::interp {

/// Read-only view of a call's argument list — the builtin/native call
/// convention. Implicitly constructible from a `std::vector<Value>` or a
/// braced list, so host call sites read naturally; the interpreter's own
/// Call evaluation points it at a frame on the reused ArgStack, which is
/// what makes steady-state JS→JS and JS→native calls allocation-free.
///
/// An Args is a borrow: it never owns the Values and must not outlive the
/// storage it was built over (for natives: the duration of the call).
class Args {
 public:
  Args() = default;
  Args(const Value* data, std::size_t size) : data_(data), size_(size) {}
  Args(const std::vector<Value>& values)  // NOLINT(google-explicit-constructor)
      : data_(values.data()), size_(values.size()) {}
  // The braced-list form is safe for the supported pattern — passing `{a,
  // b}` directly to a call(), where the backing array outlives the full
  // expression — which is exactly the case GCC's lifetime warning cannot
  // see. Binding a braced list to a *named* Args would dangle; don't.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
  Args(std::initializer_list<Value> values)  // NOLINT(google-explicit-constructor)
      : data_(values.begin()), size_(values.size()) {}
#pragma GCC diagnostic pop

  [[nodiscard]] const Value* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  const Value& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] const Value* begin() const { return data_; }
  [[nodiscard]] const Value* end() const { return data_ + size_; }

 private:
  const Value* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Per-interpreter reused argument stack. Call argument evaluation used to
/// build one heap `std::vector<Value>` per call; this replaces it with
/// frames pushed onto segmented storage that survives across calls, so a
/// steady-state call allocates nothing.
///
/// Frames are strictly LIFO and each frame's slots are contiguous (a Call
/// knows its argument count up front, reserves the span, then fills it —
/// nested calls evaluated in argument position push their own frames above
/// the reservation). Segments never reallocate their slot storage, so a
/// frame's `Value*` span stays valid across nested push/pop pairs even when
/// the segment directory grows.
///
/// The VM opens a call's frame when its arguments start and fills it at the
/// call (open/top/close); the same class holds its register windows, where
/// only a frame wider than a segment is charged (`charge_every_segment`
/// false): the default segments are bounded by the call depth, a wide
/// frame's own segment only by the program's text.
class ArgStack {
 public:
  static constexpr std::size_t kSegmentSlots = 64;

  explicit ArgStack(bool charge_every_segment = true)
      : charge_every_segment_(charge_every_segment) {}
  ArgStack(const ArgStack&) = delete;
  ArgStack& operator=(const ArgStack&) = delete;

  struct Mark {
    std::uint32_t segment = 0;
    std::uint32_t used = 0;
  };

  /// Reserve `n` contiguous slots (default-constructed Values) on top of
  /// the stack. `mark` receives the state `pop` needs to restore.
  Value* push(std::size_t n, Mark* mark) {
    // Segment growth charges the active run's ledger before mutating any
    // stack state, so a ledger trip mid-push leaves the stack exactly as the
    // enclosing frames left it.
    if (segments_.empty()) {
      charge(n, std::max(kSegmentSlots, n) * sizeof(Value));
      segments_.emplace_back(std::max(kSegmentSlots, n));
    }
    mark->segment = current_;
    mark->used = segments_[current_].used;
    Segment* seg = &segments_[current_];
    if (seg->slots.size() - seg->used < n) {
      // The frame needs contiguity: advance to (or create) a segment with
      // room. Segments past `current_` are always fully popped.
      if (current_ + 1 == segments_.size()) {
        charge(n, std::max(kSegmentSlots, n) * sizeof(Value));
        segments_.emplace_back(std::max(kSegmentSlots, n));
      } else if (segments_[current_ + 1].slots.size() < n) {
        const std::size_t grown = std::max(kSegmentSlots, n);
        charge(n, (grown - segments_[current_ + 1].slots.size()) * sizeof(Value));
        segments_[current_ + 1] = Segment(grown);
      }
      ++current_;
      seg = &segments_[current_];
    }
    Value* out = seg->slots.data() + seg->used;
    seg->used += std::uint32_t(n);
    return out;
  }

  /// Pop the top frame (LIFO). Clears the frame's slots so object/string
  /// references are released promptly, then rewinds to `mark`.
  void pop(const Mark& mark, Value* slots, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) slots[i] = Value();
    if (current_ != mark.segment) {
      segments_[current_].used = 0;
      current_ = mark.segment;
    }
    segments_[current_].used = mark.used;
  }

  /// Open a frame of `n` slots, to be filled and closed later (LIFO).
  void open(std::size_t n) {
    Open frame{{}, nullptr, n};
    frame.data = push(n, &frame.mark);
    open_.push_back(frame);
  }
  /// The innermost open frame's slots.
  [[nodiscard]] Value* top() const { return open_.back().data; }
  void close() {
    const Open& frame = open_.back();
    pop(frame.mark, frame.data, frame.n);
    open_.pop_back();
  }
  [[nodiscard]] std::size_t open_frames() const { return open_.size(); }
  /// Close frames until `depth` remain (a throw unwinding past them).
  void close_to(std::size_t depth) {
    while (open_.size() > depth) close();
  }

  /// Slots currently reserved across all segments (test introspection; 0
  /// once every frame has unwound).
  [[nodiscard]] std::size_t in_use() const {
    std::size_t total = 0;
    for (const Segment& seg : segments_) total += seg.used;
    return total;
  }

  /// Recovery backstop: drop every frame and clear its slots so object and
  /// string references release. Used after an EngineError escapes the
  /// interpreter's outermost entry point; segment capacity is kept.
  void unwind_all() noexcept {
    open_.clear();
    for (Segment& seg : segments_) {
      for (std::uint32_t i = 0; i < seg.used; ++i) seg.slots[i] = Value();
      seg.used = 0;
    }
    current_ = 0;
  }

 private:
  struct Segment {
    explicit Segment(std::size_t n) : slots(n) {}
    std::vector<Value> slots;
    std::uint32_t used = 0;
  };

  struct Open {
    Mark mark;
    Value* data;
    std::size_t n;
  };

  /// Growth of `bytes` for a frame of `n` slots.
  void charge(std::size_t n, std::size_t bytes) const {
    if (charge_every_segment_ || n > kSegmentSlots) AllocationLedger::charge_current(bytes);
  }

  std::vector<Segment> segments_;
  std::uint32_t current_ = 0;
  std::vector<Open> open_;
  bool charge_every_segment_;
};

/// RAII frame on an ArgStack: reserves on construction, pops (and clears)
/// on destruction — including when a JSException unwinds mid-argument-
/// evaluation.
class ArgFrame {
 public:
  ArgFrame(ArgStack& stack, std::size_t n) : stack_(stack), n_(n) { stack_.open(n); }
  ~ArgFrame() { stack_.close(); }
  ArgFrame(const ArgFrame&) = delete;
  ArgFrame& operator=(const ArgFrame&) = delete;

  [[nodiscard]] Value* data() { return stack_.top(); }
  [[nodiscard]] Args args() const { return Args(stack_.top(), n_); }

 private:
  ArgStack& stack_;
  std::size_t n_;
};

}  // namespace jsceres::interp
