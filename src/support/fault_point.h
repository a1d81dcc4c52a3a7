#pragma once

// A process-global fault point: arm a fault of some `Kind` to fire at the
// K-th event from now. The scheduler (rivertrail/fault_injection.h) and the
// socket layer (net/net_faults.h) each own one and keep only their kinds and
// what a firing does. Disarmed cost is one atomic load per event. Why the
// ledger and CancelSource countdowns are not fault points:
// src/support/README.md.

#include <atomic>
#include <cstdint>

namespace jsceres {

template <typename Kind>
class FaultPoint {
 public:
  /// Arm one fault at the `after`-th event from now (1 = the very next
  /// event); stores made before arm() are visible to the firing event.
  /// Callers arm/disarm around a quiesced workload.
  void arm(Kind kind, std::int64_t after) {
    kind_.store(kind, std::memory_order_relaxed);
    events_.store(0, std::memory_order_relaxed);
    countdown_.store(after, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
  }
  void disarm() { armed_.store(false, std::memory_order_release); }
  [[nodiscard]] bool armed() const { return armed_.load(std::memory_order_acquire); }
  [[nodiscard]] Kind kind() const { return kind_.load(std::memory_order_acquire); }

  /// Events observed while armed. Arm with a huge countdown to count a
  /// workload's events without firing (sweep sizing).
  [[nodiscard]] std::int64_t events_observed() const {
    return events_.load(std::memory_order_relaxed);
  }

  /// Count one event (only while armed); true exactly at the armed K-th.
  bool due() {
    events_.fetch_add(1, std::memory_order_relaxed);
    return countdown_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<std::int64_t> countdown_{0};
  std::atomic<Kind> kind_{};
  std::atomic<std::int64_t> events_{0};
};

}  // namespace jsceres
