#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace jsceres {

/// What the governor tells the admission path to do with a new session.
enum class AdmitDecision : std::uint8_t {
  Admit,    // pressure low: run at the requested mode
  Degrade,  // pressure high: run, but at a cheaper instrumentation mode
  Shed,     // at/over ceiling: reject with a structured SHED, do not queue
};

inline const char* to_string(AdmitDecision decision) {
  switch (decision) {
    case AdmitDecision::Admit:
      return "admit";
    case AdmitDecision::Degrade:
      return "degrade";
    case AdmitDecision::Shed:
      return "shed";
  }
  return "?";
}

/// Process-wide memory governor for the resident service. Rolls the
/// per-session AllocationLedger charges (reserved up front at admission,
/// reconciled against the attempt's real high-water mark on release) plus
/// the process-lifetime shared structures (atom table, shape tree, stamp
/// segments — reported by the caller, since support/ cannot depend on the
/// structures it governs) into one pressure number against a hard ceiling:
///
///   pressure = (reserved session bytes + shared structure bytes) / ceiling
///
/// Policy is *newest first*: sessions already admitted keep their
/// reservation; it is the incoming session that degrades (pressure >=
/// kDegradePressure) or is shed (pressure >= kShedPressure, or the
/// reservation itself would cross the ceiling). That gives the overload
/// behavior the paper's server scenario needs — bounded memory with graceful
/// degradation instead of an OOM kill taking down every tenant at once.
class MemoryGovernor {
 public:
  struct Options {
    /// Hard ceiling on reserved + shared bytes. 0: governor disabled
    /// (everything admits; pressure reads 0).
    std::size_t ceiling_bytes = 0;
  };
  /// Pressure at which new sessions degrade to a cheaper mode.
  static constexpr double kDegradePressure = 0.75;
  /// Pressure at which new sessions are shed outright.
  static constexpr double kShedPressure = 0.92;

  // Two constructors instead of one defaulted argument: a default argument
  // of nested-class type cannot use that class's member initializers until
  // the enclosing class is complete (GCC enforces this strictly).
  MemoryGovernor() : MemoryGovernor(Options{}) {}
  explicit MemoryGovernor(Options options) : options_(options) {}

  /// Decide what to do with a session asking to reserve `estimate` bytes,
  /// given `shared_bytes` currently held by the process-wide structures.
  /// Admit/Degrade take the reservation (call release() when the session
  /// ends); Shed takes nothing.
  AdmitDecision admit(std::size_t estimate, std::size_t shared_bytes) {
    const std::lock_guard lock(mutex_);
    if (options_.ceiling_bytes == 0) {
      reserved_ += estimate;
      note_high_water(shared_bytes);
      ++admit_count_;
      return AdmitDecision::Admit;
    }
    const std::size_t in_use = reserved_ + shared_bytes;
    const auto pressure =
        double(in_use + estimate) / double(options_.ceiling_bytes);
    // Every admission decision counts into the band it landed in.
    if (pressure >= kShedPressure ||
        in_use + estimate > options_.ceiling_bytes) {
      ++shed_count_;
      return AdmitDecision::Shed;
    }
    reserved_ += estimate;
    note_high_water(shared_bytes);
    if (pressure >= kDegradePressure) {
      ++degrade_count_;
      return AdmitDecision::Degrade;
    }
    ++admit_count_;
    return AdmitDecision::Admit;
  }

  /// Return a reservation. `actual_peak` is the session's measured ledger
  /// high-water mark; the gap between estimate and reality feeds the
  /// estimate_error high-water diagnostic.
  void release(std::size_t estimate, std::size_t actual_peak) {
    const std::lock_guard lock(mutex_);
    reserved_ -= std::min(reserved_, estimate);
    if (actual_peak > estimate) {
      max_underestimate_ =
          std::max(max_underestimate_, actual_peak - estimate);
    }
  }

  /// Current pressure in [0, 1+] for diagnostics; 0 when disabled.
  [[nodiscard]] double pressure(std::size_t shared_bytes) const {
    const std::lock_guard lock(mutex_);
    if (options_.ceiling_bytes == 0) return 0.0;
    return double(reserved_ + shared_bytes) / double(options_.ceiling_bytes);
  }

  [[nodiscard]] std::size_t reserved_bytes() const {
    const std::lock_guard lock(mutex_);
    return reserved_;
  }
  /// Highest reserved + shared total ever observed at an admission.
  [[nodiscard]] std::size_t high_water_bytes() const {
    const std::lock_guard lock(mutex_);
    return high_water_;
  }
  /// Admission decisions per band. The governor is the one owner of these
  /// counts: the service's shed_memory and the governor.* metrics read them.
  [[nodiscard]] std::size_t admit_count() const {
    const std::lock_guard lock(mutex_);
    return admit_count_;
  }
  [[nodiscard]] std::size_t shed_count() const {
    const std::lock_guard lock(mutex_);
    return shed_count_;
  }
  [[nodiscard]] std::size_t degrade_count() const {
    const std::lock_guard lock(mutex_);
    return degrade_count_;
  }
  /// Largest (actual peak - estimate) gap seen: how badly callers
  /// under-reserve. Feed this back into memory_estimate defaults.
  [[nodiscard]] std::size_t max_underestimate() const {
    const std::lock_guard lock(mutex_);
    return max_underestimate_;
  }

 private:
  void note_high_water(std::size_t shared_bytes) {
    high_water_ = std::max(high_water_, reserved_ + shared_bytes);
  }

  Options options_;
  mutable std::mutex mutex_;
  std::size_t reserved_ = 0;
  std::size_t high_water_ = 0;
  std::size_t admit_count_ = 0;
  std::size_t shed_count_ = 0;
  std::size_t degrade_count_ = 0;
  std::size_t max_underestimate_ = 0;
};

}  // namespace jsceres
