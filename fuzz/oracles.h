#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace jsceres::fuzz {

/// Outcome of one oracle battery over one generated program. `ok` means
/// every applicable oracle held; otherwise `oracle` names the first one
/// that failed and `detail` says how the two executions diverged.
struct OracleOutcome {
  bool ok = true;
  std::string oracle;
  std::string detail;
};

struct OracleOptions {
  /// The program ends in the event-loop epilogue (GenOptions::use_timers):
  /// run it under a dom::Page and add the serial-vs-frame-graph oracle.
  bool has_timers = false;
  /// Event-loop horizon for timer programs, virtual milliseconds.
  std::int64_t horizon_ms = 200;
};

/// Run the differential oracle battery over `source`:
///  1. mode invariance — uninstrumented vs lightweight-profiled runs must
///     agree on virtual CPU/wall time and console output (paper §3.1: the
///     profiling modes observe, they must not perturb);
///  2. analyzer determinism — two independent dependence-analysis runs must
///     produce byte-identical reports, and every recorded characterization
///     must have the compact-delta shape the vector algebra guarantees;
///  3. serial vs frame-graph event loop (timer programs only) — identical
///     console output and virtual clocks with the pipeline on or off;
///  4. limit recovery — a run under a tight sandbox either completes or
///     trips a recoverable EngineError, after which the interpreter's
///     argument stack is empty and a second run still behaves.
/// A program that fails to parse is reported as a generator defect.
OracleOutcome check_program(const std::string& source,
                            const OracleOptions& options = {});

/// Supervision oracle: run `source` under a sweep of cancellation points and
/// deadlines — no cancel, an already-expired deadline, and an explicit cancel
/// latched at the K-th cooperative observation for a spread of K — under the
/// same tight sandbox as the limit-recovery oracle. Every run must end in
/// exactly one of {completed, recoverable EngineError, CancelledError}; the
/// interpreter's argument stack must be empty afterwards and the same engine
/// object must accept a re-run (which may legitimately trip or observe the
/// still-latched cancel again). Called by check_program as oracle 5 and
/// directly by the nightly fuzz job's session mode.
OracleOutcome check_supervised(const std::string& source,
                               const OracleOptions& options = {});

/// One case of the hostile-input demo suite: a program (or raw source)
/// engineered to blow a specific resource, plus the limit configuration
/// that must contain it.
struct HostileCase {
  std::string name;
  std::string source;
  /// Which sandbox knob contains this case (documentation; the runner
  /// configures EngineLimits from the fields below).
  std::string contained_by;
  std::size_t max_memory_bytes = 0;
  std::size_t max_array_length = 0;
  std::int64_t max_wall_ms = 0;
  std::int64_t max_ticks = -1;
  bool expect_parse_error = false;
  /// >0: the case trips no limit. The source runs to completion in this
  /// many sessions, one after another, and is contained when the resident
  /// set grew by at most `max_rss_growth_bytes` over them.
  int sessions = 0;
  std::size_t max_rss_growth_bytes = 0;
};

struct HostileReport {
  std::string name;
  bool recovered = false;   // tripped a recoverable error AND engine reusable
  std::string error;        // the error message observed
};

/// The five hostile inputs named by the sandbox acceptance criteria: deep
/// nesting, an unbounded allocation loop, a runaway while(true) (both the
/// tick-budget and the wall-clock watchdog flavour), a 10k-property object,
/// and pathological array growth; and a loop of sessions that each build
/// cyclic objects, which the session heap must free.
std::vector<HostileCase> hostile_suite();

/// Run one hostile case under its limits; `recovered` requires the expected
/// recoverable error type (ParseError/LexError for front-end cases,
/// EngineError for runtime cases), a clean argument stack afterwards, and a
/// working second run on the same engine object.
HostileReport run_hostile_case(const HostileCase& hostile);

/// Current resident-set bytes (Linux: /proc/self/statm), 0 when unknown.
std::size_t current_rss_bytes();

/// Whether freed memory leaves the resident set as in a release build. The
/// sanitizers keep freed blocks (AddressSanitizer's quarantine) and shadow
/// memory resident, so an RSS bound says nothing under them; there,
/// LeakSanitizer checks at exit that every session's heap was freed.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kRssTracksFrees = false;
#else
inline constexpr bool kRssTracksFrees = true;
#endif

}  // namespace jsceres::fuzz
