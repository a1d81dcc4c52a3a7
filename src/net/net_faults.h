#pragma once

// Socket-level fault injection (the scheduler hook of
// rivertrail/fault_injection.h, lifted to the wire). Every socket I/O
// event — one poll/recv/send round inside net::read_exact / net::write_all
// — reports through on_event(); an armed plan fires exactly one fault at
// the K-th event:
//
//   ShortRead    cap this recv to 1 byte (the loop must resume),
//   ShortWrite   cap this send to 1 byte (ditto),
//   Eintr        skip the syscall once, as if it returned -1/EINTR,
//   Disconnect   shutdown(fd, SHUT_RDWR) mid-frame — the next I/O on the
//                connection observes EOF / ECONNRESET.
//
// Sweeping K across the event count of a fixed loopback request proves
// every interleaving ends in either a served outcome or a structured
// client-side error, with the server still accepting afterwards — never a
// hang and never a crash. The countdown and event count are a
// support/fault_point.h FaultPoint; disarmed cost is one atomic load per
// I/O event, noise against the syscall it guards.

#include <cstddef>
#include <cstdint>

#include <sys/socket.h>

#include "support/fault_point.h"

namespace jsceres::net::io_faults {

enum class Kind : int { ShortRead = 0, ShortWrite = 1, Eintr = 2, Disconnect = 3 };

/// What the I/O wrapper should do for this event.
struct Decision {
  enum class Act : int { Proceed, Eintr, Disconnect };
  Act act = Act::Proceed;
  /// Byte budget for this syscall (<= the requested size; 0 = no cap).
  std::size_t cap = 0;
};

inline FaultPoint<Kind>& point() {
  static FaultPoint<Kind> p;
  return p;
}

/// Arm one fault at the `after`-th socket I/O event from now (1 = the very
/// next event). Process-global: tests arm/disarm around quiesced sockets.
inline void arm(Kind kind, std::int64_t after) { point().arm(kind, after); }

inline void disarm() { point().disarm(); }

[[nodiscard]] inline std::int64_t events_observed() {
  return point().events_observed();
}

/// One socket I/O event on `fd`: the injected decision, or a default
/// Decision when disarmed or when this is not the armed K-th event.
inline Decision on_event(int fd, bool is_read) {
  if (!point().armed() || !point().due()) return {};
  switch (point().kind()) {
    case Kind::ShortRead:
      return is_read ? Decision{Decision::Act::Proceed, 1} : Decision{};
    case Kind::ShortWrite:
      return is_read ? Decision{} : Decision{Decision::Act::Proceed, 1};
    case Kind::Eintr:
      return {Decision::Act::Eintr, 0};
    case Kind::Disconnect:
      ::shutdown(fd, SHUT_RDWR);
      return {Decision::Act::Disconnect, 0};
  }
  return {};
}

}  // namespace jsceres::net::io_faults
