#pragma once

// AnalysisServer: the TCP ingress that turns AnalysisService from an
// in-process library into a server. A plain POSIX accept loop feeds
// per-connection handler threads; each connection speaks the framed
// protocol of net/frame.h, submits decoded requests to the service, and
// writes outcomes back in request order. The headline is hostile-client
// defense, not throughput: every way a client can misbehave — drip-feeding
// a frame (slowloris), announcing an oversized payload, flooding past the
// connection cap or the per-tenant rate quota, pipelining past the
// in-flight cap, sending garbage, vanishing mid-response — ends in a typed
// Error frame and/or an orderly close, never a hung fd and never an
// un-served sibling connection. Malformed input is answered and closed
// before it ever touches the engine.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.h"
#include "support/service.h"

namespace jsceres::net {

struct ServerOptions {
  /// Listen port on 127.0.0.1; 0 binds an ephemeral port (read it back via
  /// AnalysisServer::port() — how every test and the loopback oracle run).
  std::uint16_t port = 0;
  /// Hard cap on concurrent connections. The excess connection is told so
  /// — a best-effort ServerBusy error frame — then closed, mirroring the
  /// service's shed-never-hang admission contract at the socket layer.
  std::size_t max_connections = 64;
  /// Per-frame payload cap, enforced from the header's length field before
  /// any payload byte is buffered.
  std::size_t max_frame_bytes = 1u << 20;
  /// Requests a connection may pipeline before reading responses; excess
  /// requests get a TooManyInFlight error frame (connection survives).
  std::size_t max_in_flight_per_conn = 8;
  /// A started frame must arrive completely within this window — the
  /// slowloris defense. The offender gets a ReadTimeout error frame.
  int read_timeout_ms = 2000;
  /// One response write must drain within this window (a client that stops
  /// reading cannot pin a handler).
  int write_timeout_ms = 2000;
  /// Close connections with no traffic and nothing in flight after this.
  int idle_timeout_ms = 30'000;
  /// stop(): total budget for flushing in-flight outcomes before
  /// still-pending requests are answered with ShuttingDown errors.
  int drain_timeout_ms = 5000;
  /// Accepted tenant tokens -> tenant names (the name is what the service
  /// caps and meters on). Empty map: open server — the raw token bytes are
  /// the tenant name and the anonymous (empty) token is allowed.
  std::unordered_map<std::string, std::string> tenants;
  /// Per-tenant request-rate quota, requests per rolling second, checked
  /// ahead of service admission. 0 = unlimited.
  std::size_t tenant_requests_per_sec = 0;
};

/// Monotonic wire-layer counters (gauge: connections_open). A frame counts
/// as written, and as a response or an error frame, only once every byte of
/// it is out, so frames_written == responses_written + error_frames.
struct ServerStats {
  std::size_t connections_accepted = 0;
  std::size_t connections_rejected = 0;  // over the connection cap
  std::size_t connections_open = 0;      // gauge
  std::size_t connections_timed_out = 0;  // read/idle/write deadline closes
  std::size_t frames_read = 0;
  std::size_t frames_written = 0;
  std::size_t bytes_read = 0;
  std::size_t bytes_written = 0;
  std::size_t requests_submitted = 0;   // reached AnalysisService::submit
  std::size_t responses_written = 0;
  std::size_t error_frames = 0;         // typed rejections of any flavor
  std::size_t malformed_frames = 0;
  std::size_t auth_failures = 0;
  std::size_t rate_limited = 0;
  std::size_t in_flight_rejected = 0;
};

/// The ingress server. One accept thread, one handler thread per live
/// connection (bounded by max_connections — lifecycle robustness over
/// throughput; an event-loop ingress can replace the inside later without
/// touching the wire contract). No thread samples anything on a timer:
/// each connection sleeps in one poll over its socket, its own wake
/// descriptor (written by the service when one of its tickets completes)
/// and the server-wide stop descriptor, with the nearest real deadline
/// (read or idle timeout) as the poll's only timeout. The accept loop
/// sleeps on the listen socket and the stop descriptor alone. Response
/// writes and the graceful drain stay bounded by their own deadlines.
class AnalysisServer {
 public:
  explicit AnalysisServer(AnalysisService& service, ServerOptions options = {});
  /// stop()s if still running.
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  /// Bind 127.0.0.1:<port>, listen, start accepting. False (with `error`
  /// filled) when the socket setup fails.
  bool start(std::string* error = nullptr);

  /// Graceful drain: stop accepting, let every connection flush in-flight
  /// outcomes (bounded by drain_timeout_ms), answer what cannot finish
  /// with ShuttingDown errors, close everything, join all threads.
  /// Idempotent.
  void stop();

  /// The bound port (valid after a successful start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] ServerStats stats() const;

 private:
  /// One queued unit of the per-connection writer: either a live service
  /// ticket or a pre-completed typed rejection. Keeping rejections in the
  /// same FIFO preserves strict response ordering per connection.
  struct Pending {
    std::uint32_t id = 0;
    std::string tenant;
    std::int64_t received_us = 0;
    std::optional<ServiceTicket> ticket;
    bool is_error = false;
    WireError error = WireError::RateLimited;
    std::string error_message;
  };

  void accept_main();
  void connection_main(int fd, std::uint64_t conn_id);
  /// Decode-and-dispatch one frame; every ticket it submits calls `wake`
  /// on completion. Returns false when the connection must close (a
  /// close-reason error frame has already been queued/sent).
  bool handle_frame(int fd, const Frame& frame, std::deque<Pending>& pending,
                    const std::function<void()>& wake);
  /// Write every finished pending response (FIFO; stops at the first
  /// still-running ticket unless `block`). False: the connection is dead.
  bool flush_pending(int fd, std::deque<Pending>& pending, bool block,
                     std::int64_t block_deadline_ms);
  /// Write one whole frame. Only a write that succeeds is counted: under
  /// frames_written/bytes_written and under `kind` (responses_written or
  /// error_frames).
  bool write_frame(int fd, const std::vector<std::uint8_t>& bytes,
                   std::size_t ServerStats::*kind);
  /// Best-effort typed goodbye before a close.
  void send_error(int fd, std::uint32_t id, WireError code,
                  const std::string& message);
  [[nodiscard]] bool rate_allow(const std::string& tenant);
  void count(std::size_t ServerStats::*counter, std::size_t n = 1);
  void reap_finished_locked();

  AnalysisService* service_;
  ServerOptions options_;

  int listen_fd_ = -1;
  /// eventfd written once by stop() and never drained, so every poller —
  /// the accept loop and each connection — sees it readable until every
  /// thread has been joined and stop() closes it.
  int stop_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::mutex conn_mutex_;
  std::unordered_map<std::uint64_t, std::thread> connections_;
  std::vector<std::uint64_t> finished_;
  std::uint64_t next_conn_id_ = 1;
  std::atomic<std::size_t> open_connections_{0};

  std::mutex rate_mutex_;
  struct RateWindow {
    std::int64_t window_start_ms = 0;
    std::size_t count = 0;
  };
  std::unordered_map<std::string, RateWindow> rate_;

  /// The wire counters, stored once: the server owns them and stats() is
  /// their only reader. connections_open is not kept here; stats() reads it
  /// from open_connections_, which admission needs lock-free.
  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace jsceres::net
