#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <memory>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/obs.h"

namespace jsceres::net {

namespace {

std::int64_t mono_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t mono_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// poll() timeout until `deadline_ms`: 0 once it has passed.
int until(std::int64_t deadline_ms) {
  const std::int64_t left = deadline_ms - mono_ms();
  return left <= 0 ? 0 : int(std::min<std::int64_t>(left, INT_MAX));
}

/// Make an eventfd readable. Plain write(2), not write_all: wake traffic is
/// not socket I/O, so the io_faults event count never includes it. The
/// only possible failure is EAGAIN on a saturated counter, which is
/// already readable.
void signal_fd(int fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t wrote = ::write(fd, &one, sizeof(one));
}

/// One connection's wake descriptor: a non-blocking eventfd that ticket
/// completions write and the connection thread polls. The connection and
/// every completion callback it hands the service share ownership, so the
/// fd is closed only after the last late completion is done with it —
/// never while accept() could have handed the same number to a new socket.
class WakeFd {
 public:
  WakeFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~WakeFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  void signal() const { signal_fd(fd_); }
  /// Back to not-readable (EAGAIN when nothing was signalled).
  void drain() const {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t got = ::read(fd_, &count, sizeof(count));
  }

 private:
  const int fd_;
};

}  // namespace

AnalysisServer::AnalysisServer(AnalysisService& service, ServerOptions options)
    : service_(&service), options_(options) {}

AnalysisServer::~AnalysisServer() { stop(); }

bool AnalysisServer::start(std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    for (int* fd : {&listen_fd_, &stop_fd_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    return false;
  };

  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "server already running";
    return false;
  }
  stopping_.store(false, std::memory_order_release);

  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) return fail("eventfd");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 64) < 0) return fail("listen");

  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_main(); });
  return true;
}

void AnalysisServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // One write wakes every poller at once: the accept loop returns, and each
  // connection leaves its loop for the graceful drain. The listen socket
  // and the stop fd are closed only after the threads using them are
  // joined.
  signal_fd(stop_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (;;) {
    std::thread victim;
    {
      const std::lock_guard lock(conn_mutex_);
      reap_finished_locked();
      if (connections_.empty()) break;
      auto it = connections_.begin();
      victim = std::move(it->second);
      connections_.erase(it);
    }
    if (victim.joinable()) victim.join();
  }
  ::close(stop_fd_);
  stop_fd_ = -1;
}

ServerStats AnalysisServer::stats() const {
  ServerStats out;
  {
    const std::lock_guard lock(stats_mutex_);
    out = stats_;
  }
  out.connections_open = open_connections_.load(std::memory_order_relaxed);
  return out;
}

void AnalysisServer::count(std::size_t ServerStats::*counter, std::size_t n) {
  const std::lock_guard lock(stats_mutex_);
  stats_.*counter += n;
}

void AnalysisServer::accept_main() {
  JSCERES_OBS_SET_THREAD_NAME("net-accept");
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_fd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // stop()
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    {
      const std::lock_guard lock(conn_mutex_);
      reap_finished_locked();
    }
    if (open_connections_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      // The wire mirror of the service's structured shed: the excess
      // connection learns WHY before the close. One non-blocking write
      // round (timeout 0): a fresh socket's send buffer takes the small
      // frame at once, and a non-reading flooder cannot stall the accept
      // loop. Counted first, so a client that reads the frame sees the
      // count.
      count(&ServerStats::connections_rejected);
      const std::vector<std::uint8_t> busy = make_error_frame(
          0, WireError::ServerBusy, "connection cap reached, retry later");
      write_all(fd, busy.data(), busy.size(), 0);
      ::close(fd);
      continue;
    }

    count(&ServerStats::connections_accepted);
    open_connections_.fetch_add(1, std::memory_order_acq_rel);
    const std::lock_guard lock(conn_mutex_);
    const std::uint64_t conn_id = next_conn_id_++;
    connections_.emplace(
        conn_id, std::thread([this, fd, conn_id] {
          connection_main(fd, conn_id);
          open_connections_.fetch_sub(1, std::memory_order_acq_rel);
          const std::lock_guard done_lock(conn_mutex_);
          finished_.push_back(conn_id);
        }));
  }
}

void AnalysisServer::reap_finished_locked() {
  for (const std::uint64_t id : finished_) {
    const auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    it->second.join();
    connections_.erase(it);
  }
  finished_.clear();
}

bool AnalysisServer::write_frame(int fd, const std::vector<std::uint8_t>& bytes,
                                 std::size_t ServerStats::*kind) {
  const IoStatus status =
      write_all(fd, bytes.data(), bytes.size(), options_.write_timeout_ms);
  if (status == IoStatus::Timeout) count(&ServerStats::connections_timed_out);
  if (status != IoStatus::Ok) return false;
  const std::lock_guard lock(stats_mutex_);
  ++stats_.frames_written;
  stats_.bytes_written += bytes.size();
  ++(stats_.*kind);
  return true;
}

void AnalysisServer::send_error(int fd, std::uint32_t id, WireError code,
                                const std::string& message) {
  write_frame(fd, make_error_frame(id, code, message),
              &ServerStats::error_frames);
}

bool AnalysisServer::rate_allow(const std::string& tenant) {
  if (options_.tenant_requests_per_sec == 0) return true;
  const std::int64_t now = mono_ms();
  const std::lock_guard lock(rate_mutex_);
  RateWindow& window = rate_[tenant];
  if (now - window.window_start_ms >= 1000) {
    window.window_start_ms = now;
    window.count = 0;
  }
  return ++window.count <= options_.tenant_requests_per_sec;
}

bool AnalysisServer::handle_frame(int fd, const Frame& frame,
                                  std::deque<Pending>& pending,
                                  const std::function<void()>& wake) {
  if (frame.kind != FrameKind::Request) {
    count(&ServerStats::malformed_frames);
    send_error(fd, 0, WireError::BadKind,
               "clients may only send Request frames");
    return false;
  }

  WireRequest request;
  if (!decode_request(frame.payload, request)) {
    // Malformed input never reaches the engine: answered and closed here,
    // with the decoder having touched nothing but its own buffer.
    count(&ServerStats::malformed_frames);
    send_error(fd, 0, WireError::MalformedPayload,
               "request payload failed to decode");
    return false;
  }

  // Tenant authentication ahead of admission: a bad token is a hostile or
  // misconfigured client — reject and close before any engine work.
  std::string tenant;
  if (options_.tenants.empty()) {
    tenant = frame.tenant;
  } else {
    const auto it = options_.tenants.find(frame.tenant);
    if (it == options_.tenants.end()) {
      count(&ServerStats::auth_failures);
      send_error(fd, request.id, WireError::AuthFailed,
                 "unknown tenant token");
      return false;
    }
    tenant = it->second;
  }

  // Policy rejections (quota, pipeline cap) answer through the pending
  // FIFO so responses keep strict request order, and the connection lives:
  // a client may back off and continue.
  const auto reject = [&](WireError code, const std::string& message,
                          std::size_t ServerStats::*counter) {
    count(counter);
    Pending item;
    item.id = request.id;
    item.tenant = tenant;
    item.received_us = mono_us();
    item.is_error = true;
    item.error = code;
    item.error_message = message;
    pending.push_back(std::move(item));
  };

  if (!rate_allow(tenant)) {
    reject(WireError::RateLimited,
           "tenant exceeded " +
               std::to_string(options_.tenant_requests_per_sec) +
               " requests/sec",
           &ServerStats::rate_limited);
    return true;
  }
  if (pending.size() >= options_.max_in_flight_per_conn) {
    reject(WireError::TooManyInFlight,
           "connection already has " + std::to_string(pending.size()) +
               " requests in flight",
           &ServerStats::in_flight_rejected);
    return true;
  }

  ServiceRequest service_request;
  service_request.tenant = tenant;
  service_request.memory_estimate = std::size_t(request.memory_estimate);
  service_request.session.name =
      request.name.empty() ? "wire-" + std::to_string(request.id)
                           : request.name;
  service_request.session.source = std::move(request.source);
  service_request.session.mode = int(request.mode);
  service_request.session.has_timers = request.has_timers;
  service_request.session.deadline_ms = std::int64_t(request.deadline_ms);
  service_request.session.max_ticks = request.max_ticks;
  service_request.session.limits.max_memory_bytes =
      std::size_t(request.max_memory_bytes);
  // The frame cap already bounded the source; reflect it into the sandbox
  // too so a decoded-but-huge script trips the front-end limit, not RAM.
  service_request.session.limits.max_source_bytes = options_.max_frame_bytes;
  service_request.on_complete = wake;

  Pending item;
  item.id = request.id;
  item.tenant = tenant;
  item.received_us = mono_us();
  // submit() never blocks: worst case the ticket is already complete with
  // a structured shed, which the flush loop serializes like any outcome.
  item.ticket = service_->submit(std::move(service_request));
  pending.push_back(std::move(item));
  count(&ServerStats::requests_submitted);
  return true;
}

bool AnalysisServer::flush_pending(int fd, std::deque<Pending>& pending,
                                   bool block, std::int64_t block_deadline_ms) {
  while (!pending.empty()) {
    Pending& front = pending.front();
    std::vector<std::uint8_t> bytes;
    std::size_t ServerStats::*kind = &ServerStats::error_frames;
    if (front.is_error) {
      bytes = make_error_frame(front.id, front.error, front.error_message);
    } else {
      std::optional<ServiceOutcome> outcome;
      if (block) {
        // Drain path: bounded patience per ticket, never a bare wait() —
        // the writer loop must stay finite even if a session wedges.
        const std::int64_t left = block_deadline_ms - mono_ms();
        outcome = front.ticket->wait_for(left > 0 ? left : 0);
        if (!outcome.has_value()) {
          bytes = make_error_frame(front.id, WireError::ShuttingDown,
                                   "server draining before outcome was ready");
        }
      } else {
        outcome = front.ticket->wait_for(0);
        if (!outcome.has_value()) return true;  // front still running
      }
      if (outcome.has_value()) {
        Frame frame;
        frame.kind = FrameKind::Response;
        frame.payload = encode_response(front.id, *outcome);
        bytes = encode_frame(frame);
#if JSCERES_OBS
        const std::int64_t wire_us = mono_us() - front.received_us;
        JSCERES_OBS_HIST("net.request_us", wire_us);
        obs::Histogram::at("net.request_us." + (front.tenant.empty()
                                                    ? std::string("anon")
                                                    : front.tenant))
            .record(std::uint64_t(wire_us));
#endif
        kind = &ServerStats::responses_written;
      }
    }
    if (!write_frame(fd, bytes, kind)) return false;
    pending.pop_front();
  }
  return true;
}

void AnalysisServer::connection_main(int fd, std::uint64_t conn_id) {
  JSCERES_OBS_SET_THREAD_NAME("net-conn-" + std::to_string(conn_id));
  JSCERES_OBS_SPAN("net", "connection");

  const auto wake = std::make_shared<WakeFd>();
  if (wake->fd() < 0) {
    // Out of descriptors: a connection nothing can wake is not served.
    send_error(fd, 0, WireError::ServerBusy, "server out of descriptors");
    ::close(fd);
    return;
  }
  // Each ticket's callback shares the wake fd's ownership (see WakeFd).
  const std::function<void()> on_complete = [wake] { wake->signal(); };

  std::vector<std::uint8_t> buffer;
  std::deque<Pending> pending;
  std::int64_t last_activity_ms = mono_ms();
  std::int64_t frame_started_ms = 0;
  bool peer_alive = true;

  while (!stopping_.load(std::memory_order_acquire)) {
    // Drain the wake fd BEFORE the flush, never after: a completion that
    // lands once the read is done leaves the fd readable, so the poll below
    // returns at once and no wake-up can be lost between flush and poll.
    wake->drain();
    const std::size_t owed = pending.size();
    if (!flush_pending(fd, pending, /*block=*/false, 0)) {
      peer_alive = false;
      break;
    }
    // A written response is traffic: the idle clock restarts from it, not
    // from the request that caused it.
    if (pending.size() < owed) last_activity_ms = mono_ms();

    // Sleep until the socket, a completion or stop() needs this thread, or
    // until the one deadline in force: the read timeout while a frame is
    // partly buffered, the idle timeout while nothing is buffered or owed.
    // Otherwise the wait is unbounded: an outcome in flight wakes us.
    int timeout_ms = -1;
    if (!buffer.empty()) {
      if (options_.read_timeout_ms > 0) {
        timeout_ms = until(frame_started_ms + options_.read_timeout_ms);
      }
    } else if (pending.empty() && options_.idle_timeout_ms > 0) {
      timeout_ms = until(last_activity_ms + options_.idle_timeout_ms);
    }
    pollfd fds[3] = {
        {fd, POLLIN, 0}, {wake->fd(), POLLIN, 0}, {stop_fd_, POLLIN, 0}};
    if (::poll(fds, 3, timeout_ms) < 0) {
      if (errno == EINTR) continue;
      peer_alive = false;
      break;
    }
    // POLLHUP/POLLERR count as readable: recv() reports the EOF or error.
    if (fds[0].revents != 0) {
      std::uint8_t chunk[4096];
      const std::ptrdiff_t got = read_some(fd, chunk, sizeof(chunk));
      if (got == 0) {
        // Orderly EOF — possibly mid-frame (a hostile half-close) or with
        // responses still owed (disconnect mid-response). Either way the
        // peer is gone: drop state, free the fd.
        peer_alive = false;
        break;
      }
      if (got < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          peer_alive = false;
          break;
        }
      } else {
        if (buffer.empty()) frame_started_ms = mono_ms();
        last_activity_ms = mono_ms();
        count(&ServerStats::bytes_read, std::size_t(got));
        buffer.insert(buffer.end(), chunk, chunk + got);

        bool close_now = false;
        for (;;) {
          const DecodeResult decoded =
              decode_frame(buffer.data(), buffer.size(),
                           options_.max_frame_bytes);
          if (decoded.status == DecodeStatus::NeedMore) break;
          if (decoded.status == DecodeStatus::Bad) {
            count(&ServerStats::malformed_frames);
            // Flush outcomes already owed, then the typed verdict, then
            // close: a framing violation is unrecoverable — the byte
            // stream has no trustworthy resynchronization point.
            flush_pending(fd, pending, /*block=*/true,
                          mono_ms() + options_.drain_timeout_ms);
            send_error(fd, 0, decoded.error, decoded.detail);
            close_now = true;
            break;
          }
          count(&ServerStats::frames_read);
          buffer.erase(buffer.begin(),
                       buffer.begin() + std::ptrdiff_t(decoded.consumed));
          frame_started_ms = buffer.empty() ? 0 : mono_ms();
          if (!handle_frame(fd, decoded.frame, pending, on_complete)) {
            close_now = true;
            break;
          }
        }
        if (close_now) break;
      }
    }

    const std::int64_t now = mono_ms();
    if (!buffer.empty() && options_.read_timeout_ms > 0 &&
        now >= frame_started_ms + options_.read_timeout_ms) {
      // Slowloris: a frame begun but drip-fed dies with a structured
      // verdict instead of occupying the handler indefinitely.
      count(&ServerStats::connections_timed_out);
      flush_pending(fd, pending, /*block=*/true,
                    now + options_.drain_timeout_ms);
      send_error(fd, 0, WireError::ReadTimeout,
                 "frame incomplete after " +
                     std::to_string(options_.read_timeout_ms) + " ms");
      break;
    }
    if (buffer.empty() && pending.empty() && options_.idle_timeout_ms > 0 &&
        now >= last_activity_ms + options_.idle_timeout_ms) {
      count(&ServerStats::connections_timed_out);
      send_error(fd, 0, WireError::IdleTimeout,
                 "no traffic for " + std::to_string(options_.idle_timeout_ms) +
                     " ms");
      break;
    }
  }

  // Graceful drain: outcomes already admitted still reach the client (the
  // wire mirror of "queued requests still run" in the service destructor),
  // each bounded so a wedged session cannot wedge shutdown.
  if (peer_alive && stopping_.load(std::memory_order_acquire) &&
      !pending.empty()) {
    flush_pending(fd, pending, /*block=*/true,
                  mono_ms() + options_.drain_timeout_ms);
  }
  ::close(fd);
}

}  // namespace jsceres::net
