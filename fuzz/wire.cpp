#include "fuzz/wire.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fuzz/generator.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "rivertrail/thread_pool.h"
#include "support/service.h"

namespace jsceres::fuzz {

namespace {

std::int64_t mono_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// One in-process AnalysisService behind one AnalysisServer on an ephemeral
/// loopback port. Declaration order is the teardown contract: the server
/// (declared last) stops and joins its connection threads before the
/// service it feeds is destroyed.
struct Loopback {
  rivertrail::ThreadPool pool{4};
  AnalysisService service;
  net::AnalysisServer server;

  Loopback(const ServiceOptions& sopts, const net::ServerOptions& nopts)
      : service(pool, sopts), server(service, nopts) {}
};

/// A raw client socket, deliberately beneath AnalysisClient: the hostile
/// cases need to write bytes no well-behaved client would.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct RawFrame {
  bool got = false;
  bool closed = false;  // EOF before a whole frame arrived
  net::Frame frame;
};

/// Read one whole frame off a raw socket within `timeout_ms`.
RawFrame read_frame_raw(int fd, std::vector<std::uint8_t>& buffer,
                        int timeout_ms) {
  RawFrame out;
  const std::int64_t deadline = mono_ms() + timeout_ms;
  for (;;) {
    const net::DecodeResult decoded =
        net::decode_frame(buffer.data(), buffer.size(), 1u << 20);
    if (decoded.status == net::DecodeStatus::Ok) {
      buffer.erase(buffer.begin(),
                   buffer.begin() + std::ptrdiff_t(decoded.consumed));
      out.got = true;
      out.frame = decoded.frame;
      return out;
    }
    if (decoded.status == net::DecodeStatus::Bad) return out;

    const std::int64_t left = deadline - mono_ms();
    if (left <= 0) return out;
    if (net::wait_readable(fd, int(left)) != net::IoStatus::Ok) return out;
    std::uint8_t chunk[4096];
    const std::ptrdiff_t got = net::read_some(fd, chunk, sizeof(chunk));
    if (got <= 0) {
      out.closed = got == 0;
      return out;
    }
    buffer.insert(buffer.end(), chunk, chunk + got);
  }
}

/// Expect a typed Error frame with code `want` on `fd` — the contractual
/// ending of every hostile case.
NetHostileReport expect_error(const std::string& name, int fd,
                              net::WireError want, int timeout_ms) {
  NetHostileReport report;
  report.name = name;
  std::vector<std::uint8_t> buffer;
  const RawFrame raw = read_frame_raw(fd, buffer, timeout_ms);
  if (!raw.got) {
    report.detail = raw.closed ? "closed without a typed error frame"
                               : "no error frame before the timeout";
    return report;
  }
  if (raw.frame.kind != net::FrameKind::Error) {
    report.detail = "expected an Error frame, got another kind";
    return report;
  }
  net::WireErrorFrame error;
  if (!net::decode_error(raw.frame.payload, error)) {
    report.detail = "error frame failed to decode";
    return report;
  }
  if (error.code != want) {
    report.detail = std::string("expected ") + net::to_string(want) +
                    ", got " + net::to_string(error.code);
    return report;
  }
  report.recovered = true;
  report.detail = std::string("typed ") + net::to_string(error.code) + ": " +
                  error.message;
  return report;
}

net::WireRequest trivial_request(const std::string& name) {
  net::WireRequest request;
  request.name = name;
  request.source = "console.log(1 + 2);";
  request.max_ticks = 1'000'000;
  request.memory_estimate = 1u << 20;
  request.max_memory_bytes = 4u << 20;
  return request;
}

std::string describe(const net::WireResult& result) {
  switch (result.kind) {
    case net::WireResult::Kind::Outcome:
      return std::string("outcome state=") + to_string(result.outcome.state);
    case net::WireResult::Kind::ErrorFrame:
      return std::string("error frame ") + net::to_string(result.error.code);
    case net::WireResult::Kind::Transport:
      return "transport: " + result.transport;
  }
  return "?";
}

/// Fresh well-formed client, one trivial request, must complete. Retries
/// absorb the moment a just-closed hostile connection may still occupy a
/// slot (its handler wakes on the EOF at once, but frees the slot only as
/// its thread exits).
bool probe_alive(std::uint16_t port, const std::string& token,
                 std::string* detail) {
  std::string last = "no attempt ran";
  for (int attempt = 0; attempt < 20; ++attempt) {
    if (attempt > 0) sleep_ms(50);
    net::ClientOptions copts;
    copts.port = port;
    copts.token = token;
    copts.io_timeout_ms = 10'000;
    net::AnalysisClient client(copts);
    std::string error;
    if (!client.connect(&error)) {
      last = "connect: " + error;
      continue;
    }
    const net::WireResult result = client.roundtrip(trivial_request("probe"));
    if (result.ok() && result.outcome.state == ServiceState::Completed) {
      return true;
    }
    last = describe(result);
  }
  if (detail != nullptr) *detail = last;
  return false;
}

void append_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(std::uint8_t(v >> shift));
  }
}

/// A hand-rolled frame header announcing `payload_len` bytes — the codec
/// refuses to encode this lie, so the attacker assembles it manually.
std::vector<std::uint8_t> header_claiming(const std::string& token,
                                          std::uint32_t payload_len) {
  std::vector<std::uint8_t> out;
  append_u32_le(out, net::kMagic);
  out.push_back(net::kProtocolVersion);
  out.push_back(std::uint8_t(net::FrameKind::Request));
  out.push_back(0);
  out.push_back(0);  // reserved
  for (std::size_t i = 0; i < net::kTenantTokenBytes; ++i) {
    out.push_back(i < token.size() ? std::uint8_t(token[i]) : 0);
  }
  append_u32_le(out, payload_len);
  return out;
}

/// A compute-bound source that takes a few milliseconds — long enough that
/// a batch of frames pipelined behind it is decoded before any completes.
std::string slow_source() {
  return "var s = 0; var i = 0;\n"
         "while (i < 200000) { s = s + i; i = i + 1; }\n"
         "console.log(s);\n";
}

}  // namespace

std::vector<NetHostileReport> run_hostile_net_suite() {
  std::vector<NetHostileReport> reports;

  ServiceOptions sopts;
  sopts.max_active = 2;
  sopts.max_queue = 16;
  sopts.max_per_tenant = 2;
  sopts.watchdog_interval_ms = 100;
  sopts.watchdog_stuck_ms = 10'000;

  net::ServerOptions nopts;
  nopts.max_connections = 4;
  nopts.max_frame_bytes = 64u << 10;
  nopts.max_in_flight_per_conn = 2;
  nopts.read_timeout_ms = 300;  // slowloris dies fast in the suite
  nopts.write_timeout_ms = 2000;
  nopts.idle_timeout_ms = 10'000;
  nopts.tenants = {{"tok-alpha", "alpha"}, {"tok-beta", "beta"}};

  Loopback box(sopts, nopts);
  std::string start_error;
  if (!box.server.start(&start_error)) {
    reports.push_back({"server-start", false, start_error});
    return reports;
  }
  const std::uint16_t port = box.server.port();

  // Every case, recovered or not, is followed by the liveness probe: the
  // server must still serve a fresh well-formed request.
  const auto finish = [&](NetHostileReport report) {
    std::string detail;
    if (!probe_alive(port, "tok-alpha", &detail)) {
      report.recovered = false;
      report.detail += " | post-case probe failed: " + detail;
    }
    reports.push_back(std::move(report));
  };

  {  // An HTTP request walks into a binary port.
    NetHostileReport report{"garbage-magic", false, "connect failed"};
    const int fd = connect_raw(port);
    if (fd >= 0) {
      const char kGarbage[] = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
      net::write_all(fd, kGarbage, sizeof(kGarbage) - 1, 1000);
      report = expect_error("garbage-magic", fd, net::WireError::BadMagic,
                            3000);
      ::close(fd);
    }
    finish(std::move(report));
  }

  {  // Header announcing a 1 GiB payload; refused from the 28th byte.
    NetHostileReport report{"oversized-frame", false, "connect failed"};
    const int fd = connect_raw(port);
    if (fd >= 0) {
      const std::vector<std::uint8_t> header =
          header_claiming("tok-alpha", 1u << 30);
      net::write_all(fd, header.data(), header.size(), 1000);
      report = expect_error("oversized-frame", fd,
                            net::WireError::FrameTooLarge, 3000);
      ::close(fd);
    }
    finish(std::move(report));
  }

  {  // A flood of syntactically valid frames with empty (undecodable)
     // request payloads; the first one is answered and the stream cut.
    NetHostileReport report{"zero-length-flood", false, "connect failed"};
    const int fd = connect_raw(port);
    if (fd >= 0) {
      net::Frame empty;
      empty.kind = net::FrameKind::Request;
      empty.tenant = "tok-alpha";
      const std::vector<std::uint8_t> one = net::encode_frame(empty);
      std::vector<std::uint8_t> flood;
      for (int i = 0; i < 32; ++i) {
        flood.insert(flood.end(), one.begin(), one.end());
      }
      net::write_all(fd, flood.data(), flood.size(), 1000);
      report = expect_error("zero-length-flood", fd,
                            net::WireError::MalformedPayload, 3000);
      ::close(fd);
    }
    finish(std::move(report));
  }

  {  // Slowloris: drip a valid frame one byte at a time, slower than the
     // read deadline allows the whole frame to take.
    NetHostileReport report{"slow-drip", false, "connect failed"};
    const int fd = connect_raw(port);
    if (fd >= 0) {
      const std::vector<std::uint8_t> frame =
          net::make_request_frame("tok-alpha", trivial_request("drip"));
      for (std::size_t i = 0; i < 8 && i < frame.size(); ++i) {
        net::write_all(fd, frame.data() + i, 1, 200);
        sleep_ms(60);
      }
      report =
          expect_error("slow-drip", fd, net::WireError::ReadTimeout, 5000);
      ::close(fd);
    }
    finish(std::move(report));
  }

  {  // Vanish mid-frame: half a header, then gone. Nothing to read back —
     // recovery IS the probe.
    NetHostileReport report{"disconnect-mid-frame", false, "connect failed"};
    const int fd = connect_raw(port);
    if (fd >= 0) {
      const std::vector<std::uint8_t> frame =
          net::make_request_frame("tok-alpha", trivial_request("half"));
      net::write_all(fd, frame.data(), frame.size() / 2, 1000);
      ::close(fd);
      report.recovered = true;
      report.detail = "server dropped the half-sent frame";
    }
    finish(std::move(report));
  }

  {  // Vanish mid-response: a full valid request, then gone before the
     // answer. The write fails structurally; the handler frees the slot.
    NetHostileReport report{"disconnect-mid-response", false,
                            "connect failed"};
    const int fd = connect_raw(port);
    if (fd >= 0) {
      const std::vector<std::uint8_t> frame =
          net::make_request_frame("tok-alpha", trivial_request("ghost"));
      net::write_all(fd, frame.data(), frame.size(), 1000);
      ::close(fd);
      report.recovered = true;
      report.detail = "server absorbed the mid-response disconnect";
    }
    finish(std::move(report));
  }

  {  // Flood past the connection cap: four live clients hold every slot;
     // the fifth and sixth get a typed ServerBusy goodbye.
    NetHostileReport report{"connection-flood", true, ""};
    // disconnect-mid-response leaves a ghost session that holds its slot
    // until its outcome fails to write. Let every earlier connection close
    // (bounded) so the keepers find all the slots free.
    const std::int64_t settle_deadline = mono_ms() + 5000;
    while (box.server.stats().connections_open != 0 &&
           mono_ms() < settle_deadline) {
      sleep_ms(10);
    }
    std::vector<std::unique_ptr<net::AnalysisClient>> keep;
    for (std::size_t i = 0; i < nopts.max_connections; ++i) {
      net::ClientOptions copts;
      copts.port = port;
      copts.token = "tok-alpha";
      auto client = std::make_unique<net::AnalysisClient>(copts);
      std::string error;
      if (!client->connect(&error)) {
        report.recovered = false;
        report.detail = "keeper connect: " + error;
        break;
      }
      // A served round-trip proves the slot is truly occupied (accepted
      // and handled), not just sitting in the listen backlog.
      const net::WireResult result =
          client->roundtrip(trivial_request("keeper"));
      if (!result.ok()) {
        report.recovered = false;
        report.detail = "keeper request: " + describe(result);
        break;
      }
      keep.push_back(std::move(client));
    }
    if (report.recovered) {
      for (int extra = 0; extra < 2 && report.recovered; ++extra) {
        const int fd = connect_raw(port);
        if (fd < 0) {
          report.recovered = false;
          report.detail = "excess connect failed outright";
          break;
        }
        const NetHostileReport verdict = expect_error(
            "connection-flood", fd, net::WireError::ServerBusy, 3000);
        ::close(fd);
        report.recovered = verdict.recovered;
        report.detail = verdict.detail;
      }
    }
    keep.clear();  // free the slots before the liveness probe
    finish(std::move(report));
  }

  {  // Pipeline past the in-flight cap in one write batch: the overflow is
     // rejected with TooManyInFlight, the rest served, and the connection
     // survives for a follow-up request.
    NetHostileReport report{"in-flight-flood", false, "connect failed"};
    const int fd = connect_raw(port);
    if (fd >= 0) {
      std::vector<std::uint8_t> batch;
      for (int i = 0; i < 6; ++i) {
        net::WireRequest request;
        request.id = std::uint32_t(i + 1);
        request.name = "pipeline-" + std::to_string(i);
        request.source = slow_source();
        request.max_ticks = 10'000'000;
        request.max_memory_bytes = 8u << 20;
        const std::vector<std::uint8_t> frame =
            net::make_request_frame("tok-alpha", request);
        batch.insert(batch.end(), frame.begin(), frame.end());
      }
      net::write_all(fd, batch.data(), batch.size(), 2000);

      int outcomes = 0;
      int rejected = 0;
      std::string bad;
      std::vector<std::uint8_t> buffer;
      for (int i = 0; i < 6; ++i) {
        const RawFrame raw = read_frame_raw(fd, buffer, 20'000);
        if (!raw.got) {
          bad = "reply " + std::to_string(i) + " never arrived";
          break;
        }
        if (raw.frame.kind == net::FrameKind::Response) {
          ++outcomes;
        } else if (raw.frame.kind == net::FrameKind::Error) {
          net::WireErrorFrame error;
          if (!net::decode_error(raw.frame.payload, error) ||
              error.code != net::WireError::TooManyInFlight) {
            bad = "unexpected error kind in reply " + std::to_string(i);
            break;
          }
          ++rejected;
        }
      }
      if (bad.empty() && rejected >= 1 && outcomes >= 1) {
        // The connection must survive a policy rejection: one more good
        // request on the same socket.
        const std::vector<std::uint8_t> again =
            net::make_request_frame("tok-alpha", trivial_request("after"));
        net::write_all(fd, again.data(), again.size(), 1000);
        const RawFrame raw = read_frame_raw(fd, buffer, 10'000);
        if (raw.got && raw.frame.kind == net::FrameKind::Response) {
          report.recovered = true;
          report.detail = std::to_string(outcomes) + " served, " +
                          std::to_string(rejected) +
                          " typed rejections, connection survived";
        } else {
          report.detail = "connection did not survive the rejection";
        }
      } else {
        report.detail = bad.empty()
                            ? "served=" + std::to_string(outcomes) +
                                  " rejected=" + std::to_string(rejected)
                            : bad;
      }
      ::close(fd);
    }
    finish(std::move(report));
  }

  {  // Unknown tenant token: typed AuthFailed, connection closed, no
     // engine work performed.
    net::ClientOptions copts;
    copts.port = port;
    copts.token = "tok-wrong";
    net::AnalysisClient client(copts);
    NetHostileReport report{"auth-failed", false, "connect failed"};
    std::string error;
    if (client.connect(&error)) {
      const net::WireResult result =
          client.roundtrip(trivial_request("intruder"));
      if (result.kind == net::WireResult::Kind::ErrorFrame &&
          result.error.code == net::WireError::AuthFailed) {
        report.recovered = true;
        report.detail = "typed auth-failed: " + result.error.message;
      } else {
        report.detail = describe(result);
      }
    }
    finish(std::move(report));
  }

  {  // Request-rate flood: a second server on the same service enforces a
     // 3/sec tenant quota; the burst overflow gets typed RateLimited
     // frames and the connection survives into the next window.
    net::ServerOptions ropts = nopts;
    ropts.port = 0;
    ropts.max_in_flight_per_conn = 16;  // quota must trip first
    ropts.tenant_requests_per_sec = 3;
    net::AnalysisServer rate_server(box.service, ropts);
    NetHostileReport report{"rate-flood", false, "rate server start failed"};
    std::string error;
    if (rate_server.start(&error)) {
      const int fd = connect_raw(rate_server.port());
      if (fd < 0) {
        report.detail = "connect failed";
      } else {
        std::vector<std::uint8_t> batch;
        for (int i = 0; i < 8; ++i) {
          net::WireRequest request = trivial_request("burst");
          request.id = std::uint32_t(i + 1);
          const std::vector<std::uint8_t> frame =
              net::make_request_frame("tok-beta", request);
          batch.insert(batch.end(), frame.begin(), frame.end());
        }
        net::write_all(fd, batch.data(), batch.size(), 2000);

        int served = 0;
        int limited = 0;
        std::vector<std::uint8_t> buffer;
        for (int i = 0; i < 8; ++i) {
          const RawFrame raw = read_frame_raw(fd, buffer, 20'000);
          if (!raw.got) break;
          if (raw.frame.kind == net::FrameKind::Response) ++served;
          net::WireErrorFrame frame_error;
          if (raw.frame.kind == net::FrameKind::Error &&
              net::decode_error(raw.frame.payload, frame_error) &&
              frame_error.code == net::WireError::RateLimited) {
            ++limited;
          }
        }
        if (served >= 1 && limited >= 1) {
          // Next rolling window: the same connection is welcome again.
          sleep_ms(1100);
          const std::vector<std::uint8_t> again =
              net::make_request_frame("tok-beta",
                                      trivial_request("next-window"));
          net::write_all(fd, again.data(), again.size(), 1000);
          const RawFrame raw = read_frame_raw(fd, buffer, 10'000);
          if (raw.got && raw.frame.kind == net::FrameKind::Response) {
            report.recovered = true;
            report.detail = std::to_string(served) + " served, " +
                            std::to_string(limited) +
                            " rate-limited, connection outlived the quota";
          } else {
            report.detail = "connection did not survive into the next window";
          }
        } else {
          report.detail = "served=" + std::to_string(served) +
                          " limited=" + std::to_string(limited);
        }
        ::close(fd);
      }
      rate_server.stop();
    } else {
      report.detail = error;
    }
    finish(std::move(report));
  }

  return reports;
}

int run_serve_mode(std::uint64_t base_seed, int count) {
  int failures = 0;

  ServiceOptions sopts;
  sopts.max_active = 4;
  sopts.max_queue = 32;
  sopts.max_per_tenant = 2;
  sopts.governor.ceiling_bytes = 256u << 20;
  sopts.watchdog_interval_ms = 100;
  sopts.watchdog_stuck_ms = 10'000;

  net::ServerOptions nopts;  // open server: the token is the tenant name
  nopts.max_frame_bytes = 1u << 20;

  Loopback box(sopts, nopts);
  std::string error;
  if (!box.server.start(&error)) {
    std::printf("SERVE FAIL: server start: %s\n", error.c_str());
    return 1;
  }
  const std::uint16_t port = box.server.port();

  // Phase 1 — the loopback differential oracle: the same generated request
  // submitted in-process and round-tripped through the wire must agree on
  // ServiceState, console output, and the runtime-fault verdict. (No
  // deadlines here: a wall deadline is legitimately racy, and the oracle
  // wants determinism.)
  const int differential = std::min(count, 32);
  {
    net::ClientOptions copts;
    copts.port = port;
    copts.token = "diff";
    copts.io_timeout_ms = 60'000;
    net::AnalysisClient client(copts);
    if (!client.connect(&error)) {
      std::printf("SERVE FAIL: oracle connect: %s\n", error.c_str());
      return 1;
    }
    for (int i = 0; i < differential; ++i) {
      const std::uint64_t seed = base_seed + std::uint64_t(i);
      GenOptions gen;
      gen.use_timers = i % 4 == 3;
      const std::string source = generate_program(seed, gen);

      net::WireRequest wire_request;
      wire_request.name = "diff-" + std::to_string(seed);
      wire_request.source = source;
      wire_request.mode = 3;
      wire_request.has_timers = gen.use_timers;
      wire_request.max_ticks = 2'000'000;
      wire_request.memory_estimate = 4u << 20;
      wire_request.max_memory_bytes = 4u << 20;
      const net::WireResult wire = client.roundtrip(wire_request);
      if (!wire.ok()) {
        ++failures;
        std::printf("SERVE FAIL seed=%llu: wire side: %s\n",
                    static_cast<unsigned long long>(seed),
                    describe(wire).c_str());
        client.close();
        if (!client.connect(&error)) break;
        continue;
      }

      ServiceRequest direct;
      direct.tenant = "diff";
      direct.memory_estimate = 4u << 20;
      direct.session.name = wire_request.name;
      direct.session.source = source;
      direct.session.mode = 3;
      direct.session.has_timers = gen.use_timers;
      direct.session.max_ticks = 2'000'000;
      direct.session.limits.max_memory_bytes = 4u << 20;
      // Mirror the server's sandbox setup exactly (it reflects the frame
      // cap into the source limit) so the two paths differ only in the
      // wire between them.
      direct.session.limits.max_source_bytes = nopts.max_frame_bytes;
      const ServiceOutcome local =
          box.service.submit(std::move(direct)).wait();

      if (local.state != wire.outcome.state ||
          local.session.console != wire.outcome.session.console ||
          local.session.runtime_fault != wire.outcome.session.runtime_fault) {
        ++failures;
        std::printf(
            "SERVE FAIL seed=%llu: differential mismatch: local state=%s "
            "wire state=%s console %s, fault local=%d wire=%d\n",
            static_cast<unsigned long long>(seed), to_string(local.state),
            to_string(wire.outcome.state),
            local.session.console == wire.outcome.session.console
                ? "agrees"
                : "DIFFERS",
            int(local.session.runtime_fault),
            int(wire.outcome.session.runtime_fault));
      }
    }
    std::printf("serve: differential oracle over %d seed(s)\n", differential);
  }

  // Phase 2 — mixed stream: generated requests from four tenants over
  // persistent connections, with every tenth slot replaced by a hostile
  // action. The hostile slots have no reply to check; the proof of
  // recovery is that the very next good requests keep being served.
  std::vector<std::unique_ptr<net::AnalysisClient>> clients;
  for (int t = 0; t < 4; ++t) {
    net::ClientOptions copts;
    copts.port = port;
    copts.token = "tenant-" + std::to_string(t);
    copts.io_timeout_ms = 60'000;
    clients.push_back(std::make_unique<net::AnalysisClient>(copts));
    if (!clients.back()->connect(&error)) {
      std::printf("SERVE FAIL: tenant %d connect: %s\n", t, error.c_str());
      return failures + 1;
    }
  }

  int hostile_slots = 0;
  for (int i = 0; i < count; ++i) {
    if (i % 10 == 7) {
      ++hostile_slots;
      const int fd = connect_raw(port);
      if (fd >= 0) {
        switch ((i / 10) % 5) {
          case 0: {  // garbage magic
            const char kGarbage[] = "\x00\xff GET /../../etc/passwd";
            net::write_all(fd, kGarbage, sizeof(kGarbage) - 1, 500);
            break;
          }
          case 1: {  // oversized length prefix
            const std::vector<std::uint8_t> header =
                header_claiming("tenant-0", 0x7fffffffu);
            net::write_all(fd, header.data(), header.size(), 500);
            break;
          }
          case 2: {  // zero-length (undecodable) request payload
            net::Frame empty;
            empty.kind = net::FrameKind::Request;
            empty.tenant = "tenant-0";
            const std::vector<std::uint8_t> bytes = net::encode_frame(empty);
            net::write_all(fd, bytes.data(), bytes.size(), 500);
            break;
          }
          case 3: {  // half a frame, then gone
            const std::vector<std::uint8_t> bytes = net::make_request_frame(
                "tenant-0", trivial_request("half"));
            net::write_all(fd, bytes.data(), bytes.size() / 2, 500);
            break;
          }
          case 4: {  // full request, gone before the response
            const std::vector<std::uint8_t> bytes = net::make_request_frame(
                "tenant-0", trivial_request("ghost"));
            net::write_all(fd, bytes.data(), bytes.size(), 500);
            break;
          }
        }
        ::close(fd);
      }
      continue;
    }

    const std::uint64_t seed = base_seed + std::uint64_t(i);
    GenOptions gen;
    gen.use_timers = i % 4 == 3;
    net::WireRequest request;
    request.name = "serve-" + std::to_string(seed);
    request.source = generate_program(seed, gen);
    request.mode = 3;
    request.has_timers = gen.use_timers;
    request.max_ticks = 2'000'000;
    request.memory_estimate = 4u << 20;
    request.max_memory_bytes = 4u << 20;
    if (i % 7 == 5) request.deadline_ms = 250;

    net::AnalysisClient& client = *clients[std::size_t(i % 4)];
    net::WireResult result = client.roundtrip(request);
    if (result.kind == net::WireResult::Kind::Transport) {
      // One reconnect-and-retry: an idle-timeout close between requests is
      // lifecycle, not failure.
      client.close();
      if (client.connect(&error)) result = client.roundtrip(request);
    }
    if (!result.ok()) {
      ++failures;
      std::printf("SERVE FAIL seed=%llu: %s\n",
                  static_cast<unsigned long long>(seed),
                  describe(result).c_str());
    } else if (result.outcome.state != ServiceState::Shed &&
               result.outcome.session.runtime_fault) {
      ++failures;
      std::printf("SERVE FAIL seed=%llu: runtime fault: %s\n",
                  static_cast<unsigned long long>(seed),
                  result.outcome.session.error.c_str());
    }
  }
  clients.clear();

  std::string detail;
  if (!probe_alive(port, "tenant-0", &detail)) {
    ++failures;
    std::printf("SERVE FAIL: final liveness probe: %s\n", detail.c_str());
  }

  const net::ServerStats stats = box.server.stats();
  std::printf(
      "serve: %d slot(s) (%d hostile): accepted=%zu submitted=%zu "
      "responses=%zu error-frames=%zu malformed=%zu timed-out=%zu\n",
      count, hostile_slots, stats.connections_accepted,
      stats.requests_submitted, stats.responses_written, stats.error_frames,
      stats.malformed_frames, stats.connections_timed_out);
  std::printf("serve: %d failure(s)\n", failures);
  return failures > 99 ? 99 : failures;
}

}  // namespace jsceres::fuzz
