// The network ingress: frame codec round-trips and hostile-byte sweeps,
// loopback end-to-end service over real sockets (multi-tenant, shed and
// quarantine surfaced in response frames), the connection lifecycle
// defenses (slowloris, idle, connection/in-flight/rate caps, auth), the
// graceful drain, and the socket fault-injection sweep. This binary runs
// under the TSan and ASan CI jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/client.h"
#include "net/frame.h"
#include "net/net_faults.h"
#include "net/server.h"
#include "rivertrail/thread_pool.h"
#include "support/service.h"

namespace jsceres {
namespace {

using namespace std::chrono_literals;

std::int64_t mono_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- codec -----------------------------------------------------------------

net::WireRequest sample_request() {
  net::WireRequest request;
  request.id = 42;
  request.mode = 1;
  request.has_timers = true;
  request.deadline_ms = 250;
  request.max_ticks = 2'000'000;
  request.memory_estimate = 4u << 20;
  request.max_memory_bytes = 8u << 20;
  request.name = "codec-sample";
  request.source = "console.log('hello \x01 wire');";
  return request;
}

TEST(WireCodec, RequestRoundTrip) {
  const net::WireRequest in = sample_request();
  net::WireRequest out;
  ASSERT_TRUE(net::decode_request(net::encode_request(in), out));
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.mode, in.mode);
  EXPECT_EQ(out.has_timers, in.has_timers);
  EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.max_ticks, in.max_ticks);
  EXPECT_EQ(out.memory_estimate, in.memory_estimate);
  EXPECT_EQ(out.max_memory_bytes, in.max_memory_bytes);
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.source, in.source);
}

TEST(WireCodec, ResponseRoundTripCarriesOutcomeAndHistory) {
  ServiceOutcome in;
  in.state = ServiceState::Degraded;
  in.watchdog_quarantined = true;
  in.shed_reason = "";
  in.session.name = "resp-sample";
  in.session.final_mode = 1;
  in.session.attempts = 2;
  in.session.console = "CK:123\n";
  in.session.error = "deadline";
  in.session.cpu_ns = 1'234'567;
  in.session.wall_ns = 7'654'321;
  in.session.peak_bytes = 3u << 20;
  in.session.runtime_fault = false;
  AttemptRecord first;
  first.mode = 3;
  first.outcome = "deadline";
  first.error = "wall deadline exceeded";
  first.cpu_ns = 1000;
  first.wall_ns = 2000;
  first.peak_bytes = 1u << 20;
  in.session.history.push_back(first);
  AttemptRecord second;
  second.mode = 1;
  second.outcome = "ok";
  second.cpu_ns = 500;
  in.session.history.push_back(second);

  std::uint32_t id = 0;
  ServiceOutcome out;
  ASSERT_TRUE(net::decode_response(net::encode_response(77, in), id, out));
  EXPECT_EQ(id, 77u);
  EXPECT_EQ(out.state, in.state);
  EXPECT_TRUE(out.watchdog_quarantined);
  EXPECT_EQ(out.session.final_mode, 1);
  EXPECT_EQ(out.session.attempts, 2);
  EXPECT_EQ(out.session.name, "resp-sample");
  EXPECT_EQ(out.session.console, "CK:123\n");
  EXPECT_EQ(out.session.error, "deadline");
  EXPECT_EQ(out.session.cpu_ns, in.session.cpu_ns);
  EXPECT_EQ(out.session.wall_ns, in.session.wall_ns);
  EXPECT_EQ(out.session.peak_bytes, in.session.peak_bytes);
  ASSERT_EQ(out.session.history.size(), 2u);
  EXPECT_EQ(out.session.history[0].outcome, "deadline");
  EXPECT_EQ(out.session.history[0].error, "wall deadline exceeded");
  EXPECT_EQ(out.session.history[1].mode, 1);
  EXPECT_EQ(out.session.history[1].outcome, "ok");
  // The first five ServiceState values mirror SessionState.
  EXPECT_EQ(out.session.state, SessionState::Degraded);
}

TEST(WireCodec, ShedResponseRoundTripKeepsReason) {
  ServiceOutcome in;
  in.state = ServiceState::Shed;
  in.shed_reason = "queue-full";
  std::uint32_t id = 0;
  ServiceOutcome out;
  ASSERT_TRUE(net::decode_response(net::encode_response(9, in), id, out));
  EXPECT_EQ(out.state, ServiceState::Shed);
  EXPECT_EQ(out.shed_reason, "queue-full");
}

TEST(WireCodec, ErrorRoundTrip) {
  const std::vector<std::uint8_t> payload =
      net::encode_error(13, net::WireError::RateLimited, "slow down");
  net::WireErrorFrame out;
  ASSERT_TRUE(net::decode_error(payload, out));
  EXPECT_EQ(out.id, 13u);
  EXPECT_EQ(out.code, net::WireError::RateLimited);
  EXPECT_EQ(out.message, "slow down");
}

TEST(WireCodec, FrameHeaderRoundTripStripsTokenPadding) {
  net::Frame in;
  in.kind = net::FrameKind::Request;
  in.tenant = "tok-a";
  in.payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> bytes = net::encode_frame(in);
  EXPECT_EQ(bytes.size(), net::kHeaderBytes + in.payload.size());
  const net::DecodeResult decoded =
      net::decode_frame(bytes.data(), bytes.size(), 1u << 20);
  ASSERT_EQ(decoded.status, net::DecodeStatus::Ok);
  EXPECT_EQ(decoded.frame.kind, net::FrameKind::Request);
  EXPECT_EQ(decoded.frame.tenant, "tok-a");  // NUL padding stripped
  EXPECT_EQ(decoded.frame.payload, in.payload);
  EXPECT_EQ(decoded.consumed, bytes.size());
}

TEST(WireCodec, TruncationSweepEveryPrefixNeedsMoreNeverMisparses) {
  const std::vector<std::uint8_t> bytes =
      net::make_request_frame("tok-alpha", sample_request());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const net::DecodeResult decoded =
        net::decode_frame(bytes.data(), len, 1u << 20);
    EXPECT_EQ(decoded.status, net::DecodeStatus::NeedMore)
        << "prefix of " << len << " bytes";
  }
  EXPECT_EQ(net::decode_frame(bytes.data(), bytes.size(), 1u << 20).status,
            net::DecodeStatus::Ok);
  // Two frames back to back: the decoder consumes exactly one.
  std::vector<std::uint8_t> twice = bytes;
  twice.insert(twice.end(), bytes.begin(), bytes.end());
  const net::DecodeResult one =
      net::decode_frame(twice.data(), twice.size(), 1u << 20);
  ASSERT_EQ(one.status, net::DecodeStatus::Ok);
  EXPECT_EQ(one.consumed, bytes.size());
}

TEST(WireCodec, GarbageAndHeaderViolationsAreTypedBad) {
  // Garbage magic fails from the very first wrong byte — no waiting for a
  // full header.
  const std::uint8_t http[] = {'G', 'E', 'T', ' '};
  net::DecodeResult decoded = net::decode_frame(http, 1, 1u << 20);
  EXPECT_EQ(decoded.status, net::DecodeStatus::Bad);
  EXPECT_EQ(decoded.error, net::WireError::BadMagic);

  std::vector<std::uint8_t> frame =
      net::make_request_frame("t", sample_request());

  std::vector<std::uint8_t> bad_version = frame;
  bad_version[4] = 9;
  decoded = net::decode_frame(bad_version.data(), bad_version.size(), 1u << 20);
  EXPECT_EQ(decoded.status, net::DecodeStatus::Bad);
  EXPECT_EQ(decoded.error, net::WireError::BadVersion);

  std::vector<std::uint8_t> bad_kind = frame;
  bad_kind[5] = 7;
  decoded = net::decode_frame(bad_kind.data(), bad_kind.size(), 1u << 20);
  EXPECT_EQ(decoded.status, net::DecodeStatus::Bad);
  EXPECT_EQ(decoded.error, net::WireError::BadKind);

  // Oversized announced length is refused from the header alone; the
  // payload bytes need not exist.
  std::vector<std::uint8_t> huge(frame.begin(),
                                 frame.begin() + net::kHeaderBytes);
  huge[24] = 0xff;
  huge[25] = 0xff;
  huge[26] = 0xff;
  huge[27] = 0x7f;
  decoded = net::decode_frame(huge.data(), huge.size(), 1u << 20);
  EXPECT_EQ(decoded.status, net::DecodeStatus::Bad);
  EXPECT_EQ(decoded.error, net::WireError::FrameTooLarge);
}

TEST(WireCodec, PayloadDecodersRejectTruncationAndTrailingBytes) {
  // Every strict prefix of each payload must fail to decode — never crash,
  // never misparse — and trailing bytes are a violation too.
  const std::vector<std::uint8_t> request = net::encode_request(sample_request());
  for (std::size_t len = 0; len < request.size(); ++len) {
    net::WireRequest out;
    EXPECT_FALSE(net::decode_request(
        std::vector<std::uint8_t>(request.begin(), request.begin() + len), out))
        << "request prefix of " << len;
  }
  std::vector<std::uint8_t> padded = request;
  padded.push_back(0);
  net::WireRequest request_out;
  EXPECT_FALSE(net::decode_request(padded, request_out));

  ServiceOutcome outcome;
  outcome.state = ServiceState::Completed;
  outcome.session.console = "x\n";
  AttemptRecord record;
  record.outcome = "ok";
  outcome.session.history.push_back(record);
  const std::vector<std::uint8_t> response = net::encode_response(5, outcome);
  for (std::size_t len = 0; len < response.size(); ++len) {
    std::uint32_t id = 0;
    ServiceOutcome out;
    EXPECT_FALSE(net::decode_response(
        std::vector<std::uint8_t>(response.begin(), response.begin() + len),
        id, out))
        << "response prefix of " << len;
  }

  const std::vector<std::uint8_t> error =
      net::encode_error(1, net::WireError::IdleTimeout, "bye");
  for (std::size_t len = 0; len < error.size(); ++len) {
    net::WireErrorFrame out;
    EXPECT_FALSE(net::decode_error(
        std::vector<std::uint8_t>(error.begin(), error.begin() + len), out))
        << "error prefix of " << len;
  }
}

// --- loopback harness ------------------------------------------------------

/// One service behind one server on an ephemeral loopback port. Member
/// order is the teardown contract: the server stops (joining connection
/// threads) before the service it feeds dies.
struct WireHarness {
  rivertrail::ThreadPool pool{4};
  AnalysisService service;
  net::AnalysisServer server;

  WireHarness(const ServiceOptions& sopts, const net::ServerOptions& nopts)
      : service(pool, sopts), server(service, nopts) {}
};

ServiceOptions default_service_options() {
  ServiceOptions options;
  options.max_active = 2;
  options.max_queue = 16;
  options.max_per_tenant = 2;
  return options;
}

net::ClientOptions client_options(const net::AnalysisServer& server,
                                  const std::string& token) {
  net::ClientOptions options;
  options.port = server.port();
  options.token = token;
  options.io_timeout_ms = 20'000;
  return options;
}

net::WireRequest trivial_request(const std::string& name) {
  net::WireRequest request;
  request.name = name;
  request.source = "console.log(1 + 2);";
  request.max_ticks = 1'000'000;
  request.max_memory_bytes = 4u << 20;
  request.memory_estimate = 1u << 20;
  return request;
}

/// A session that keeps a worker busy for a while: ~75 ms per 200000
/// iterations in an optimized build on a 4-vCPU x86-64 host, several times
/// that under the sanitizers.
net::WireRequest slow_request(const std::string& name,
                              int iterations = 200000) {
  net::WireRequest request;
  request.name = name;
  request.source = "var s = 0; var i = 0;\nwhile (i < " +
                   std::to_string(iterations) +
                   ") { s = s + i; i = i + 1; }\nconsole.log(s);\n";
  request.max_ticks = 50 * std::int64_t(iterations);
  request.max_memory_bytes = 8u << 20;
  return request;
}

bool connect_socket(int fd, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (!connect_socket(fd, port)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct RawFrame {
  bool got = false;
  bool closed = false;
  net::Frame frame;
};

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

// --- loopback end-to-end ---------------------------------------------------

TEST(NetServer, LoopbackServesMultipleTenantsEndToEnd) {
  WireHarness harness(default_service_options(), {});
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  // Three tenants, five requests each, over persistent connections. The
  // open-server mode uses the raw token as the tenant name the service
  // caps and meters on.
  std::vector<std::unique_ptr<net::AnalysisClient>> clients;
  for (int t = 0; t < 3; ++t) {
    clients.push_back(std::make_unique<net::AnalysisClient>(
        client_options(harness.server, "tenant-" + std::to_string(t))));
    ASSERT_TRUE(clients.back()->connect(&error)) << error;
  }
  for (int i = 0; i < 15; ++i) {
    net::WireRequest request = trivial_request("e2e-" + std::to_string(i));
    const net::WireResult result =
        clients[std::size_t(i % 3)]->roundtrip(request);
    ASSERT_TRUE(result.ok()) << result.transport;
    EXPECT_EQ(result.outcome.state, ServiceState::Completed)
        << result.outcome.session.error;
    EXPECT_EQ(result.outcome.session.console, "3\n");
    EXPECT_EQ(result.outcome.session.name, "e2e-" + std::to_string(i));
    EXPECT_GE(result.outcome.session.attempts, 1);
  }
  clients.clear();
  // A response is counted once its write returns, which can be after the
  // client has already read it: join the connection threads first.
  harness.server.stop();

  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.requests_submitted, 15u);
  EXPECT_EQ(stats.responses_written, 15u);
  EXPECT_EQ(stats.connections_accepted, 3u);
  EXPECT_EQ(stats.malformed_frames, 0u);
  EXPECT_EQ(harness.service.stats().completed, 15u);
}

TEST(NetServer, ShedIsSurfacedInTheResponseFrame) {
  // A 1-byte governor ceiling sheds every admission with "memory-pressure";
  // the wire client must see the structured shed, not an error or a hang.
  ServiceOptions sopts = default_service_options();
  sopts.governor.ceiling_bytes = 1;
  WireHarness harness(sopts, {});
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  net::AnalysisClient client(client_options(harness.server, "t"));
  ASSERT_TRUE(client.connect(&error)) << error;
  const net::WireResult result = client.roundtrip(trivial_request("shed-me"));
  ASSERT_TRUE(result.ok()) << result.transport;
  EXPECT_EQ(result.outcome.state, ServiceState::Shed);
  EXPECT_EQ(result.outcome.shed_reason, "memory-pressure");
}

TEST(NetServer, WatchdogQuarantineIsSurfacedInTheResponseFrame) {
  ServiceOptions sopts = default_service_options();
  sopts.watchdog_interval_ms = 5;
  sopts.watchdog_stuck_ms = 50;
  WireHarness harness(sopts, {});
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  net::AnalysisClient client(client_options(harness.server, "t"));
  ASSERT_TRUE(client.connect(&error)) << error;
  net::WireRequest request;
  request.name = "stuck";
  // Diverging loop, no tick budget: only the watchdog's sticky cancel ends
  // it, and the quarantine verdict must cross the wire intact.
  request.source = "var i = 0; while (i < 1) { i = i - 1; }";
  request.max_ticks = 0;
  request.max_memory_bytes = 4u << 20;
  const net::WireResult result = client.roundtrip(request);
  ASSERT_TRUE(result.ok()) << result.transport;
  EXPECT_EQ(result.outcome.state, ServiceState::Quarantined);
  EXPECT_TRUE(result.outcome.watchdog_quarantined);
}

// --- hostile-client defense ------------------------------------------------

TEST(NetServer, MalformedFrameGetsTypedErrorWithoutTouchingTheEngine) {
  WireHarness harness(default_service_options(), {});
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  const int fd = connect_raw(harness.server.port());
  ASSERT_GE(fd, 0);
  const char garbage[] = "NOT A FRAME AT ALL";
  net::write_all(fd, garbage, sizeof(garbage) - 1, 1000);
  std::vector<std::uint8_t> buffer;
  const RawFrame raw = read_frame_raw(fd, buffer, 5000);
  ASSERT_TRUE(raw.got) << "no typed error frame";
  ASSERT_EQ(raw.frame.kind, net::FrameKind::Error);
  net::WireErrorFrame frame_error;
  ASSERT_TRUE(net::decode_error(raw.frame.payload, frame_error));
  EXPECT_EQ(frame_error.code, net::WireError::BadMagic);
  // ...then the close.
  const RawFrame after = read_frame_raw(fd, buffer, 5000);
  EXPECT_FALSE(after.got);
  EXPECT_TRUE(after.closed);
  ::close(fd);

  // The engine never saw it.
  EXPECT_EQ(harness.server.stats().requests_submitted, 0u);
  EXPECT_EQ(harness.service.stats().submitted, 0u);
  EXPECT_EQ(harness.server.stats().malformed_frames, 1u);
}

TEST(NetServer, SlowlorisDiesWithTypedReadTimeout) {
  net::ServerOptions nopts;
  nopts.read_timeout_ms = 100;
  WireHarness harness(default_service_options(), nopts);
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  const int fd = connect_raw(harness.server.port());
  ASSERT_GE(fd, 0);
  const std::vector<std::uint8_t> frame =
      net::make_request_frame("t", trivial_request("drip"));
  net::write_all(fd, frame.data(), 8, 1000);  // a started frame, never finished

  std::vector<std::uint8_t> buffer;
  const RawFrame raw = read_frame_raw(fd, buffer, 5000);
  ASSERT_TRUE(raw.got) << "no typed error frame";
  ASSERT_EQ(raw.frame.kind, net::FrameKind::Error);
  net::WireErrorFrame frame_error;
  ASSERT_TRUE(net::decode_error(raw.frame.payload, frame_error));
  EXPECT_EQ(frame_error.code, net::WireError::ReadTimeout);
  ::close(fd);
  EXPECT_GE(harness.server.stats().connections_timed_out, 1u);
}

TEST(NetServer, IdleConnectionIsClosedWithTypedTimeout) {
  net::ServerOptions nopts;
  nopts.idle_timeout_ms = 100;
  WireHarness harness(default_service_options(), nopts);
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  const int fd = connect_raw(harness.server.port());
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> buffer;
  const RawFrame raw = read_frame_raw(fd, buffer, 5000);
  ASSERT_TRUE(raw.got) << "no typed error frame";
  ASSERT_EQ(raw.frame.kind, net::FrameKind::Error);
  net::WireErrorFrame frame_error;
  ASSERT_TRUE(net::decode_error(raw.frame.payload, frame_error));
  EXPECT_EQ(frame_error.code, net::WireError::IdleTimeout);
  const RawFrame after = read_frame_raw(fd, buffer, 5000);
  EXPECT_TRUE(after.closed);
  ::close(fd);
}

TEST(NetServer, AuthFailureIsTypedAndClosesBeforeTheEngine) {
  net::ServerOptions nopts;
  nopts.tenants = {{"tok-good", "good"}};
  WireHarness harness(default_service_options(), nopts);
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  net::AnalysisClient bad(client_options(harness.server, "tok-evil"));
  ASSERT_TRUE(bad.connect(&error)) << error;
  const net::WireResult rejected = bad.roundtrip(trivial_request("intruder"));
  ASSERT_EQ(rejected.kind, net::WireResult::Kind::ErrorFrame);
  EXPECT_EQ(rejected.error.code, net::WireError::AuthFailed);
  EXPECT_EQ(harness.service.stats().submitted, 0u);

  net::AnalysisClient good(client_options(harness.server, "tok-good"));
  ASSERT_TRUE(good.connect(&error)) << error;
  const net::WireResult served = good.roundtrip(trivial_request("resident"));
  ASSERT_TRUE(served.ok()) << served.transport;
  EXPECT_EQ(served.outcome.state, ServiceState::Completed);
}

TEST(NetServer, RateQuotaRejectsBurstAndConnectionSurvives) {
  net::ServerOptions nopts;
  nopts.tenant_requests_per_sec = 2;
  nopts.max_in_flight_per_conn = 16;  // the quota must trip first
  WireHarness harness(default_service_options(), nopts);
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  const int fd = connect_raw(harness.server.port());
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> batch;
  for (int i = 0; i < 6; ++i) {
    net::WireRequest request = trivial_request("burst");
    request.id = std::uint32_t(i + 1);
    const std::vector<std::uint8_t> frame = net::make_request_frame("t", request);
    batch.insert(batch.end(), frame.begin(), frame.end());
  }
  net::write_all(fd, batch.data(), batch.size(), 2000);

  int served = 0;
  int limited = 0;
  std::vector<std::uint8_t> buffer;
  for (int i = 0; i < 6; ++i) {
    const RawFrame raw = read_frame_raw(fd, buffer, 20'000);
    ASSERT_TRUE(raw.got) << "reply " << i << " missing";
    if (raw.frame.kind == net::FrameKind::Response) {
      ++served;
      continue;
    }
    ASSERT_EQ(raw.frame.kind, net::FrameKind::Error);
    net::WireErrorFrame frame_error;
    ASSERT_TRUE(net::decode_error(raw.frame.payload, frame_error));
    EXPECT_EQ(frame_error.code, net::WireError::RateLimited);
    ++limited;
  }
  EXPECT_GE(served, 1);
  EXPECT_GE(limited, 1);
  EXPECT_EQ(served + limited, 6);

  // A policy rejection keeps the connection alive for the next window.
  std::this_thread::sleep_for(1100ms);
  const std::vector<std::uint8_t> again =
      net::make_request_frame("t", trivial_request("next-window"));
  net::write_all(fd, again.data(), again.size(), 1000);
  const RawFrame raw = read_frame_raw(fd, buffer, 20'000);
  ASSERT_TRUE(raw.got);
  EXPECT_EQ(raw.frame.kind, net::FrameKind::Response);
  ::close(fd);
  EXPECT_GE(harness.server.stats().rate_limited, 1u);
}

TEST(NetServer, InFlightCapRejectsPipelineOverflowAndConnectionSurvives) {
  net::ServerOptions nopts;
  nopts.max_in_flight_per_conn = 2;
  WireHarness harness(default_service_options(), nopts);
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  const int fd = connect_raw(harness.server.port());
  ASSERT_GE(fd, 0);
  // One batched write so every frame is decoded before any outcome can be
  // flushed: requests 3..5 deterministically exceed the cap of 2.
  std::vector<std::uint8_t> batch;
  for (int i = 0; i < 5; ++i) {
    net::WireRequest request = slow_request("pipe-" + std::to_string(i));
    request.id = std::uint32_t(i + 1);
    const std::vector<std::uint8_t> frame = net::make_request_frame("t", request);
    batch.insert(batch.end(), frame.begin(), frame.end());
  }
  net::write_all(fd, batch.data(), batch.size(), 2000);

  int served = 0;
  int rejected = 0;
  std::vector<std::uint8_t> buffer;
  for (int i = 0; i < 5; ++i) {
    const RawFrame raw = read_frame_raw(fd, buffer, 30'000);
    ASSERT_TRUE(raw.got) << "reply " << i << " missing";
    if (raw.frame.kind == net::FrameKind::Response) {
      ++served;
      continue;
    }
    ASSERT_EQ(raw.frame.kind, net::FrameKind::Error);
    net::WireErrorFrame frame_error;
    ASSERT_TRUE(net::decode_error(raw.frame.payload, frame_error));
    EXPECT_EQ(frame_error.code, net::WireError::TooManyInFlight);
    ++rejected;
  }
  EXPECT_GE(served, 2);
  EXPECT_GE(rejected, 1);

  const std::vector<std::uint8_t> again =
      net::make_request_frame("t", trivial_request("after"));
  net::write_all(fd, again.data(), again.size(), 1000);
  const RawFrame raw = read_frame_raw(fd, buffer, 20'000);
  ASSERT_TRUE(raw.got);
  EXPECT_EQ(raw.frame.kind, net::FrameKind::Response);
  ::close(fd);
}

TEST(NetServer, ConnectionCapRejectsExcessWithTypedServerBusy) {
  net::ServerOptions nopts;
  nopts.max_connections = 1;
  WireHarness harness(default_service_options(), nopts);
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  net::AnalysisClient keeper(client_options(harness.server, "t"));
  ASSERT_TRUE(keeper.connect(&error)) << error;
  // A served round-trip proves the slot is occupied, not just backlogged.
  ASSERT_TRUE(keeper.roundtrip(trivial_request("keeper")).ok());

  const int fd = connect_raw(harness.server.port());
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> buffer;
  const RawFrame raw = read_frame_raw(fd, buffer, 5000);
  ASSERT_TRUE(raw.got) << "no ServerBusy goodbye";
  ASSERT_EQ(raw.frame.kind, net::FrameKind::Error);
  net::WireErrorFrame frame_error;
  ASSERT_TRUE(net::decode_error(raw.frame.payload, frame_error));
  EXPECT_EQ(frame_error.code, net::WireError::ServerBusy);
  ::close(fd);
  EXPECT_GE(harness.server.stats().connections_rejected, 1u);

  // The keeper's slot still works.
  EXPECT_TRUE(keeper.roundtrip(trivial_request("still-here")).ok());
}

TEST(NetServer, GracefulDrainFlushesInFlightOutcomeBeforeClosing) {
  WireHarness harness(default_service_options(), {});
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  net::AnalysisClient client(client_options(harness.server, "t"));
  ASSERT_TRUE(client.connect(&error)) << error;
  ASSERT_TRUE(client.send_request(slow_request("in-flight-at-stop"), &error))
      << error;

  // Let the server read and submit it, then stop: the drain must still
  // deliver the outcome (the wire mirror of "queued requests still run").
  std::this_thread::sleep_for(50ms);
  harness.server.stop();
  EXPECT_FALSE(harness.server.running());

  const net::WireResult result = client.read_result();
  ASSERT_TRUE(result.ok()) << result.transport;
  EXPECT_EQ(result.outcome.state, ServiceState::Completed);
}

TEST(NetServer, StopWithoutTrafficIsCleanAndIdempotent) {
  WireHarness harness(default_service_options(), {});
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;
  harness.server.stop();
  harness.server.stop();  // idempotent
  EXPECT_FALSE(harness.server.running());
  // Restartable on a fresh port.
  ASSERT_TRUE(harness.server.start(&error)) << error;
  net::AnalysisClient client(client_options(harness.server, "t"));
  ASSERT_TRUE(client.connect(&error)) << error;
  EXPECT_TRUE(client.roundtrip(trivial_request("after-restart")).ok());
}

// --- wake-ups ----------------------------------------------------------------

/// Poll `done` every millisecond until it holds or `timeout_ms` passes.
template <typename Pred>
bool eventually(Pred done, int timeout_ms) {
  const std::int64_t deadline = mono_ms() + timeout_ms;
  while (!done()) {
    if (mono_ms() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(NetServer, ResponseIsNotHeldForAPollTick) {
  WireHarness harness(default_service_options(), {});
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;
  net::AnalysisClient client(client_options(harness.server, "t"));
  ASSERT_TRUE(client.connect(&error)) << error;

  // The connection is woken by the ticket's completion, so a trivial round
  // trip costs the session plus two loopback hops — not a poll interval.
  std::vector<double> round_trip_ms;
  for (int i = 0; i < 50; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const net::WireResult result = client.roundtrip(trivial_request("quick"));
    round_trip_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    ASSERT_TRUE(result.ok()) << result.transport;
    EXPECT_EQ(result.outcome.state, ServiceState::Completed);
  }
  std::sort(round_trip_ms.begin(), round_trip_ms.end());
  // ThreadSanitizer slows the session itself several-fold; either bound is
  // below the 5 ms a poll tick would add.
#if defined(__SANITIZE_THREAD__)
  const double bound_ms = 4.0;
#else
  const double bound_ms = 2.5;
#endif
  EXPECT_LT(round_trip_ms[round_trip_ms.size() / 2], bound_ms);
}

TEST(NetServer, StopWakesIdleConnectionsPromptly) {
  WireHarness harness(default_service_options(), {});
  std::string error;
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(harness.server.start(&error)) << error;
    // A served round trip on each proves its connection thread is parked
    // in its poll, not still being accepted.
    std::vector<std::unique_ptr<net::AnalysisClient>> idle;
    for (int c = 0; c < 4; ++c) {
      idle.push_back(std::make_unique<net::AnalysisClient>(
          client_options(harness.server, "t")));
      ASSERT_TRUE(idle.back()->connect(&error)) << error;
      ASSERT_TRUE(idle.back()->roundtrip(trivial_request("park")).ok());
    }
    const auto start = std::chrono::steady_clock::now();
    harness.server.stop();
    const double stop_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(stop_ms, 15.0) << "cycle " << cycle;
  }
}

TEST(NetServer, ResponseWriteRestartsTheIdleClock) {
  net::ServerOptions nopts;
  nopts.idle_timeout_ms = 100;
  WireHarness harness(default_service_options(), nopts);
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;
  net::AnalysisClient client(client_options(harness.server, "t"));
  ASSERT_TRUE(client.connect(&error)) << error;

  // The session outlives the idle window (~225 ms against 100 ms); its
  // response is traffic, so a client that answers 20 ms later is still
  // served, not timed out.
  const net::WireResult first = client.roundtrip(slow_request("long", 600000));
  ASSERT_TRUE(first.ok()) << first.transport;
  EXPECT_EQ(first.outcome.state, ServiceState::Completed);
  std::this_thread::sleep_for(20ms);
  const net::WireResult second = client.roundtrip(trivial_request("next"));
  ASSERT_EQ(second.kind, net::WireResult::Kind::Outcome)
      << "error code " << int(second.error.code) << ", transport '"
      << second.transport << "'";
  EXPECT_EQ(second.outcome.state, ServiceState::Completed);
}

TEST(NetServer, LateCompletionNeverWritesIntoAReusedFd) {
  WireHarness harness(default_service_options(), {});
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  // The peer vanishes while its session still runs on the pool: the
  // ticket completes after the connection thread has closed its fds.
  const int fd = connect_raw(harness.server.port());
  ASSERT_GE(fd, 0);
  const std::vector<std::uint8_t> frame =
      net::make_request_frame("t", slow_request("orphan"));
  ASSERT_EQ(net::write_all(fd, frame.data(), frame.size(), 1000),
            net::IoStatus::Ok);
  ASSERT_TRUE(eventually(
      [&] { return harness.server.stats().requests_submitted == 1; }, 5000));
  ::close(fd);
  ASSERT_TRUE(eventually(
      [&] { return harness.server.stats().connections_open == 0; }, 5000));

  // Client sockets take the descriptor numbers the orphan freed — all of
  // them created before any connects, so the server's accept() cannot
  // race for the numbers. A stray write into one would reach the server
  // as a malformed frame. Keep serving on them until the orphan's
  // completion has surely fired, then one round more.
  std::vector<int> fds;
  for (int c = 0; c < 4; ++c) {
    fds.push_back(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_GE(fds.back(), 0);
  }
  for (const int client : fds) {
    ASSERT_TRUE(connect_socket(client, harness.server.port()));
  }
  std::vector<std::vector<std::uint8_t>> buffers(fds.size());
  const std::vector<std::uint8_t> request =
      net::make_request_frame("t", trivial_request("reuser"));
  std::size_t served = 0;
  bool orphan_done = false;
  const std::int64_t deadline = mono_ms() + 30'000;
  for (int extra = 0; extra < 2 && mono_ms() < deadline;) {
    for (std::size_t c = 0; c < fds.size(); ++c) {
      ASSERT_EQ(net::write_all(fds[c], request.data(), request.size(), 1000),
                net::IoStatus::Ok);
      const RawFrame raw = read_frame_raw(fds[c], buffers[c], 20'000);
      ASSERT_TRUE(raw.got) << "client " << c << ": no clean frame";
      ASSERT_EQ(raw.frame.kind, net::FrameKind::Response);
      std::uint32_t id = 0;
      ServiceOutcome outcome;
      ASSERT_TRUE(net::decode_response(raw.frame.payload, id, outcome));
      EXPECT_EQ(outcome.session.console, "3\n");
      ++served;
    }
    if (orphan_done) ++extra;
    orphan_done = harness.service.stats().completed >= served + 1;
  }
  for (const int client : fds) ::close(client);
  EXPECT_TRUE(orphan_done);
  EXPECT_EQ(harness.server.stats().malformed_frames, 0u);
}

// --- socket fault-injection sweep ------------------------------------------

TEST(NetServer, FaultSweepEveryKEndsStructuredAndServerSurvives) {
  WireHarness harness(default_service_options(), {});
  std::string error;
  ASSERT_TRUE(harness.server.start(&error)) << error;

  const auto one_exchange = [&]() -> net::WireResult {
    net::ClientOptions copts = client_options(harness.server, "t");
    copts.io_timeout_ms = 10'000;
    net::AnalysisClient client(copts);
    std::string connect_error;
    if (!client.connect(&connect_error)) {
      net::WireResult result;
      result.transport = "connect: " + connect_error;
      return result;
    }
    return client.roundtrip(trivial_request("fault-probe"));
  };

  // Size the sweep: count the I/O events of one clean exchange by arming a
  // countdown that never reaches zero.
  net::io_faults::arm(net::io_faults::Kind::ShortRead, 1'000'000'000);
  {
    const net::WireResult clean = one_exchange();
    ASSERT_TRUE(clean.ok()) << clean.transport;
  }
  const std::int64_t events = net::io_faults::events_observed();
  net::io_faults::disarm();
  ASSERT_GT(events, 0);
  const std::int64_t sweep = events < 64 ? events : 64;

  const net::io_faults::Kind kinds[] = {
      net::io_faults::Kind::ShortRead, net::io_faults::Kind::ShortWrite,
      net::io_faults::Kind::Eintr, net::io_faults::Kind::Disconnect};
  for (const net::io_faults::Kind kind : kinds) {
    for (std::int64_t k = 1; k <= sweep; ++k) {
      net::io_faults::arm(kind, k);
      const net::WireResult result = one_exchange();
      net::io_faults::disarm();
      // Every interleaving ends structured: a served outcome, a typed
      // error frame, or a client-side transport verdict — never a hang
      // (the roundtrip's own deadline enforces that) and never a crash.
      if (result.ok()) {
        EXPECT_EQ(result.outcome.state, ServiceState::Completed)
            << "kind=" << int(kind) << " k=" << k;
      } else {
        EXPECT_FALSE(result.transport.empty() &&
                     result.kind != net::WireResult::Kind::ErrorFrame)
            << "kind=" << int(kind) << " k=" << k;
      }
    }
    // After each kind's sweep the server still serves cleanly.
    const net::WireResult after = one_exchange();
    ASSERT_TRUE(after.ok()) << "kind=" << int(kind) << ": " << after.transport;
    EXPECT_EQ(after.outcome.state, ServiceState::Completed);
  }

  // Every frame the server counts as written was written whole: a write
  // the sweep broke counts as neither a response nor an error frame.
  harness.server.stop();
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.frames_written, stats.responses_written + stats.error_frames);
}

}  // namespace
}  // namespace jsceres
