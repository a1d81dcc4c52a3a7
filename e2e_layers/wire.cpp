// wire_small: two closed-loop clients round-tripping small generated
// programs through AnalysisClient -> AnalysisServer -> AnalysisService ->
// SessionSupervisor. Engine work per request is a fraction of a
// millisecond, so the wire, admission and session path dominate.

#include <cstdio>
#include <memory>
#include <thread>

#include "ceres/dependence_analyzer.h"
#include "ceres/lightweight_profiler.h"
#include "common.h"
#include "dom/page.h"
#include "fuzz/generator.h"
#include "interp/interpreter.h"
#include "js/parser.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "rivertrail/thread_pool.h"
#include "support/service.h"
#include "support/supervisor.h"

namespace e2e {
namespace {

using namespace jsceres;

constexpr int kClients = 2;
constexpr unsigned kPoolWorkers = 2;
/// A multiple of 12, so every (mode, timers) class of the mix appears
/// equally often in one pass; large enough that the mix's mean cost barely
/// moves from seed to seed.
constexpr std::size_t kCorpusSize = 768;
constexpr int kSetupRepeats = 3;
/// Statement nesting of the generated programs. At depth 1 no loop nests in
/// another: a program costs about 0.15 ms of engine work, far under the
/// server's 5 ms connection poll, so the session path around the engine
/// dominates, and the corpus mean of its virtual-clock ticks moves by about
/// 3% between seeds. At depth 2 literal-bounded loops nest, a few programs
/// take 5-40 ms, and that mean moved by 34% between seeds, which reads as
/// CPU cost; the generator's default depth 3 has a tail of 50-200 ms.
constexpr int kProgramDepth = 1;
constexpr int kModes[] = {3, 1, 0};
constexpr std::size_t kMaxFrameBytes = 1u << 20;  // ServerOptions default
/// Round trips per client between host-speed probes: about 0.2 ms of probe
/// per 85 ms of round trips, enough to follow the host over seconds.
constexpr int kProbeEvery = 16;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Item {
  net::WireRequest wire;
  /// The session the server builds from `wire` (server.cpp handle_frame).
  SessionRequest session;
  SessionOutcome expected;
};

/// Corpus slot i: generated program, every fourth with the timers/event
/// loop epilogue, modes cycling 3/1/0.
std::vector<Item> make_corpus(std::uint64_t seed) {
  std::vector<Item> corpus(kCorpusSize);
  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    fuzz::GenOptions gen;
    gen.max_depth = kProgramDepth;
    gen.use_timers = i % 4 == 3;
    Item& item = corpus[i];
    item.wire.name = "w" + std::to_string(i);
    item.wire.source = fuzz::generate_program(mix(seed * kCorpusSize + i), gen);
    item.wire.mode = std::uint8_t(kModes[i % 3]);
    item.wire.has_timers = gen.use_timers;
    item.session.name = item.wire.name;
    item.session.source = item.wire.source;
    item.session.mode = item.wire.mode;
    item.session.has_timers = item.wire.has_timers;
    item.session.limits.max_source_bytes = kMaxFrameBytes;
  }
  return corpus;
}

bool matches(const ServiceOutcome& got, const SessionOutcome& expected) {
  return got.state == ServiceState::Completed &&
         got.session.final_mode == expected.final_mode &&
         got.session.console == expected.console;
}

bool matches(const net::WireResult& got, const SessionOutcome& expected) {
  return got.ok() && matches(got.outcome, expected);
}

/// The server side: a 2-worker pool, a service admitting 2 sessions, and
/// the TCP server. Declaration order is teardown order in reverse.
struct Stack {
  rivertrail::ThreadPool pool{kPoolWorkers};
  AnalysisService service;
  net::AnalysisServer server;

  static ServiceOptions service_options() {
    ServiceOptions options;
    options.max_active = 2;
    return options;
  }
  Stack() : service(pool, service_options()), server(service) {}
};

std::unique_ptr<net::AnalysisClient> connect_client(const Stack& stack,
                                                    int index) {
  net::ClientOptions options;
  options.port = stack.server.port();
  options.token = "client-" + std::to_string(index);
  auto client = std::make_unique<net::AnalysisClient>(options);
  std::string error;
  if (!client->connect(&error)) {
    std::fprintf(stderr, "e2e_layers: connect failed: %s\n", error.c_str());
    return nullptr;
  }
  return client;
}

struct Live {
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<net::AnalysisClient>> clients;
};

/// One set-up: start the server stack, generate the corpus, connect the
/// clients and push the whole corpus through once (answers checked).
/// Returns false when anything failed.
bool set_up(std::uint64_t seed, const std::vector<Item>& reference, Live& live,
            Result& result) {
  live.stack = std::make_unique<Stack>();
  std::string error;
  if (!live.stack->server.start(&error)) {
    std::fprintf(stderr, "e2e_layers: server start failed: %s\n", error.c_str());
    return false;
  }
  const std::vector<Item> corpus = make_corpus(seed);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].wire.source != reference[i].wire.source) return false;
  }
  live.clients.clear();
  for (int c = 0; c < kClients; ++c) {
    live.clients.push_back(connect_client(*live.stack, c));
    if (live.clients.back() == nullptr) return false;
  }
  std::uint64_t wrong[kClients] = {};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = std::size_t(c); i < corpus.size(); i += kClients) {
        if (!matches(live.clients[std::size_t(c)]->roundtrip(corpus[i].wire),
                     reference[i].expected)) {
          ++wrong[c];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::uint64_t w : wrong) {
    result.attempted += kCorpusSize / kClients;
    result.failed += w;
  }
  return true;
}

/// The in-process reference for every corpus item: SessionSupervisor::
/// run_one on the calling thread, no wire and no admission.
std::vector<Item> make_reference(std::uint64_t seed, Result& result) {
  std::vector<Item> corpus = make_corpus(seed);
  rivertrail::ThreadPool pool(1);
  SessionSupervisor supervisor(pool);
  for (Item& item : corpus) {
    item.expected = supervisor.run_one(item.session);
    if (item.expected.state != SessionState::Completed) {
      ++result.failed;
      std::fprintf(stderr, "e2e_layers: reference %s ended %s: %s\n",
                   item.session.name.c_str(), to_string(item.expected.state),
                   item.expected.error.c_str());
    }
  }
  result.attempted += corpus.size();
  return corpus;
}

Result run_timed(const Options& options) {
  Result result;
  const std::vector<Item> reference = make_reference(options.seed, result);

  Live live;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    live.clients.clear();  // tear the previous set-up down outside the timing
    live.stack.reset();
    const auto t0 = Clock::now();
    if (!set_up(options.seed, reference, live, result)) {
      result.correct = false;
      return result;
    }
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  const double setup_s = quantile(setups, 0.5);
  const double rss_mb = rss_peak_mb();
  TimedPhase phase = run_closed_loop(
      kClients, options.seconds, kProbeEvery,
      [&](int c, std::uint64_t k) {
        net::AnalysisClient& client = *live.clients[std::size_t(c)];
        const Item& item = reference[(k * kClients + std::size_t(c)) % kCorpusSize];
        const net::WireResult got = client.roundtrip(item.wire);
        if (got.kind == net::WireResult::Kind::Transport) {
          client.close();
          client.connect();
        }
        return matches(got, item.expected);
      },
      result);
  phase.setup_s = setup_s;
  phase.rss_peak_mb = rss_mb;
  live.clients.clear();
  live.stack->server.stop();
  report_end_to_end(phase, false, result);
  return result;
}

// --- traced run: replay each request down the ladder ------------------------

/// A session run outside the supervisor, exactly as the supervisor's built-in
/// attempt body runs it: parse, hooks for `mode` (none at 0), interpreter,
/// and a page + event loop when the program uses timers.
struct BareSession {
  double exec_ms = 0;
  double event_loop_ms = 0;
  std::string console;
  std::int64_t ticks = 0;
  interp::Interpreter::ICStats ic;
};

BareSession run_bare(const js::Program& program, const SessionRequest& request,
                     int mode, SpanRecorder* spans, std::uint64_t id) {
  BareSession out;
  VirtualClock clock;
  std::unique_ptr<ceres::DependenceAnalyzer> dependence;
  std::unique_ptr<ceres::LightweightProfiler> lightweight;
  interp::ExecutionHooks* hooks = nullptr;
  if (mode >= 3) {
    dependence = std::make_unique<ceres::DependenceAnalyzer>(program);
    hooks = dependence.get();
  } else if (mode >= 1) {
    lightweight = std::make_unique<ceres::LightweightProfiler>(clock);
    hooks = lightweight.get();
  }
  interp::InterpreterConfig config;
  config.limits = request.limits;
  const char* exec_name = mode >= 3   ? "ceres.mode3_session"
                          : mode >= 1 ? "ceres.mode1_session"
                                      : "interp.session";
  const auto t0 = Clock::now();
  interp::Interpreter interp(program, clock, hooks, config);
  if (request.has_timers) {
    dom::Page page(interp);
    interp.run();
    const auto e0 = Clock::now();
    page.event_loop().run(request.horizon_ms);
    const auto e1 = Clock::now();
    out.event_loop_ms = ms_between(e0, e1);
    if (spans != nullptr) spans->push("dom.event_loop", "dom", id, e0, e1);
  } else {
    interp.run();
  }
  const auto t1 = Clock::now();
  out.exec_ms = ms_between(t0, t1);
  if (spans != nullptr) spans->push(exec_name, mode > 0 ? "ceres" : "interp", id, t0, t1);
  out.console = interp.console_output();
  out.ticks = clock.cpu_ns() / VirtualClock::kTickNs;
  out.ic = interp.ic_stats();
  return out;
}

Result run_traced(const Options& options) {
  Result result;
  const std::vector<Item> reference = make_reference(options.seed, result);
  Live live;
  if (!set_up(options.seed, reference, live, result)) {
    result.correct = false;
    return result;
  }
  net::AnalysisClient& client = *live.clients[0];
  AnalysisService& service = live.stack->service;
  rivertrail::ThreadPool supervisor_pool(1);
  SessionSupervisor supervisor(supervisor_pool);
  const double shared_after_warm = double(AnalysisService::shared_structure_bytes());

  // Exact counts: one unhooked pass over the whole corpus.
  std::map<std::string, double> v;
  {
    double ticks = 0;
    double ic_hits = 0;
    double ic_all = 0;
    for (const Item& item : reference) {
      const js::Program program = js::parse(
          item.session.source, "<session:" + item.session.name + ">",
          item.session.limits);
      const BareSession bare = run_bare(program, item.session, 0, nullptr, 0);
      ticks += double(bare.ticks);
      ic_hits += double(bare.ic.read_hits + bare.ic.write_hits);
      ic_all += double(bare.ic.read_hits + bare.ic.write_hits +
                       bare.ic.read_misses + bare.ic.write_misses);
    }
    v["interp.ticks_per_req"] = ticks / double(kCorpusSize);
    v["interp.ic_hit_ratio"] = ic_all > 0 ? ic_hits / ic_all : 0;
  }

  SpanRecorder spans;
  LadderCheck ladder;
  const double rss_before = rss_now_mb();
  std::uint64_t engine_sessions = 0;  // every engine run of the replay
  double sum_untraced = 0, sum_rt = 0, sum_svc = 0, sum_sup = 0, sum_parse = 0;
  double sum_hooked = 0, sum_unhooked = 0, sum_event_loop = 0, sum_codec_us = 0;
  double sum_bytes = 0;
  double hooked_by_mode[4] = {}, unhooked_by_mode[4] = {};
  double reclaim_ms = 0;
  std::uint64_t reclaim_passes = 0, sessions = 0, attempts = 0, degraded = 0;
  std::uint64_t n = 0;
  const auto deadline = after_seconds(Clock::now(), options.seconds);
  const auto note_session = [&](const SessionOutcome& outcome) {
    ++sessions;
    attempts += std::uint64_t(outcome.attempts);
    if (outcome.state == SessionState::Degraded) ++degraded;
  };
  const auto check = [&](bool ok) {
    ++result.attempted;
    if (!ok) ++result.failed;
  };

  for (std::uint64_t id = 1; Clock::now() < deadline; ++id, ++n) {
    const Item& item = reference[(id - 1) % kCorpusSize];
    const int mode = item.session.mode;

    // Untraced round trip first: the baseline trace.overhead_ratio divides by.
    const auto u0 = Clock::now();
    check(matches(client.roundtrip(item.wire), item.expected));
    const double untraced = ms_between(u0, Clock::now());
    sum_untraced += untraced;

    const auto r0 = Clock::now();
    net::WireResult wire;
    const double rt = spans.time("net.roundtrip", "net", id,
                                 [&] { wire = client.roundtrip(item.wire); });
    check(matches(wire, item.expected));
    if (wire.ok()) note_session(wire.outcome.session);

    // Codec work of one round trip, both sides: request encode/decode,
    // response encode/decode.
    std::size_t bytes = 0;
    bool codec_ok = true;
    const double codec_ms = spans.time("net.codec", "net", id, [&] {
      net::Frame request_frame;
      request_frame.tenant = "client-0";
      request_frame.payload = net::encode_request(item.wire);
      const std::vector<std::uint8_t> request_bytes = net::encode_frame(request_frame);
      const net::DecodeResult request_in =
          net::decode_frame(request_bytes.data(), request_bytes.size(), kMaxFrameBytes);
      net::WireRequest decoded_request;
      codec_ok = request_in.status == net::DecodeStatus::Ok &&
                 net::decode_request(request_in.frame.payload, decoded_request);
      net::Frame response_frame;
      response_frame.kind = net::FrameKind::Response;
      response_frame.payload = net::encode_response(wire.id, wire.outcome);
      const std::vector<std::uint8_t> response_bytes = net::encode_frame(response_frame);
      const net::DecodeResult response_in =
          net::decode_frame(response_bytes.data(), response_bytes.size(), kMaxFrameBytes);
      std::uint32_t response_id = 0;
      ServiceOutcome decoded_outcome;
      codec_ok = codec_ok && response_in.status == net::DecodeStatus::Ok &&
                 net::decode_response(response_in.frame.payload, response_id,
                                      decoded_outcome);
      bytes = request_bytes.size() + response_bytes.size();
    });
    check(codec_ok);

    ServiceRequest service_request;
    service_request.tenant = "client-0";
    service_request.session = item.session;
    ServiceOutcome served;
    const double svc = spans.time("service.submit_wait", "service", id, [&] {
      served = service.submit(std::move(service_request)).wait();
    });
    check(matches(served, item.expected));
    note_session(served.session);

    SessionOutcome supervised;
    const double sup = spans.time("supervisor.run_one", "supervisor", id, [&] {
      supervised = supervisor.run_one(item.session);
    });
    check(supervised.state == SessionState::Completed &&
          supervised.console == item.expected.console);
    note_session(supervised);

    js::Program program;
    const double parse = spans.time("js.parse", "js", id, [&] {
      program = js::parse(item.session.source,
                          "<session:" + item.session.name + ">",
                          item.session.limits);
    });
    const BareSession hooked = run_bare(program, item.session, mode, &spans, id);
    check(hooked.console == item.expected.console);
    BareSession unhooked = hooked;
    if (mode > 0) {
      unhooked = run_bare(program, item.session, 0, &spans, id);
      check(unhooked.console == item.expected.console);
    }
    spans.push("request", "request", id, r0, Clock::now());

    if (id % 32 == 0) {
      reclaim_ms += spans.time("reclaim.pass", "reclaim", id,
                               [] { AnalysisService::run_reclamation_pass(); });
      ++reclaim_passes;
    }

    engine_sessions += mode > 0 ? 6 : 5;
    sum_rt += rt;
    sum_svc += svc;
    sum_sup += sup;
    sum_parse += parse;
    sum_hooked += hooked.exec_ms;
    sum_unhooked += unhooked.exec_ms;
    sum_event_loop += unhooked.event_loop_ms;
    sum_codec_us += codec_ms * 1e3;
    sum_bytes += double(bytes);
    hooked_by_mode[mode] += hooked.exec_ms;
    unhooked_by_mode[mode] += unhooked.exec_ms;
    ladder.add({rt - svc, svc - sup, sup - (parse + hooked.exec_ms), parse,
                hooked.exec_ms - unhooked.exec_ms, unhooked.exec_ms},
               rt, untraced);
  }

  const double dn = double(std::max<std::uint64_t>(n, 1));
  const ServiceStats stats = service.stats();
  v["net.roundtrip_ms"] = sum_rt / dn;
  v["net.self_ms"] = (sum_rt - sum_svc) / dn;
  v["net.codec_us"] = sum_codec_us / dn;
  v["net.bytes_per_req"] = sum_bytes / dn;
  v["service.self_ms"] = (sum_svc - sum_sup) / dn;
  v["service.shed_ratio"] =
      stats.submitted == 0
          ? 0
          : double(stats.shed_queue_full + stats.shed_memory + stats.shed_shutdown) /
                double(stats.submitted);
  v["service.queue_high_water"] = double(stats.queue_high_water);
  v["supervisor.self_ms"] = (sum_sup - sum_parse - sum_hooked) / dn;
  v["supervisor.attempts_per_session"] =
      sessions == 0 ? 0 : double(attempts) / double(sessions);
  v["supervisor.degraded_ratio"] = sessions == 0 ? 0 : double(degraded) / double(sessions);
  v["reclaim.pass_ms"] = reclaim_passes == 0 ? 0 : reclaim_ms / double(reclaim_passes);
  const double shared_end = double(AnalysisService::shared_structure_bytes());
  v["reclaim.shared_mb"] = shared_end / (1 << 20);
  v["reclaim.shared_growth_mb"] = (shared_end - shared_after_warm) / (1 << 20);
  v["js.parse_ms"] = sum_parse / dn;
  v["js.parse_share"] = sum_parse / (sum_parse + sum_hooked);
  v["interp.run_ms"] = sum_unhooked / dn;
  v["ceres.mode3_overhead_ratio"] =
      unhooked_by_mode[3] > 0 ? hooked_by_mode[3] / unhooked_by_mode[3] : 0;
  v["ceres.mode1_overhead_ratio"] =
      unhooked_by_mode[1] > 0 ? hooked_by_mode[1] / unhooked_by_mode[1] : 0;
  v["dom.event_loop_ms"] = sum_event_loop / dn;
  v["trace.overhead_ratio"] = sum_untraced > 0 ? sum_rt / sum_untraced : 0;
  v["trace.ladder_within_ratio"] = ladder.verify(v["trace.overhead_ratio"], result);
  v["reclaim.rss_growth_kb_per_session"] =
      (rss_now_mb() - rss_before) * 1024.0 / double(std::max<std::uint64_t>(engine_sessions, 1));
  report_layers(v, result);

  result.notes.push_back("traced: " + std::to_string(n) +
                         " requests replayed down the ladder");
  spans.write_chrome_trace(options.out_dir + "/trace_wire_small.json", result);
  live.clients.clear();
  live.stack->server.stop();
  return result;
}

}  // namespace

Result run_wire_small(const Options& options) {
  return options.trace ? run_traced(options) : run_timed(options);
}

}  // namespace e2e
