// The engine-behaviour corpus: one line per run of the 12 Table-1 apps and
// of a few hundred generated programs, fixing everything the interpreter
// lets an observer see. tests/golden_gen.cpp writes it to
// tests/golden/engine_corpus.txt and tests/test_engine_corpus.cpp replays
// it, so both build their lines here.
//
// A line reads
//   <run> console=<fnv> cpu=<ns> wall=<ns> ticks=<n> ic=<6 counters>
//   hooks=<fnv> events=<n> error=<fnv>
// where `hooks` is FNV-1a over the whole hook stream in delivery order:
// every memory event of every batch (the batch boundaries are not hashed),
// each loop, call, creation, host-access and run-window event, and each
// on_clock_advance with its function id, which pins where every tick flush
// lands between the other events.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "js/parser.h"
#include "support/hash.h"
#include "support/session.h"
#include "workloads/runner.h"

namespace jsceres::corpus {

/// An observer that folds every hook event it sees into one hash.
class StreamHash final : public interp::ExecutionHooks {
 public:
  explicit StreamHash(bool memory) : memory_(memory) {}

  void on_loop_enter(const interp::LoopEvent& e) override { loop('E', e); }
  void on_loop_iteration(const interp::LoopEvent& e) override { loop('I', e); }
  void on_loop_exit(const interp::LoopEvent& e) override { loop('X', e); }
  void on_function_enter(int fn_id) override { fold('F', fn_id); }
  void on_function_exit(int fn_id) override { fold('R', fn_id); }
  void on_env_created(std::uint64_t env_id) override { fold('V', env_id); }
  void on_object_created(std::uint64_t obj_id, int line) override {
    fold('O', obj_id, line);
  }
  void on_memory_batch(const interp::MemoryEvent* events, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      const interp::MemoryEvent& e = events[i];
      fold('M', int(e.kind), e.line, e.id, int(e.base.kind), e.base.env_id);
      text(e.name.str());
    }
  }
  void on_host_access(interp::HostAccess access, const char* api_name) override {
    fold('H', int(access));
    text(api_name);
  }
  void on_clock_advance(int fn_id) override { fold('C', fn_id); }
  void on_run_window_end(bool completed) override { fold('W', completed ? 1 : 0); }
  [[nodiscard]] bool wants_memory_events() const override { return memory_; }

  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  template <class... Ts>
  void fold(char tag, Ts... fields) {
    ++events_;
    bytes(&tag, 1);
    (bytes(&fields, sizeof(fields)), ...);
  }
  void loop(char tag, const interp::LoopEvent& e) { fold(tag, e.loop_id, e.line, e.kind); }
  void text(const std::string& s) { bytes(s.data(), s.size() + 1); }
  void bytes(const void* data, std::size_t n) {
    hash_ = fnv1a({static_cast<const std::byte*>(data), n}, hash_);
  }

  bool memory_;
  std::uint64_t hash_ = kFnv1aBasis;
  std::uint64_t events_ = 0;
};

inline std::uint64_t text_hash(const std::string& s) {
  return fnv1a(std::as_bytes(std::span(s.data(), s.size())));
}

/// The corpus line of a finished session.
inline std::string line_of(const std::string& run, Session& session, const StreamHash* stream,
                           const std::string& error) {
  const interp::Interpreter::ICStats& ic = session.interp().ic_stats();
  const VirtualClock& clock = session.clock();
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s console=%016llx cpu=%lld wall=%lld ticks=%lld ic=%llu/%llu/%llu/%llu/%llu/%llu"
                " hooks=%016llx events=%llu error=%016llx",
                run.c_str(), (unsigned long long)text_hash(session.interp().console_output()),
                (long long)clock.cpu_ns(), (long long)clock.wall_ns(),
                (long long)(clock.cpu_ns() / VirtualClock::kTickNs),
                (unsigned long long)ic.read_hits, (unsigned long long)ic.read_misses,
                (unsigned long long)ic.write_hits, (unsigned long long)ic.write_misses,
                (unsigned long long)ic.megamorphic_trips, (unsigned long long)ic.recaches,
                (unsigned long long)(stream != nullptr ? stream->hash() : 0),
                (unsigned long long)(stream != nullptr ? stream->events() : 0),
                (unsigned long long)text_hash(error));
  return buf;
}

/// One Table-1 app at `mode`, observed (or bare: no observer at all).
inline std::string app_line(const workloads::Workload& workload, CeresMode mode, bool observed) {
  StreamHash stream(mode == CeresMode::Dependence);
  workloads::SessionKnobs knobs;
  if (observed) knobs.observer = &stream;
  workloads::InstrumentedRun run = workloads::run_workload(workload, mode, 0, &knobs);
  const std::string name = "app " + workload.name + " mode" + std::to_string(int(mode)) +
                           (observed ? "" : " bare");
  return line_of(name, run.session, observed ? &stream : nullptr, "");
}

/// One generated program at `mode`; timer programs run under a page, serially
/// or through the frame graph. `max_ticks` > 0 arms a tick budget, so the
/// run trips at an exact tick between two exact events.
inline std::string fuzz_line(std::uint64_t seed, int depth, bool timers, CeresMode mode,
                             bool frame_graph, bool observed, std::int64_t max_ticks = 0) {
  fuzz::GenOptions options;
  options.max_depth = depth;
  options.use_timers = timers;
  const js::Program program = js::parse(fuzz::generate_program(seed, options), "<corpus>");
  StreamHash stream(mode == CeresMode::Dependence);
  SessionSandbox sandbox;
  sandbox.max_ticks = max_ticks;
  if (observed) sandbox.observer = &stream;
  Session session(program, mode, sandbox);
  if (timers) session.open_page();
  if (frame_graph) session.enable_frame_graph();
  std::string error;
  try {
    session.run(timers ? 200 : 0);
  } catch (const EngineError& e) {
    error = e.what();
  }
  const std::string name = "fuzz seed=" + std::to_string(seed) + " depth=" +
                           std::to_string(depth) + (timers ? " timers" : "") +
                           (frame_graph ? " graph" : "") + " mode" +
                           std::to_string(int(mode)) + (observed ? "" : " bare") +
                           (max_ticks > 0 ? " budget=" + std::to_string(max_ticks) : "");
  return line_of(name, session, observed ? &stream : nullptr, error);
}

/// Every corpus line, in file order.
inline std::vector<std::string> record() {
  std::vector<std::string> lines;
  for (const workloads::Workload& workload : workloads::all_workloads()) {
    lines.push_back(app_line(workload, CeresMode::Uninstrumented, false));
    for (const CeresMode mode :
         {CeresMode::Uninstrumented, CeresMode::Lightweight, CeresMode::Dependence}) {
      lines.push_back(app_line(workload, mode, true));
    }
  }
  for (int depth = 1; depth <= 3; ++depth) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      lines.push_back(fuzz_line(seed, depth, false, CeresMode::Uninstrumented, false, false));
      lines.push_back(fuzz_line(seed, depth, false, CeresMode::Dependence, false, true));
      lines.push_back(fuzz_line(seed, depth, false, CeresMode::Dependence, false, true,
                                std::int64_t(60 + seed * 7 % 250)));
    }
    for (std::uint64_t seed = 1001; seed <= 1040; ++seed) {
      lines.push_back(fuzz_line(seed, depth, true, CeresMode::Lightweight, false, true));
      lines.push_back(fuzz_line(seed, depth, true, CeresMode::Dependence, false, true));
      lines.push_back(fuzz_line(seed, depth, true, CeresMode::Uninstrumented, true, true));
      lines.push_back(fuzz_line(seed, depth, true, CeresMode::Dependence, true, true));
    }
  }
  return lines;
}

}  // namespace jsceres::corpus
