#include "ceres/dependence_analyzer.h"

#include <algorithm>
#include <sstream>
#include <system_error>

#include "support/obs.h"

namespace jsceres::ceres {

namespace detail {

void StampMap::grow() {
  // Sandbox accounting: the doubled table charges the active run's ledger
  // before allocating (or logs the charge; see charge_growth); on a trip
  // the table is untouched and the map stays fully usable (just overfull
  // until the next put retries).
  charge_growth(entries_.size() * sizeof(Entry));
  TableVector<Entry> old = std::move(entries_);
  entries_.assign(old.size() * 2, Entry{});
  mask_ = entries_.size() - 1;
  for (const Entry& entry : old) {
    if (entry.owner == 0) continue;
    std::size_t index = mix(entry.owner, entry.key) & mask_;
    while (entries_[index].owner != 0) index = (index + 1) & mask_;
    entries_[index] = entry;
  }
}

void DenseStampTable::grow(std::uint64_t id) {
  std::size_t capacity = std::max(stamps_.size(), kInitialCapacity);
  while (capacity <= id) capacity *= 2;
  // Sandbox accounting, as in StampMap::grow: charge the added slots before
  // resizing, so a trip leaves the table as it was.
  charge_growth((capacity - stamps_.size()) * sizeof(StampId));
  stamps_.resize(capacity, kEmptyStampId);
}

void WarnIndex::grow() {
  const std::size_t capacity =
      entries_.empty() ? kInitialCapacity : entries_.size() * 2;
  charge_growth((capacity - entries_.size()) * sizeof(Entry));
  TableVector<Entry> old = std::move(entries_);
  entries_.assign(capacity, Entry{});
  mask_ = capacity - 1;
  for (const Entry& entry : old) {
    if (entry.index == kAbsent) continue;
    std::size_t index = hash(entry.key) & mask_;
    while (entries_[index].index != kAbsent) index = (index + 1) & mask_;
    entries_[index] = entry;
  }
}

}  // namespace detail

DependenceAnalyzer::DependenceAnalyzer(const js::Program& program, Options options)
    : program_(program), options_(options) {
  summaries_.resize(std::size_t(program->loop_count()) + 1);
}

std::string DependenceWarning::render(const js::Program& program) const {
  std::string out;
  switch (kind) {
    case AccessKind::VarWrite: out = "write to variable " + name; break;
    case AccessKind::PropWrite: out = "write to property " + name; break;
    case AccessKind::PropRead: out = "read of property " + name; break;
  }
  if (line > 0) out += " (line " + std::to_string(line) + ")";
  out += ": ";
  out += render_characterization(characterization, program);
  out += dep == DepClass::Flow ? "  [flow]" : "  [output]";
  if (count > 1) out += " x" + std::to_string(count);
  return out;
}

LoopDependenceSummary& DependenceAnalyzer::summary_slot(int loop_id) {
  if (std::size_t(loop_id) >= summaries_.size()) {
    summaries_.resize(std::size_t(loop_id) + 1);
  }
  LoopDependenceSummary& summary = summaries_[std::size_t(loop_id)];
  summary.loop_id = loop_id;
  return summary;
}

void DependenceAnalyzer::loop_enter(int loop_id) {
  chars_.on_enter(loop_id);
  LoopDependenceSummary& summary = summary_slot(loop_id);
  if (chars_.is_recursive(loop_id)) summary.recursion_detected = true;
}

void DependenceAnalyzer::function_enter(int fn_id) {
  if (chars_.any_open()) {
    for (const int open_fn : fn_stack_) {
      if (open_fn == fn_id) {
        // Recursive call under an open loop: iteration work is unbounded.
        for (const LoopFrame& frame : chars_.current()) {
          summary_slot(frame.loop_id).recursion_detected = true;
        }
        break;
      }
    }
  }
  fn_stack_.push_back(fn_id);
}

void DependenceAnalyzer::function_exit() {
  if (!fn_stack_.empty()) fn_stack_.pop_back();
}

void DependenceAnalyzer::env_created(std::uint64_t env_id) {
  if (global_env_id_ == 0) global_env_id_ = env_id;  // first env == global
  if (chars_.any_open()) env_stamps_.put(env_id, chars_.current_id());
}

void DependenceAnalyzer::object_created(std::uint64_t obj_id) {
  if (chars_.any_open()) obj_stamps_.put(obj_id, chars_.current_id());
}

inline bool DependenceAnalyzer::in_focus() const {
  if (!chars_.any_open()) return false;
  if (options_.focus_loop_id == 0) return true;
  return chars_.is_open(options_.focus_loop_id);
}

inline StampId DependenceAnalyzer::base_stamp(
    std::uint64_t obj_id, const interp::BaseProvenance& base) const {
  using Kind = interp::BaseProvenance::Kind;
  if (base.kind == Kind::Binding || base.kind == Kind::This) {
    return env_stamps_.get(base.env_id);
  }
  return obj_stamps_.get(obj_id);
}

// Every open loop passed through loop_enter's summary_slot, so the two
// per-event level loops below index summaries_ directly.

inline void DependenceAnalyzer::bump_levels(
    const CharDelta& delta, std::int64_t LoopDependenceSummary::*counter) {
  // Every level at or below the divergence carries the dependence.
  const Stamp& stack = chars_.current();
  for (std::size_t k = delta.div_level; k < stack.size(); ++k) {
    ++(summaries_[std::size_t(stack[k].loop_id)].*counter);
  }
}

inline void DependenceAnalyzer::bump_private_writes() {
  for (const LoopFrame& frame : chars_.current()) {
    ++summaries_[std::size_t(frame.loop_id)].private_writes;
  }
}

void DependenceAnalyzer::record(AccessKind kind, DepClass dep, js::Atom name,
                                int line, const CharDelta& delta,
                                bool global_binding) {
  static constexpr std::int64_t LoopDependenceSummary::*kSharedCounter[] = {
      &LoopDependenceSummary::shared_var_writes,   // AccessKind::VarWrite
      &LoopDependenceSummary::shared_prop_writes,  // AccessKind::PropWrite
      &LoopDependenceSummary::flow_deps,           // AccessKind::PropRead
  };
  bump_levels(delta, kSharedCounter[std::size_t(kind)]);

  detail::WarnKey key;
  key.kind_and_flags =
      std::uint32_t(kind) | (delta.instance_at_div ? 0x100u : 0u);
  key.line = line;
  key.atom_id = name.id();
  key.path_id = chars_.current_path_id();
  key.div_level = delta.div_level;
  const std::uint32_t index = warning_index_.find(key);
  if (index != detail::WarnIndex::kAbsent) {
    ++warnings_[index].count;
    return;
  }
  if (warnings_.size() >= options_.max_warnings) {
    truncated_ = true;
    return;
  }
  DependenceWarning warning;
  warning.kind = kind;
  warning.dep = dep;
  warning.name = name.str();
  warning.line = line;
  warning.characterization = chars_.materialize(delta);
  warning.count = 1;
  warning.global_binding = global_binding;
  warning_index_.insert(key, std::uint32_t(warnings_.size()));
  warnings_.push_back(std::move(warning));
}
inline void DependenceAnalyzer::var_write(std::uint64_t env_id, js::Atom name,
                                          int line) {
  if (!in_focus()) return;
  const StampId stamp = env_stamps_.get(env_id);
  const CharDelta delta = chars_.characterize_creation_id(stamp);
  if (delta.problematic()) {
    record(AccessKind::VarWrite, DepClass::Output, name, line, delta,
           env_id == global_env_id_);
  } else {
    bump_private_writes();
  }
}

inline void DependenceAnalyzer::var_read(std::uint64_t env_id) {
  if (!in_focus()) return;
  const StampId stamp = env_stamps_.get(env_id);
  const CharDelta delta = chars_.characterize_creation_id(stamp);
  // Reads of data from outside the loop are not warnings, but Table 3's
  // "accesses to shared memory" assessment counts them.
  if (delta.problematic()) bump_levels(delta, &LoopDependenceSummary::shared_reads);
}

inline void DependenceAnalyzer::prop_write(std::uint64_t obj_id, js::Atom key,
                                           int line,
                                           const interp::BaseProvenance& base) {
  // The snapshot is kept outside the focus too: a read inside the focused
  // loop must see writes that happened before/outside it to judge flow.
  const StampId previous = writes_.put(obj_id, key.id(), chars_.current_id());
  if (!in_focus()) return;
  // Cross-iteration write/write conflicts on the same field (true output
  // dependence, independent of how the base was reached). Attributed only
  // to the loop levels actually carrying the write-write dependence (a
  // pixel rewritten every *frame* conflicts at the frame loop, not at the
  // row loop inside one frame).
  if (previous != kNoStampId) {
    const CharDelta conflict = chars_.characterize_flow_id(previous);
    if (conflict.problematic()) {
      bump_levels(conflict, &LoopDependenceSummary::conflicting_write_sites);
    }
  }

  const CharDelta delta =
      chars_.characterize_creation_id(base_stamp(obj_id, base));
  if (delta.problematic()) {
    record(AccessKind::PropWrite, DepClass::Output, key, line, delta, false);
  } else {
    bump_private_writes();
  }
}

inline void DependenceAnalyzer::prop_read(std::uint64_t obj_id, js::Atom key,
                                          int line,
                                          const interp::BaseProvenance& base) {
  if (!in_focus()) return;
  if (const StampId* write = writes_.find(obj_id, key.id())) {
    const CharDelta flow = chars_.characterize_flow_id(*write);
    if (flow.problematic()) {
      record(AccessKind::PropRead, DepClass::Flow, key, line, flow, false);
      return;
    }
  }
  // Not a flow dependence; count shared-memory reads for the summary.
  const CharDelta delta =
      chars_.characterize_creation_id(base_stamp(obj_id, base));
  if (delta.problematic()) bump_levels(delta, &LoopDependenceSummary::shared_reads);
}

void DependenceAnalyzer::analyze_batch(const interp::MemoryEvent* events,
                                       std::size_t count) {
  // Each event's body is inlined here.
  for (std::size_t i = 0; i < count; ++i) {
    const interp::MemoryEvent& e = events[i];
    switch (e.kind) {
      case interp::MemoryEvent::Kind::VarWrite:
        var_write(e.id, e.name, e.line);
        break;
      case interp::MemoryEvent::Kind::VarRead:
        var_read(e.id);
        break;
      case interp::MemoryEvent::Kind::PropWrite:
        prop_write(e.id, e.name, e.line, e.base);
        break;
      case interp::MemoryEvent::Kind::PropRead:
        prop_read(e.id, e.name, e.line, e.base);
        break;
    }
  }
}

void DependenceAnalyzer::analyze(const detail::StreamSegment& segment) {
  using Kind = detail::ControlRecord::Kind;
  const interp::MemoryEvent* events = segment.events.data();
  std::size_t done = 0;
  for (const detail::ControlRecord& control : segment.controls) {
    analyze_batch(events + done, control.at - done);
    done = control.at;
    switch (control.kind) {
      case Kind::LoopEnter: loop_enter(int(control.id)); break;
      case Kind::LoopIteration: chars_.on_iteration(int(control.id)); break;
      case Kind::LoopExit: chars_.on_exit(int(control.id)); break;
      case Kind::FunctionEnter: function_enter(int(control.id)); break;
      case Kind::FunctionExit: function_exit(); break;
      case Kind::EnvCreated: env_created(control.id); break;
      case Kind::ObjectCreated: object_created(control.id); break;
    }
  }
  analyze_batch(events + done, segment.events.size() - done);
}

void DependenceAnalyzer::analyze_segment(detail::StreamSegment& segment,
                                         bool by_consumer) noexcept {
  const GrowthLog log(&segment.charges);
  segment.by_consumer = by_consumer;
  try {
    analyze(segment);
  } catch (...) {
    segment.error = std::current_exception();
  }
}

// --- the segment pipeline ---------------------------------------------------

DependenceAnalyzer::~DependenceAnalyzer() { stop_consumer(); }

void DependenceAnalyzer::append(detail::ControlRecord::Kind kind, std::uint64_t id) {
  detail::StreamSegment& segment = filling();
  segment.controls.push_back({id, std::uint32_t(segment.events.size()), kind});
  if (segment.records() >= kSegmentRecords) hand_off();
}

void DependenceAnalyzer::on_loop_enter(const interp::LoopEvent& e) {
  append(detail::ControlRecord::Kind::LoopEnter, std::uint64_t(e.loop_id));
}

void DependenceAnalyzer::on_loop_iteration(const interp::LoopEvent& e) {
  append(detail::ControlRecord::Kind::LoopIteration, std::uint64_t(e.loop_id));
}

void DependenceAnalyzer::on_loop_exit(const interp::LoopEvent& e) {
  append(detail::ControlRecord::Kind::LoopExit, std::uint64_t(e.loop_id));
}

void DependenceAnalyzer::on_function_enter(int fn_id) {
  append(detail::ControlRecord::Kind::FunctionEnter, std::uint64_t(fn_id));
}

void DependenceAnalyzer::on_function_exit(int) {
  append(detail::ControlRecord::Kind::FunctionExit, 0);
}

void DependenceAnalyzer::on_env_created(std::uint64_t env_id) {
  append(detail::ControlRecord::Kind::EnvCreated, env_id);
}

void DependenceAnalyzer::on_object_created(std::uint64_t obj_id, int) {
  append(detail::ControlRecord::Kind::ObjectCreated, obj_id);
}

void DependenceAnalyzer::on_memory_batch(const interp::MemoryEvent* events,
                                         std::size_t count) {
  JSCERES_OBS_COUNT("ceres.mode3_events", count);
  while (count > 0) {
    detail::StreamSegment& segment = filling();
    const std::size_t n = std::min(count, kSegmentRecords - segment.records());
    segment.events.insert(segment.events.end(), events, events + n);
    events += n;
    count -= n;
    if (segment.records() >= kSegmentRecords) hand_off();
  }
}

void DependenceAnalyzer::on_run_window_end(bool completed) {
  if (completed) {
    drain();
  } else {
    stop_consumer();
  }
}

void DependenceAnalyzer::hand_off() {
  {
    const std::lock_guard lock(mutex_);
    queued_ = ++filling_;
  }
  if (consumer_.joinable()) {
    changed_.notify_all();
  } else {
    try {
      consumer_ = std::thread([this] { consume(); });
    } catch (const std::system_error&) {
      // No thread to be had: this thread analyzes every segment itself.
    }
  }
  // The next segment goes into the buffer of segment filling_ - kSegmentBuffers.
  if (filling_ >= kSegmentBuffers) reclaim(filling_ - kSegmentBuffers + 1);
}

void DependenceAnalyzer::await_analyzed(std::uint64_t end) {
  std::unique_lock lock(mutex_);
  while (analyzed_ < end) {
    if (claimed_ == analyzed_) {
      // Help first: the next segment is unclaimed, so analyze it here
      // rather than wait for the consumer to wake up.
      const std::uint64_t s = claimed_++;
      lock.unlock();
      analyze_segment(segments_[s % kSegmentBuffers], false);
      lock.lock();
      analyzed_ = s + 1;
      changed_.notify_all();
    } else {
      changed_.wait(lock);
    }
  }
}

void DependenceAnalyzer::reclaim(std::uint64_t end) {
  await_analyzed(end);
  while (reclaimed_ < end) {
    detail::StreamSegment& segment = segments_[reclaimed_++ % kSegmentBuffers];
    ++(segment.by_consumer ? segment_counts_.consumer : segment_counts_.producer);
    // Free the buffer whatever the replay does: a trip ends the window, and
    // the segment's remaining charges go with it.
    struct Clear {
      detail::StreamSegment& segment;
      ~Clear() {
        segment.events.clear();
        segment.controls.clear();
        segment.charges.clear();
        segment.error = nullptr;
      }
    } clear{segment};
    if (segment.error != nullptr) std::rethrow_exception(segment.error);
    for (const std::size_t bytes : segment.charges) {
      AllocationLedger::charge_current(bytes);
    }
  }
}

void DependenceAnalyzer::drain() {
  if (filling().records() > 0) {
    // The partial segment joins the queue; no consumer is woken for it, so
    // unless one is already awake, await_analyzed analyzes it here.
    const std::lock_guard lock(mutex_);
    queued_ = ++filling_;
  }
  if (reclaimed_ < filling_) reclaim(filling_);
}

void DependenceAnalyzer::stop_consumer() noexcept {
  if (!consumer_.joinable()) return;
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  changed_.notify_all();
  consumer_.join();
  stop_ = false;
}

void DependenceAnalyzer::consume() {
  std::unique_lock lock(mutex_);
  while (true) {
    changed_.wait(lock, [this] {
      return stop_ || (claimed_ < queued_ && claimed_ == analyzed_);
    });
    if (stop_) return;
    const std::uint64_t s = claimed_++;
    lock.unlock();
    analyze_segment(segments_[s % kSegmentBuffers], true);
    lock.lock();
    analyzed_ = s + 1;
    changed_.notify_all();
  }
}

std::map<int, LoopDependenceSummary> DependenceAnalyzer::summaries() const {
  drain();
  std::map<int, LoopDependenceSummary> out;
  for (const LoopDependenceSummary& summary : summaries_) {
    if (summary.loop_id != 0) out[summary.loop_id] = summary;
  }
  for (const int loop_id : chars_.recursive_loops()) {
    out[loop_id].loop_id = loop_id;
    out[loop_id].recursion_detected = true;
  }
  return out;
}

std::string DependenceAnalyzer::report() const {
  drain();
  std::ostringstream out;
  out << "dependence analysis: " << warnings_.size() << " distinct warning site(s)";
  if (options_.focus_loop_id != 0) {
    const js::LoopSite& site = program_->loop(options_.focus_loop_id);
    out << " (focused on " << js::loop_kind_name(site.kind) << " at line "
        << site.line << ")";
  }
  out << "\n";
  for (const auto& warning : warnings_) {
    out << "  " << warning.render(program_) << "\n";
  }
  if (!chars_.recursive_loops().empty()) {
    out << "  note: recursion detected through "
        << chars_.recursive_loops().size()
        << " loop(s); results for those nests were discarded\n";
  }
  if (truncated_) out << "  note: warning list truncated\n";
  return out.str();
}

}  // namespace jsceres::ceres
