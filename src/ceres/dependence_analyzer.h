#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ceres/char_stack.h"
#include "interp/hooks.h"
#include "js/ast.h"
#include "support/limits.h"

namespace jsceres::ceres {

/// Dependence class of a reported access (paper §3.3 a/b/c).
enum class DepClass {
  Output,  // (a) shared-variable write or (b) shared-object field write
  Flow,    // (c) read of a field written in a different iteration
};

/// What kind of program point produced the warning.
enum class AccessKind { VarWrite, PropWrite, PropRead };

/// One deduplicated warning: an access site plus its characterization, with
/// an occurrence count.
struct DependenceWarning {
  AccessKind kind = AccessKind::VarWrite;
  DepClass dep = DepClass::Output;
  std::string name;  // variable name or property key
  int line = 0;      // access site (0 for native-initiated writes)
  Characterization characterization;
  std::int64_t count = 0;
  /// For VarWrite: the binding lives in the global environment (application
  /// state) rather than a function activation (a privatizable temporary —
  /// the distinction §3.3's forEach discussion draws).
  bool global_binding = false;

  /// "write to variable p (line 7): while(line 24) ok ok -> for(line 6) ok
  /// dependence" — the paper's report format.
  [[nodiscard]] std::string render(const js::Program& program) const;
};

/// Per-loop aggregate counters feeding the Table 3 classifiers.
struct LoopDependenceSummary {
  int loop_id = 0;
  std::int64_t shared_var_writes = 0;   // type (a) at this loop's level
  std::int64_t shared_prop_writes = 0;  // type (b) at this loop's level
  std::int64_t flow_deps = 0;           // type (c) at this loop's level
  std::int64_t shared_reads = 0;        // reads of data from outside the loop
  std::int64_t private_writes = 0;      // writes characterized "ok ok"
  /// Distinct (name, line) sites with cross-iteration write conflicts.
  std::int64_t conflicting_write_sites = 0;
  bool recursion_detected = false;      // results for this nest are suspect
};

namespace detail {

/// Flat open-addressing stamp table: (owner id, interned key id) -> StampId.
/// This replaces the seed's nested string-keyed unordered_maps on the mode-3
/// hot path — one linear-probe lookup over 16-byte entries, the hash mixed
/// from the owner id and the key's dense atom id (interning already paid any
/// string hashing, exactly once per distinct key), no per-entry heap nodes
/// and no string copies. It keys the last-write tables on (object or
/// environment id, atom). Every object and environment id counts up from 1,
/// builtin namespaces included, so owner == 0 marks empty slots; entries
/// are never removed.
class StampMap {
 public:
  StampMap() : entries_(kInitialCapacity), mask_(kInitialCapacity - 1) {}

  /// Insert or overwrite; returns the stamp replaced, or kNoStampId when
  /// the key is new (one probe sequence where find() then put() take two).
  StampId put(std::uint64_t owner, std::uint32_t key, StampId stamp) {
    Entry& entry = slot(owner, key);
    if (entry.owner == 0) {
      entry.owner = owner;
      entry.key = key;
      entry.stamp = stamp;
      ++size_;
      if (size_ * 10 >= entries_.size() * 7) grow();
      return kNoStampId;
    }
    const StampId previous = entry.stamp;
    entry.stamp = stamp;
    return previous;
  }

  /// Stored stamp, or nullptr when never stored ("was written at all" —
  /// the flow analysis distinguishes never-written from written-outside).
  [[nodiscard]] const StampId* find(std::uint64_t owner, std::uint32_t key) const {
    const Entry& entry = slot(owner, key);
    return entry.owner == 0 ? nullptr : &entry.stamp;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Entry {
    std::uint64_t owner = 0;
    std::uint32_t key = 0;
    StampId stamp = kEmptyStampId;
  };

  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  static std::size_t mix(std::uint64_t owner, std::uint32_t key) {
    std::uint64_t h = owner * 0x9e3779b97f4a7c15ull ^
                      (std::uint64_t(key) * 0xff51afd7ed558ccdull);
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 29;
    return std::size_t(h);
  }

  [[nodiscard]] const Entry& slot(std::uint64_t owner, std::uint32_t key) const {
    std::size_t index = mix(owner, key) & mask_;
    while (true) {
      const Entry& entry = entries_[index];
      if (entry.owner == 0 || (entry.owner == owner && entry.key == key)) {
        return entry;
      }
      index = (index + 1) & mask_;
    }
  }
  [[nodiscard]] Entry& slot(std::uint64_t owner, std::uint32_t key) {
    return const_cast<Entry&>(std::as_const(*this).slot(owner, key));
  }

  // Growth paths of all three tables are out of line (the .cpp), keeping
  // the inlined per-event bodies small.
  void grow();

  TableVector<Entry> entries_;
  std::size_t mask_;
  std::size_t size_ = 0;
};

/// Creation stamps keyed by an id that counts up from 1 per interpreter
/// (environments and objects alike): a vector indexed by id, so a lookup is
/// one bounds check and one load. Puts happen only while a loop is open, so
/// a stored stamp is never kEmptyStampId, and an unset slot means "created
/// outside every loop", the same thing a StampMap miss means.
class DenseStampTable {
 public:
  void put(std::uint64_t id, StampId stamp) {
    if (id >= stamps_.size()) grow(id);
    StampId& slot = stamps_[std::size_t(id)];
    if (slot == kEmptyStampId) ++size_;
    slot = stamp;
  }

  [[nodiscard]] StampId get(std::uint64_t id) const {
    return id < stamps_.size() ? stamps_[std::size_t(id)] : kEmptyStampId;
  }

  /// Distinct ids stamped.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kInitialCapacity = 64;

  void grow(std::uint64_t id);

  TableVector<StampId> stamps_;
  std::size_t size_ = 0;
};

/// Warning-site identity: the seed keyed dedup on (kind, line, name,
/// rendered per-level flags). With compact deltas that is exactly (kind,
/// line, atom, loop-path id, divergence level, instance flag) — a POD key,
/// no string building per problematic access.
struct WarnKey {
  std::uint32_t kind_and_flags = 0;  // kind | (instance_at_div << 8)
  int line = 0;
  std::uint32_t atom_id = 0;
  std::uint32_t path_id = 0;
  std::uint32_t div_level = 0;

  bool operator==(const WarnKey&) const = default;
};

/// Warning dedup index: WarnKey -> position in the analyzer's warning list.
/// Open addressing with StampMap's linear probe over 24-byte entries. The
/// table is allocated on the first insert, so a session that records no
/// warning pays nothing for it.
class WarnIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  /// Stored position, or kAbsent.
  [[nodiscard]] std::uint32_t find(const WarnKey& key) const {
    return entries_.empty() ? kAbsent : slot(key).index;
  }

  /// Store a key that find() reported absent. Grows, charging the ledger,
  /// before it inserts, so a trip leaves the index as it was.
  void insert(const WarnKey& key, std::uint32_t index) {
    if ((size_ + 1) * 10 > entries_.size() * 7) grow();
    Entry& entry = slot(key);
    entry.key = key;
    entry.index = index;
    ++size_;
  }

 private:
  struct Entry {
    WarnKey key;
    std::uint32_t index = kAbsent;
  };

  static constexpr std::size_t kInitialCapacity = 16;  // power of two

  static std::size_t hash(const WarnKey& k) {
    // Two multiplies over the key packed into two words; the final fold
    // brings the products' well-mixed high bits down to the masked ones.
    const std::uint64_t site =
        (std::uint64_t(std::uint32_t(k.line)) << 32) | k.atom_id;
    const std::uint64_t shape = (std::uint64_t(k.path_id) << 32) ^
                                (std::uint64_t(k.div_level) << 12) ^
                                k.kind_and_flags;
    const std::uint64_t h =
        site * 0x9e3779b97f4a7c15ull ^ shape * 0xff51afd7ed558ccdull;
    return std::size_t(h ^ (h >> 32));
  }

  [[nodiscard]] const Entry& slot(const WarnKey& key) const {
    std::size_t index = hash(key) & mask_;
    while (true) {
      const Entry& entry = entries_[index];
      if (entry.index == kAbsent || entry.key == key) return entry;
      index = (index + 1) & mask_;
    }
  }
  [[nodiscard]] Entry& slot(const WarnKey& key) {
    return const_cast<Entry&>(std::as_const(*this).slot(key));
  }

  void grow();

  TableVector<Entry> entries_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// A non-memory hook event, kept in stream order between a segment's
/// memory events. Only the one id the analysis reads is kept.
struct ControlRecord {
  enum class Kind : std::uint8_t {
    LoopEnter, LoopIteration, LoopExit, FunctionEnter, FunctionExit,
    EnvCreated, ObjectCreated,
  };
  std::uint64_t id = 0;   // loop, function, environment or object id
  std::uint32_t at = 0;   // the segment's memory events that precede it
  Kind kind = Kind::LoopEnter;
};

/// A run of the hook stream: memory events as one contiguous array, the
/// other events beside them. After its analysis it also holds the ledger
/// charges the analysis made, in order, for the interpreter's thread to
/// replay. The vectors keep their capacity from one use to the next.
struct alignas(64) StreamSegment {
  TableVector<interp::MemoryEvent> events;
  TableVector<ControlRecord> controls;
  std::vector<std::size_t> charges;
  std::exception_ptr error;  // an exception the analysis threw
  bool by_consumer = false;  // analyzed on the consumer thread

  [[nodiscard]] std::size_t records() const { return events.size() + controls.size(); }
};

}  // namespace detail

/// Instrumentation mode 3 (paper §3.3): runtime dependence analysis.
///
/// Maintains the characterization stack; stamps every environment and object
/// at creation (the engine-level equivalent of wrapping creation sites in an
/// ES Proxy); remembers a stack snapshot per written (object, property); and
/// classifies each access by diffing stamps against the current stack:
///
///   (a) writes to variables whose environment pre-dates the current loop
///       iteration  -> output dependence,
///   (b) writes to fields reached through a shared base (binding stamp for
///       `x.f`, `this.f`; object creation stamp otherwise) -> output/anti
///       dependence,
///   (c) reads of fields last written in a different iteration -> flow
///       dependence.
///
/// All snapshots are interned StampIds into the CharStack's hash-consed
/// stamp tree: stamping is a 32-bit store, characterization is an id walk
/// with an O(1) fast path for the dominant "ok ok" private access, and a
/// Characterization vector is only materialized when a warning is recorded.
///
/// Like JS-CERES, the analysis can focus on one loop to bound the (very
/// high) overhead; only accesses while the focused loop is open are
/// reported.
///
/// The hook callbacks do not analyze: they append the stream to segments of
/// kSegmentRecords records. When the first segment fills, the analyzer
/// starts a consumer thread that analyzes full segments in order while the
/// interpreter runs on. When the interpreter needs a segment's buffer back
/// and no thread has claimed it yet, it analyzes the segment itself. The
/// end of a run window (on_run_window_end) and every accessor below drain:
/// they wait for the consumer and analyze the rest on the calling thread.
/// The ledger charges of each segment's analysis are replayed on the
/// interpreter's thread when its buffer is reclaimed or at a drain, so
/// charge order, limit trips and reports are functions of the event stream
/// alone (see src/ceres/README.md, "Threading").
class DependenceAnalyzer final : public interp::ExecutionHooks {
 public:
  struct Options {
    /// Report only accesses occurring while this loop is open (0 = report
    /// accesses inside any loop).
    int focus_loop_id = 0;
    /// Cap on distinct warning sites kept (memory guard; the paper notes the
    /// tool "failed to scale to some of the case studies").
    std::size_t max_warnings = 100000;
  };

  /// Records (memory events plus other events) per segment. A full segment
  /// holds at most 160 KiB of memory events, which stay in the consumer
  /// core's L2 while it reads them, and takes the interpreter some 100-200
  /// us to fill, many times a warm consumer's wake-up. 2048 ran no faster
  /// and woke the consumer twice as often, which cost more CPU
  /// (src/ceres/README.md, "Threading").
  static constexpr std::size_t kSegmentRecords = 4096;
  /// Segment buffers: one filling while the other is analyzed. A third
  /// buffer ran no faster.
  static constexpr std::size_t kSegmentBuffers = 2;

  /// Keeps a copy of the `program` handle; report() reads its loop table.
  DependenceAnalyzer(const js::Program& program, Options options);
  explicit DependenceAnalyzer(const js::Program& program)
      : DependenceAnalyzer(program, Options()) {}
  /// Joins the consumer; events not yet analyzed are dropped.
  ~DependenceAnalyzer() override;
  DependenceAnalyzer(const DependenceAnalyzer&) = delete;
  DependenceAnalyzer& operator=(const DependenceAnalyzer&) = delete;

  // -- hook interface: each call appends to the filling segment --
  [[nodiscard]] bool wants_memory_events() const override { return true; }
  void on_loop_enter(const interp::LoopEvent& e) override;
  void on_loop_iteration(const interp::LoopEvent& e) override;
  void on_loop_exit(const interp::LoopEvent& e) override;
  void on_function_enter(int fn_id) override;
  void on_function_exit(int fn_id) override;
  void on_env_created(std::uint64_t env_id) override;
  void on_object_created(std::uint64_t obj_id, int line) override;
  /// The only way memory accesses arrive: the interpreter delivers each
  /// statement's events in one call, in program order, and they are copied
  /// into the segment as one run. Keys are interned atoms, so every table
  /// below keys on (id, atom) with precomputed hashes — no string copies.
  void on_memory_batch(const interp::MemoryEvent* events, std::size_t count) override;
  /// completed: drain, replaying the charges into the window's ledger.
  /// Otherwise join the consumer after its current segment; the rest waits
  /// for the next drain.
  void on_run_window_end(bool completed) override;

  // -- results: each drains first --
  [[nodiscard]] const TableVector<DependenceWarning>& warnings() const {
    drain();
    return warnings_;
  }
  [[nodiscard]] std::map<int, LoopDependenceSummary> summaries() const;
  [[nodiscard]] const CharStack& char_stack() const {
    drain();
    return chars_;
  }
  [[nodiscard]] bool truncated() const {
    drain();
    return truncated_;
  }

  /// Sizes of the stamp tables (diagnostics / growth tests).
  [[nodiscard]] std::size_t stamped_envs() const {
    drain();
    return env_stamps_.size();
  }
  [[nodiscard]] std::size_t stamped_objects() const {
    drain();
    return obj_stamps_.size();
  }
  [[nodiscard]] std::size_t tracked_writes() const {
    drain();
    return writes_.size();
  }

  /// Stream segments analyzed so far: by the consumer thread, and by the
  /// threads that emit events or read results (diagnostics).
  struct SegmentCounts {
    std::uint64_t consumer = 0;
    std::uint64_t producer = 0;
  };
  [[nodiscard]] SegmentCounts segment_counts() const {
    drain();
    return segment_counts_;
  }

  /// Full human-readable report (all warnings, paper format).
  [[nodiscard]] std::string report() const;

 private:
  // -- the segment pipeline (producer: the thread emitting hook events) --
  [[nodiscard]] detail::StreamSegment& filling() {
    return segments_[filling_ % kSegmentBuffers];
  }
  void append(detail::ControlRecord::Kind kind, std::uint64_t id);
  /// The filling segment is full: queue it, and take the next buffer back.
  void hand_off();
  /// Wait until segments below `end` are analyzed, analyzing on this
  /// thread any that no thread has claimed yet.
  void await_analyzed(std::uint64_t end);
  /// Replay the charges of the analyzed segments below `end` into this
  /// thread's ledger and free their buffers.
  void reclaim(std::uint64_t end);
  /// Analyze everything received; replay its charges.
  void drain();
  /// The analysis is a function of the events already received, so an
  /// accessor finishing it changes no observable state.
  void drain() const { const_cast<DependenceAnalyzer*>(this)->drain(); }
  void stop_consumer() noexcept;
  void consume();
  /// Analyze one segment on the calling thread, logging its charges.
  void analyze_segment(detail::StreamSegment& segment, bool by_consumer) noexcept;
  void analyze(const detail::StreamSegment& segment);
  void analyze_batch(const interp::MemoryEvent* events, std::size_t count);

  // The bodies of the non-memory events.
  void loop_enter(int loop_id);
  void function_enter(int fn_id);
  void function_exit();
  void env_created(std::uint64_t env_id);
  void object_created(std::uint64_t obj_id);

  // Per-event bodies of the four memory-event kinds, called only from the
  // analyze_batch loop. They are inline and defined in the .cpp ahead of
  // it, so a batched event costs no call.
  inline void var_write(std::uint64_t env_id, js::Atom name, int line);
  inline void var_read(std::uint64_t env_id);
  inline void prop_write(std::uint64_t obj_id, js::Atom key, int line,
                         const interp::BaseProvenance& base);
  inline void prop_read(std::uint64_t obj_id, js::Atom key, int line,
                        const interp::BaseProvenance& base);

  /// Stamp of the base through which a property was reached.
  [[nodiscard]] inline StampId base_stamp(std::uint64_t obj_id,
                                          const interp::BaseProvenance& base) const;
  [[nodiscard]] inline bool in_focus() const;
  void record(AccessKind kind, DepClass dep, js::Atom name, int line,
              const CharDelta& delta, bool global_binding);
  /// Bump `counter` at every open loop level from the delta's divergence
  /// level inward.
  inline void bump_levels(const CharDelta& delta,
                          std::int64_t LoopDependenceSummary::*counter);
  inline void bump_private_writes();
  /// Per-loop counters for `loop_id`, marked as touched. Loop enter and
  /// function enter only; the per-event paths index summaries_ directly.
  [[nodiscard]] LoopDependenceSummary& summary_slot(int loop_id);

  const js::Program program_;
  Options options_;
  CharStack chars_;

  // Creation stamps (interned ids), indexed by environment / object id.
  // Empty stamps (creation outside any loop) are implicit: an unset slot
  // reads kEmptyStampId.
  detail::DenseStampTable env_stamps_;
  detail::DenseStampTable obj_stamps_;
  /// Last-write snapshot per (object, property).
  detail::StampMap writes_;

  // Active JS call stack (fn ids); recursion inside an open loop makes the
  // loop's iteration work unbounded (paper §3.3's recursion guard, extended
  // to function recursion: HAAR's tree search, the raytracer's trace()).
  std::vector<int> fn_stack_;

  // Warning dedup: site key -> index into warnings_.
  detail::WarnIndex warning_index_;
  TableVector<DependenceWarning> warnings_;
  bool truncated_ = false;
  std::uint64_t global_env_id_ = 0;

  // Per-loop counters, indexed by loop id (dense; loop ids are small).
  std::vector<LoopDependenceSummary> summaries_;

  // Segments are numbered from 0 in stream order; segment s lives in
  // segments_[s % kSegmentBuffers]. The producer alone touches filling_,
  // reclaimed_ and the filling segment; a queued segment belongs to the
  // thread that claimed it until analyzed_ passes it. The pipeline state
  // starts on its own cache line, and each segment header has one, so the
  // producer's appends do not evict the lines the analysis works in.
  alignas(64) std::uint64_t filling_ = 0;  // the segment events go to
  std::uint64_t reclaimed_ = 0;  // segments below it are replayed and free
  SegmentCounts segment_counts_;
  std::array<detail::StreamSegment, kSegmentBuffers> segments_;
  alignas(64) std::mutex mutex_;
  std::condition_variable changed_;
  // Guarded by mutex_: segments below queued_ are full, below claimed_ have
  // been taken by an analyzing thread, below analyzed_ are analyzed. At most
  // one segment is being analyzed (claimed_ <= analyzed_ + 1).
  std::uint64_t queued_ = 0;
  std::uint64_t claimed_ = 0;
  std::uint64_t analyzed_ = 0;
  bool stop_ = false;
  std::thread consumer_;
};

}  // namespace jsceres::ceres
