#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "js/ast.h"
#include "support/limits.h"

namespace jsceres::ceres {

/// Ledger charge for growth of an analysis table (the stamp arena, the
/// dependence analyzer's stamp tables and warning index). While a GrowthLog
/// is installed on this thread the amount is appended to it, for the
/// interpreter's thread to replay later; otherwise it charges the thread's
/// ledger, as AllocationLedger::charge_current does.
void charge_growth(std::size_t bytes);

/// RAII installer of the log charge_growth appends to on this thread;
/// nests (restores the previous log).
class GrowthLog {
 public:
  explicit GrowthLog(std::vector<std::size_t>* log) noexcept;
  ~GrowthLog();
  GrowthLog(const GrowthLog&) = delete;
  GrowthLog& operator=(const GrowthLog&) = delete;

 private:
  std::vector<std::size_t>* previous_;
};

/// Storage of the dependence analyzer's tables that grow with the analyzed
/// program (stamp tables, warning index and list, stream segments). Blocks
/// of kMappedTableBytes and more are mapped from the OS and unmapped when
/// freed. The analysis runs on whichever thread takes a segment, and a
/// freed heap block stays with the malloc arena of the thread that
/// allocated it; on the heap, the tables' pages stayed resident in the
/// arenas of several short-lived threads at once (`study_mode3`
/// `rss_peak_mb` +25%, against +8-12% mapped). Smaller blocks stay on the
/// heap: a session below one segment would pay a page fault per page of a
/// freshly mapped segment buffer.
inline constexpr std::size_t kMappedTableBytes = 128 << 10;
void* allocate_table(std::size_t bytes);
void deallocate_table(void* block, std::size_t bytes) noexcept;

template <class T>
struct TableAllocator {
  using value_type = T;
  TableAllocator() = default;
  template <class U>
  TableAllocator(const TableAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)
  T* allocate(std::size_t n) { return static_cast<T*>(allocate_table(n * sizeof(T))); }
  void deallocate(T* block, std::size_t n) noexcept {
    deallocate_table(block, n * sizeof(T));
  }
  friend bool operator==(const TableAllocator&, const TableAllocator&) { return true; }
};

template <class T>
using TableVector = std::vector<T, TableAllocator<T>>;

/// One open loop on the characterization stack (paper §3.3): the syntactic
/// loop, which dynamic instance of it this is (a global per-loop counter,
/// incremented every time the loop is entered), and the current iteration
/// within that instance.
struct LoopFrame {
  int loop_id = 0;
  std::int64_t instance = 0;
  std::int64_t iteration = 0;
};

/// A snapshot of the characterization stack, stamped onto environments and
/// objects at creation time and onto (object, property) pairs at write time.
/// This is the *materialized* form used by the reference algebra and tests;
/// the mode-3 hot path stores interned StampIds instead (see below).
using Stamp = std::vector<LoopFrame>;

/// Interned handle to one characterization-stack state. Stamping a datum is
/// a single 32-bit store; id 0 is the root ("no loops open"), so a table
/// miss and an out-of-loop creation mean the same thing.
using StampId = std::uint32_t;
inline constexpr StampId kEmptyStampId = 0;
/// Sentinel distinct from every interned id ("current state not interned
/// yet" — see CharStack::current_id_if_interned).
inline constexpr StampId kNoStampId = 0xffffffffu;

/// One node of the hash-consed stamp tree: a stack state is its parent state
/// plus one (loop, instance, iteration) frame. States are immutable and
/// never repeat — the per-loop instance counter makes every (loop_id,
/// instance) pair globally unique — so the tree is append-only and sharing
/// is maximal by construction: every stamp taken under a common prefix of
/// loop frames references the same prefix nodes.
struct StampNode {
  StampId parent = kEmptyStampId;
  std::uint32_t depth = 0;  // frames on the path; the root has depth 0
  int loop_id = 0;
  std::int64_t instance = 0;
  std::int64_t iteration = 0;
};

/// Segmented backing store for one stamp tree. Within a session the tree is
/// append-only (states never repeat), but a resident service runs thousands
/// of sessions, so the storage must actually come back: segments are
/// checked out of a process-wide pool and returned on `reset()`/destruction
/// instead of churning the allocator, and process-wide counters
/// (`stamp_segments_live`, `stamp_bytes_live`) feed the memory governor and
/// let the soak harness assert zero leaked segments.
class StampArena {
 public:
  static constexpr std::size_t kSegmentShift = 10;
  static constexpr std::size_t kSegmentNodes = 1 << kSegmentShift;  // 1024
  static constexpr std::size_t kSegmentMask = kSegmentNodes - 1;

  struct Segment {
    StampNode nodes[kSegmentNodes];
  };

  StampArena() = default;
  ~StampArena() { reset(); }
  StampArena(const StampArena&) = delete;
  StampArena& operator=(const StampArena&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] StampNode& operator[](StampId id) {
    return segments_[id >> kSegmentShift]->nodes[id & kSegmentMask];
  }
  [[nodiscard]] const StampNode& operator[](StampId id) const {
    return segments_[id >> kSegmentShift]->nodes[id & kSegmentMask];
  }

  void push_back(const StampNode& node) {
    if ((size_ & kSegmentMask) == 0) grow();
    segments_[size_ >> kSegmentShift]->nodes[size_ & kSegmentMask] = node;
    ++size_;
  }

  /// Return every segment to the process-wide pool (retire hook: called by
  /// the destructor and by CharStack::reset_for_reuse()).
  void reset();

 private:
  void grow();

  std::vector<Segment*> segments_;
  std::size_t size_ = 0;
};

/// Segments currently checked out by live arenas, process-wide.
std::size_t stamp_segments_live();
/// Segments parked in the reuse pool (allocated but idle).
std::size_t stamp_segments_pooled();
/// Bytes of checked-out stamp segments (the governor's Ceres input).
std::size_t stamp_bytes_live();
/// Free every pooled segment (service shutdown / leak accounting in tests).
/// Returns the bytes released.
std::size_t drain_stamp_segment_pool();

/// Per-loop-level dependence flags. The paper renders a triple per loop:
/// "<loop> <instance-flag> <iteration-flag>", where "ok" means each
/// instance/iteration has a private version of the datum and "dependence"
/// means they share it. "dependence ok" is not a valid combination: sharing
/// across instances implies sharing across iterations.
struct LevelFlags {
  int loop_id = 0;
  bool instance_dep = false;
  bool iteration_dep = false;

  bool operator==(const LevelFlags&) const = default;
};

/// The characterization of one access: flags for every loop open at the
/// access, outermost first.
struct Characterization {
  std::vector<LevelFlags> levels;

  [[nodiscard]] bool problematic() const {
    for (const auto& level : levels) {
      if (level.instance_dep || level.iteration_dep) return true;
    }
    return false;
  }

  /// Flags at the level of a particular loop, or nullptr when the loop is
  /// not part of this characterization.
  [[nodiscard]] const LevelFlags* at_loop(int loop_id) const {
    for (const auto& level : levels) {
      if (level.loop_id == loop_id) return &level;
    }
    return nullptr;
  }

  bool operator==(const Characterization&) const = default;
};

/// Compact characterization produced by the stamp-id hot path. Both §3.3
/// algorithms share one shape: every level above the outermost divergent
/// level is "ok ok", the divergent level itself is "ok dependence" (or
/// "dependence dependence" when the loop instance differs), and every level
/// below it is fully shared. So the whole per-level flag vector is
/// determined by (div_level, instance_at_div) — no allocation needed until
/// a warning is actually recorded.
struct CharDelta {
  static constexpr std::uint32_t kPrivate = 0xffffffffu;
  std::uint32_t div_level = kPrivate;  // index into the current stack
  bool instance_at_div = false;

  [[nodiscard]] bool problematic() const { return div_level != kPrivate; }
};

/// Characterize a *creation-stamped* datum accessed under `current`:
/// environments (type (a) variable writes) and objects (type (b) property
/// writes). A level present in both stamp and current with equal
/// instance+iteration is private ("ok ok"); equal instance but different
/// iteration means the datum pre-dates this iteration ("ok dependence");
/// levels beyond the stamp mean the datum pre-dates the loop entirely within
/// the current containing iteration ("ok dependence"); once a level is
/// shared, all deeper levels are fully shared ("dependence dependence").
Characterization characterize_creation(const Stamp& stamp, const Stamp& current);

/// Characterize a write→read pair for flow (read-after-write) detection
/// (type (c)). A level is an iteration dependence only when *both* stacks
/// contain that loop instance and the iterations differ — a value written
/// before the loop is loop-invariant input, not a flow dependence.
Characterization characterize_flow(const Stamp& write, const Stamp& read);

/// Render "while(line 24) ok ok -> for(line 6) ok dependence", resolving
/// loop kinds and lines through the program's loop table.
std::string render_characterization(const Characterization& chr,
                                    const js::Program& program);

/// Maintains the runtime characterization stack. Driven by loop
/// enter/iteration/exit events; detects loop re-entry through recursion
/// (paper §3.3: the stack would otherwise grow without bound; JS-CERES
/// raises a warning and discards results for the affected nest).
///
/// The stack doubles as the intern point of the stamp tree: the current
/// state's id is materialized lazily (a state that no stamp ever references
/// costs nothing), and the characterization algorithms run directly on
/// (StampId, live stack) pairs with O(1) fast paths for the two dominant
/// cases — the stamp IS the current state ("ok ok" private access) and the
/// stamp is a prefix of the current state (datum pre-dates the inner loop).
class CharStack {
 public:
  CharStack() { nodes_.push_back(StampNode{}); }  // nodes_[0] = root (depth 0)

  void on_enter(int loop_id) {
    const std::size_t index = counter_index(loop_id);
    if (open_counts_[index] > 0 && recursive_[index] == 0) {
      recursive_[index] = 1;
      recursive_loops_.push_back(loop_id);
    }
    ++open_counts_[index];
    stack_.push_back(LoopFrame{loop_id, instance_counters_[index]++, 0});
    frame_ids_.push_back(kNoStampId);
    path_ids_.push_back(intern_path(current_path_id_, loop_id));
    current_path_id_ = path_ids_.back();
  }

  void on_iteration(int loop_id) {
    if (!stack_.empty() && stack_.back().loop_id == loop_id) {
      ++stack_.back().iteration;
      // The top frame's state changed: its interned id (if any) is stale.
      if (interned_depth_ == stack_.size()) --interned_depth_;
    }
  }

  void on_exit(int loop_id) {
    if (!stack_.empty() && stack_.back().loop_id == loop_id) {
      --open_counts_[counter_index(loop_id)];
      stack_.pop_back();
      frame_ids_.pop_back();
      path_ids_.pop_back();
      current_path_id_ = path_ids_.empty() ? 0 : path_ids_.back();
      if (interned_depth_ > stack_.size()) interned_depth_ = stack_.size();
    }
  }

  [[nodiscard]] const Stamp& current() const { return stack_; }
  [[nodiscard]] bool any_open() const { return !stack_.empty(); }
  [[nodiscard]] bool is_open(int loop_id) const {
    return std::size_t(loop_id) < open_counts_.size() &&
           open_counts_[std::size_t(loop_id)] > 0;
  }
  /// Loops re-entered while already open, each once, in detection order.
  [[nodiscard]] const std::vector<int>& recursive_loops() const {
    return recursive_loops_;
  }
  [[nodiscard]] bool is_recursive(int loop_id) const {
    return std::size_t(loop_id) < recursive_.size() &&
           recursive_[std::size_t(loop_id)] != 0;
  }

  // -- stamp-tree interface --------------------------------------------------

  /// Intern (if needed) and return the current state's id. Amortized O(1):
  /// each enter/iteration creates at most one node, and only when a stamp is
  /// actually taken under that state.
  StampId current_id() {
    if (interned_depth_ < stack_.size()) intern_suffix();
    return stack_.empty() ? kEmptyStampId : frame_ids_.back();
  }

  /// The current state's id if it has been interned, else kNoStampId.
  /// States never repeat, so `stamp == current_id_if_interned()` is an exact
  /// "stamped under this very state" test without forcing interning.
  [[nodiscard]] StampId current_id_if_interned() const {
    if (stack_.empty()) return kEmptyStampId;
    return interned_depth_ == stack_.size() ? frame_ids_.back() : kNoStampId;
  }

  [[nodiscard]] const StampNode& node(StampId id) const { return nodes_[id]; }
  /// Stamp-tree size (diagnostics / growth tests). Grows with the number of
  /// *referenced* states, never with raw iteration count.
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Retire hook for analyzer reuse across sessions: return every arena
  /// segment to the process-wide pool and reset to the freshly-constructed
  /// state. Every outstanding StampId is invalidated — callers must drop
  /// their stamps (the dependence analyzer resets its tables alongside).
  void reset_for_reuse() {
    stack_.clear();
    frame_ids_.clear();
    path_ids_.clear();
    interned_depth_ = 0;
    current_path_id_ = 0;
    nodes_.reset();
    nodes_.push_back(StampNode{});  // nodes_[0] = root (depth 0)
    path_intern_.clear();
    instance_counters_.clear();
    open_counts_.clear();
    recursive_.clear();
    recursive_loops_.clear();
  }

  /// Dense id of the current loop-id path (instances/iterations ignored).
  /// Two accesses have equal characterization-level loop ids iff their path
  /// ids are equal — the warning-dedup key the analyzer needs.
  [[nodiscard]] std::uint32_t current_path_id() const { return current_path_id_; }

  /// Id-based §3.3 creation characterization of `stamp` against the current
  /// stack (see characterize_creation for the semantics).
  [[nodiscard]] CharDelta characterize_creation_id(StampId stamp) const {
    CharDelta delta;
    const std::size_t depth = stack_.size();
    if (stamp == current_id_if_interned()) return delta;  // "ok ok" everywhere
    const std::uint32_t stamp_depth = nodes_[stamp].depth;
    // Stamp is a strict interned prefix of the current state: the datum
    // pre-dates the loop at level stamp_depth within the current containing
    // iteration — "ok dependence" there, fully shared deeper.
    if (stamp_depth < depth && stamp_depth <= interned_depth_ &&
        (stamp_depth == 0 ? stamp == kEmptyStampId
                          : frame_ids_[stamp_depth - 1] == stamp)) {
      delta.div_level = stamp_depth;
      return delta;
    }
    return creation_walk(stamp);
  }

  /// Id-based §3.3 flow characterization of a write stamp against the
  /// current stack (see characterize_flow for the semantics).
  [[nodiscard]] CharDelta characterize_flow_id(StampId write) const {
    CharDelta delta;
    const std::size_t depth = stack_.size();
    if (write == current_id_if_interned()) return delta;  // same iteration
    const std::uint32_t write_depth = nodes_[write].depth;
    // Write under a (strict or equal-depth) interned prefix: the value was
    // written before every open loop began — loop-invariant input.
    if (write_depth <= depth && write_depth <= interned_depth_ &&
        (write_depth == 0 ? write == kEmptyStampId
                          : frame_ids_[write_depth - 1] == write)) {
      return delta;
    }
    return flow_walk(write);
  }

  /// Expand a CharDelta into the reference Characterization (for recording
  /// a warning; allocation happens only here).
  [[nodiscard]] Characterization materialize(const CharDelta& delta) const {
    Characterization out;
    out.levels.reserve(stack_.size());
    for (std::size_t k = 0; k < stack_.size(); ++k) {
      LevelFlags flags;
      flags.loop_id = stack_[k].loop_id;
      if (delta.problematic() && k >= delta.div_level) {
        flags.iteration_dep = true;
        flags.instance_dep =
            k > delta.div_level || (k == delta.div_level && delta.instance_at_div);
      }
      out.levels.push_back(flags);
    }
    return out;
  }

 private:
  [[nodiscard]] std::size_t counter_index(int loop_id) {
    const auto index = std::size_t(loop_id);
    if (index >= instance_counters_.size()) {
      instance_counters_.resize(index + 1, 0);
      open_counts_.resize(index + 1, 0);
      recursive_.resize(index + 1, 0);
    }
    return index;
  }

  std::uint32_t intern_path(std::uint32_t parent, int loop_id) {
    const std::uint64_t key =
        (std::uint64_t(parent) << 32) | std::uint64_t(std::uint32_t(loop_id));
    const auto it = path_intern_.find(key);
    if (it != path_intern_.end()) return it->second;
    const auto id = std::uint32_t(path_intern_.size() + 1);  // 0 = empty path
    path_intern_.emplace(key, id);
    return id;
  }

  /// Append a node for every open frame past interned_depth_.
  void intern_suffix();

  // Level-by-level walks behind the id fast paths above (char_stack.cpp).
  [[nodiscard]] CharDelta creation_walk(StampId stamp) const;
  [[nodiscard]] CharDelta flow_walk(StampId write) const;


  Stamp stack_;
  std::vector<StampId> frame_ids_;     // frame_ids_[k] valid for k < interned_depth_
  std::vector<std::uint32_t> path_ids_;  // loop-path id per open frame
  std::size_t interned_depth_ = 0;
  std::uint32_t current_path_id_ = 0;
  StampArena nodes_;
  std::unordered_map<std::uint64_t, std::uint32_t> path_intern_;
  std::vector<std::int64_t> instance_counters_;  // indexed by loop_id
  std::vector<std::int32_t> open_counts_;        // indexed by loop_id
  std::vector<std::uint8_t> recursive_;          // indexed by loop_id
  std::vector<int> recursive_loops_;
};

}  // namespace jsceres::ceres
