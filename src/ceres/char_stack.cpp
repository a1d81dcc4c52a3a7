#include "ceres/char_stack.h"

#include <sys/mman.h>

#include <atomic>
#include <mutex>
#include <new>

#include "support/obs.h"

namespace jsceres::ceres {

namespace {

thread_local std::vector<std::size_t>* g_growth_log = nullptr;

/// Process-wide segment pool: arenas check segments out and return them on
/// reset/destruction, so a resident service running thousands of mode-3
/// sessions reuses a bounded working set instead of churning the
/// allocator. `g_segments_live` counts checked-out segments — the soak
/// harness asserts it returns to zero once every analyzer is gone.
constexpr std::size_t kMaxPooledSegments = 64;

struct SegmentPool {
  std::mutex mutex;
  std::vector<StampArena::Segment*> free;
};

SegmentPool& pool() {
  static SegmentPool* p = new SegmentPool();  // leaked: process lifetime
  return *p;
}

std::atomic<std::size_t> g_segments_live{0};
std::atomic<std::size_t> g_segments_pooled{0};

}  // namespace

void charge_growth(std::size_t bytes) {
  if (g_growth_log != nullptr) {
    g_growth_log->push_back(bytes);
  } else {
    AllocationLedger::charge_current(bytes);
  }
}

GrowthLog::GrowthLog(std::vector<std::size_t>* log) noexcept
    : previous_(g_growth_log) {
  g_growth_log = log;
}

GrowthLog::~GrowthLog() { g_growth_log = previous_; }

void* allocate_table(std::size_t bytes) {
  if (bytes < kMappedTableBytes) return ::operator new(bytes);
  void* block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  return block;
}

void deallocate_table(void* block, std::size_t bytes) noexcept {
  if (bytes < kMappedTableBytes) {
    ::operator delete(block);
  } else {
    munmap(block, bytes);
  }
}

void StampArena::grow() {
  StampArena::Segment* segment = nullptr;
  {
    SegmentPool& p = pool();
    const std::lock_guard lock(p.mutex);
    if (!p.free.empty()) {
      segment = p.free.back();
      p.free.pop_back();
      g_segments_pooled.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (segment == nullptr) segment = new Segment();
  segments_.push_back(segment);
  g_segments_live.fetch_add(1, std::memory_order_relaxed);
  JSCERES_OBS_COUNT("ceres.stamp_checkouts", 1);
}

void StampArena::reset() {
  if (!segments_.empty()) {
    SegmentPool& p = pool();
    const std::lock_guard lock(p.mutex);
    for (Segment* segment : segments_) {
      if (p.free.size() < kMaxPooledSegments) {
        p.free.push_back(segment);
        g_segments_pooled.fetch_add(1, std::memory_order_relaxed);
      } else {
        delete segment;
      }
    }
    g_segments_live.fetch_sub(segments_.size(), std::memory_order_relaxed);
  }
  segments_.clear();
  size_ = 0;
}

std::size_t stamp_segments_live() {
  return g_segments_live.load(std::memory_order_relaxed);
}

std::size_t stamp_segments_pooled() {
  return g_segments_pooled.load(std::memory_order_relaxed);
}

std::size_t stamp_bytes_live() {
  return g_segments_live.load(std::memory_order_relaxed) *
         sizeof(StampArena::Segment);
}

std::size_t drain_stamp_segment_pool() {
  SegmentPool& p = pool();
  const std::lock_guard lock(p.mutex);
  const std::size_t freed = p.free.size() * sizeof(StampArena::Segment);
  for (StampArena::Segment* segment : p.free) delete segment;
  g_segments_pooled.fetch_sub(p.free.size(), std::memory_order_relaxed);
  p.free.clear();
  return freed;
}

Characterization characterize_creation(const Stamp& stamp, const Stamp& current) {
  Characterization out;
  out.levels.reserve(current.size());
  bool shared = false;
  for (std::size_t k = 0; k < current.size(); ++k) {
    LevelFlags flags;
    flags.loop_id = current[k].loop_id;
    if (shared) {
      flags.instance_dep = true;
      flags.iteration_dep = true;
    } else if (k < stamp.size()) {
      const bool same_instance = stamp[k].loop_id == current[k].loop_id &&
                                 stamp[k].instance == current[k].instance;
      if (!same_instance) {
        // Created under a different instance of this loop (or a different
        // loop entirely): shared across instances and iterations.
        flags.instance_dep = true;
        flags.iteration_dep = true;
        shared = true;
      } else if (stamp[k].iteration != current[k].iteration) {
        // Created in an earlier iteration of this very loop instance.
        flags.iteration_dep = true;
        shared = true;
      }
      // else: created within this iteration — private so far.
    } else {
      // The loop was not yet open at creation: the datum pre-dates the loop,
      // so all iterations of this instance share it. Each *instance* still
      // gets the version current in its containing iteration (which matched
      // exactly above), hence instance stays "ok".
      flags.iteration_dep = true;
      shared = true;
    }
    out.levels.push_back(flags);
  }
  return out;
}

Characterization characterize_flow(const Stamp& write, const Stamp& read) {
  Characterization out;
  out.levels.reserve(read.size());
  bool shared = false;
  bool past = false;
  for (std::size_t k = 0; k < read.size(); ++k) {
    LevelFlags flags;
    flags.loop_id = read[k].loop_id;
    if (shared) {
      flags.instance_dep = true;
      flags.iteration_dep = true;
    } else if (!past && k < write.size()) {
      const bool same_instance = write[k].loop_id == read[k].loop_id &&
                                 write[k].instance == read[k].instance;
      if (!same_instance) {
        // The write happened under a different (hence already-closed) loop
        // instance at this depth: it strictly precedes the current loop, so
        // it is plain input, not a loop-carried dependence.
        past = true;
      } else if (write[k].iteration != read[k].iteration) {
        flags.iteration_dep = true;
        shared = true;
      }
    }
    // Levels beyond the write stack (or past writes): the value was written
    // before this loop began — loop-invariant input, not a flow dependence.
    out.levels.push_back(flags);
  }
  return out;
}

void CharStack::intern_suffix() {
  while (interned_depth_ < stack_.size()) {
    const std::size_t k = interned_depth_;
    StampNode node;
    node.parent = k == 0 ? kEmptyStampId : frame_ids_[k - 1];
    node.depth = std::uint32_t(k + 1);
    node.loop_id = stack_[k].loop_id;
    node.instance = stack_[k].instance;
    node.iteration = stack_[k].iteration;
    // Sandbox accounting: the stamp arena is append-only and grows one node
    // per referenced state; charge before the append so a ledger trip leaves
    // the tree and frame_ids_ untouched.
    charge_growth(sizeof(StampNode));
    nodes_.push_back(node);
    frame_ids_[k] = StampId(nodes_.size() - 1);
    ++interned_depth_;
  }
}

// States never repeat, so a stamp shares a frame with the live stack only
// where the same (loop, instance) is open at the same level, and that loop
// instance pins every frame outside it: the shared frames are a prefix of
// both. The walks climb from the stamp to the deepest ancestor whose
// (loop, instance) is open at its level (usually one or two steps) instead
// of materializing the whole path outermost-first.

CharDelta CharStack::creation_walk(StampId stamp) const {
  CharDelta delta;
  const std::size_t depth = stack_.size();
  const std::uint32_t stamp_depth = nodes_[stamp].depth;
  for (StampId id = stamp; id != kEmptyStampId; id = nodes_[id].parent) {
    const StampNode& node = nodes_[id];
    const std::size_t k = node.depth - 1;
    if (k >= depth || node.loop_id != stack_[k].loop_id ||
        node.instance != stack_[k].instance) {
      continue;
    }
    if (node.iteration != stack_[k].iteration) {
      delta.div_level = std::uint32_t(k);  // same instance, earlier iteration
    } else if (k + 1 < depth) {
      // Identical through level k; level k+1 is past the stamp (the datum
      // pre-dates that loop) or a different instance of it.
      delta.div_level = std::uint32_t(k + 1);
      delta.instance_at_div = k + 1 < stamp_depth;
    }
    return delta;
  }
  if (depth > 0) {
    delta.div_level = 0;
    delta.instance_at_div = stamp_depth > 0;
  }
  return delta;
}

CharDelta CharStack::flow_walk(StampId write) const {
  CharDelta delta;
  const std::size_t depth = stack_.size();
  for (StampId id = write; id != kEmptyStampId; id = nodes_[id].parent) {
    const StampNode& node = nodes_[id];
    const std::size_t k = node.depth - 1;
    if (k >= depth || node.loop_id != stack_[k].loop_id ||
        node.instance != stack_[k].instance) {
      continue;
    }
    // Written in an earlier iteration of an open instance: flow. Otherwise
    // the write came from the same iteration or from a closed instance
    // nested inside it (plain input).
    if (node.iteration != stack_[k].iteration) delta.div_level = std::uint32_t(k);
    return delta;
  }
  return delta;  // no open instance shared: written before these loops
}

std::string render_characterization(const Characterization& chr,
                                    const js::Program& program) {
  std::string out;
  for (std::size_t k = 0; k < chr.levels.size(); ++k) {
    const LevelFlags& level = chr.levels[k];
    if (k > 0) out += " -> ";
    const js::LoopSite& site = program->loop(level.loop_id);
    out += std::string(js::loop_kind_name(site.kind)) + "(line " +
           std::to_string(site.line) + ") ";
    out += level.instance_dep ? "dependence" : "ok";
    out += " ";
    out += level.iteration_dep ? "dependence" : "ok";
  }
  return out;
}

}  // namespace jsceres::ceres
