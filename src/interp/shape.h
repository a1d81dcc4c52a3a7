#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "js/atom.h"

namespace jsceres::interp {

/// A hidden class: the property layout shared by every object created with
/// the same insertion sequence of (atom) keys. Shapes form a transition tree
/// rooted at the empty shape; adding property `k` to an object with shape S
/// moves it to the unique child S.transition(k). Two objects with the same
/// shape therefore store the same properties at the same slot indices, which
/// is what lets a property-access site cache (shape, slot) once and then
/// validate a hit with a single pointer compare.
///
/// Storage is *incremental*: a transition stores only its own (key, slot)
/// pair plus a parent pointer, so creating a child shape is O(1) — the old
/// representation copied the parent's full slot table into every child,
/// an O(props²) cost in time and memory across a chain. `slot_of` walks the
/// ancestor chain; once a shape is hot (kHotFlattenLookups misses resolved
/// through it) or deep (> kDeepChain links, flattened on its second lookup
/// so one-shot chain builds stay copy-free), a flattened table is
/// materialized lazily: a dense open-addressed vector keyed by the atoms'
/// precomputed hashes (no std::unordered_map probe on the hot path) plus the
/// insertion-ordered key list for enumeration.
///
/// Shapes are immutable after construction except for the transition map
/// (guarded by a per-shape mutex) and the lazily installed flat table
/// (atomic pointer, installed at most once via CAS; losers discard their
/// candidate). Interpreters on different threads may grow the tree and
/// flatten shapes concurrently; steady-state reads never take a lock.
///
/// Lifetime: a tree belongs to one js::Program, whose shared body owns its
/// root (make_root) and frees the whole tree when the program's last handle
/// goes; every interpreter holds one. Within that life the tree only grows,
/// so cached `const Shape*` values never dangle. Keys are atoms of the same
/// program (prefix atoms or its AtomSpace's); a shape holds no pointer to
/// the space, so string-keyed callers intern through the program they have.
///
/// One tree is process-wide: the builtin realm's (interp/realm.h), built
/// once and frozen (freeze()). It is keyed only by prefix atoms, every
/// shape an object holds in it is flattened when it freezes, so a lookup
/// never touches `lookups_` (the shapes in between see no lookup and keep
/// no table), and a frozen shape never gains a transition. It therefore
/// holds no program state: an object on a frozen shape that adds or
/// deletes a property leaves the tree for dictionary mode (JSObject). The
/// frozen tree is never freed and is not counted by live_count() or
/// live_bytes(), which measure program trees.
class Shape {
 public:
  /// Chains longer than this flatten on their second lookup (the first
  /// lookup already paid the walk; flattening on the first would make
  /// one-shot chain builds quadratic in copies again).
  static constexpr std::uint32_t kDeepChain = 8;
  /// Shallow shapes flatten after this many chain-walk lookups.
  static constexpr std::uint16_t kHotFlattenLookups = 8;

  /// A new tree's empty shape.
  static std::unique_ptr<Shape> make_root();

  /// The empty shape this one descends from (walks the parent chain).
  [[nodiscard]] const Shape* root() const;

  /// The shape an object reaches by adding `key` as its next property.
  /// Never called on a frozen shape.
  const Shape* transition(js::Atom key) const;

  /// Flatten `held`, the shapes of this tree that objects hold, and freeze
  /// the tree: no shape in it gains a transition afterwards, and the tree
  /// leaves the live counts. Called on a root, once, before any other
  /// thread can see the tree.
  void freeze(std::span<const Shape* const> held);
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// Slot index of `key`, or -1 when this shape has no such property.
  [[nodiscard]] std::int32_t slot_of(js::Atom key) const {
    const FlatTable* flat = flat_.load(std::memory_order_acquire);
    if (flat != nullptr) return flat->find(key);
    return slot_of_slow(key);
  }

  /// Property keys in insertion order. Materializes the flat table (callers
  /// are enumeration-shaped: for-in, Object.keys, dictionary conversion).
  [[nodiscard]] const std::vector<js::Atom>& keys() const {
    return ensure_flat()->keys;
  }
  [[nodiscard]] std::uint32_t slot_count() const { return depth_; }

  /// Test introspection: whether the flat table has been materialized.
  [[nodiscard]] bool flattened_for_test() const {
    return flat_.load(std::memory_order_acquire) != nullptr;
  }

  /// Bytes held by live Shape nodes + installed flat tables, summed over
  /// every program's tree (the memory governor's shape-tree input).
  static std::size_t live_bytes();

  /// Live shape-node count of every program's tree (roots included;
  /// diagnostics/tests).
  static std::size_t live_count();

  ~Shape();

 private:
  /// Materialized slot table: `keys` in insertion (slot) order for
  /// enumeration, `table` an open-addressed power-of-two probe array over
  /// the atoms' precomputed hashes for O(1) key → slot.
  struct FlatTable {
    struct Entry {
      js::Atom key;
      std::int32_t slot = -1;  // -1: empty probe slot
    };

    std::vector<js::Atom> keys;
    std::vector<Entry> table;
    std::uint32_t mask = 0;

    [[nodiscard]] std::int32_t find(js::Atom key) const {
      std::size_t i = key.hash() & mask;
      while (table[i].slot >= 0) {
        if (table[i].key == key) return table[i].slot;
        i = (i + 1) & mask;
      }
      return -1;
    }
    void insert(js::Atom key, std::int32_t slot);
    void rehash(std::size_t capacity);
  };

  Shape();
  Shape(const Shape* parent, js::Atom key);

  std::int32_t slot_of_slow(js::Atom key) const;
  const FlatTable* ensure_flat() const;
  void freeze_tree();

  js::Atom key_;             // the property this link appends (root: unused)
  std::uint32_t slot_ = 0;   // key_'s slot index (== parent->depth_)
  std::uint32_t depth_ = 0;  // == slot_count()
  const Shape* parent_ = nullptr;
  bool frozen_ = false;
  mutable std::atomic<const FlatTable*> flat_{nullptr};
  mutable std::atomic<std::uint16_t> lookups_{0};
  mutable std::mutex transitions_mutex_;
  mutable std::unordered_map<js::Atom, std::unique_ptr<Shape>> transitions_;

  /// Accounting of one node and its flat table (see live_bytes()).
  [[nodiscard]] std::size_t accounted_bytes() const;
};

}  // namespace jsceres::interp
