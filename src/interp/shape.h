#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
/// so cached `const Shape*` values never dangle. Keys are
/// atoms of the same program (prefix atoms or its AtomSpace's), and the
/// tree's space is reachable from every shape (`atoms()`), which is how an
/// object's string-keyed helpers intern through their own program. There is
/// no process-wide tree: nothing shared between programs can hold a shape.
class Shape {
 public:
  /// Chains longer than this flatten on their second lookup (the first
  /// lookup already paid the walk; flattening on the first would make
  /// one-shot chain builds quadratic in copies again).
  static constexpr std::uint32_t kDeepChain = 8;
  /// Shallow shapes flatten after this many chain-walk lookups.
  static constexpr std::uint16_t kHotFlattenLookups = 8;

  /// A new tree's empty shape, keyed by atoms of `atoms`' program.
  static std::unique_ptr<const Shape> make_root(js::AtomSpace& atoms);

  /// The empty shape this one descends from (walks the parent chain).
  [[nodiscard]] const Shape* root() const;

  /// The atom space of the program that owns this tree.
  [[nodiscard]] js::AtomSpace& atoms() const { return *atoms_; }

  /// The shape an object reaches by adding `key` as its next property.
  const Shape* transition(js::Atom key) const;

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

  /// Live shape-node count (root included; diagnostics/tests).
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

  explicit Shape(js::AtomSpace& atoms);
  Shape(const Shape* parent, js::Atom key);

  std::int32_t slot_of_slow(js::Atom key) const;
  const FlatTable* ensure_flat() const;

  js::Atom key_;             // the property this link appends (root: unused)
  std::uint32_t slot_ = 0;   // key_'s slot index (== parent->depth_)
  std::uint32_t depth_ = 0;  // == slot_count()
  const Shape* parent_ = nullptr;
  js::AtomSpace* atoms_;
  mutable std::atomic<const FlatTable*> flat_{nullptr};
  mutable std::atomic<std::uint16_t> lookups_{0};
  mutable std::mutex transitions_mutex_;
  mutable std::unordered_map<js::Atom, std::unique_ptr<Shape>> transitions_;
};

}  // namespace jsceres::interp
