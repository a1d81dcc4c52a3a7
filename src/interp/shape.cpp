#include "interp/shape.h"

#include <cassert>

#include "support/limits.h"

namespace jsceres::interp {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

/// Accounting for the governor, summed over every program's tree: node +
/// map-link cost per shape, plus installed flat tables. Maintained by
/// ctor/dtor (so a tree's recursive unique_ptr teardown self-accounts) and
/// by the flat-table install CAS winner.
constexpr std::size_t kShapeNodeCost = sizeof(Shape) + 64;
std::atomic<std::size_t> g_shape_bytes{0};
std::atomic<std::size_t> g_shape_count{0};

}  // namespace

Shape::Shape() {
  g_shape_bytes.fetch_add(kShapeNodeCost, std::memory_order_relaxed);
  g_shape_count.fetch_add(1, std::memory_order_relaxed);
}

Shape::Shape(const Shape* parent, js::Atom key)
    : key_(key),
      slot_(parent->depth_),
      depth_(parent->depth_ + 1),
      parent_(parent) {
  g_shape_bytes.fetch_add(kShapeNodeCost, std::memory_order_relaxed);
  g_shape_count.fetch_add(1, std::memory_order_relaxed);
}

Shape::~Shape() {
  if (!frozen_) {
    g_shape_bytes.fetch_sub(accounted_bytes(), std::memory_order_relaxed);
    g_shape_count.fetch_sub(1, std::memory_order_relaxed);
  }
  delete flat_.load(std::memory_order_acquire);
}

std::size_t Shape::accounted_bytes() const {
  std::size_t bytes = kShapeNodeCost;
  if (const FlatTable* flat = flat_.load(std::memory_order_acquire)) {
    bytes += sizeof(FlatTable) + flat->table.capacity() * sizeof(FlatTable::Entry) +
             flat->keys.capacity() * sizeof(js::Atom);
  }
  return bytes;
}

void Shape::FlatTable::insert(js::Atom key, std::int32_t slot) {
  std::size_t i = key.hash() & mask;
  while (table[i].slot >= 0) {
    if (table[i].key == key) return;  // duplicate key: first slot wins
    i = (i + 1) & mask;
  }
  table[i] = Entry{key, slot};
}

void Shape::FlatTable::rehash(std::size_t capacity) {
  table.assign(capacity, Entry{});
  mask = std::uint32_t(capacity - 1);
  for (std::size_t slot = 0; slot < keys.size(); ++slot) {
    insert(keys[slot], std::int32_t(slot));
  }
}

std::unique_ptr<Shape> Shape::make_root() {
  return std::unique_ptr<Shape>(new Shape());
}

void Shape::freeze(std::span<const Shape* const> held) {
  // Flattened before the walk below takes each shape's bytes, table
  // included, out of the live counts.
  for (const Shape* shape : held) shape->ensure_flat();
  freeze_tree();
}

void Shape::freeze_tree() {
  g_shape_bytes.fetch_sub(accounted_bytes(), std::memory_order_relaxed);
  g_shape_count.fetch_sub(1, std::memory_order_relaxed);
  frozen_ = true;
  for (auto& [key, child] : transitions_) child->freeze_tree();
}

const Shape* Shape::root() const {
  const Shape* shape = this;
  while (shape->parent_ != nullptr) shape = shape->parent_;
  return shape;
}

const Shape* Shape::transition(js::Atom key) const {
  assert(!frozen_);
  const std::lock_guard lock(transitions_mutex_);
  auto& slot = transitions_[key];
  if (!slot) {
    // Charge the run that forces a fresh transition (the 10k-distinct-
    // property amplifier) through the thread-local ledger. A trip leaves
    // the empty map slot in place — retried transitions simply fill it
    // later.
    AllocationLedger::charge_current(sizeof(Shape) + 64);
    slot.reset(new Shape(this, key));
  }
  return slot.get();
}

std::size_t Shape::live_bytes() {
  return g_shape_bytes.load(std::memory_order_relaxed);
}

std::size_t Shape::live_count() {
  return g_shape_count.load(std::memory_order_relaxed);
}

std::int32_t Shape::slot_of_slow(js::Atom key) const {
  const auto lookups =
      std::uint16_t(lookups_.fetch_add(1, std::memory_order_relaxed) + 1);
  const std::uint16_t threshold = depth_ > kDeepChain ? 2 : kHotFlattenLookups;
  if (lookups >= threshold) return ensure_flat()->find(key);
  // Ancestor walk: pointer-identity compares link by link; a flattened
  // ancestor answers for the whole prefix below it in one probe.
  for (const Shape* s = this; s->parent_ != nullptr; s = s->parent_) {
    if (s->key_ == key) return std::int32_t(s->slot_);
    const FlatTable* flat = s->parent_->flat_.load(std::memory_order_acquire);
    if (flat != nullptr) return flat->find(key);
  }
  return -1;
}

const Shape::FlatTable* Shape::ensure_flat() const {
  const FlatTable* existing = flat_.load(std::memory_order_acquire);
  if (existing != nullptr) return existing;

  // Charged before any table is built; on a trip the shape stays
  // un-flattened (a consistent state — lookups keep walking the chain and
  // retry the flatten later).
  const std::size_t table_bytes =
      sizeof(FlatTable) +
      next_pow2(std::size_t(depth_) * 2) * sizeof(FlatTable::Entry) +
      std::size_t(depth_) * sizeof(js::Atom);
  AllocationLedger::charge_current(table_bytes);
  auto fresh = std::make_unique<FlatTable>();
  // Collect the suffix links down to the nearest flattened ancestor; its
  // table is copied wholesale (vector memcpy) instead of re-walking and
  // re-hashing the entire chain.
  std::vector<const Shape*> suffix;
  const FlatTable* base = nullptr;
  for (const Shape* s = this; s->parent_ != nullptr; s = s->parent_) {
    suffix.push_back(s);
    base = s->parent_->flat_.load(std::memory_order_acquire);
    if (base != nullptr) break;
  }
  if (base != nullptr) *fresh = *base;
  fresh->keys.reserve(depth_);
  const std::size_t capacity = next_pow2(std::size_t(depth_) * 2);
  if (fresh->table.size() < capacity) {
    fresh->rehash(capacity);
  }
  for (auto it = suffix.rbegin(); it != suffix.rend(); ++it) {
    fresh->keys.push_back((*it)->key_);
    fresh->insert((*it)->key_, std::int32_t((*it)->slot_));
  }

  const FlatTable* expected = nullptr;
  if (flat_.compare_exchange_strong(expected, fresh.get(),
                                    std::memory_order_release,
                                    std::memory_order_acquire)) {
    g_shape_bytes.fetch_add(accounted_bytes() - kShapeNodeCost,
                            std::memory_order_relaxed);
    return fresh.release();
  }
  // Another thread won the install; ours is discarded — refund the charge.
  if (AllocationLedger* ledger = AllocationLedger::current()) {
    ledger->release(table_bytes);
  }
  return expected;
}

}  // namespace jsceres::interp
