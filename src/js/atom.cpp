#include "js/atom.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "js/token.h"

namespace jsceres::js {

namespace {

std::size_t hash_of(std::string_view text) { return std::hash<std::string_view>{}(text); }

/// Accounting estimate for one entry: the record, the text's heap block
/// (shared_ptr control + characters), and its index slot.
std::size_t entry_cost(const detail::AtomData& data) {
  return sizeof(detail::AtomData) + 64 + data.text->size();
}

/// Fill a fresh record for `text` and index it.
void init_entry(detail::AtomData& data, std::string_view text, std::size_t hash,
                std::uint32_t id, detail::AtomIndex& index) {
  data.text = std::make_shared<const std::string>(text);
  data.hash = hash;
  data.id = id;
  index.insert(&data);
}

/// The process-wide prefix (records live in a deque and are never erased).
/// Interning into it is rare after warm-up, so a shared_mutex keeps the
/// concurrent readers — every AtomSpace miss probes here — cheap.
struct PrefixTable {
  /// The keywords go in first. The table is built on the first probe of any
  /// space, before a space can create an atom of its own, so no space ever
  /// holds a local atom for a keyword and the lexer can hand out the prefix
  /// atoms directly.
  PrefixTable() {
    for (const std::string_view keyword : kKeywordSpellings) {
      insert_locked(keyword, hash_of(keyword));
    }
  }

  std::shared_mutex mutex;
  detail::AtomIndex index;
  std::deque<detail::AtomData> storage;
  std::size_t bytes = 0;

  const detail::AtomData* insert_locked(std::string_view text, std::size_t hash) {
    detail::AtomData& data = storage.emplace_back();
    init_entry(data, text, hash, std::uint32_t(storage.size() - 1), index);
    bytes += entry_cost(data);
    return &data;
  }
};

PrefixTable& prefix() {
  static PrefixTable* t = new PrefixTable();  // leaked: atoms outlive everything
  return *t;
}

const detail::AtomData* find_in_prefix(std::string_view text, std::size_t hash) {
  PrefixTable& t = prefix();
  const std::shared_lock lock(t.mutex);
  return t.index.find(text, hash);
}

}  // namespace

namespace detail {

const AtomData* AtomIndex::find(std::string_view text, std::size_t hash) const {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const AtomData* data = slots_[i];
    if (data == nullptr) return nullptr;
    if (data->hash == hash && *data->text == text) return data;
  }
}

void AtomIndex::insert(const AtomData* data) {
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<const AtomData*> old(std::max<std::size_t>(32, 2 * slots_.size()));
    old.swap(slots_);
    size_ = 0;
    for (const AtomData* moved : old) {
      if (moved != nullptr) insert(moved);
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = data->hash & mask;
  while (slots_[i] != nullptr) i = (i + 1) & mask;
  slots_[i] = data;
  ++size_;
}

}  // namespace detail

Atom Atom::intern(std::string_view text) {
  const std::size_t hash = hash_of(text);
  if (const detail::AtomData* found = find_in_prefix(text, hash)) return Atom(found);
  PrefixTable& t = prefix();
  const std::unique_lock lock(t.mutex);
  if (const detail::AtomData* found = t.index.find(text, hash)) return Atom(found);
  return Atom(t.insert_locked(text, hash));
}

bool Atom::try_find(std::string_view text, Atom* out) {
  const detail::AtomData* found = find_in_prefix(text, hash_of(text));
  if (found == nullptr) return false;
  *out = Atom(found);
  return true;
}

const detail::AtomData* Atom::empty_data() {
  static const detail::AtomData* data = intern("").data_;
  return data;
}

const detail::AtomData* AtomSpace::find_locked(std::string_view text,
                                               std::size_t hash) const {
  if (const detail::AtomData* found = index_.find(text, hash)) return found;
  return find_in_prefix(text, hash);
}

Atom AtomSpace::intern(std::string_view text) {
  const std::size_t hash = hash_of(text);
  const std::lock_guard lock(mutex_);
  if (const detail::AtomData* found = find_locked(text, hash)) return Atom(found);
  detail::AtomData& data = storage_.emplace_back();
  init_entry(data, text, hash, Atom::kProgramIdBit | std::uint32_t(storage_.size() - 1),
             index_);
  return Atom(&data);
}

bool AtomSpace::try_find(std::string_view text, Atom* out) const {
  const std::size_t hash = hash_of(text);
  const std::lock_guard lock(mutex_);
  const detail::AtomData* found = find_locked(text, hash);
  if (found == nullptr) return false;
  *out = Atom(found);
  return true;
}

std::size_t AtomSpace::size() const {
  const std::lock_guard lock(mutex_);
  return storage_.size();
}

void AtomSpace::for_each(const std::function<void(Atom)>& fn) const {
  const std::lock_guard lock(mutex_);
  for (const detail::AtomData& data : storage_) fn(Atom(&data));
}

Atom AtomCache::intern(std::string_view text) {
  const std::size_t hash = hash_of(text);
  if (const detail::AtomData* found = index_.find(text, hash)) return Atom(found);
  const Atom atom = space_.intern(text);
  index_.insert(atom.data_);
  return atom;
}

std::size_t atom_table_size() {
  PrefixTable& t = prefix();
  const std::shared_lock lock(t.mutex);
  return t.storage.size();
}

std::size_t atom_table_bytes() {
  PrefixTable& t = prefix();
  const std::shared_lock lock(t.mutex);
  return t.bytes;
}

}  // namespace jsceres::js
