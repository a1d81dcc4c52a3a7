#include "js/atom.h"

#include <mutex>
#include <shared_mutex>
#include <utility>

namespace jsceres::js {

namespace {

/// Accounting estimate for one entry: the record, the text's heap block
/// (shared_ptr control + characters), and the map node.
std::size_t entry_cost(const detail::AtomData& data) {
  return sizeof(detail::AtomData) + 64 + data.text->size();
}

/// Fill a fresh record for `text` and index it in `map`.
void init_entry(detail::AtomData& data, std::string_view text, std::uint32_t id,
                std::unordered_map<std::string_view, detail::AtomData*>& map) {
  data.text = std::make_shared<const std::string>(text);
  data.hash = std::hash<std::string_view>{}(text);
  data.id = id;
  map.emplace(std::string_view(*data.text), &data);
}

/// The process-wide prefix. Keys are string_views into the stored text
/// (stable: AtomData lives in a deque and is never erased). Interning into
/// it is rare after warm-up, so a shared_mutex keeps the concurrent readers
/// — every AtomSpace miss probes here — cheap.
struct PrefixTable {
  std::shared_mutex mutex;
  std::unordered_map<std::string_view, detail::AtomData*> map;
  std::deque<detail::AtomData> storage;
  std::size_t bytes = 0;

  detail::AtomData* find_locked(std::string_view text) const {
    const auto it = map.find(text);
    return it == map.end() ? nullptr : it->second;
  }
};

PrefixTable& prefix() {
  static PrefixTable* t = new PrefixTable();  // leaked: atoms outlive everything
  return *t;
}

}  // namespace

Atom Atom::intern(std::string_view text) {
  PrefixTable& t = prefix();
  {
    const std::shared_lock lock(t.mutex);
    if (detail::AtomData* found = t.find_locked(text)) return Atom(found);
  }
  const std::unique_lock lock(t.mutex);
  if (detail::AtomData* found = t.find_locked(text)) return Atom(found);
  detail::AtomData& data = t.storage.emplace_back();
  init_entry(data, text, std::uint32_t(t.storage.size() - 1), t.map);
  t.bytes += entry_cost(data);
  return Atom(&data);
}

bool Atom::try_find(std::string_view text, Atom* out) {
  PrefixTable& t = prefix();
  const std::shared_lock lock(t.mutex);
  detail::AtomData* found = t.find_locked(text);
  if (found == nullptr) return false;
  *out = Atom(found);
  return true;
}

const detail::AtomData* Atom::empty_data() {
  static const detail::AtomData* data = intern("").data_;
  return data;
}

const detail::AtomData* AtomSpace::find_locked(std::string_view text) const {
  const auto it = map_.find(text);
  if (it != map_.end()) return it->second;
  Atom found;
  return Atom::try_find(text, &found) ? found.data_ : nullptr;
}

Atom AtomSpace::intern(std::string_view text) {
  const std::lock_guard lock(mutex_);
  if (const detail::AtomData* found = find_locked(text)) return Atom(found);
  detail::AtomData& data = storage_.emplace_back();
  init_entry(data, text, Atom::kProgramIdBit | std::uint32_t(storage_.size() - 1),
             map_);
  return Atom(&data);
}

bool AtomSpace::try_find(std::string_view text, Atom* out) const {
  const std::lock_guard lock(mutex_);
  const detail::AtomData* found = find_locked(text);
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
