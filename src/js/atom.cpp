#include "js/atom.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "js/token.h"

namespace jsceres::js {

namespace {

std::size_t hash_of(std::string_view text) { return std::hash<std::string_view>{}(text); }

/// Accounting estimate for one entry: the record (text inline up to the
/// string's small-buffer size), the text's heap block beyond that, and its
/// index slots (the index is at most half full).
std::size_t entry_cost(const detail::AtomData& data) {
  const std::size_t inline_capacity = std::string().capacity();
  const std::size_t heap_text =
      data.text.capacity() > inline_capacity ? data.text.capacity() + 1 : 0;
  return sizeof(detail::AtomData) + heap_text + 2 * sizeof(void*);
}

/// Fill a fresh record for `text` and index it.
void init_entry(detail::AtomData& data, std::string_view text, std::size_t hash,
                std::uint32_t id, detail::AtomIndex& index) {
  data.text.assign(text);
  data.hash = hash;
  data.id = id;
  index.insert(&data);
}

/// Every name the engine spells itself: the interpreter's own keys, the
/// builtin realm's keys and globals (interp/builtins.cpp), and the keys and
/// globals of the page and event-loop bindings (dom/). The builtin realm's
/// build rejects a key missing here; a missing page name would become a
/// local atom of each program that opens a page.
constexpr std::string_view kEngineSpellings[] = {
    // interpreter
    "length", "prototype", "constructor", "name", "message",
    // globals
    "undefined", "NaN", "Infinity", "Math", "Array", "String", "Object",
    "console", "JSON", "parseInt", "parseFloat", "isNaN", "isFinite",
    "Number", "Boolean", "Date", "performance",
    // Math
    "PI", "E", "LN2", "LN10", "SQRT2", "abs", "floor", "ceil", "sqrt", "sin",
    "cos", "tan", "asin", "acos", "atan", "exp", "log", "round", "atan2",
    "pow", "min", "max", "random",
    // Array, String, Object, Function
    "push", "pop", "shift", "indexOf", "join", "slice", "concat", "reverse",
    "fill", "splice", "sort", "forEach", "map", "filter", "reduce", "every",
    "some", "isArray", "charAt", "charCodeAt", "lastIndexOf", "substring",
    "split", "toLowerCase", "toUpperCase", "trim", "replace", "toFixed",
    "fromCharCode", "keys", "create", "call", "apply",
    // console, JSON, Date, performance
    "warn", "error", "stringify", "now",
    // page: document, elements, canvas contexts, window, storage
    "document", "getElementById", "createElement", "body", "tagName", "id",
    "appendChild", "removeChild", "setAttribute", "getAttribute",
    "getContext", "width", "height", "canvas", "fillRect", "clearRect",
    "beginPath", "moveTo", "lineTo", "arc", "stroke", "getImageData",
    "putImageData", "data", "fillStyle", "strokeStyle", "window",
    "innerWidth", "innerHeight", "devicePixelRatio", "setTimeout",
    "clearTimeout", "requestAnimationFrame", "addEventListener",
    "loadResource", "localStorage", "setItem", "getItem",
    // event loop: the event object
    "type", "x", "y", "key", "timeStamp",
};

/// The process-wide prefix (records live in a deque and are never erased).
/// Interning into it is rare after warm-up, so a shared_mutex keeps the
/// concurrent readers — every AtomSpace miss probes here — cheap.
struct PrefixTable {
  /// The keywords and the engine's names go in first. The table is built on
  /// the first probe of any space, before a space can create an atom of its
  /// own, so no space ever holds a local atom for either: the lexer hands
  /// out keyword atoms directly, and a program that spells `push` or `Math`
  /// shares the builtin realm's key whenever it was parsed.
  PrefixTable() {
    for (const std::string_view keyword : kKeywordSpellings) {
      insert_locked(keyword, hash_of(keyword));
    }
    for (const std::string_view name : kEngineSpellings) insert_locked(name, hash_of(name));
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
    if (data->hash == hash && data->text == text) return data;
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

Atom Atom::engine_name(std::string_view text) {
  // The prefix's constructor interns the keywords and then the engine
  // spellings, so theirs are its lowest ids.
  constexpr std::size_t kBuiltIn = std::size(kKeywordSpellings) + std::size(kEngineSpellings);
  Atom atom;
  if (!try_find(text, &atom) || atom.id() >= kBuiltIn) {
    throw std::logic_error("engine name '" + std::string(text) +
                           "' is not in the engine spellings (js/atom.cpp)");
  }
  return atom;
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
